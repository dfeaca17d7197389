"""Two-sample testing on intensity grids and empirical rate studies.

The test statistic is the L1 distance between the two groups' average
intensities. Its null distribution comes from seeded permutations of the
pooled grids; the p-value uses the add-one convention and so never reports
zero. The studies (power sweep, bandwidth/respondent-count rates, pointwise
normality) re-run the full pipeline under controlled seeds and summarize
the outcome.

Permutation protocol: the pooled grids are put into a canonical order
(sorted by their values as numbers, first cell first) and each permutation
assigns the first min(n1, n2) slots to one group. With the statistic
symmetric in its arguments, the reported p-value is therefore invariant to
swapping the two input groups under the same seed. The order follows the
values, not their rounding: a change in the last bits of the grids
reorders the pool only where two grids are that close in every cell
before the first one in which they differ.

The observed and permuted statistics come from one kernel that sums each
group's grids in this canonical order, so the statistic is a function of
the partition alone. Floating-point sums depend on their order:
summed in input order, a relisted group could change T1, and a permutation
that redraws the observed partition could fall a rounding step below it and
not count as a tie. In canonical order both are exact, and a permutation
test computes each distinct partition's statistic once: the partitions are
deduplicated 0/1 indicator rows, and the group sums are their BLAS products
with the pool, 8 rows at a time. With the cells padded to a multiple of 8
and no one-row product (numpy sends those to gemv), a product adds the grids
in ascending canonical order, as a running sum does. Pools of more than 256
grids are summed in blocks of 256, added in order: not the running sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStatisticError,
    InvalidInputError,
    InvalidParameterError,
    StageError,
    check_positive,
)
from .field import GridSpec, box_spec, kde_grid
from .intensity import (
    _PAD_TAUS,
    _compatible,
    _values_at,
    default_intensity_spec,
    mean_intensity_values,
    pooled_pairs,
    smooth_diagram,
    smoothed_sum,
)
from .persistence import PersistenceDiagram, compute_persistence
from .seeding import (
    box_muller,
    check_seeds,
    child_seed,
    child_seeds,
    make_rng,
    reseeded,
    scaled_index,
)
from .synth import generate_population

_PARTITION_CHUNK = 8  # distinct partitions per indicator product; bounds the sums' memory
_POOL_BLOCK = 256  # pooled grids per product; deeper pools add the blocks' sums in order
_BLOCK_PERMUTATIONS = 4096  # permutations whose uniforms are drawn at once


@dataclass(frozen=True)
class TestResult:
    """Permutation two-sample test outcome."""

    statistic: float
    p_value: float
    permutations: int
    seed: int
    n1: int
    n2: int
    null_stats: tuple  # the permuted statistics, in permutation order

    def to_dict(self):
        return {
            "T1": self.statistic,
            "p": self.p_value,
            "B": self.permutations,
            "seed": self.seed,
            "n1": self.n1,
            "n2": self.n2,
        }


@dataclass(frozen=True)
class PowerCurve:
    """Rejection rates over a contamination sweep, per significance level."""

    q_values: tuple
    alphas: tuple
    rates: tuple  # rates[a][qi] for alphas[a]
    trials: int
    records: tuple = ()  # (q, trial, statistic, p) per trial


@dataclass(frozen=True)
class MiseCurve:
    """Empirical integrated squared error against a high-count reference."""

    n_values: tuple
    tau_values: tuple
    mise: tuple
    tau_rule: str
    slope: float | None


@dataclass(frozen=True)
class NormalityResult:
    """Kolmogorov-Smirnov distance of standardized replicates to N(0, 1)."""

    ks_distance: float
    reps: int
    n_diagrams: int
    node: tuple
    mean: float
    sd: float


@dataclass(frozen=True)
class BiasScaling:
    """L1 deviation of the smoothed intensity from a fine-bandwidth reference."""

    taus: tuple
    deviations: tuple
    tau_ref: float
    slope: float


def _canonical_rows(group1, group2):
    """Canonical-order grids as rows zero-padded to 8k columns, cell count, group 1 mask, area."""
    group1, group2 = list(group1), list(group2)
    if not group1 or not group2:
        raise InvalidInputError("both groups must be nonempty")
    pooled = _compatible(group1 + group2)
    # Big-endian bytes of nonnegative doubles sort as the numbers do; + 0.0
    # turns -0.0 into 0.0. The keys are freed before the stack is built.
    order = sorted(
        range(len(pooled)), key=lambda k: (pooled[k].values + 0.0).astype(">f8").tobytes()
    )
    cells = pooled[0].values.size
    stack = np.zeros((len(pooled), -(-cells // 8) * 8))
    np.stack([pooled[k].values.ravel() for k in order], out=stack[:, :cells])
    return stack, cells, np.array(order) < len(group1), pooled[0].spec.cell_area


def _gaps(stack, cells, parts, area):
    """Cell area times the L1 distance of the two group means of each 0/1 row of ``parts``,
    1 marking one group's rows of ``stack`` (see the module docstring)."""
    n = len(stack)
    # numpy sends a one-row product to gemv, which sums in another order: no chunk has one row.
    rows = np.vstack([parts, parts[-1:]]) if len(parts) % _PARTITION_CHUNK == 1 else parts
    sums = np.empty((2, _PARTITION_CHUNK, stack.shape[1]))
    gaps = np.empty(len(rows))
    for lo in range(0, len(rows), _PARTITION_CHUNK):
        ind = rows[lo : lo + _PARTITION_CHUNK].astype(np.float64)
        a, b = sums[:, : len(ind)]
        for acc, weights in ((a, ind), (b, 1.0 - ind)):
            np.matmul(weights[:, :_POOL_BLOCK], stack[:_POOL_BLOCK], out=acc)
            for r in range(_POOL_BLOCK, n, _POOL_BLOCK):
                acc += weights[:, r : r + _POOL_BLOCK] @ stack[r : r + _POOL_BLOCK]
        size = ind.sum(axis=1, keepdims=True)
        np.subtract(np.divide(a, size, out=a), np.divide(b, n - size, out=b), out=a)
        gaps[lo : lo + len(ind)] = np.abs(a, out=a)[:, :cells].sum(axis=1) * area
    return gaps[: len(parts)]


def two_sample_statistic(group1, group2):
    """L1 distance between the two groups' average intensities."""
    stack, cells, in1, area = _canonical_rows(group1, group2)
    return float(_gaps(stack, cells, in1[None], area)[0])


def permutation_test(group1, group2, B, seed):
    """Two-sample permutation test of the L1 statistic.

    Pools the grids, relabels them B times under the seeded protocol
    described in the module docstring, and reports
    p = (1 + #{permuted >= observed}) / (B + 1). The permuted statistics
    are returned on the result for diagnostics.
    """
    B = int(B)
    if B < 1:
        raise InvalidParameterError(f"need B >= 1 permutations, got {B}")
    stack, cells, in1, area = _canonical_rows(group1, group2)
    n, n1 = in1.size, int(in1.sum())
    n_small = min(n1, n - n1)
    # Row 0 is the observed partition, row 1 + b marks permutation b's first n_small slots.
    parts = np.vstack([in1, np.zeros((B, n), dtype=bool)])

    rng = make_rng(seed)
    idx = list(range(n))
    # Fisher-Yates: slot i swaps with one of slots 0..i, for i from the last slot down to 1.
    # A block of permutations reads its uniforms in one call: the stream is the same.
    slots = np.arange(n, 1, -1)
    for lo in range(1, B + 1, _BLOCK_PERMUTATIONS):
        k = min(_BLOCK_PERMUTATIONS, B + 1 - lo)
        firsts = []
        for swaps in scaled_index(rng.random(k * slots.size).reshape(k, -1), slots).tolist():
            for i, j in zip(range(n - 1, 0, -1), swaps):
                idx[i], idx[j] = idx[j], idx[i]
            firsts.append(idx[:n_small])
        parts[np.arange(lo, lo + k)[:, None], firsts] = True
    distinct, which = np.unique(parts, axis=0, return_inverse=True)
    stats = _gaps(stack, cells, distinct, area)[which.ravel()]
    observed, null_stats = float(stats[0]), stats[1:]
    return TestResult(
        statistic=observed,
        p_value=(1 + int((null_stats >= observed).sum())) / (B + 1),
        permutations=B,
        seed=int(seed),
        n1=n1,
        n2=n - n1,
        null_stats=tuple(null_stats.tolist()),
    )


# ---------------------------------------------------------------------------
# Diagram sources, used by the rate studies. A source called with one
# integer seed returns that seed's PersistenceDiagram; called with a 1-D
# array of seeds, it returns the pooled pairs (see pooled_pairs) of those
# seeds' diagrams in order, equal to pooled_pairs([source(s) for s in seeds]).
# The studies draw in batches. Child-seed paths are documented at each call site.

_POPULATION_BOX = {
    "circle": (-1.3, 1.3, -1.3, 1.3),
    "three-circles": (-0.4, 1.9, -0.4, 0.9),
    "gauss3": (-0.6, 2.1, -0.6, 1.1),
    "uniform": (-1.0, 1.0, -1.0, 1.0),
    "contaminated": (-1.0, 1.0, -1.0, 1.0),
}
# Knuth's count ends once its product falls below exp(-mean_pairs): a normal double
# up to this mean, and 0.0 from about 746.
MAX_MEAN_PAIRS = 700


def field_diagram_source(population="uniform", n=60, h=0.25, q=0.0, grid=(64, 64)):
    """Diagram process: sample a cloud, estimate its density on a fixed
    ``grid`` over the population's nominal support plus 4h, take superlevel
    persistence in dim 0."""
    box = _POPULATION_BOX.get(population)
    if box is None:
        raise InvalidParameterError(f"unknown population {population!r}")
    pad = 4.0 * h
    spec = GridSpec(box[0] - pad, box[1] + pad, box[2] - pad, box[3] + pad, *grid)

    def draw(seed):
        if np.ndim(seed) != 0:
            return pooled_pairs([draw(s) for s in check_seeds(seed).tolist()])
        cloud = generate_population(population, n, seed, q=q)
        return compute_persistence(kde_grid(cloud, h, spec), "superlevel", 0)

    return draw


def synthetic_diagram_source(mean_pairs=8.0, birth_center=0.4, birth_sd=0.1, life_mean=0.15):
    """Direct diagram process of dim-0 pairs: Poisson pair count (mean at most
    MAX_MEAN_PAIRS), Gaussian births, exponential lifetimes. Cheap enough for
    many-replicate studies."""
    if not 0 < mean_pairs <= MAX_MEAN_PAIRS:
        raise InvalidParameterError(f"need 0 < mean_pairs <= {MAX_MEAN_PAIRS}, got {mean_pairs}")
    limit = math.exp(-mean_pairs)
    size = 4 * math.ceil(mean_pairs) + 1

    def pooled(seeds):
        # All the seeds' pairs as one diagram, each seed's pairs sorted, and
        # each seed's pair count. A seed's stream is default_rng(seed)'s.
        births, deaths, counts = [], [], []
        for rng in reseeded(seeds):
            # Knuth's count (a running product of uniforms), then three uniforms per
            # pair: a Box-Muller pair (first normal only) and an exponential lifetime
            # by inversion. The block doubles when shorter than 4 * count + 1.
            u = rng.random(size).tolist()
            count, p = 0, u[0]
            while p >= limit:
                count += 1
                if len(u) < 4 * count + 1:
                    u += rng.random(len(u)).tolist()
                p *= u[count]
            points = []
            for k in range(count + 1, 4 * count + 1, 3):
                birth = birth_center + birth_sd * box_muller(u[k], u[k + 1])[0]
                life = -life_mean * math.log(1.0 - u[k + 2])
                points.append((birth, birth + life))
            points.sort()
            births += [b for b, _ in points]
            deaths += [d for _, d in points]
            counts.append(count)
        dims = np.zeros(len(births), np.int64)
        return PersistenceDiagram(dims, births, deaths, direction="superlevel"), counts

    def draw(seed):
        if np.ndim(seed) == 0:
            return pooled([seed])[0]
        diagram, counts = pooled(seed)
        return (*pooled_pairs([diagram])[:3], np.array(counts, dtype=np.int64))

    return draw


# ---------------------------------------------------------------------------
# Studies


def power_trial(q, n, N, h, tau, B, trial_seed, field_grid, intensity_nx, intensity_ny):
    """One full two-sample pipeline: clouds -> KDE -> persistence -> intensity
    -> permutation test. Group 1 is the plain uniform square, group 2 the
    contaminated mixture (the uniform square ignores q). Their boxes are equal,
    so both groups share one KDE grid."""
    sources = [field_diagram_source(p, n, h, q, field_grid) for p in ("uniform", "contaminated")]
    groups = [[s(c) for c in child_seeds(trial_seed, (g,), N).tolist()]
              for g, s in enumerate(sources)]
    ispec = default_intensity_spec(groups[0] + groups[1], tau, intensity_nx, intensity_ny)
    grids1, grids2 = ([smooth_diagram(d, tau, spec=ispec) for d in group] for group in groups)
    return permutation_test(grids1, grids2, B, child_seed(trial_seed, 2))


def power_study(
    q_values,
    n,
    N,
    h,
    tau,
    B,
    trials,
    seed,
    alphas=(0.05, 0.01),
    field_grid=(64, 64),
    intensity_grid=(64, 64),
):
    """Rejection rate of the permutation test across a contamination sweep.

    Trial seeds are pre-split as child_seed(seed, 40, q_index, trial).
    Intensity grids are shared within a trial; permutations relabel the
    computed grids.
    """
    q_values = tuple(float(q) for q in q_values)
    for q in q_values:
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"q must be in [0, 1], got {q}")
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")

    records = []
    rates = [[0.0] * len(q_values) for _ in alphas]
    for qi, q in enumerate(q_values):
        for t in range(trials):
            trial_seed = child_seed(seed, 40, qi, t)
            try:
                res = power_trial(q, n, N, h, tau, B, trial_seed, field_grid, *intensity_grid)
            except Exception as exc:  # noqa: BLE001 - annotate with sweep context
                raise StageError("power-trial", {"q": q, "trial": t}, exc) from exc
            records.append((q, t, res.statistic, res.p_value))
        for a, alpha in enumerate(alphas):
            rates[a][qi] = sum(1 for *_, p in records[-trials:] if p <= alpha) / trials
    return PowerCurve(
        q_values=q_values,
        alphas=tuple(alphas),
        rates=tuple(tuple(r) for r in rates),
        trials=trials,
        records=tuple(records),
    )


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise InvalidInputError("log-log slope needs strictly positive values")
    if len(set(xs.tolist())) < 2:
        raise InvalidInputError(f"log-log slope needs two distinct x, got {xs.tolist()}")
    lx = np.log(xs)
    ly = np.log(ys)
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def mise_study(source, n_values, tau_scale, reps, seed, n_ref=None, tau_ref=None, grid=(64, 64)):
    """Integrated squared error of the N-averaged intensity vs a reference.

    For each N in the sweep, tau follows the rule tau = tau_scale * N^(-1/6).
    The reference intensity averages ``n_ref`` diagrams (default 20x the
    largest N) at ``tau_ref`` (default half the smallest sweep tau); it
    approximates the unknown population intensity. Repetition seeds are
    pre-split, so the result is independent of evaluation order.
    """
    n_values = tuple(int(v) for v in n_values)
    if not n_values or any(v < 1 for v in n_values):
        raise InvalidParameterError(f"n_values must be positive, got {n_values}")
    if len(set(n_values)) < len(n_values):
        raise InvalidParameterError(f"n_values must be distinct, got {n_values}")
    taus = tuple(tau_scale * v ** (-1.0 / 6.0) for v in n_values)
    n_ref = 20 * max(n_values) if n_ref is None else n_ref
    tau_ref = 0.5 * min(taus) if tau_ref is None else tau_ref

    if reps < 1:
        raise InvalidParameterError(f"need reps >= 1, got {reps}")
    if not all(0 < t < math.inf for t in taus):
        raise InvalidParameterError(f"sweep taus must be finite and > 0, got {taus}")
    check_positive("tau_ref", tau_ref)
    if not max(n_values) < n_ref:
        raise InvalidParameterError(
            f"need 1 <= N < n_ref for every sweep N, got N={n_values} and n_ref={n_ref}"
        )

    # Reference seeds: child_seed(seed, 0, i); sweep: child_seed(seed, 1, N_index, rep, i).
    # The grid covers the reference pairs plus _PAD_TAUS times the largest sweep tau.
    pairs = source(child_seeds(seed, (0,), n_ref))
    spec = box_spec(pairs[0], pairs[1], _PAD_TAUS * max(taus), *grid)
    ref = mean_intensity_values(*pairs, tau_ref, spec)
    mise = []
    for ni, (n, tau) in enumerate(zip(n_values, taus)):
        ise = 0.0  # integrated squared error, summed over the repetitions
        for rep in range(reps):
            sample = source(child_seeds(seed, (1, ni, rep), n))
            err = mean_intensity_values(*sample, tau, spec) - ref
            ise += float((err**2).sum() * spec.cell_area)
        mise.append(ise / reps)
    slope = loglog_slope(n_values, mise) if len(n_values) >= 2 else None
    return MiseCurve(
        n_values=n_values,
        tau_values=taus,
        mise=tuple(mise),
        tau_rule=f"tau = {tau_scale} * N^(-1/6); tau_ref = {tau_ref}, n_ref = {n_ref}",
        slope=slope,
    )


def std_normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def ks_distance_to_normal(sample):
    """Kolmogorov-Smirnov distance of a sample to the standard normal CDF."""
    z = np.sort(np.asarray(sample, dtype=np.float64))
    n = z.size
    if n == 0:
        raise InvalidInputError("empty sample")
    cdf = np.array([std_normal_cdf(v) for v in z])
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def normality_check(source, N, tau, node, reps, seed):
    """Distribution check of the N-averaged intensity at one fixed node.

    Simulates ``reps`` independent copies of the average intensity value at
    ``node``, standardizes them by their empirical mean/sd, and reports the
    KS distance to the standard normal.
    """
    if reps < 100:
        raise InvalidParameterError(f"need reps >= 100, got {reps}")
    pt = np.asarray([node], dtype=np.float64)
    vals = np.empty(reps)
    for r in range(reps):
        # replicate seeds: child_seed(seed, r, i). The intensity is linear in the
        # pairs, so the mean of N intensities is that of their pooled pairs over N.
        vals[r] = _values_at(*source(child_seeds(seed, (r,), N))[:3], tau, pt)[0] / N
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1))
    if sd <= 1e-9 * abs(mean):
        raise DegenerateStatisticError("replicates have zero variance at the chosen node")
    ks = ks_distance_to_normal((vals - mean) / sd)
    return NormalityResult(
        ks_distance=ks, reps=reps, n_diagrams=N, node=tuple(node), mean=mean, sd=sd
    )


def bias_scaling_study(source, taus, tau_ref, num_diagrams, seed, grid=(256, 256)):
    """L1 response of the averaged intensity to extra smoothing by tau.

    A fixed batch of diagrams is pooled into one weighted point set (the
    smoother is linear over diagrams) and its tau_ref smoothing serves as
    the reference intensity. Each sweep point smooths the same points at
    bandwidth sqrt(tau_ref^2 + tau^2); by the Gaussian semigroup this
    equals the reference convolved with a bandwidth-tau kernel, so sampling
    noise cancels identically and the L1 deviation isolates the smoothing
    bias, which scales as tau^2 for tau below the reference's feature
    scale. (Comparing against a much finer tau_ref directly would instead
    be dominated by sampling noise, which grows like 1/(tau_ref sqrt(M)).)
    """
    taus = tuple(sorted(float(t) for t in taus))
    for tau in taus:
        check_positive("tau", tau)
    if len(set(taus)) != len(taus):
        raise InvalidParameterError(f"taus must be distinct, got {taus}")
    check_positive("tau_ref", tau_ref)
    births, deaths, weights, _ = source(child_seeds(seed, (), num_diagrams))
    weights /= num_diagrams
    if births.size == 0:
        raise InvalidInputError("diagram process produced no pairs")
    spec = box_spec(births, deaths, _PAD_TAUS * math.hypot(max(taus), tau_ref), *grid)

    ref = smoothed_sum(births, deaths, weights, tau_ref, spec)
    area = spec.cell_area
    deviations = []
    for tau in taus:
        vals = smoothed_sum(births, deaths, weights, math.hypot(tau_ref, tau), spec)
        deviations.append(float(np.abs(vals - ref).sum() * area))
    return BiasScaling(
        taus=taus,
        deviations=tuple(deviations),
        tau_ref=float(tau_ref),
        slope=loglog_slope(taus, deviations),
    )
