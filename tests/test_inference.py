import math

import numpy as np
import pytest

from persint.errors import (
    DegenerateStatisticError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
    StageError,
)
from persint.field import GridSpec
from persint.inference import (
    _fisher_yates,
    bias_scaling_study,
    field_diagram_source,
    ks_distance_to_normal,
    loglog_slope,
    mise_study,
    normality_check,
    permutation_test,
    power_study,
    rank_values,
    spearman,
    synthetic_diagram_source,
    two_sample_statistic,
)
from persint.intensity import (
    DEFAULT_WEIGHTS,
    IntensityGrid,
    average_intensity,
    default_intensity_spec,
    pooled_pairs,
    smooth_diagram,
)
from persint.analyze import l1_distance
from persint.persistence import PersistenceDiagram, PersistencePair
from persint.seeding import (
    box_muller,
    child_seed,
    child_seeds,
    make_rng,
    pick_index,
    pick_indices,
    poisson,
)

SPEC = GridSpec(0, 1, 0, 1, 8, 8)


def _const(c, spec=SPEC):
    return IntensityGrid(spec=spec, values=np.full((spec.nx, spec.ny), float(c)), tau=0.1)


def _random_grids(seed, count, spec=SPEC, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        IntensityGrid(spec=spec, values=scale * rng.uniform(size=(spec.nx, spec.ny)), tau=0.1)
        for _ in range(count)
    ]


def test_statistic_identical_groups_zero():
    grids = _random_grids(0, 3)
    assert two_sample_statistic(grids, grids) == 0.0


def test_statistic_constant_groups():
    area = SPEC.cell_area * SPEC.nx * SPEC.ny
    stat = two_sample_statistic([_const(0.5), _const(0.5)], [_const(2.0)])
    assert stat == pytest.approx(1.5 * area, rel=1e-12)


def _problems(count, seed, sizes=(2, 7)):
    """Random two-sample problems on 16x16 grids whose magnitudes span four
    decades, so that sums in different orders round differently."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(0, 1, 0, 1, 16, 16)
    for _ in range(count):
        n1, n2 = rng.integers(sizes[0], sizes[1] + 1, size=2)
        values = [rng.uniform(size=(16, 16)) * 10.0 ** rng.uniform(-2, 2) for _ in range(n1 + n2)]
        grids = [IntensityGrid(spec=spec, values=v, tau=0.1) for v in values]
        yield grids[:n1], grids[n1:], rng


def _canonical(grids):
    return sorted(grids, key=lambda g: g.values.ravel().tolist())


def test_statistic_compositional_oracle():
    # The statistic averages each group in canonical (value) order.
    for g1, g2, _ in _problems(40, seed=3):
        direct = two_sample_statistic(g1, g2)
        composed = l1_distance(average_intensity(_canonical(g1)), average_intensity(_canonical(g2)))
        assert direct == composed


def test_statistic_errors():
    with pytest.raises(InvalidInputError):
        two_sample_statistic([], [_const(1.0)])
    with pytest.raises(IncompatibleGridsError):
        two_sample_statistic([_const(1.0)], [_const(1.0, spec=GridSpec(0, 1, 0, 1, 8, 9))])
    with pytest.raises(IncompatibleGridsError):
        mixed = [_const(1.0), _const(2.0, spec=GridSpec(0, 2, 0, 1, 8, 8))]
        permutation_test(mixed, [_const(1.0)], B=5, seed=1)


def test_statistic_and_test_ignore_order_within_groups():
    for g1, g2, rng in _problems(200, seed=1):
        want = permutation_test(g1, g2, B=20, seed=7)
        assert two_sample_statistic(g1, g2) == want.statistic
        relisted = [
            (g1[::-1], g2[::-1]),
            ([g1[k] for k in rng.permutation(len(g1))], [g2[k] for k in rng.permutation(len(g2))]),
        ]
        for h1, h2 in relisted:
            assert two_sample_statistic(h1, h2) == want.statistic
            assert permutation_test(h1, h2, B=20, seed=7) == want


def _nudged(grid):
    return IntensityGrid(spec=grid.spec, values=np.nextafter(grid.values, np.inf), tau=grid.tau)


def test_p_value_ignores_a_one_ulp_nudge_of_every_grid():
    # Nudging every value one step up keeps the grids' numeric order, so the
    # seeded relabelling deals the same partitions and only ulps move.
    for t, (g1, g2, _) in enumerate(_problems(200, seed=8, sizes=(5, 5))):
        nudged = [[_nudged(g) for g in grp] for grp in (g1, g2)]
        want = permutation_test(g1, g2, B=20, seed=t).p_value
        assert permutation_test(*nudged, B=20, seed=t).p_value == want, t


def _frozen_fisher_yates(rng, idx):
    for i in range(len(idx) - 1, 0, -1):
        j = pick_index(rng, i + 1)
        idx[i], idx[j] = idx[j], idx[i]


def test_redrawn_observed_partition_ties_observed():
    # Replays the protocol with the scalar shuffle: canonical pool, first
    # min(n1, n2) slots to one side. A permutation that redraws the observed
    # partition (or its mirror when n1 == n2) must equal T1 exactly, and
    # every permuted statistic is the canonical-order gap of its partition.
    redrawn = 0
    for t, (g1, g2, _) in enumerate(_problems(100, seed=2, sizes=(3, 4))):
        res = permutation_test(g1, g2, B=100, seed=t)
        pooled = _canonical(g1 + g2)
        stack = np.stack([g.values.ravel() for g in pooled])
        n_small = min(len(g1), len(g2))
        observed = [{id(g) for g in grp} for grp in (g1, g2) if len(grp) == n_small]
        rng, idx = make_rng(t), list(range(len(pooled)))
        for stat in res.null_stats:
            _frozen_fisher_yates(rng, idx)
            small, rest = sorted(idx[:n_small]), sorted(idx[n_small:])
            gap = np.abs(stack[small].mean(axis=0) - stack[rest].mean(axis=0)).sum()
            assert stat == float(gap * pooled[0].spec.cell_area)
            if {id(pooled[k]) for k in small} in observed:
                redrawn += 1
                assert stat == res.statistic
    assert redrawn >= 200


def test_cached_partitions_match_the_uncached_loop():
    # 3 vs 3 has 20 first-slot sets, so 500 permutations repeat each many
    # times; a repeat must return the statistic its partition gave first.
    for t, (g1, g2, _) in enumerate(_problems(5, seed=6, sizes=(3, 3))):
        res = permutation_test(g1, g2, B=500, seed=t)
        pooled = _canonical(g1 + g2)
        stack = np.stack([g.values.ravel() for g in pooled])
        rng, idx, want = make_rng(t), list(range(6)), []
        for _ in range(500):
            _frozen_fisher_yates(rng, idx)
            gap = np.abs(stack[sorted(idx[:3])].mean(axis=0) - stack[sorted(idx[3:])].mean(axis=0))
            want.append(float(gap.sum() * pooled[0].spec.cell_area))
        assert res.null_stats == tuple(want)
        assert len(set(want)) <= 20


def test_vectorized_draws_match_scalar_loops():
    for s in range(250):
        n = 1 + s % 45
        idx, want = list(range(n)), list(range(n))
        rng, ref = make_rng(s), make_rng(s)
        for _ in range(3):
            _fisher_yates(rng, idx)
            _frozen_fisher_yates(ref, want)
            assert idx == want
        counts = [n] * n + list(range(n, 0, -1))
        assert pick_indices(rng, counts).tolist() == [pick_index(ref, c) for c in counts]
        assert rng.random() == ref.random()


def test_permutation_identical_singletons():
    g = _const(1.0)
    res = permutation_test([g], [g], B=50, seed=4)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_permutation_p_support_and_determinism():
    res = permutation_test(_random_grids(5, 4), _random_grids(6, 4), B=37, seed=9)
    k = res.p_value * (res.permutations + 1)
    assert k == pytest.approx(round(k), abs=1e-9)
    assert 0 < res.p_value <= 1.0
    res2 = permutation_test(_random_grids(5, 4), _random_grids(6, 4), B=37, seed=9)
    assert res2 == res


def test_permutation_group_swap_invariance():
    a = _random_grids(7, 5)
    b = _random_grids(8, 3, scale=1.5)
    r1 = permutation_test(a, b, B=99, seed=21)
    r2 = permutation_test(b, a, B=99, seed=21)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


def test_permutation_null_calibration():
    # exchangeable null: rejection rate at level alpha within 2 binomial SEs
    alpha = 0.1
    trials = 200
    source = synthetic_diagram_source(mean_pairs=5.0)
    spec = GridSpec(-0.2, 1.6, -0.2, 2.2, 12, 12)
    rejections = 0
    for t in range(trials):
        seed = child_seed(123, t)
        grids = [
            smooth_diagram(source(child_seed(seed, i)), 0.1, spec=spec) for i in range(12)
        ]
        res = permutation_test(grids[:6], grids[6:], B=59, seed=child_seed(seed, 99))
        rejections += res.p_value <= alpha
    rate = rejections / trials
    se = math.sqrt(alpha * (1 - alpha) / trials)
    assert rate <= alpha + 2 * se  # valid (possibly conservative) test


def test_permutation_needs_valid_b():
    with pytest.raises(InvalidParameterError):
        permutation_test([_const(1.0)], [_const(2.0)], B=0, seed=1)


def test_power_study_smoke_and_trend():
    curve = power_study(
        q_values=(0.0, 0.6),
        n=60,
        N=5,
        h=0.15,
        tau=0.05,
        B=29,
        trials=6,
        seed=77,
        field_grid=(24, 24),
        intensity_grid=(24, 24),
    )
    assert curve.q_values == (0.0, 0.6)
    for rates in curve.rates:
        assert all(0.0 <= r <= 1.0 for r in rates)
    assert len(curve.records) == 12
    # strong contamination should reject more often than the null
    assert curve.rates[0][1] >= curve.rates[0][0]


def test_a_failed_power_trial_names_its_q_and_trial():
    with pytest.raises(StageError) as err:
        power_study((0.25, 0.5), 0, 2, 0.2, 0.05, 5, 2, 3, field_grid=(8, 8), intensity_grid=(8, 8))
    assert err.value.stage == "power-trial"
    assert err.value.params == {"q": 0.25, "trial": 0}
    assert isinstance(err.value.cause, InvalidInputError)


def test_power_study_validation():
    with pytest.raises(InvalidParameterError):
        power_study((1.5,), 10, 2, 0.1, 0.05, 5, 1, 0)
    with pytest.raises(InvalidParameterError):
        power_study((0.1,), 10, 2, 0.1, 0.05, 5, 0, 0)


def test_mise_study_single_point_slope_undefined():
    source = synthetic_diagram_source(mean_pairs=4.0)
    curve = mise_study(source, [4], tau_scale=0.2, reps=2, seed=3, n_ref=40, grid=(24, 24))
    assert curve.slope is None
    assert len(curve.mise) == 1
    assert curve.mise[0] >= 0.0


def test_mise_study_validation():
    source = synthetic_diagram_source()
    with pytest.raises(InvalidParameterError):
        mise_study(source, [8, 16], tau_scale=0.2, reps=1, seed=0, n_ref=16)
    with pytest.raises(InvalidParameterError):
        mise_study(source, [], tau_scale=0.2, reps=1, seed=0)


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param(dict(n_values=[]), "n_values must be positive", id="no_N"),
        pytest.param(dict(n_values=[8, 0]), "n_values must be positive", id="N_0"),
        pytest.param(dict(n_values=[8, 16, 8]), "n_values must be distinct", id="N_repeated"),
        pytest.param(dict(reps=0), "need reps >= 1", id="reps_0"),
        pytest.param(dict(tau_scale=0.0), "sweep taus must be finite", id="tau_scale_0"),
        pytest.param(dict(tau_scale=math.inf), "sweep taus must be finite", id="tau_scale_inf"),
        pytest.param(dict(tau_ref=0.0), "tau_ref must be finite", id="tau_ref_0"),
        pytest.param(dict(tau_ref=math.inf), "tau_ref must be finite", id="tau_ref_inf"),
        pytest.param(dict(n_ref=16), "need 1 <= N < n_ref", id="n_ref_max_N"),
    ],
)
def test_mise_study_rejects(changes, message):
    source = synthetic_diagram_source()
    args = dict(n_values=[8, 16], tau_scale=0.2, reps=1, seed=0, n_ref=40)
    with pytest.raises(InvalidParameterError, match=message):
        mise_study(source, **{**args, **changes}, grid=(16, 16))


def test_tau_sweep_is_u_shaped():
    # At a fixed N the rate rule pins tau to tau_scale; every call draws the
    # same diagrams, so the curve shape reflects the bandwidth alone.
    source = synthetic_diagram_source(mean_pairs=6.0, birth_sd=0.12, life_mean=0.2)
    mises = [
        mise_study(
            source, [8], tau * 8 ** (1 / 6), reps=4, seed=31, n_ref=400, tau_ref=0.02, grid=(48, 48)
        ).mise[0]
        for tau in (0.004, 0.05, 0.8)
    ]
    # minimum strictly inside the tau range: variance blows up on the left,
    # bias on the right
    assert mises[1] < mises[0]
    assert mises[1] < mises[2]


def test_normality_check_small():
    source = synthetic_diagram_source(mean_pairs=6.0)
    res = normality_check(source, N=20, tau=0.1, node=(0.4, 0.55), reps=120, seed=17)
    assert 0.0 <= res.ks_distance < 0.2
    assert res.sd > 0
    with pytest.raises(InvalidParameterError):
        normality_check(source, N=5, tau=0.1, node=(0.4, 0.55), reps=50, seed=17)


def test_normality_ks_shrinks_with_averaging():
    source = synthetic_diagram_source(mean_pairs=8.0, birth_center=0.5, birth_sd=0.25, life_mean=0.3)
    distances = [
        normality_check(source, N=n, tau=0.1, node=(0.5, 0.8), reps=500, seed=7).ks_distance
        for n in (1, 10, 100)
    ]
    assert distances[0] >= distances[1] >= distances[2]


def test_normality_degenerate_source():
    fixed = PersistenceDiagram.from_pairs([(0, 0.4, 0.8)])

    def source(seed):  # the same diagram for every seed, one or a batch
        return fixed if np.ndim(seed) == 0 else pooled_pairs([fixed] * len(seed))

    with pytest.raises(DegenerateStatisticError):
        normality_check(source, N=3, tau=0.1, node=(0.4, 0.8), reps=100, seed=1)


def test_bias_scaling_smoke():
    source = synthetic_diagram_source(mean_pairs=8.0, birth_sd=0.35, life_mean=0.45)
    study = bias_scaling_study(
        source, taus=(0.04, 0.08, 0.16), tau_ref=0.15, num_diagrams=150, seed=3, grid=(128, 128)
    )
    assert study.deviations[0] < study.deviations[1] < study.deviations[2]
    assert 1.5 < study.slope < 2.5


def test_bias_scaling_validation():
    source = synthetic_diagram_source()
    with pytest.raises(InvalidParameterError):
        bias_scaling_study(source, taus=(0.02, 0.04), tau_ref=0.0, num_diagrams=5, seed=0)
    with pytest.raises(InvalidParameterError):
        bias_scaling_study(source, taus=(0.02, 0.02), tau_ref=0.1, num_diagrams=5, seed=0)


def _array_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


BATCH_SOURCES = {
    "synthetic": synthetic_diagram_source(8.0, birth_center=0.5, birth_sd=0.25, life_mean=0.3),
    # About three diagrams in four have no pairs.
    "synthetic-sparse": synthetic_diagram_source(mean_pairs=0.3),
    "field": field_diagram_source(population="uniform", n=30, h=0.25, grid=(24, 24)),
}


@pytest.mark.parametrize("count", [0, 1, 9])
@pytest.mark.parametrize("kind", sorted(BATCH_SOURCES))
def test_batch_form_is_the_pooled_one_seed_form(kind, count):
    source = BATCH_SOURCES[kind]
    seeds = child_seeds(23, (4,), count)
    got = source(seeds)
    assert _array_bytes(got) == _array_bytes(pooled_pairs([source(int(s)) for s in seeds]))
    assert _array_bytes(source(seeds.tolist())) == _array_bytes(got)
    if kind == "synthetic-sparse" and count == 9:
        assert 0 in got[3].tolist()


def test_batch_form_of_a_long_synthetic_batch():
    source = BATCH_SOURCES["synthetic"]
    seeds = child_seeds(5, (1, 3, 0), 300)
    want = pooled_pairs([source(int(s)) for s in seeds])
    assert _array_bytes(source(seeds)) == _array_bytes(want)


def test_a_bad_synthetic_pair_fails_alike_in_a_batch():
    source = synthetic_diagram_source(mean_pairs=4.0, life_mean=-0.1)
    seeds = child_seeds(2, (), 3)
    with pytest.raises(InvalidInputError) as one:
        source(int(seeds[0]))
    with pytest.raises(InvalidInputError) as batch:
        source(seeds)
    assert str(batch.value) == str(one.value)
    assert "below the diagonal" in str(one.value)


def test_sources_reject_a_bad_seed():
    for source in (BATCH_SOURCES["synthetic"], BATCH_SOURCES["field"]):
        with pytest.raises(InvalidParameterError, match="got 1.5"):
            source(1.5)
        with pytest.raises(InvalidParameterError, match="got -1"):
            source([3, -1])


def test_field_diagram_source_deterministic():
    source = field_diagram_source(population="uniform", n=40, h=0.25)
    d1 = source(99)
    d2 = source(99)
    assert d1.multiset() == d2.multiset()
    assert all(p.dim == 0 for p in d1.pairs)


def test_ks_distance():
    # exact uniform spacing against its own quantiles gives a small distance
    z = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    d = ks_distance_to_normal(z)
    assert 0 < d < 0.25
    with pytest.raises(InvalidInputError):
        ks_distance_to_normal([])


def test_loglog_slope():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    assert loglog_slope(xs, xs**2) == pytest.approx(2.0, rel=1e-12)
    assert loglog_slope(xs, 3.0 / xs) == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(InvalidInputError):
        loglog_slope(xs, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(InvalidInputError, match="two distinct x"):
        loglog_slope([4.0, 4.0], [1.0, 2.0])


def test_rank_and_spearman():
    assert rank_values([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert spearman([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [5, 5, 5, 5]) == 0.0


# Frozen per-diagram versions of the studies: every diagram smoothed on its
# own by einsum's fixed-order loop and added to a running sum in order. The
# kernel's BLAS products sum in another order, so the studies must agree
# with these to within rounding: a relative 1e-12, thousands of float64 ulps,
# on squared and absolute errors whose grids agree to about 1e-15.


def _einsum_smooth(births, deaths, weights, tau, spec):
    if births.size == 0:
        return np.zeros((spec.nx, spec.ny))
    root = math.sqrt(2.0 * math.pi)
    bx = np.exp(-0.5 * ((births[:, None] - spec.xs()[None, :]) / tau) ** 2) / root
    by = np.exp(-0.5 * ((deaths[:, None] - spec.ys()[None, :]) / tau) ** 2) / root
    return np.einsum("p,pi,pj->ij", weights, bx, by, optimize=False) / (tau * tau)


def _frozen_weights(diagram):
    g = (DEFAULT_WEIGHTS.g0, DEFAULT_WEIGHTS.g1)
    return np.array([g[p.dim] * p.lifetime for p in diagram.pairs])


def _frozen_mean(diagrams, tau, spec):
    acc = np.zeros((spec.nx, spec.ny))
    for d in diagrams:
        _, b, dd = d.arrays()
        acc += _einsum_smooth(b, dd, _frozen_weights(d), tau, spec)
    acc /= len(diagrams)
    return acc


def _frozen_mise(source, n_values, tau_scale, reps, seed, n_ref, grid):
    taus = [tau_scale * v ** (-1.0 / 6.0) for v in n_values]
    ref_diagrams = [source(child_seed(seed, 0, i)) for i in range(n_ref)]
    spec = default_intensity_spec(ref_diagrams, max(taus), *grid)
    ref = _frozen_mean(ref_diagrams, 0.5 * min(taus), spec)
    out = []
    for ni, n_diag in enumerate(n_values):
        total = 0.0
        for rep in range(reps):
            diagrams = [source(child_seed(seed, 1, ni, rep, i)) for i in range(n_diag)]
            acc = _frozen_mean(diagrams, taus[ni], spec)
            total += float(((acc - ref) ** 2).sum() * spec.cell_area)
        out.append(total / reps)
    return tuple(out)


def test_mise_study_matches_per_diagram_loop():
    source = synthetic_diagram_source(8.0, birth_center=0.5, birth_sd=0.25, life_mean=0.3)
    args = dict(n_values=(3, 17, 40), tau_scale=0.12, reps=2, seed=5)
    curve = mise_study(source, **args, n_ref=90, grid=(40, 36))
    want = _frozen_mise(source, **args, n_ref=90, grid=(40, 36))
    assert curve.mise == pytest.approx(want, rel=1e-12)


def test_bias_scaling_matches_pooled_einsum():
    source = synthetic_diagram_source(mean_pairs=8.0, birth_sd=0.35, life_mean=0.45)
    taus, tau_ref, num = (0.04, 0.08, 0.16), 0.15, 60
    study = bias_scaling_study(source, taus, tau_ref, num, seed=3, grid=(96, 80))
    diagrams = [source(child_seed(3, i)) for i in range(num)]
    births = np.concatenate([d.arrays()[1] for d in diagrams])
    deaths = np.concatenate([d.arrays()[2] for d in diagrams])
    weights = np.concatenate([_frozen_weights(d) / num for d in diagrams])
    pad = 4.0 * math.hypot(max(taus), tau_ref)
    spec = GridSpec(
        births.min() - pad, births.max() + pad, deaths.min() - pad, deaths.max() + pad, 96, 80
    )
    ref = _einsum_smooth(births, deaths, weights, tau_ref, spec)
    want = []
    for tau in taus:
        vals = _einsum_smooth(births, deaths, weights, math.hypot(tau_ref, tau), spec)
        want.append(float(np.abs(vals - ref).sum() * spec.cell_area))
    assert study.deviations == pytest.approx(want, rel=1e-12)


def _frozen_synthetic_draw(seed, mean_pairs, birth_center, birth_sd, life_mean, dim=0):
    rng = make_rng(seed)
    count = poisson(rng, mean_pairs)
    pairs = []
    for _ in range(count):
        g, _unused = box_muller(rng.random(), rng.random())
        birth = birth_center + birth_sd * g
        life = -life_mean * math.log(1.0 - rng.random())
        pairs.append(PersistencePair(dim, birth, birth + life))
    pairs.sort(key=lambda p: (p.dim, p.birth, p.death))
    return PersistenceDiagram.from_pairs(pairs, direction="superlevel")


def test_synthetic_source_matches_scalar_draws():
    params = dict(mean_pairs=8.0, birth_center=0.5, birth_sd=0.25, life_mean=0.3)
    source = synthetic_diagram_source(**params)
    for s in range(250):
        seed = child_seed(17, s)
        got, want = source(seed), _frozen_synthetic_draw(seed, **params)
        assert got.pairs == want.pairs
        assert [type(v) for p in got.pairs for v in (p.birth, p.death)] == [float] * (2 * len(want))
