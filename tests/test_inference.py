import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persint
from persint.errors import (
    DegenerateStatisticError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
    StageError,
)
from persint.field import GridSpec
from persint.inference import (
    MAX_MEAN_PAIRS,
    _canonical_rows,
    bias_scaling_study,
    field_diagram_source,
    ks_distance_to_normal,
    loglog_slope,
    mise_study,
    normality_check,
    permutation_test,
    power_study,
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
from persint.analyze import _RESTARTS, _greedy_centers, _lloyd, kmeans, l1_distance
from persint.persistence import PersistenceDiagram, PersistencePair
from persint.seeding import (
    box_muller,
    child_seed,
    child_seeds,
    make_rng,
    scaled_index,
)
from reference_sums import rank_values, spearman

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


# Frozen scalar references of the seeded draws: one rng.random() per variate.
def _frozen_index(rng, count):
    return min(int(rng.random() * count), count - 1)


def _frozen_fisher_yates(rng, idx):
    for i in range(len(idx) - 1, 0, -1):
        j = _frozen_index(rng, i + 1)
        idx[i], idx[j] = idx[j], idx[i]


def _frozen_poisson(rng, lam):
    # Knuth's count: the factors of a running product of uniforms before it
    # falls below exp(-lam).
    limit, k, p = math.exp(-lam), 0, 1.0
    while True:
        p *= rng.random()
        if p < limit:
            return k
        k += 1


def _frozen_kmeans(x, k, seed):
    rng, best = make_rng(seed), None
    for _ in range(_RESTARTS):
        labels, centers, inertia = _lloyd(x, _greedy_centers(x, k, _frozen_index(rng, len(x))))
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


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


# Frozen reference of the permutation kernel before it summed by BLAS
# products: each group's mean adds its grids one row at a time in ascending
# canonical order, and a dict keyed by the first slots caches each partition.


def _frozen_row_mean(stack, rows):
    acc = np.zeros(stack.shape[1])
    for r in sorted(rows):
        np.add(acc, stack[r], out=acc)
    acc /= len(rows)
    return acc


def _frozen_mean_gap(stack, rows1, rows2, area):
    return float(np.abs(_frozen_row_mean(stack, rows1) - _frozen_row_mean(stack, rows2)).sum() * area)


def _frozen_permutation_test(group1, group2, B, seed):
    """(statistic, p-value, null statistics) as the row-at-a-time kernel gives them."""
    padded, cells, in1, area = _canonical_rows(group1, group2)
    stack = np.ascontiguousarray(padded[:, :cells])
    rows1, rows2 = np.flatnonzero(in1), np.flatnonzero(~in1)
    observed = _frozen_mean_gap(stack, rows1, rows2, area)
    n_small = min(rows1.size, rows2.size)
    rng, idx = make_rng(seed), list(range(len(stack)))
    slots = np.arange(len(idx), 1, -1)
    null_stats, seen = [], {}
    for _ in range(B):
        swaps = scaled_index(rng.random(slots.size), slots).tolist()
        for i, j in zip(range(len(idx) - 1, 0, -1), swaps):
            idx[i], idx[j] = idx[j], idx[i]
        key = tuple(sorted(idx[:n_small]))
        if key not in seen:
            seen[key] = _frozen_mean_gap(stack, key, idx[n_small:], area)
        null_stats.append(seen[key])
    return observed, (1 + sum(stat >= observed for stat in null_stats)) / (B + 1), tuple(null_stats)


def _pool(seed, n1, n2, nx, ny):
    """Two groups of nx x ny grids whose values span four decades."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(0, 1, 0, 1, nx, ny)
    grids = [
        IntensityGrid(spec=spec, values=rng.uniform(size=(nx, ny)) * 10.0 ** rng.uniform(-2, 2), tau=0.1)
        for _ in range(n1 + n2)
    ]
    return grids[:n1], grids[n1:]


def _outcome(res):
    return res.statistic, res.p_value, res.null_stats


# Sides whose cell count is not a multiple of 8, where BLAS tail kernels would
# sum the last cells in another order without the kernel's padding.
RAGGED_SIDES = st.tuples(st.integers(2, 13), st.integers(2, 13)).filter(lambda s: s[0] * s[1] % 8)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 128),
    st.integers(1, 128),
    RAGGED_SIDES,
    st.integers(1, 300),
)
@settings(max_examples=100, deadline=None)
def test_permutation_test_matches_the_row_at_a_time_kernel(seed, n1, n2, sides, B):
    g1, g2 = _pool(seed, n1, n2, *sides)
    want = _frozen_permutation_test(g1, g2, B, seed)
    assert _outcome(permutation_test(g1, g2, B, seed)) == want
    assert two_sample_statistic(g1, g2) == want[0]


@pytest.mark.parametrize(
    "n1, n2, sides", [(20, 20, (64, 64)), (20, 20, (63, 65)), (20, 20, (7, 9)), (128, 128, (3, 5)),
                      (255, 1, (2, 3))]
)
def test_permutation_test_matches_the_row_at_a_time_kernel_on_set_pools(n1, n2, sides):
    g1, g2 = _pool(3, n1, n2, *sides)
    assert _outcome(permutation_test(g1, g2, 200, 5)) == _frozen_permutation_test(g1, g2, 200, 5)


def test_a_one_vs_one_pool_with_one_permutation():
    g1, g2 = _pool(4, 1, 1, 5, 7)
    res = permutation_test(g1, g2, 1, 9)
    assert _outcome(res) == _frozen_permutation_test(g1, g2, 1, 9)
    assert res.null_stats[0] == res.statistic  # either draw of a 1-vs-1 pool is the observed partition
    assert res.p_value == 1.0


def test_the_statistic_of_one_grid_groups():
    for sides in [(2, 3), (5, 7), (64, 64)]:
        g1, g2 = _pool(5, 1, 1, *sides)
        stack = np.stack([g.values.ravel() for g in g1 + g2])
        want = float(np.abs(stack[0] - stack[1]).sum() * g1[0].spec.cell_area)
        assert two_sample_statistic(g1, g2) == want == two_sample_statistic(g2, g1)


def test_a_pool_deeper_than_one_block():
    # 300 grids are summed in blocks of 256: not the row-at-a-time sums, but
    # still a function of the partition alone.
    g1, g2 = _pool(6, 140, 160, 3, 5)
    res = permutation_test(g1, g2, 50, 11)
    rng = np.random.default_rng(0)
    relisted = ([g1[k] for k in rng.permutation(len(g1))], [g2[k] for k in rng.permutation(len(g2))])
    assert two_sample_statistic(*relisted) == res.statistic == two_sample_statistic(g2, g1)
    assert permutation_test(*relisted, 50, 11) == res
    assert _outcome(permutation_test(g2, g1, 50, 11))[:2] == _outcome(res)[:2]
    assert res.p_value in {(1 + k) / 51 for k in range(51)}


def test_many_permutations_draw_their_uniforms_in_blocks():
    # 3 vs 3 reads 5 uniforms per permutation, so 100,000 permutations cross
    # several blocks of uniforms, and repeat each of 20 partitions thousands of times.
    g1, g2 = _pool(7, 3, 3, 5, 5)
    res = permutation_test(g1, g2, 100_000, 13)
    assert _outcome(res) == _frozen_permutation_test(g1, g2, 100_000, 13)
    assert len(set(res.null_stats)) <= 20


_PERMUTATION_DIGEST = """
import hashlib
import numpy as np
from persint.field import GridSpec
from persint.inference import permutation_test
from persint.intensity import IntensityGrid
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n1, n2, nx, ny, B in [(20, 20, 64, 64, 200), (20, 20, 63, 65, 100), (3, 5, 7, 9, 300),
                          (150, 130, 9, 9, 40)]:
    spec = GridSpec(0, 1, 0, 1, nx, ny)
    grids = [IntensityGrid(spec=spec, values=rng.uniform(size=(nx, ny)), tau=0.1)
             for _ in range(n1 + n2)]
    res = permutation_test(grids[:n1], grids[n1:], B, 1)
    digest.update(np.array([res.statistic, res.p_value, *res.null_stats]).tobytes())
print(digest.hexdigest())
"""


def test_permutation_statistics_do_not_depend_on_the_blas_thread_count():
    def digest(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(persint.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", _PERMUTATION_DIGEST], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout

    assert digest("1") == digest("2")


def test_vectorized_draws_match_scalar_loops():
    # A Fisher-Yates pass's counts, then repeated and falling counts: one uniform each.
    for s in range(250):
        n = 1 + s % 45
        counts = list(range(n, 1, -1)) + [n] * n + list(range(n, 0, -1))
        rng, ref = make_rng(s), make_rng(s)
        got = scaled_index(rng.random(len(counts)), np.array(counts))
        assert got.tolist() == [_frozen_index(ref, c) for c in counts]
        assert rng.random() == ref.random()


UNIFORMS = st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True))
COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31 - 1, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1]),
    st.integers(1, 2**63 - 1),
)


@given(st.lists(st.tuples(UNIFORMS, COUNTS), min_size=1, max_size=20))
@settings(max_examples=300)
def test_scaled_index_matches_the_scalar_floor(draws):
    u, counts = (np.array(col) for col in zip(*draws))
    got = scaled_index(u, counts.astype(np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [min(int(v * c), c - 1) for v, c in draws]


def test_scaled_index_of_the_largest_uniform():
    # u = 1 - 2**-53 is the largest double below 1; u * c lies at least c * 2**-53
    # below c, more than half a step, so it rounds below c and indexes c - 1.
    counts = np.array([1, 2, 3, 5, 7, 2**20 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53])
    u = np.full(counts.size, 1.0 - 2.0**-53)
    assert scaled_index(u, counts).tolist() == (counts - 1).tolist()
    assert scaled_index(u, 6).tolist() == [5] * counts.size


def test_kmeans_starts_take_one_draw_per_restart():
    rng = np.random.default_rng(4)
    for seed in range(20):
        n, k = int(rng.integers(3, 40)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, 2)) + rng.integers(0, 3, size=(n, 1)) * 4.0
        got, (labels, centers, inertia) = kmeans(x, k, seed), _frozen_kmeans(x, k, seed)
        assert got.labels.tolist() == labels.tolist()
        assert got.centers.tolist() == centers.tolist()
        assert got.inertia == inertia


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
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match=f"tau must be finite and > 0, got {bad}"):
            bias_scaling_study(source, taus=(0.02, bad), tau_ref=0.1, num_diagrams=5, seed=0)
        with pytest.raises(InvalidParameterError, match=f"tau_ref must be finite and > 0, got {bad}"):
            bias_scaling_study(source, taus=(0.02, 0.04), tau_ref=bad, num_diagrams=5, seed=0)


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
    count = _frozen_poisson(rng, mean_pairs)
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


@pytest.mark.parametrize("mean_pairs", [0.3, 300.0])
def test_long_synthetic_diagrams_read_on_from_a_doubled_block(mean_pairs):
    # A diagram of c pairs reads 4c + 1 uniforms; past the first block of
    # 4 * ceil(mean_pairs) + 1, the source draws more and reads on.
    params = dict(mean_pairs=mean_pairs, birth_center=0.4, birth_sd=0.1, life_mean=0.15)
    source = synthetic_diagram_source(**params)
    seeds = child_seeds(23, (), 100)
    wants = [_frozen_synthetic_draw(s, **params) for s in seeds.tolist()]
    assert any(4 * len(w) + 1 > 4 * math.ceil(mean_pairs) + 1 for w in wants)
    for seed, want in zip(seeds.tolist(), wants):
        assert source(seed).pairs == want.pairs
    births, deaths, _, counts = source(seeds)
    assert counts.tolist() == [len(w) for w in wants]
    assert births.tolist() == [p.birth for w in wants for p in w.pairs]
    assert deaths.tolist() == [p.death for w in wants for p in w.pairs]


@pytest.mark.parametrize("mean_pairs", [0, -1.0, math.nan, MAX_MEAN_PAIRS + 0.5, 1000])
def test_synthetic_source_rejects_a_mean_outside_its_range(mean_pairs):
    # exp(-1000) is 0.0, which Knuth's count never falls below; the source
    # refuses such a mean before it draws.
    with pytest.raises(InvalidParameterError, match="need 0 < mean_pairs <= 700"):
        synthetic_diagram_source(mean_pairs=mean_pairs)
    synthetic_diagram_source(mean_pairs=MAX_MEAN_PAIRS)
