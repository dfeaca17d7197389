"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line via the conftest summary hook. Desk-scale
parameters are pinned here; the heavier sweeps share session fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest

from homology_oracle import oracle_diagram
from persint.analyze import Embedding, confusion_matrix, kmeans
from persint.config import config_from_dict
from persint.inference import (
    bias_scaling_study,
    field_diagram_source,
    mise_study,
    normality_check,
    permutation_test,
    power_study,
    synthetic_diagram_source,
)
from persint.intensity import (
    default_intensity_spec,
    smooth_diagram,
)
from persint.persistence import PersistenceDiagram, grid_persistence
from persint.pipelines import run_fig2
from persint.seeding import child_seed, make_rng
from reference_sums import integrate_against, pair_sum, spearman

WIDE_PROCESS = dict(mean_pairs=8, birth_center=0.5, birth_sd=0.25, life_mean=0.3)


def test_c01_persistence_matches_bruteforce_oracle():
    """>= 500 random grids up to 6x6, dims 0 and 1, both directions, exact."""
    rng = np.random.default_rng(20260101)
    start = time.perf_counter()
    for _ in range(500):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 7))
        if nx * ny < 2:
            ny = 2
        values = rng.permutation(nx * ny).astype(float).reshape(nx, ny) / 3.0
        for direction in ("superlevel", "sublevel"):
            got = grid_persistence(values, direction, 1)
            want_pairs, want_essential = oracle_diagram(values, direction, 1)
            assert got.multiset() == want_pairs
            assert got.essential_birth == want_essential
    assert time.perf_counter() - start < 60.0


def test_c02_intensity_mass_conservation():
    """100 random diagrams on 6-tau-padded grids: mass within 0.1% of the
    summed lifetimes."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(100):
        count = int(rng.integers(1, 25))
        births = rng.uniform(0.0, 1.0, size=count)
        lifetimes = rng.uniform(0.01, 0.6, size=count)
        tau = float(rng.uniform(0.02, 0.12))
        diag = PersistenceDiagram.from_pairs(
            (0, float(b), float(b + l)) for b, l in zip(births, lifetimes)
        )
        spec = default_intensity_spec([diag], tau, 192, 192, pad_factor=6.0)
        mass = smooth_diagram(diag, tau, spec=spec).mass()
        expected = float(lifetimes.sum())
        assert abs(mass - expected) <= 1e-3 * expected
    assert time.perf_counter() - start < 30.0


def test_c03_bias_scaling_slope():
    """Extra-smoothing L1 response over tau in {0.02,0.04,0.08,0.16}:
    log-log slope 2 +/- 0.3."""
    source = synthetic_diagram_source(**WIDE_PROCESS)
    study = bias_scaling_study(
        source,
        taus=(0.02, 0.04, 0.08, 0.16),
        tau_ref=0.15,
        num_diagrams=1000,
        seed=3,
        grid=(256, 256),
    )
    assert study.deviations == tuple(sorted(study.deviations))
    assert abs(study.slope - 2.0) <= 0.3


def test_c04_mise_rate_slope():
    """MISE vs N over {8,...,128} at tau = 0.12 * N^(-1/6): log-log slope
    -2/3 +/- 0.25 against the 20x reference oracle."""
    source = synthetic_diagram_source(**WIDE_PROCESS)
    curve = mise_study(
        source,
        n_values=[8, 16, 32, 64, 128],
        tau_scale=0.12,
        reps=10,
        seed=99,
        grid=(64, 64),
    )
    assert curve.slope is not None
    assert abs(curve.slope - (-2.0 / 3.0)) <= 0.25


def test_c05_normality_of_averaged_intensity():
    """KS distance of 500 standardized N=100 replicates at a fixed
    off-diagonal node to the standard normal: < 0.08."""
    source = synthetic_diagram_source(**WIDE_PROCESS)
    res = normality_check(source, N=100, tau=0.1, node=(0.5, 0.8), reps=500, seed=42)
    assert res.ks_distance < 0.08


def _purity(truth, labels, k=3):
    table = confusion_matrix(truth, labels, k, k)
    best = max(
        sum(table[i, perm[i]] for i in range(k)) for perm in itertools.permutations(range(k))
    )
    return best / len(truth)


def test_c06_three_population_separation(tmp_path):
    """Desk-scale clustering pipeline (n=200, N=20, h=0.07, tau=0.1):
    k-means on the 2D embedding reaches best-permutation purity >= 0.9."""
    cfg = config_from_dict(
        {
            "experiment": "fig2",
            "seed": 2026,
            "n": 200,
            "N": 20,
            "h": 0.07,
            "tau": 0.1,
            "field_grid": [128, 128],
            "intensity_grid": [128, 128],
            "save_intermediates": False,
        }
    )
    out = tmp_path / "fig2"
    run_fig2(cfg, out_dir=out)
    lines = (out / "coords.csv").read_text().splitlines()[1:]
    coords = np.array([[float(v) for v in l.split(",")[1:3]] for l in lines])
    names = [l.split(",")[-1] for l in lines]
    truth = np.array([("circle", "three-circles", "gauss3").index(n) for n in names])
    result = kmeans(Embedding(coords=coords, method="mds"), 3, seed=11)
    assert _purity(truth, result.labels) >= 0.9


@pytest.fixture(scope="session")
def desk_power_curve():
    return power_study(
        q_values=(0.0, 0.02, 0.04, 0.06, 0.08, 0.10),
        n=200,
        N=20,
        h=0.1,
        tau=0.025,
        B=200,
        trials=50,
        seed=2026,
        field_grid=(64, 64),
        intensity_grid=(64, 64),
    )


def test_c07_type_one_error_control(desk_power_curve):
    """q=0, 50 trials, B=200: rejection rate at alpha=0.05 within
    [0.0, 0.13] (two binomial SEs of 0.05)."""
    rate = desk_power_curve.rates[0][0]
    assert 0.0 <= rate <= 0.13


def test_c08_power_trend(desk_power_curve):
    """Desk-scale sweep: rate(0.10) strictly above rate(0.02) at alpha=0.05
    and positive Spearman correlation of (q, rate)."""
    rates = desk_power_curve.rates[0]
    qs = desk_power_curve.q_values
    assert rates[qs.index(0.10)] > rates[qs.index(0.02)]
    assert spearman(qs, rates) > 0.0


def test_c09_mixture_and_pairing_identities():
    """(a) Explicit half/half averaging of two populations' intensities
    agrees in L1 with the per-draw mixture population, within the
    permutation 3-sigma band. (b) The weighted diagram pairing of a
    polynomial agrees with its integral against an independently smoothed
    reference within 3 combined standard errors."""
    seed = 515
    src_a = field_diagram_source("circle", n=100, h=0.1)
    src_b = field_diagram_source("gauss3", n=100, h=0.1)
    total = 500
    half = total // 2
    diagrams1 = [src_a(child_seed(seed, 0, i)) for i in range(half)]
    diagrams1 += [src_b(child_seed(seed, 1, i)) for i in range(half)]
    diagrams2 = []
    for i in range(total):
        coin = make_rng(child_seed(seed, 2, i, 0)).random()
        source = src_a if coin < 0.5 else src_b
        diagrams2.append(source(child_seed(seed, 2, i, 1)))
    tau = 0.05
    spec = default_intensity_spec(diagrams1 + diagrams2, tau, 96, 96)
    grids1 = [smooth_diagram(d, tau, spec=spec) for d in diagrams1]
    grids2 = [smooth_diagram(d, tau, spec=spec) for d in diagrams2]
    res = permutation_test(grids1, grids2, B=200, seed=child_seed(seed, 3))
    null = np.array(res.null_stats)
    assert res.statistic <= null.mean() + 3.0 * null.std(ddof=1)
    assert res.p_value > 2.0 / (res.permutations + 1)

    def h_poly(x, y):
        return 1.0 + x + y * y

    source = synthetic_diagram_source(**WIDE_PROCESS)
    pairing = np.array([pair_sum(source(child_seed(seed, 4, i)), h_poly) for i in range(total)])
    tau_ref = 0.02
    ref_diagrams = [source(child_seed(seed, 5, i)) for i in range(total)]
    ref_spec = default_intensity_spec(ref_diagrams, tau_ref, 128, 128, pad_factor=6.0)
    integrals = np.array(
        [
            integrate_against(smooth_diagram(d, tau_ref, spec=ref_spec), h_poly)
            for d in ref_diagrams
        ]
    )
    se = math.sqrt(pairing.var(ddof=1) / total + integrals.var(ddof=1) / total)
    assert abs(pairing.mean() - integrals.mean()) <= 3.0 * se


def test_c10_end_to_end_determinism(tmp_path):
    """Two runs of the fig2 recipe with the same config produce
    byte-identical CSV artifacts."""
    raw = {
        "experiment": "fig2",
        "seed": 77,
        "n": 60,
        "N": 3,
        "h": 0.1,
        "tau": 0.1,
        "field_grid": [48, 48],
        "intensity_grid": [48, 48],
    }
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_fig2(config_from_dict(raw), out_dir=out1)
    run_fig2(config_from_dict(raw), out_dir=out2)
    files = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
    assert len(files) > 10
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
