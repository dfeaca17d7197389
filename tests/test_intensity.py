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
    CsvFormatError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
)
from persint.field import GridSpec
from persint.intensity import (
    DEFAULT_WEIGHTS,
    IntensityGrid,
    WeightSpec,
    _CHUNK_PAIRS,
    average_intensity,
    default_intensity_spec,
    mean_intensity_values,
    pooled_pairs,
    read_intensity,
    smooth_diagram,
    write_intensity,
)
from persint.persistence import PersistenceDiagram
from reference_sums import pair_sum


def _diag(pairs):
    return PersistenceDiagram.from_pairs(pairs)


def _pair_weight(w, dim, birth, death):
    (weight,) = pooled_pairs([_diag([(dim, birth, death)])], w)[2].tolist()
    return weight


def test_pair_weight_examples():
    assert _pair_weight(DEFAULT_WEIGHTS, 0, 0.0, 0.4) == 0.4
    assert _pair_weight(DEFAULT_WEIGHTS, 1, 0.3, 0.3) == 0.0
    five = WeightSpec(g0=1.0, g1=5.0)
    assert _pair_weight(five, 1, 0.0, 0.2) == pytest.approx(1.0, rel=1e-15)
    assert _pair_weight(five, 0, 0.0, 0.2) == 0.2
    with pytest.raises(InvalidInputError):  # a negative lifetime
        _diag([(0, 0.1, 0.0)])


def test_weight_spec_validation():
    for g0, g1 in ((-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidParameterError):
            WeightSpec(g0, g1)
    assert WeightSpec(2, 0) == WeightSpec(2.0, 0.0)
    assert type(WeightSpec(2, 0).g0) is float


def test_empty_diagram_zero_grid():
    spec = GridSpec(0, 1, 0, 1, 8, 8)
    grid = smooth_diagram(_diag([]), 0.1, spec=spec)
    assert np.all(grid.values == 0.0)
    assert grid.mass() == 0.0


def test_single_pair_peak_value():
    # node exactly at the pair: value is lifetime / (2 pi tau^2)
    tau = 0.1
    spec = GridSpec(0.0, 0.4, 0.1, 1.1, 3, 3)  # nodes x: 0,0.2,0.4; y: 0.1,0.6,1.1
    grid = smooth_diagram(_diag([(0, 0.2, 0.6)]), tau, spec=spec)
    expected = 0.4 / (2.0 * math.pi * tau * tau)
    assert grid.values[1, 1] == pytest.approx(expected, rel=1e-12)


def test_mass_conservation():
    rng = np.random.default_rng(4)
    tau = 0.05
    births = rng.uniform(0.2, 0.8, size=12)
    lifetimes = rng.uniform(0.05, 0.4, size=12)
    diag = _diag([(0, b, b + l) for b, l in zip(births, lifetimes)])
    spec = default_intensity_spec([diag], tau, 192, 192, pad_factor=6.0)
    grid = smooth_diagram(diag, tau, spec=spec)
    assert grid.mass() == pytest.approx(float(lifetimes.sum()), rel=1e-3)


def test_linearity_in_diagram_union():
    tau = 0.08
    d1 = _diag([(0, 0.2, 0.5), (1, 0.3, 0.9)])
    d2 = _diag([(0, 0.4, 0.7)])
    union = _diag([(0, 0.2, 0.5), (1, 0.3, 0.9), (0, 0.4, 0.7)])
    spec = GridSpec(-0.3, 1.4, -0.3, 1.4, 32, 32)
    gu = smooth_diagram(union, tau, spec=spec)
    g1 = smooth_diagram(d1, tau, spec=spec)
    g2 = smooth_diagram(d2, tau, spec=spec)
    assert np.allclose(gu.values, g1.values + g2.values, rtol=1e-12, atol=1e-12)


def test_diagonal_suppression():
    tau = 0.05
    spec = GridSpec(0.0, 1.0, 0.0, 2.0, 64, 128)
    tiny = smooth_diagram(_diag([(0, 0.5, 0.5 + 1e-6)]), tau, spec=spec)
    unit = smooth_diagram(_diag([(0, 0.5, 0.5 + 1.0)]), tau, spec=spec)
    assert tiny.mass() < 1e-5 * unit.mass()


def test_average_intensity():
    spec = GridSpec(0, 1, 0, 1, 4, 4)
    c = 1.5
    g0 = IntensityGrid(spec, np.zeros((4, 4)), 0.1)
    g2 = IntensityGrid(spec, np.full((4, 4), 2 * c), 0.1)
    one = average_intensity([g2])
    assert np.array_equal(one.values, g2.values)
    same = average_intensity([g2, g2, g2])
    assert np.array_equal(same.values, g2.values)
    mixed = average_intensity([g0, g2])
    assert np.all(mixed.values == c)


def test_average_intensity_errors():
    spec = GridSpec(0, 1, 0, 1, 4, 4)
    other = GridSpec(0, 1, 0, 1, 5, 5)
    a = IntensityGrid(spec, np.zeros((4, 4)), 0.1)
    b = IntensityGrid(other, np.zeros((5, 5)), 0.1)
    with pytest.raises(IncompatibleGridsError):
        average_intensity([a, b])
    c = IntensityGrid(spec, np.zeros((4, 4)), 0.2)
    with pytest.raises(IncompatibleGridsError):
        average_intensity([a, c])
    d = IntensityGrid(spec, np.zeros((4, 4)), 0.1, weights=WeightSpec(g1=5.0))
    with pytest.raises(IncompatibleGridsError):
        average_intensity([a, d])
    with pytest.raises(InvalidInputError):
        average_intensity([])


def test_smooth_rejects_bad_tau():
    with pytest.raises(InvalidParameterError):
        smooth_diagram(_diag([(0, 0.1, 0.3)]), 0.0, spec=GridSpec(0, 1, 0, 1, 4, 4))


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_tau_must_be_finite(tau):
    diag = _diag([(0, 0.1, 0.3)])
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        IntensityGrid(spec=spec, values=np.zeros((4, 4)), tau=tau)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        smooth_diagram(diag, tau, spec=spec)
    # The default grid is padded by 4 tau, so tau is checked before the grid's bounds.
    with pytest.raises(InvalidParameterError, match=f"tau must be finite and > 0, got {tau}"):
        default_intensity_spec([diag], tau, 4, 4)


_unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from([0, 1]), _unit, _unit), max_size=20),
    tau=st.floats(0.01, 0.5),
    g=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
)
def test_smoothed_grid_matches_einsum_reference(rows, tau, g, shape):
    diag = _diag([(d, min(a, b), max(a, b)) for d, a, b in rows])
    w = WeightSpec(*g)
    spec = GridSpec(-0.3, 1.2, -0.1, 1.4, *shape)
    grid = smooth_diagram(diag, tau, w=w, spec=spec)
    _assert_close(grid.values, _einsum_reference(diag, tau, spec, w))


def test_pair_sum():
    diag = _diag([(0, 0.0, 1.0), (1, 0.5, 1.0)])
    total = pair_sum(diag, lambda b, d: b + d)
    assert total == pytest.approx(1.0 * 1.0 + 0.5 * 1.5, rel=1e-15)


def test_intensity_csv_round_trip(tmp_path):
    diag = _diag([(0, 0.2, 0.5), (1, 0.3, 0.9)])
    grid = smooth_diagram(diag, 0.1, w=WeightSpec(1.0, 5.0), spec=GridSpec(0, 1, 0, 1, 9, 7))
    path = tmp_path / "intensity.csv"
    write_intensity(grid, path)
    back = read_intensity(path)
    assert back.spec == grid.spec
    assert back.tau == grid.tau
    assert back.weights == grid.weights
    assert np.array_equal(back.values, grid.values)


def test_intensity_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\nintensity,0,1,0,1,2,2\nwrong,meta,row\n")
    with pytest.raises(CsvFormatError) as err:
        read_intensity(path)
    assert err.value.line == 3


def test_intensity_csv_rejects_trailing_data(tmp_path):
    grid = smooth_diagram(_diag([(0, 0.2, 0.5)]), 0.1, spec=GridSpec(0, 1, 0, 1, 3, 2))
    path = tmp_path / "intensity.csv"
    write_intensity(grid, path)
    written = path.read_text()
    path.write_text(written + "0.0,0.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_intensity(path)
    assert err.value.line == 8  # four header lines, three value rows, extra row


@pytest.mark.parametrize(
    "meta, message",
    [
        ("-0.1,1.0,1.0", "values must be finite and >= 0, got -0.1"),
        ("0.0,1.0,1.0", "tau must be > 0, got 0.0"),
        ("nan,1.0,1.0", "values must be finite and >= 0, got nan"),
        ("0.1,-1.0,1.0", "values must be finite and >= 0, got -1.0"),
        ("0.1,nan,1.0", "values must be finite and >= 0, got nan"),
        ("0.1,1.0,-1.0", "values must be finite and >= 0, got -1.0"),
        ("0.1,1.0,nan", "values must be finite and >= 0, got nan"),
    ],
)
def test_intensity_csv_names_a_bad_metadata_row(tmp_path, meta, message):
    grid = smooth_diagram(_diag([(0, 0.2, 0.5)]), 0.1, spec=GridSpec(0, 1, 0, 1, 3, 2))
    path = tmp_path / "intensity.csv"
    write_intensity(grid, path)
    lines = path.read_text().splitlines()
    lines[3] = meta  # the tau,g0,g1 row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_intensity(path)
    assert (err.value.path, err.value.line, err.value.message) == (str(path), 4, message)


def test_intensity_csv_skips_blank_lines_between_value_rows(tmp_path):
    grid = smooth_diagram(_diag([(0, 0.2, 0.5)]), 0.1, spec=GridSpec(0, 1, 0, 1, 3, 2))
    path = tmp_path / "intensity.csv"
    write_intensity(grid, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n")
    assert np.array_equal(read_intensity(path).values, grid.values)
    path.write_text("\n".join(lines[:5] + ["", "0.0,-1.0"] + lines[6:]) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_intensity(path)
    assert err.value.line == 7  # the blank line counts


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e-300"])
def test_intensity_csv_rejects_nonfinite_and_negative_values(tmp_path, bad):
    grid = smooth_diagram(_diag([(0, 0.2, 0.5)]), 0.1, spec=GridSpec(0, 1, 0, 1, 3, 2))
    path = tmp_path / "intensity.csv"
    write_intensity(grid, path)
    lines = path.read_text().splitlines()
    lines[5] = f"0.0,{bad}"  # the second value row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_intensity(path)
    assert (err.value.path, err.value.line) == (str(path), 6)
    assert err.value.message == f"values must be finite and >= 0, got {float(bad)!r}"


def test_default_intensity_spec_requires_pairs():
    with pytest.raises(InvalidInputError):
        default_intensity_spec([_diag([])], 0.1, 8, 8)


def _einsum_reference(diagram, tau, spec, w=DEFAULT_WEIGHTS):
    """One diagram smoothed by einsum's fixed-order loop over its pairs."""
    if not diagram.pairs:
        return np.zeros((spec.nx, spec.ny))
    _, births, deaths = diagram.arrays()
    wts = np.array([(w.g0, w.g1)[p.dim] * p.lifetime for p in diagram.pairs])
    root = math.sqrt(2.0 * math.pi)
    bx = np.exp(-0.5 * ((births[:, None] - spec.xs()[None, :]) / tau) ** 2) / root
    by = np.exp(-0.5 * ((deaths[:, None] - spec.ys()[None, :]) / tau) ** 2) / root
    return np.einsum("p,pi,pj->ij", wts, bx, by, optimize=False) / (tau * tau)


def _assert_close(got, want):
    """The kernel's BLAS products sum the pairs in another order than the
    reference, so values agree to rounding: within 1e-13 of the grid's
    maximum (hundreds of float64 ulps), or of the smallest normal float
    where every value is below it."""
    bound = 1e-13 * want.max(initial=0.0) + np.finfo(np.float64).tiny
    assert np.abs(got - want).max(initial=0.0) <= bound


def _random_diagrams(seed, count, max_pairs=12):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(0, max_pairs + 1))
        births = rng.uniform(0.0, 1.0, size=k)
        deaths = births + rng.exponential(0.3, size=k)
        dims = rng.integers(0, 2, size=k)
        out.append(_diag(zip(dims.tolist(), births.tolist(), deaths.tolist())))
    return out


def _assert_kernel_exact(diagrams, tau, spec, w=DEFAULT_WEIGHTS):
    """Each grid is the same bytes however it is batched: smoothed alone, or
    averaged alone from its slice of the pooled pairs of all the diagrams.
    The grids and their mean match the einsum reference to rounding."""
    births, deaths, weights, counts = pooled_pairs(diagrams, w)
    edges = np.concatenate([[0], np.cumsum(counts)])
    acc = np.zeros((spec.nx, spec.ny))
    for k, diag in enumerate(diagrams):
        grid = smooth_diagram(diag, tau, w=w, spec=spec).values
        part = slice(edges[k], edges[k + 1])
        alone = births[part], deaths[part], weights[part], counts[k : k + 1]
        assert mean_intensity_values(*alone, tau, spec).tobytes() == grid.tobytes()
        want = _einsum_reference(diag, tau, spec, w)
        _assert_close(grid, want)
        acc += want
    acc /= len(diagrams)
    _assert_close(mean_intensity_values(births, deaths, weights, counts, tau, spec), acc)


def test_kernel_bit_exact_on_edge_diagrams():
    spec = GridSpec(-0.4, 1.3, -0.2, 1.9, 17, 11)
    diagrams = [
        _diag([]),
        _diag([(0, 0.3, 0.7)]),
        _diag([(0, 0.3, 0.7)] * 3),  # tied pairs
        _diag([(0, 0.2, 0.5), (0, 0.2, 0.9), (1, 0.2, 0.5)]),  # shared coordinates
        _diag([(0, 0.4, 0.4), (1, 0.1, 1.2)]),  # zero-length pair
        _diag([]),
    ]
    _assert_kernel_exact(diagrams, 0.09, spec)
    _assert_kernel_exact([_diag([])], 0.09, spec)


def test_kernel_bit_exact_with_mixed_dims_and_weights():
    spec = GridSpec(-0.5, 2.0, -0.5, 2.5, 23, 29)
    diagrams = _random_diagrams(3, 9)
    _assert_kernel_exact(diagrams, 0.07, spec, w=WeightSpec(g0=0.5, g1=3.0))
    _assert_kernel_exact(diagrams, 0.07, spec, w=WeightSpec(g0=-0.0, g1=3.0))  # -0.0 terms


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_kernel_bit_exact_across_chunk_boundaries(offset):
    # Pair counts of chunk-1, chunk, chunk+1 and their doubles, in one diagram
    # and pooled from many diagrams.
    spec = GridSpec(-0.5, 2.0, -0.5, 2.5, 64, 64)
    for count in (_CHUNK_PAIRS + offset, 2 * _CHUNK_PAIRS + offset):
        rows = [p for d in _random_diagrams(count, count) for p in d.pairs][:count]
        assert len(rows) == count
        _assert_kernel_exact([_diag(rows)], 0.06, spec)
        many = [_diag(rows[k : k + 7]) for k in range(0, count, 7)]
        _assert_kernel_exact(many, 0.06, spec)


def test_kernel_bit_exact_on_128_grids():
    spec = GridSpec(-0.5, 2.0, -0.5, 2.5, 128, 128)
    diagrams = _random_diagrams(5, 7, max_pairs=30)
    diagrams.append(_diag([(d % 2, 0.01 * d, 0.5 + 0.02 * d) for d in range(40)]))
    _assert_kernel_exact(diagrams, 0.1, spec)


_GRID_DIGEST = """
import hashlib
import numpy as np
from persint.field import GridSpec
from persint.intensity import smoothed_sum
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n in (64, 128):
    spec = GridSpec(-0.5, 2.0, -0.5, 2.5, n, n)
    for count in (1, 255, 256, 257, 400, 700, 1025):
        births = rng.uniform(0.0, 1.0, count)
        deaths = births + rng.exponential(0.3, count)
        digest.update(smoothed_sum(births, deaths, deaths - births, 0.06, spec).tobytes())
print(digest.hexdigest())
"""


def test_grids_do_not_depend_on_the_blas_thread_count():
    def digest(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(persint.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", _GRID_DIGEST], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout

    assert digest("1") == digest("2")


def test_pooled_weights_match_per_pair_weights():
    diagrams = _random_diagrams(8, 4, max_pairs=20)
    for spec_w in (DEFAULT_WEIGHTS, WeightSpec(2.0, 0.5), WeightSpec(0.25, 4.0)):
        births, deaths, weights, counts = pooled_pairs(diagrams, spec_w)
        pairs = [p for d in diagrams for p in d.pairs]
        assert births.tolist() == [p.birth for p in pairs]
        assert deaths.tolist() == [p.death for p in pairs]
        assert weights.tolist() == [(spec_w.g0, spec_w.g1)[p.dim] * p.lifetime for p in pairs]
        assert counts.tolist() == [len(d) for d in diagrams]


def test_default_intensity_spec_bounds_pairs():
    diagrams = [_diag([(0, 0.3, 0.5), (1, -0.2, 0.1)]), _diag([]), _diag([(0, 0.9, 2.5)])]
    spec = default_intensity_spec(diagrams, 0.1, 8, 9, pad_factor=2.0)
    assert (spec.x_lo, spec.x_hi) == (-0.2 - 0.2, 0.9 + 0.2)
    assert (spec.y_lo, spec.y_hi) == (0.1 - 0.2, 2.5 + 0.2)
    assert (spec.nx, spec.ny) == (8, 9)
    assert all(type(v) is float for v in (spec.x_lo, spec.x_hi, spec.y_lo, spec.y_hi))


def test_smoothed_grid_holds_only_its_values():
    # A grid kept by a caller must not pin the kernel's larger work arrays.
    spec = GridSpec(-0.5, 2.0, -0.5, 2.5, 64, 64)
    grid = smooth_diagram(_random_diagrams(2, 1, max_pairs=30)[0], 0.1, spec=spec)
    base = grid.values if grid.values.base is None else grid.values.base
    assert base.nbytes == grid.values.nbytes
