import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from persint.analyze import read_matrix, write_matrix
from persint.errors import CsvFormatError, InvalidInputError, InvalidParameterError
from persint.field import (
    SQRT_TWO_PI,
    GridField,
    GridSpec,
    _LOG_FLOOR,
    _gaussian_rows,
    _write_json,
    default_kde_spec,
    distance_grid,
    kde_grid,
    read_field,
    write_field,
)
from persint.intensity import IntensityGrid, WeightSpec, read_intensity, write_intensity
from persint.persistence import PersistenceDiagram, read_diagram, write_diagram
from persint.synth import (
    PointCloud,
    gen_gaussian_mixture,
    gen_uniform_square,
    read_cloud,
    write_cloud,
)


def test_grid_spec_nodes():
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 5, 4)
    xs, ys = spec.xs(), spec.ys()
    for i in range(5):
        assert xs[i] == -1.0 + i * (2.0 / 4)
    for j in range(4):
        assert ys[j] == 0.0 + j * (3.0 / 3)
    assert spec.cell_area == spec.dx * spec.dy


def test_grid_spec_validation():
    with pytest.raises(InvalidParameterError):
        GridSpec(0, 0, 0, 1, 4, 4)
    with pytest.raises(InvalidParameterError):
        GridSpec(0, 1, 0, 1, 1, 4)
    for bounds in [(-math.inf, math.inf, 0, 1), (0, 1, 0, math.inf), (math.nan, 1, 0, 1)]:
        with pytest.raises(InvalidParameterError, match="finite"):
            GridSpec(*bounds, 4, 4)


def test_kde_point_at_node():
    # single point sitting exactly on a node, h=1: value there is 1/(2*pi)
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    fld = kde_grid(cloud, 1.0, spec)
    assert math.isclose(fld.values[1, 1], 1.0 / (2.0 * math.pi), rel_tol=1e-12)
    assert fld.kind == "density"


def test_kde_integrates_to_one():
    cloud = gen_gaussian_mixture(300, [(0.0, 0.0), (1.0, 0.5)], 0.2, 7)
    h = 0.1
    pad = 5 * h
    spec = GridSpec(
        float(cloud.x.min()) - pad,
        float(cloud.x.max()) + pad,
        float(cloud.y.min()) - pad,
        float(cloud.y.max()) + pad,
        160,
        160,
    )
    assert abs(kde_grid(cloud, h, spec).integral() - 1.0) <= 0.01


def test_kde_linear_in_empirical_measure():
    a = gen_uniform_square(40, -1, 1, 1)
    b = gen_uniform_square(40, -1, 1, 2)
    union = PointCloud(np.vstack([a.points, b.points]))
    spec = GridSpec(-1.5, 1.5, -1.5, 1.5, 32, 32)
    fu = kde_grid(union, 0.2, spec)
    fa = kde_grid(a, 0.2, spec)
    fb = kde_grid(b, 0.2, spec)
    assert np.allclose(fu.values, 0.5 * (fa.values + fb.values), rtol=0, atol=1e-14)


def test_kde_deterministic():
    cloud = gen_uniform_square(100, -1, 1, 3)
    spec = GridSpec(-1.2, 1.2, -1.2, 1.2, 48, 48)
    assert np.array_equal(kde_grid(cloud, 0.1, spec).values, kde_grid(cloud, 0.1, spec).values)


def test_kde_errors():
    spec = GridSpec(0, 1, 0, 1, 4, 4)
    with pytest.raises(InvalidInputError):
        kde_grid(PointCloud(np.empty((0, 2))), 0.1, spec)
    with pytest.raises(InvalidParameterError):
        kde_grid(PointCloud(np.array([[0.5, 0.5]])), 0.0, spec)


@pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
def test_a_bandwidth_is_finite_and_positive(h):
    """The bandwidth is checked before any grid is derived from it or built."""
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    message = f"h must be finite and > 0, got {h}"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        kde_grid(cloud, h, GridSpec(0, 1, 0, 1, 4, 4))
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        default_kde_spec(cloud, h, 4, 4)


def test_default_kde_spec_pads_4h():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]]))
    spec = default_kde_spec(cloud, 0.25, 16, 16)
    assert spec.x_lo == -1.0 and spec.x_hi == 2.0
    assert spec.y_lo == -1.0 and spec.y_hi == 3.0


def _plain_rows(centers, nodes, h):
    """The kernel rows as the plain formula gives them, subnormals included."""
    return np.exp(-0.5 * ((centers[:, None] - nodes[None, :]) / h) ** 2) / SQRT_TWO_PI


def test_log_floor_is_the_least_exponent_with_a_normal_kernel_value():
    below = math.nextafter(_LOG_FLOOR, -math.inf)
    assert math.exp(_LOG_FLOOR) / SQRT_TWO_PI >= sys.float_info.min
    assert math.exp(below) / SQRT_TWO_PI < sys.float_info.min
    # numpy's vector exp, on a full register of lanes, agrees.
    assert (np.exp(np.full(16, _LOG_FLOOR)) / SQRT_TWO_PI >= sys.float_info.min).all()
    assert (np.exp(np.full(16, below)) / SQRT_TWO_PI < sys.float_info.min).all()


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(1e-3, 1.0),
    widths=st.floats(0.0, 100.0),
    lo=st.floats(-10.0, 10.0),
    centers=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 1.0)),
    nodes=arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0)),
)
def test_kernel_rows_below_the_smallest_normal_are_zero(h, widths, lo, centers, nodes):
    """On boxes up to 100 bandwidths wide the rows reach far into the tail:
    a value the plain formula puts at or above the smallest normal double
    is kept bit for bit, and any other value is exactly zero."""
    width = widths * h
    centers, nodes = lo + width * centers, lo + width * nodes
    rows, plain = _gaussian_rows(centers, nodes, h), _plain_rows(centers, nodes, h)
    normal = plain >= sys.float_info.min
    assert not ((rows > 0) & (rows < sys.float_info.min)).any()
    assert rows[normal].tobytes() == plain[normal].tobytes()
    assert (rows[~normal] == 0).all() and (plain[rows == 0] < sys.float_info.min).all()


def test_kernel_rows_cross_the_floor_on_a_wide_box():
    # Nodes every 0.01 bandwidths from 37 to 39 bandwidths out, where the
    # plain values fall from normal through subnormal to zero.
    nodes = np.arange(3700, 3901) * 1e-5
    rows, plain = _gaussian_rows(np.zeros(1), nodes, 1e-3), _plain_rows(np.zeros(1), nodes, 1e-3)
    normal = plain >= sys.float_info.min
    assert normal.any() and ((plain > 0) & ~normal).any() and (plain == 0).any()
    assert rows.tobytes() == np.where(normal, plain, 0.0).tobytes()


def test_distance_exact_values():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    spec = GridSpec(0.0, 3.0, 0.0, 4.0, 2, 2)
    fld = distance_grid(cloud, spec)
    assert fld.values[0, 0] == 0.0
    assert math.isclose(fld.values[1, 1], 5.0, rel_tol=1e-15)
    assert fld.kind == "distance"


def test_distance_matches_bruteforce():
    cloud = gen_uniform_square(150, -1, 1, 11)
    spec = GridSpec(-1.2, 1.2, -1.2, 1.2, 20, 20)
    fld = distance_grid(cloud, spec)
    xs, ys = spec.xs(), spec.ys()
    for i in range(spec.nx):
        for j in range(spec.ny):
            best = min(
                math.hypot(xs[i] - px, ys[j] - py) for px, py in cloud.points
            )
            assert math.isclose(fld.values[i, j], best, rel_tol=1e-12, abs_tol=1e-15)


def test_distance_lipschitz_on_grid():
    cloud = gen_uniform_square(60, -1, 1, 17)
    spec = GridSpec(-1.5, 1.5, -1.5, 1.5, 40, 40)
    v = distance_grid(cloud, spec).values
    assert np.all(np.abs(np.diff(v, axis=0)) <= spec.dx + 1e-12)
    assert np.all(np.abs(np.diff(v, axis=1)) <= spec.dy + 1e-12)


def test_distance_empty_cloud():
    with pytest.raises(InvalidInputError):
        distance_grid(PointCloud(np.empty((0, 2))), GridSpec(0, 1, 0, 1, 4, 4))


def test_field_csv_round_trip(tmp_path):
    cloud = gen_uniform_square(30, -1, 1, 23)
    spec = GridSpec(-1.1, 1.1, -1.3, 1.2, 12, 9)
    fld = kde_grid(cloud, 0.3, spec)
    path = tmp_path / "field.csv"
    write_field(fld, path)
    back = read_field(path)
    assert back.kind == fld.kind
    assert back.spec == fld.spec
    assert np.array_equal(back.values, fld.values)


def test_field_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\nwrongkind,0,1,0,1,2,2\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 2
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,0,1,0,1,2,2\n1.0,2.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 4  # missing second value row


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_nonfinite_values(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(path, {"ok": 1.0, "slope": [value]})
    assert not path.exists()


def test_field_csv_rejects_infinite_grid_bounds(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,-inf,inf,0,1,2,2\n0,0\n0,0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 2
    assert err.value.message.startswith("bad grid spec: grid bounds must be finite")


def test_grid_spec_rejects_a_span_that_overflows(tmp_path):
    for bounds in [(-1e308, 1e308, 0, 1), (0, 1, -1e308, 1e308), (0, 1e200, 0, 1e200)]:
        with pytest.raises(InvalidParameterError, match="finite cell area"):
            GridSpec(*bounds, 3, 3)
    path = tmp_path / "field.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,-1e308,1e308,0,1,2,2\n0,0\n0,0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 2


def test_grid_spec_rejects_a_step_that_underflows(tmp_path):
    # Spans whose step or cell area rounds to zero; the codec strategies
    # below leave them out.
    for bounds in [(0, 1, 0, 5e-324), (-0.0, 5e-324, 0, 1), (0, 1e-200, 0, 1e-200)]:
        with pytest.raises(InvalidParameterError, match="positive, finite cell area"):
            GridSpec(*bounds, 3, 3)
    assert GridSpec(-0.0, 5e-324, 0, 1, 2, 2).dx == 5e-324  # one step of one subnormal is fine
    path = tmp_path / "field.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,0,1,0,5e-324,3,3\n" + "0,0,0\n" * 3)
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 2


def test_cloud_csv_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_bytes(b"x,y\n1.0,2.0\n\xff\xfe,1\n")
    with pytest.raises(CsvFormatError) as err:
        read_cloud(path)
    assert (err.value.path, err.value.line) == (str(path), 3)
    assert err.value.message.startswith("not UTF-8")


def test_field_csv_rejects_trailing_data(tmp_path):
    fld = GridField(GridSpec(0, 1, 0, 1, 2, 3), np.arange(6.0).reshape(2, 3), "distance")
    path = tmp_path / "field.csv"
    write_field(fld, path)
    written = path.read_text()
    assert written.splitlines()[1] == "distance,0.0,1.0,0.0,1.0,2,3"  # int bounds as floats
    path.write_text(written + "\n \n")  # blank lines after the values are fine
    assert np.array_equal(read_field(path).values, fld.values)
    path.write_text(written + "\n6.0,7.0,8.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 6  # header, spec, two value rows, blank, extra row


def test_field_csv_skips_blank_lines_between_value_rows(tmp_path):
    path = tmp_path / "field.csv"
    spec_block = "kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndistance,0,1,0,1,3,2\n"
    path.write_text(f"{spec_block}\n0.0,1.0\n\n\n2.0,3.0\n4.0,5.0\n")
    assert np.array_equal(read_field(path).values, np.arange(6.0).reshape(3, 2))
    path.write_text(f"{spec_block}0.0,1.0\n\n2.0,3.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 6  # the value row missing after the last line
    assert err.value.message == "expected 3 rows, got 2"


def test_field_csv_names_a_line_the_csv_module_rejects(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndistance,0,1,0,1,2,2\n" + "1" * 200_000)
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 3
    assert err.value.message.startswith("field larger than field limit")


@pytest.mark.parametrize("bad", ["nan", "-inf", "-0.5"])
def test_field_csv_rejects_nonfinite_and_negative_values(tmp_path, bad):
    path = tmp_path / "field.csv"
    spec_block = "kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,0,1,0,1,3,2\n"
    path.write_text(f"{spec_block}1.0,2.0\n-0.0,{bad}\n{bad},1\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 4  # the first row that holds a bad value
    assert err.value.path == str(path)
    assert err.value.message == f"values must be finite and >= 0, got {float(bad)!r}"


def test_grid_field_validation():
    spec = GridSpec(0, 1, 0, 1, 2, 2)
    with pytest.raises(InvalidInputError):
        GridField(spec, np.array([[1.0, 2.0], [3.0, np.nan]]), "density")
    with pytest.raises(InvalidInputError):
        GridField(spec, -np.ones((2, 2)), "density")
    with pytest.raises(InvalidParameterError):
        GridField(spec, np.ones((2, 2)), "velocity")


AWKWARD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 123456789012345.0, 0.1]
AWKWARD_TEXT = ["-0.0", "5e-324", "1e-05", "1e+16", "123456789012345.0", "0.1"]


def test_csv_writers_emit_exact_float_text(tmp_path):
    from persint.analyze import Embedding, write_embedding, write_matrix

    values = np.array(AWKWARD_FLOATS).reshape(2, 3)
    field = GridField(GridSpec(0.0, 1.0, 0.0, 1.0, 2, 3), values, "density")
    write_field(field, tmp_path / "f.csv")
    rows = (tmp_path / "f.csv").read_text().splitlines()[2:]
    assert rows == [",".join(AWKWARD_TEXT[:3]), ",".join(AWKWARD_TEXT[3:])]
    assert rows == [",".join(repr(float(v)) for v in row) for row in values]
    assert np.array_equal(read_field(tmp_path / "f.csv").values, values)

    write_matrix(values, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text().splitlines() == rows
    write_embedding(Embedding(values.T, "mds"), tmp_path / "e.csv", labels=["a", "b", "c"])
    assert (tmp_path / "e.csv").read_text().splitlines() == [
        "id,c1,c2,label",
        "0,-0.0,1e+16,a",
        "1,5e-324,123456789012345.0,b",
        "2,1e-05,0.1,c",
    ]


# Properties of the CSV codec, over every artifact kind: a file reads back to
# equal values and rewrites to the same bytes, and a reader given a file with
# one line deleted, duplicated or retyped returns a value or raises
# CsvFormatError, never anything else.

_AWKWARD = st.sampled_from([-0.0, 5e-324, 1e16])
_finite = st.one_of(_AWKWARD, st.floats(allow_nan=False, allow_infinity=False))
_nonnegative = st.one_of(_AWKWARD, st.floats(min_value=0.0, allow_infinity=False))
_positive = st.one_of(st.just(5e-324), st.floats(min_value=5e-324, allow_infinity=False))


def _interval(draw):
    """Grid bounds whose span, and the product of two spans, stay finite and
    nonzero when split into steps (see test_grid_spec_rejects_a_step_that_underflows)."""
    bound = st.one_of(_AWKWARD, st.floats(-1e150, 1e150))
    pair = st.lists(bound, min_size=2, max_size=2, unique=True).map(sorted)
    return draw(pair.filter(lambda lo_hi: lo_hi[1] - lo_hi[0] >= 1e-150))


@st.composite
def _fields(draw):
    spec = GridSpec(*_interval(draw), *_interval(draw), draw(st.integers(2, 4)),
                    draw(st.integers(2, 4)))
    values = draw(arrays(np.float64, (spec.nx, spec.ny), elements=_nonnegative))
    return GridField(spec, values, draw(st.sampled_from(["density", "distance"])))


@st.composite
def _intensities(draw):
    field = draw(_fields())
    weights = WeightSpec(draw(_nonnegative), draw(_nonnegative))
    return IntensityGrid(field.spec, field.values, draw(_positive), weights)


@st.composite
def _diagrams(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from([0, 1]), _finite, _finite), max_size=6))
    return PersistenceDiagram.from_pairs([(d, min(a, b), max(a, b)) for d, a, b in rows])


def _matrices(rows, cols):
    return arrays(np.float64, st.tuples(rows, cols), elements=_finite)


@st.composite
def _distance_matrices(draw):
    n = draw(st.integers(1, 4))
    upper = np.triu(draw(arrays(np.float64, (n, n), elements=_nonnegative)), 1)
    return upper + upper.T


# kind: (strategy, writer, reader, the artifact's content as plain values)
CODECS = {
    "cloud": (
        _matrices(st.integers(0, 6), st.just(2)).map(PointCloud),
        write_cloud,
        read_cloud,
        lambda cloud: cloud.points.tolist(),
    ),
    "field": (_fields(), write_field, read_field, lambda f: (f.kind, f.spec, f.values.tolist())),
    "diagram": (
        _diagrams(),
        write_diagram,
        read_diagram,
        lambda d: [a.tolist() for a in d.arrays()],
    ),
    "intensity": (
        _intensities(),
        write_intensity,
        read_intensity,
        lambda g: (g.spec, g.tau, g.weights, g.values.tolist()),
    ),
    "matrix": (
        _distance_matrices(),
        write_matrix,
        read_matrix,
        lambda m: m.tolist(),
    ),
}


@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_round_trip_is_exact(tmp_path_factory, kind, data):
    strategy, write, read, content = CODECS[kind]
    first = tmp_path_factory.getbasetemp() / f"{kind}-first.csv"
    again = tmp_path_factory.getbasetemp() / f"{kind}-again.csv"
    value = data.draw(strategy)
    write(value, first)
    back = read(first)
    write(back, again)
    assert again.read_bytes() == first.read_bytes()
    assert content(back) == content(value)


_TEXT = st.text(alphabet="0123456789.,-+eEinfatyxd \"", max_size=24)
_CELL = st.sampled_from(["0", "1", "2", "-1.5", "-0.0", "nan", "inf", "-inf", "1e400", "x", ""])


def _retyped(line):
    """Random text, or as many cells as ``line`` has, each a number or not."""
    cells = st.lists(_CELL, min_size=line.count(",") + 1, max_size=line.count(",") + 1)
    return st.one_of(_TEXT, cells.map(",".join))


@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_readers_raise_only_csv_format_error(tmp_path_factory, kind, data):
    strategy, write, read, _ = CODECS[kind]
    path = tmp_path_factory.getbasetemp() / f"{kind}-damaged.csv"
    write(data.draw(strategy), path)
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    damage = data.draw(st.sampled_from(["delete", "duplicate", "retype"]))
    if damage == "delete":
        del lines[i]
    elif damage == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = data.draw(_retyped(lines[i]))
    path.write_text("".join(line + "\n" for line in lines))
    try:
        read(path)
    except CsvFormatError:
        pass


@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csv_readers_name_the_line_that_is_not_utf8(tmp_path_factory, kind, data):
    strategy, write, read, _ = CODECS[kind]
    path = tmp_path_factory.getbasetemp() / f"{kind}-bytes.csv"
    write(data.draw(strategy), path)
    lines = path.read_bytes().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = b"\xff" + lines[i]  # 0xff starts no UTF-8 sequence
    path.write_bytes(b"".join(lines))
    with pytest.raises(CsvFormatError) as err:
        read(path)
    assert err.value.line == i + 1
