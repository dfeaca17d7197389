import math

import numpy as np
import pytest

from persint.errors import CsvFormatError, InvalidInputError, InvalidParameterError
from persint.field import (
    GridField,
    GridSpec,
    default_kde_spec,
    distance_grid,
    kde_grid,
    read_field,
    write_field,
)
from persint.synth import PointCloud, gen_gaussian_mixture, gen_uniform_square


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


def test_default_kde_spec_pads_4h():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]]))
    spec = default_kde_spec(cloud, 0.25, 16, 16)
    assert spec.x_lo == -1.0 and spec.x_hi == 2.0
    assert spec.y_lo == -1.0 and spec.y_hi == 3.0


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


def test_field_csv_rejects_trailing_data(tmp_path):
    fld = GridField(GridSpec(0, 1, 0, 1, 2, 3), np.arange(6.0).reshape(2, 3), "distance")
    path = tmp_path / "field.csv"
    write_field(fld, path)
    written = path.read_text()
    path.write_text(written + "\n \n")  # blank lines after the values are fine
    assert np.array_equal(read_field(path).values, fld.values)
    path.write_text(written + "\n6.0,7.0,8.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_field(path)
    assert err.value.line == 6  # header, spec, two value rows, blank, extra row


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
