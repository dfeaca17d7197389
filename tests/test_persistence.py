import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homology_oracle import oracle_diagram
from persint.errors import CsvFormatError, InvalidInputError, InvalidParameterError
from persint.field import GridField, GridSpec, kde_grid
from persint.persistence import (
    PersistenceDiagram,
    PersistencePair,
    compute_persistence,
    grid_persistence,
    read_diagram,
    write_diagram,
)
from persint.synth import gen_uniform_square


def _random_distinct_grid(rng, max_side=6):
    nx = int(rng.integers(1, max_side + 1))
    ny = int(rng.integers(1, max_side + 1))
    if nx * ny < 2:
        ny = 2
    return rng.permutation(nx * ny).astype(float).reshape(nx, ny) / 3.0


def test_hand_example_1x5_superlevel():
    diag = grid_persistence(np.array([[1.0, 3.0, 2.0, 4.0, 1.0]]), "superlevel", 0)
    assert diag.multiset() == ((0, 2.0, 3.0),)
    assert diag.essential_birth == 4.0


def test_hand_example_ring_dim1():
    vals = np.full((3, 3), 5.0)
    vals[1, 1] = 1.0
    diag = grid_persistence(vals, "superlevel", 1)
    assert diag.multiset() == ((1, 1.0, 5.0),)


def test_constant_field_empty_diagram():
    diag = grid_persistence(np.full((4, 4), 2.5), "superlevel", 1)
    assert len(diag) == 0
    assert diag.essential_birth == 2.5


def test_matches_oracle_sample():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        vals = _random_distinct_grid(rng)
        for direction in ("superlevel", "sublevel"):
            got = grid_persistence(vals, direction, 1)
            want_pairs, want_essential = oracle_diagram(vals, direction, 1)
            assert got.multiset() == want_pairs
            assert got.essential_birth == want_essential


def _oracle_with_ties(vals, direction):
    """Oracle diagram of a grid with repeated values.

    The oracle needs distinct values, so it runs on the engine's rank grid
    (sublevel order: value, then i, then j); ranks map back to values and
    zero-length pairs are dropped.
    """
    nx, ny = vals.shape
    sub = -vals if direction == "superlevel" else vals
    ii, jj = np.indices(vals.shape)
    order = np.lexsort((jj.ravel(), ii.ravel(), sub.ravel()))
    ranks = np.empty(vals.size)
    ranks[order] = np.arange(vals.size)
    raw, essential = oracle_diagram(ranks.reshape(nx, ny), "sublevel", 1)
    sval = sub.ravel()[order]
    pairs = [(d, sval[int(b)], sval[int(dd)]) for d, b, dd in raw]
    essential = sval[int(essential)]
    if direction == "superlevel":
        pairs = [(d, -dd, -b) for d, b, dd in pairs]
        essential = -essential
    return tuple(sorted((d, float(b), float(dd)) for d, b, dd in pairs if b != dd)), essential


def test_matches_oracle_with_ties_and_negative_values():
    rng = np.random.default_rng(77)
    for trial in range(40):
        nx, ny = (int(s) for s in rng.integers(1, 6, size=2))
        if nx * ny < 2:
            ny = 2
        levels = int(rng.integers(1, 4))
        vals = rng.integers(-levels, levels + 1, size=(nx, ny)) * (0.5 if trial % 2 else -1.25)
        for direction in ("superlevel", "sublevel"):
            got = grid_persistence(vals, direction, 1)
            want_pairs, want_essential = _oracle_with_ties(vals, direction)
            assert got.multiset() == want_pairs
            assert got.essential_birth == want_essential


def test_euler_consistency():
    # (#dim-0 alive) - (#dim-1 alive) + essential == V - E + F at every level
    rng = np.random.default_rng(55)
    for _ in range(20):
        vals = _random_distinct_grid(rng)
        nx, ny = vals.shape
        diag = grid_persistence(vals, "sublevel", 1)
        for t in sorted(vals.ravel()):
            alive0 = int(diag.essential_birth <= t)
            alive0 += sum(1 for p in diag.pairs if p.dim == 0 and p.birth <= t < p.death)
            alive1 = sum(1 for p in diag.pairs if p.dim == 1 and p.birth <= t < p.death)
            v = int((vals <= t).sum())
            e = int((np.maximum(vals[:, :-1], vals[:, 1:]) <= t).sum())
            e += int((np.maximum(vals[:-1, :], vals[1:, :]) <= t).sum())
            f = 0
            if nx > 1 and ny > 1:
                sq = np.maximum(
                    np.maximum(vals[:-1, :-1], vals[:-1, 1:]),
                    np.maximum(vals[1:, :-1], vals[1:, 1:]),
                )
                f = int((sq <= t).sum())
            assert alive0 - alive1 == v - e + f


def test_constant_shift_equivariance():
    rng = np.random.default_rng(8)
    vals = _random_distinct_grid(rng)
    c = 2.75
    base = grid_persistence(vals, "superlevel", 1)
    shifted = grid_persistence(vals + c, "superlevel", 1)
    want = tuple(sorted((d, b + c, dd + c) for d, b, dd in base.multiset()))
    assert shifted.multiset() == want
    assert shifted.essential_birth == base.essential_birth + c


def test_direction_duality():
    rng = np.random.default_rng(31)
    for _ in range(10):
        vals = _random_distinct_grid(rng)
        sup = grid_persistence(vals, "superlevel", 1)
        sub = grid_persistence(-vals, "sublevel", 1)
        # negate sublevel pairs and swap to land on the stored convention
        converted = tuple(sorted((d, -dd, -b) for d, b, dd in sub.multiset()))
        assert sup.multiset() == converted


def test_realistic_kde_field_has_features():
    cloud = gen_uniform_square(150, -1, 1, 77)
    spec = GridSpec(-1.4, 1.4, -1.4, 1.4, 48, 48)
    diag = compute_persistence(kde_grid(cloud, 0.15, spec), "superlevel", 1)
    assert (diag.dims == 0).any()
    assert all(p.death >= p.birth for p in diag.pairs)


def test_rejects_bad_inputs():
    spec = GridSpec(0, 1, 0, 1, 2, 2)
    field = GridField(spec, np.ones((2, 2)), "density")
    with pytest.raises(InvalidParameterError):
        compute_persistence(field, "diagonal", 1)
    with pytest.raises(InvalidParameterError):
        compute_persistence(field, "superlevel", 2)
    with pytest.raises(InvalidInputError):
        grid_persistence(np.array([[1.0, np.inf]]), "superlevel", 0)


def test_diagram_csv_round_trip(tmp_path):
    diag = grid_persistence(np.array([[1.0, 3.0, 2.0, 4.0, 1.0]]), "superlevel", 0)
    path = tmp_path / "diagram.csv"
    write_diagram(diag, path)
    back = read_diagram(path)
    assert back.multiset() == diag.multiset()

    empty = PersistenceDiagram.from_pairs([])
    write_diagram(empty, path)
    assert path.read_text() == "dim,birth,death\n"
    assert len(read_diagram(path)) == 0


def test_diagram_csv_rejects_below_diagonal(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim,birth,death\n0,0.3,0.1\n")
    with pytest.raises(CsvFormatError) as err:
        read_diagram(path)
    assert err.value.line == 2
    path.write_text("dim,birth,death\n0,0.1\n")
    with pytest.raises(CsvFormatError):
        read_diagram(path)


def test_pair_lifetime():
    p = PersistencePair(0, 0.25, 0.75)
    assert p.lifetime == 0.5
    with pytest.raises(InvalidInputError):
        PersistenceDiagram.from_pairs([(0, 1.0, 0.5)])


def test_diagram_constructor_checks_its_arrays():
    diag = PersistenceDiagram([0, 1], [0.1, -0.5], [0.1, 2.0])
    assert diag.dims.dtype == np.int64 and diag.births.dtype == np.float64
    assert diag.pairs == [(0, 0.1, 0.1), (1, -0.5, 2.0)]
    with pytest.raises(InvalidInputError, match="below the diagonal"):
        PersistenceDiagram([0, 1], [0.1, 0.5], [0.2, 0.4])
    for dim in (2, -1):
        with pytest.raises(InvalidInputError, match="dim 0 or 1"):
            PersistenceDiagram([0, dim], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="one length"):
        PersistenceDiagram([0, 1], [0.1, 0.2], [0.3])
    with pytest.raises(InvalidInputError, match="one length"):
        PersistenceDiagram([[0]], [[0.1]], [[0.3]])


def test_from_pairs_round_trips_a_diagram():
    rng = np.random.default_rng(12)
    diag = grid_persistence(rng.normal(size=(9, 7)), "sublevel", 1)
    assert set(diag.dims.tolist()) == {0, 1}
    back = PersistenceDiagram.from_pairs(
        diag.pairs, direction=diag.direction, essential_birth=diag.essential_birth
    )
    for got, want in zip(back.arrays(), diag.arrays()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (back.direction, back.essential_birth) == (diag.direction, diag.essential_birth)
    assert PersistenceDiagram.from_pairs(diag.pairs[::-1]).pairs == diag.pairs[::-1]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@example(rows=[(0, -0.0, 0.0), (1, 5e-324, -5e-324), (0, -1.7976931348623157e308, 1e308)])
@given(rows=st.lists(st.tuples(st.sampled_from([0, 1]), _finite, _finite), max_size=12))
def test_diagram_csv_round_trip_is_exact(tmp_path_factory, rows):
    """Any finite floats, -0.0 and subnormals included, read back bit for bit."""
    diag = PersistenceDiagram.from_pairs((d, *sorted((a, b))) for d, a, b in rows)
    path = tmp_path_factory.mktemp("diagram") / "d.csv"
    write_diagram(diag, path)
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == [
        str(d) for d in diag.dims.tolist()
    ]
    back = read_diagram(path)
    for got, want in zip(back.arrays(), diag.arrays()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
