import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homology_oracle import oracle_diagram
from persint.errors import CsvFormatError, InvalidInputError, InvalidParameterError
from persint.field import GridField, GridSpec, distance_grid, kde_grid
from persint.persistence import (
    DIRECTIONS,
    PersistenceDiagram,
    PersistencePair,
    _elder_merge,
    _sublevel_pairs,
    compute_persistence,
    grid_persistence,
    read_diagram,
    write_diagram,
)
from persint.synth import gen_circle_contamination, gen_uniform_square


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
    for pair in [(0, 0.0, np.nan), (1, np.nan, 1.0), (0, 0.0, np.inf), (1, -np.inf, 0.0)]:
        with pytest.raises(InvalidInputError, match="not finite"):
            PersistenceDiagram.from_pairs([(0, 0.0, 1.0), pair])
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


# Properties over grids with plateaus: a few levels, -0.0 next to 0.0,
# negative values, subnormals and magnitudes up to 1e300.

_LEVEL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@st.composite
def _plateau_grids(draw, max_side=5):
    nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if nx * ny < 2:
        ny = 2
    levels = draw(st.lists(_LEVEL, min_size=1, max_size=4))
    return draw(arrays(np.float64, (nx, ny), elements=st.sampled_from(levels)))


@settings(deadline=None)
@example(vals=np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(vals=np.array([[1e300, -1e300, 1e300], [-0.0, 5e-324, 0.0]]))
@given(vals=_plateau_grids())
def test_matches_oracle_on_plateau_grids(vals):
    for direction in DIRECTIONS:
        got = grid_persistence(vals, direction, 1)
        want_pairs, want_essential = _oracle_with_ties(vals, direction)
        assert got.multiset() == want_pairs
        assert got.essential_birth == want_essential


@settings(deadline=None)
@given(vals=_plateau_grids(max_side=8))
def test_direction_duality_on_plateau_grids(vals):
    sup = grid_persistence(vals, "superlevel", 1)
    sub = grid_persistence(-vals, "sublevel", 1)
    assert sup.multiset() == tuple(sorted((d, -dd, -b) for d, b, dd in sub.multiset()))
    assert sup.essential_birth == -sub.essential_birth


@settings(deadline=None)
@given(
    ints=arrays(np.int64, st.tuples(st.integers(1, 8), st.integers(2, 8)),
                elements=st.integers(-40, 40)),
    shift=st.integers(-1000, 1000),
    exponent=st.integers(-1064, 990),
    direction=st.sampled_from(DIRECTIONS),
)
def test_shift_equivariance_with_exact_shifts(ints, shift, exponent, direction):
    # Small integers times one power of two: every value and every shifted
    # value is exact, subnormals included, so the shift commutes with rounding.
    scale = 2.0**exponent
    vals, c = ints * scale, shift * scale
    base = grid_persistence(vals, direction, 1)
    shifted = grid_persistence(vals + c, direction, 1)
    assert shifted.multiset() == tuple(sorted((d, b + c, dd + c) for d, b, dd in base.multiset()))
    assert shifted.essential_birth == base.essential_birth + c


# Stability: the diagrams of f and of g = f + eps lie within bottleneck
# distance max|eps| of each other, dimension by dimension. The distance is
# found by brute force: of the sorted candidate distances, the least at which
# the points of each diagram plus a diagonal copy of each point of the other
# match perfectly. No float slack is used: every distance compared is one
# rounded difference of two stored values (halved for the diagonal), and
# rounding is monotone, so the float comparison holds wherever the exact
# one does.


def _perfect_matching(adj):
    """Whether the square boolean matrix ``adj`` admits a perfect matching."""
    match = [-1] * adj.shape[1]

    def augment(i, seen):
        for j in np.flatnonzero(adj[i]).tolist():
            if not seen[j]:
                seen[j] = True
                if match[j] < 0 or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    return all(augment(i, [False] * adj.shape[1]) for i in range(adj.shape[0]))


def _bottleneck(a, b):
    """Bottleneck distance between two lists of (birth, death) points, in the
    sup norm, each point also matchable to the diagonal at half its lifetime."""
    n, m = len(a), len(b)
    # Rows: a's points, then the diagonal copies of b's points. Columns:
    # b's points, then the diagonal copies of a's. Two copies match freely.
    cost = np.full((n + m, m + n), np.inf)
    cost[n:, m:] = 0.0
    for i, (p, q) in enumerate(a):
        cost[i, :m] = [max(abs(p - r), abs(q - s)) for r, s in b]
        cost[i, m + i] = (q - p) / 2
    for j, (r, s) in enumerate(b):
        cost[n + j, j] = (s - r) / 2
    candidates = sorted(set(cost[np.isfinite(cost)].tolist()))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo] if candidates else 0.0


def test_bottleneck_matcher_on_hand_cases():
    assert _bottleneck([], []) == 0.0
    assert _bottleneck([(0.0, 1.0)], []) == 0.5
    assert _bottleneck([(0.0, 1.0)], [(0.0, 1.25)]) == 0.25
    # Matching the long pair to the short one costs 3; the diagonal, 1.5 and 0.5.
    assert _bottleneck([(0.0, 3.0)], [(0.0, 1.0)]) == 1.5
    assert _bottleneck([(0.0, 4.0), (1.0, 2.0)], [(0.5, 4.0)]) == 0.5


@st.composite
def _perturbed_grids(draw, max_side=5):
    """A grid f and g = f + eps, each drawn from a few levels so both have ties."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    levels = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=4))
    steps = draw(st.lists(st.floats(-1, 1), min_size=1, max_size=3))
    f = draw(arrays(np.float64, shape, elements=st.sampled_from(levels)))
    return f, f + draw(arrays(np.float64, shape, elements=st.sampled_from(steps)))


@settings(deadline=None)
@given(grids=_perturbed_grids(), direction=st.sampled_from(DIRECTIONS))
def test_stability_under_a_perturbation(grids, direction):
    f, g = grids
    delta = float(np.abs(g - f).max())
    df, dg = grid_persistence(f, direction, 1), grid_persistence(g, direction, 1)
    for dim in (0, 1):
        a = [(b, d) for k, b, d in df.multiset() if k == dim]
        b = [(b, d) for k, b, d in dg.multiset() if k == dim]
        assert _bottleneck(a, b) <= delta
    assert abs(dg.essential_birth - df.essential_birth) <= delta


# Differential test against the union-find as it stood before the global
# edge sort was removed: a full argsort of the edge keys, a stable vertex
# sort, and a Python loop over every crossing edge. The arrays must agree
# element for element, in order.


def _frozen_elder_merge(node_key, edge_a, edge_b, edge_key):
    n_edges = edge_key.size
    entry = np.argsort(edge_key)
    a = edge_a[entry]
    b = edge_b[entry]
    first = np.full(node_key.size, n_edges)
    step = np.arange(n_edges)
    np.minimum.at(first, a, step)
    np.minimum.at(first, b, step)
    node = np.flatnonzero(first < n_edges)
    first = first[node]
    far = np.where(a[first] == node, b[first], a[first])
    tree = node_key[far] > node_key[node]
    child = node[tree]
    tree_edge = first[tree]
    root = np.arange(node_key.size)
    root[child] = far[tree]
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped

    root_a, root_b = root[a], root[b]
    cross = np.flatnonzero(root_a != root_b)
    parent = list(range(node_key.size))
    key = node_key.tolist()
    younger = []
    killer = []
    for e, x, y in zip(cross.tolist(), root_a[cross].tolist(), root_b[cross].tolist()):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if key[x] < key[y]:
            x, y = y, x
        parent[y] = x
        younger.append(y)
        killer.append(e)
    younger = np.concatenate([child, np.array(younger, dtype=np.int64)])
    killer = entry[np.concatenate([tree_edge, np.array(killer, dtype=np.int64)])]
    return younger, killer


def _frozen_sublevel_pairs(vals, max_dim):
    nx, ny = vals.shape
    m = nx * ny
    flat = vals.ravel()
    order = np.argsort(flat, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    sval = flat[order]
    lin = np.arange(m).reshape(nx, ny)
    edge_a = np.concatenate([lin[:, :-1].ravel(), lin[:-1, :].ravel()])
    edge_b = np.concatenate([lin[:, 1:].ravel(), lin[1:, :].ravel()])
    edge_rank = np.maximum(rank[edge_a], rank[edge_b])
    edge_key = edge_rank * edge_rank.size + np.arange(edge_rank.size)
    younger, killer = _frozen_elder_merge(-rank, edge_a, edge_b, edge_key)
    births = [flat[younger]]
    deaths = [sval[edge_rank[killer]]]
    dims = [np.zeros(younger.size, dtype=np.int64)]
    if max_dim >= 1 and nx >= 2 and ny >= 2:
        r2 = rank.reshape(nx, ny)
        sq_rank = np.maximum(
            np.maximum(r2[:-1, :-1], r2[:-1, 1:]), np.maximum(r2[1:, :-1], r2[1:, 1:])
        ).ravel()
        n_sq = sq_rank.size
        dual = np.full((nx + 1, ny + 1), n_sq)
        dual[1:-1, 1:-1] = np.arange(n_sq).reshape(nx - 1, ny - 1)
        dual_a = np.concatenate([dual[:-1, 1:-1].ravel(), dual[1:-1, :-1].ravel()])
        dual_b = np.concatenate([dual[1:, 1:-1].ravel(), dual[1:-1, 1:].ravel()])
        sq_key = np.append(sq_rank * n_sq + np.arange(n_sq), m * n_sq)
        younger, killer = _frozen_elder_merge(sq_key, dual_a, dual_b, -edge_key)
        births.append(sval[edge_rank[killer]])
        deaths.append(sval[sq_rank[younger]])
        dims.append(np.ones(younger.size, dtype=np.int64))
    dims, births, deaths = (np.concatenate(x) for x in (dims, births, deaths))
    keep = births != deaths
    return dims[keep], births[keep], deaths[keep], float(sval[0])


def _differential_fields():
    """(name, values handed to the sublevel engine, max_dim), seeded."""
    rng = np.random.default_rng(44)
    box = GridSpec(-1.8, 1.8, -1.8, 1.8, 2, 2)
    for s in range(3):
        cloud = gen_circle_contamination(200, 0.1 * s, 900 + s)
        for side, h, max_dim in ((64, 0.1, 0), (128, 0.1, 1)):
            spec = GridSpec(box.x_lo, box.x_hi, box.y_lo, box.y_hi, side, side)
            yield f"kde{side}-{s}", -kde_grid(cloud, h, spec).values, max_dim
        spec = GridSpec(box.x_lo, box.x_hi, box.y_lo, box.y_hi, 96, 96)
        yield f"dist96-{s}", distance_grid(cloud, spec).values, 1
        yield f"noise-{s}", rng.normal(size=(48, 40)), 1
        yield f"ties-{s}", np.round(rng.normal(size=(40, 48)) * 2.0) / 2.0, 1
        yield f"zeros-{s}", np.where(rng.random((24, 24)) < 0.5, -0.0, 0.0), 1
    # Grids whose edge grids are empty or one row or column thick.
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (2, 11), (11, 2)):
        yield "tiny{}x{}".format(*shape), rng.normal(size=shape), 1
        yield "tiny-ties{}x{}".format(*shape), rng.integers(0, 3, size=shape) / 2.0, 1


_DIFFERENTIAL_FIELDS = list(_differential_fields())


@pytest.mark.parametrize(
    ("name", "vals", "max_dim"), _DIFFERENTIAL_FIELDS, ids=[f[0] for f in _DIFFERENTIAL_FIELDS]
)
def test_sublevel_pairs_match_the_frozen_union_find(name, vals, max_dim):
    got, want = _sublevel_pairs(vals, max_dim), _frozen_sublevel_pairs(vals, max_dim)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[3] == want[3]
    assert len(got[0]) > 0 or name.startswith("zeros") or vals.size == 1


def test_dim0_merges_are_the_basin_merges():
    """_elder_merge returns no tree merge: in dim 0 a vertex that has a lower
    neighbour dies at its own rank, so only the local minima but the lowest
    are killed, each by an edge that enters after it."""
    for name, vals, _ in _DIFFERENTIAL_FIELDS:
        rank = np.empty(vals.size, dtype=np.int64)
        rank[np.argsort(vals.ravel(), kind="stable")] = np.arange(vals.size)
        r2 = rank.reshape(vals.shape)
        h_rank, v_rank = np.maximum(r2[:, :-1], r2[:, 1:]), np.maximum(r2[:-1], r2[1:])
        n_edges = h_rank.size + v_rank.size
        h_key = h_rank * n_edges + np.arange(h_rank.size).reshape(h_rank.shape)
        v_key = v_rank * n_edges + np.arange(h_rank.size, n_edges).reshape(v_rank.shape)
        younger, killer = _elder_merge(-r2, h_key, v_key, np.arange(vals.size))
        padded = np.pad(r2, 1, constant_values=vals.size)
        lowest = np.minimum(
            np.minimum(padded[:-2, 1:-1], padded[2:, 1:-1]),
            np.minimum(padded[1:-1, :-2], padded[1:-1, 2:]),
        )
        minima = set(np.flatnonzero(lowest > r2).tolist()) - {int(rank.argmin())}
        assert sorted(younger.tolist()) == sorted(minima), name
        assert (killer // n_edges > rank[younger]).all(), name
