"""Cubical persistent homology of grid fields, dims 0 and 1.

The complex is vertex-based: grid nodes are vertices with 4-connectivity,
and every edge/square enters the filtration at the extremal value of its
vertices (max for a sublevel ascent). Superlevel diagrams are computed by
negating the field, running the sublevel engine, un-negating, and swapping
birth/death so stored points lie on or above the diagonal. Ties between
equal values are broken by lexicographic (i, j) node order.

Both dimensions run through one elder-rule union-find on a grid,
:func:`_elder_merge`. Dim 0 merges the field's grid nodes along its edges in
ascending filtration order. Dim 1 uses planar duality: on a rectangle, the
dim-1 pairs of the sublevel filtration are the dim-0 pairs of the reversed
filtration on the dual graph, whose nodes are the squares plus one eldest
"outside" node and whose edges are the primal edges (Garin et al., "Duality
in persistent homology of images", arXiv:2005.04597; de Silva, Morozov,
Vejdemo-Johansson, "Dualities in persistent (co)homology", arXiv:1107.5665).
That graph is the (nx+1) x (ny+1) dual grid: cell (i+1, j+1) is square (i, j),
the border cells, all pointing at one corner from the start, are the outside,
and a primal horizontal edge is a dual vertical one and the reverse. A dual
merge pairs the killing edge (birth) with the younger square (death).

A :class:`PersistenceDiagram` stores its pairs as three arrays, dims, births
and deaths; :class:`PersistencePair` tuples are only a row view of them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CsvFormatError, InvalidInputError, InvalidParameterError
from .field import _open_csv, _read_float_rows, _write_csv

DIRECTIONS = ("superlevel", "sublevel")
_NO_EDGE = np.iinfo(np.int64).max  # the key of an edge that never enters


def _bad_pairs(dims, births, deaths):
    """Mask of the pairs that break the diagram rule: dim 0 or 1, finite, death >= birth."""
    finite = np.isfinite(births) & np.isfinite(deaths)
    return (dims != 0) & (dims != 1) | ~finite | (deaths < births)


class PersistencePair(NamedTuple):
    """One finite topological feature: (dim, birth, death) with death >= birth."""

    dim: int
    birth: float
    death: float

    @property
    def lifetime(self):
        return self.death - self.birth


@dataclass(eq=False)
class PersistenceDiagram:
    """Finite multiset of persistence pairs, pair k being (dims[k], births[k], deaths[k]):
    int64 dims and finite float64 births and deaths of one length, no death below its birth."""

    dims: np.ndarray = ()
    births: np.ndarray = ()
    deaths: np.ndarray = ()
    direction: str = "superlevel"
    essential_birth: float | None = None

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise InvalidParameterError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        self.dims = np.asarray(self.dims, dtype=np.int64)
        self.births = np.asarray(self.births, dtype=np.float64)
        self.deaths = np.asarray(self.deaths, dtype=np.float64)
        if self.dims.ndim != 1 or not (self.dims.shape == self.births.shape == self.deaths.shape):
            raise InvalidInputError("dims, births and deaths must be 1D arrays of one length")
        bad = _bad_pairs(self.dims, self.births, self.deaths)
        if bad.any():
            pair = self.pairs[bad.argmax()]
            raise InvalidInputError(f"pair {pair} is not dim 0 or 1, not finite or below the diagonal")

    @classmethod
    def from_pairs(cls, triples, **meta):
        """Diagram of an iterable of (dim, birth, death) rows, in that order."""
        return cls(*zip(*triples), **meta)

    def __len__(self):
        return self.births.size

    @property
    def pairs(self):
        """The pairs in stored order, as a new list of :class:`PersistencePair`."""
        return list(map(PersistencePair, *(a.tolist() for a in self.arrays())))

    def arrays(self):
        """The stored (dims, births, deaths) arrays."""
        return self.dims, self.births, self.deaths

    def multiset(self):
        """Sorted tuple view, convenient for exact comparisons."""
        return tuple(sorted(self.pairs))


def _elder_merge(node_key, h_key, v_key, start):
    """Elder-rule union-find on a p x q grid whose edges enter by ascending key.

    ``node_key`` (p, q) ranks the cells by age: of two merging components,
    the one whose root has the higher key is elder and survives. ``h_key``
    (p, q-1) and ``v_key`` (p-1, q) key the edges from cell (i, j) to
    (i, j+1) and to (i+1, j): distinct keys, but for ``_NO_EDGE`` on edges
    inside one node, each entering after both its ends. ``start`` holds
    each cell's flat index, row-major, or for a node of several cells the
    index of one of them. Returns the flat cell of the younger basin root
    killed by each merge between basins, and the killing key.

    Basins are contracted with numpy first. Four shifted comparisons of the
    edge grids with the cell grid give each cell's first entering edge, the
    least of its keys, as a step offset to its far end (1 or -1 along a row,
    q or -q across); when the far end is elder, that edge kills the cell at
    once: the cell points to the far end. These tree merges are not
    returned: in _sublevel_pairs the first edge enters at the cell's own
    rank (in dim 0 it leads to a lower neighbour; in dim 1, reversed, it
    holds the square's top vertex), so they are pairs of zero length.
    Pointer jumping gives each cell its basin root. Only the crossing
    edges, whose end roots differ, are sorted by key, and of each unordered
    pair of basins only the first is kept, since a later edge between two
    basins finds them already joined. The Python loop then runs over a few
    dozen basin pairs, labelled 0..k-1.
    """
    q = node_key.shape[1]
    first = np.full(node_key.shape, _NO_EDGE)
    step = np.zeros(node_key.shape, dtype=np.int64)
    for cells, edge, offset in (
        (np.s_[:, :-1], h_key, 1), (np.s_[:, 1:], h_key, -1),
        (np.s_[:-1], v_key, q), (np.s_[1:], v_key, -q),
    ):
        less = edge < first[cells]
        np.copyto(first[cells], edge, where=less)
        np.copyto(step[cells], offset, where=less)
    key = node_key.ravel()
    cell = np.arange(key.size)
    far = cell + step.ravel()
    root = np.where(key[far] > key, far, start.ravel())
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped

    r = root.reshape(node_key.shape)
    crossings = []
    for a, b, edge in ((r[:, :-1], r[:, 1:], h_key), (r[:-1], r[1:], v_key)):
        crossing = a != b
        crossings.append((a[crossing], b[crossing], edge[crossing]))
    root_a, root_b, cross = (np.concatenate(x) for x in zip(*crossings))
    entry = np.argsort(cross)
    is_basin = root == cell
    basins, label = np.flatnonzero(is_basin), np.cumsum(is_basin) - 1
    x_end, y_end = label[root_a[entry]], label[root_b[entry]]
    pair = np.minimum(x_end, y_end) * basins.size + np.maximum(x_end, y_end)
    kept = np.sort(np.unique(pair, return_index=True)[1])
    parent = list(range(basins.size))
    age = key[basins].tolist()
    younger, killer = [], []
    for e, x, y in zip(cross[entry[kept]].tolist(), x_end[kept].tolist(), y_end[kept].tolist()):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if age[x] < age[y]:
            x, y = y, x
        parent[y] = x
        younger.append(y)
        killer.append(e)
    return basins[np.array(younger, dtype=np.int64)], np.array(killer, dtype=np.int64)


def _sublevel_pairs(vals, max_dim):
    """Finite pairs of the sublevel filtration of ``vals``.

    Returns (dims, births, deaths, essential_birth). Zero-lifetime pairs
    are dropped.
    """
    nx, ny = vals.shape
    m = nx * ny
    flat = vals.ravel()  # linear index i*ny + j
    # Total vertex order: by value, then (i, j) lexicographically. Without
    # ties only one sorted order exists, so numpy's default (unstable, and
    # on most hosts SIMD) argsort gives it; an equal neighbour in sorted
    # order, -0.0 next to 0.0 included, means ties, and the stable sort
    # then breaks them by linear index.
    order = np.argsort(flat)
    sval = flat[order]  # value of the vertex with a given rank
    if (sval[1:] == sval[:-1]).any():
        order = np.argsort(flat, kind="stable")
        sval = flat[order]
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    r2 = rank.reshape(nx, ny)

    # Edges enter by rank, ties by index: horizontal edges row-major, then vertical.
    h_rank, v_rank = np.maximum(r2[:, :-1], r2[:, 1:]), np.maximum(r2[:-1], r2[1:])
    n_edges = h_rank.size + v_rank.size
    h_key = h_rank * n_edges + np.arange(h_rank.size).reshape(h_rank.shape)
    v_key = v_rank * n_edges + np.arange(h_rank.size, n_edges).reshape(v_rank.shape)

    younger, killer = _elder_merge(-r2, h_key, v_key, np.arange(m))
    births = [flat[younger]]
    deaths = [sval[killer // n_edges]]
    dims = [np.zeros(younger.size, dtype=np.int64)]

    if max_dim >= 1 and nx >= 2 and ny >= 2:
        # Reversed filtration on the dual grid: a later square is elder, the
        # border cells (the outside) eldest, and edges between them never enter.
        size = (nx + 1) * (ny + 1)
        position = np.arange(size).reshape(nx + 1, ny + 1)
        sq_key = np.full((nx + 1, ny + 1), m * size)
        sq_key[1:-1, 1:-1] = size * np.maximum(
            np.maximum(r2[:-1, :-1], r2[:-1, 1:]), np.maximum(r2[1:, :-1], r2[1:, 1:])
        ) + position[1:-1, 1:-1]
        start = np.where(sq_key < m * size, position, 0)
        dual_h, dual_v = np.full((nx + 1, ny), _NO_EDGE), np.full((nx, ny + 1), _NO_EDGE)
        dual_h[1:-1], dual_v[:, 1:-1] = -v_key, -h_key
        younger, killer = _elder_merge(sq_key, dual_h, dual_v, start)
        births.append(sval[-killer // n_edges])
        deaths.append(sval[sq_key.ravel()[younger] // size])
        dims.append(np.ones(younger.size, dtype=np.int64))

    dims, births, deaths = (np.concatenate(x) for x in (dims, births, deaths))
    keep = births != deaths
    return dims[keep], births[keep], deaths[keep], float(sval[0])


def grid_persistence(values, direction="superlevel", max_dim=1):
    """Persistence diagram of a raw value array's level-set filtration.

    The single essential dim-0 class (the whole grid's component) is
    removed; its birth is kept as diagram metadata. Zero-lifetime pairs are
    dropped. For the superlevel direction, raw pairs have birth >= death
    and are stored swapped, so stored points always satisfy death >= birth.
    """
    if direction not in DIRECTIONS:
        raise InvalidParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if max_dim not in (0, 1):
        raise InvalidParameterError(f"max_dim must be 0 or 1, got {max_dim}")
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2 or vals.size == 0:
        raise InvalidInputError(f"values must be a nonempty 2D array, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("field values must all be finite")

    if direction == "superlevel":
        dims, deaths, births, essential = _sublevel_pairs(-vals, max_dim)
        births, deaths, essential = -births, -deaths, -essential
    else:
        dims, births, deaths, essential = _sublevel_pairs(vals, max_dim)
    order = np.lexsort((deaths, births, dims))
    return PersistenceDiagram(dims[order], births[order], deaths[order], direction, essential)


def compute_persistence(field, direction="superlevel", max_dim=1):
    """Persistence diagram of a GridField; see :func:`grid_persistence`."""
    return grid_persistence(field.values, direction, max_dim)


def write_diagram(diagram, path):
    """Write pairs as CSV with header dim,birth,death at full precision."""
    _write_csv(path, "dim,birth,death\n", zip(*(a.tolist() for a in diagram.arrays())))


def read_diagram(path, direction="superlevel"):
    """Read a diagram written by :func:`write_diagram`. The file holds neither the
    direction, which the caller passes, nor the essential birth, which is None."""
    with _open_csv(path, "dim,birth,death") as reader:
        rows, lines = _read_float_rows(reader, path, width=3)
    dims, births, deaths = rows.T
    bad = _bad_pairs(dims, births, deaths)
    if bad.any():
        i = int(bad.argmax())
        dim, birth, death = rows[i].tolist()
        raise CsvFormatError(
            path, lines[i], f"need dim 0 or 1 and death >= birth, got {dim!r},{birth!r},{death!r}"
        )
    return PersistenceDiagram(dims, births, deaths, direction=direction)
