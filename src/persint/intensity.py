"""Kernel-smoothed weighted intensity of persistence diagrams.

A diagram is turned into a nonnegative function on the (birth, death)
plane: each pair contributes its weight times a product-Gaussian bump of
bandwidth tau, ``w_j * tau^-2 * K((x-b_j)/tau) * K((y-d_j)/tau)``. The
weight is the lifetime times a multiplier per dimension, g0 or g1
(:class:`WeightSpec`), which suppresses near-diagonal features, so no
boundary correction is applied at the diagonal. Intensities of several
diagrams are compared and averaged pointwise on a shared grid.

All smoothing runs through one kernel, :func:`smooth_pooled`, which
smooths a batch of diagrams per pass. Each grid value is summed pair by
pair in stored order, ``((w_0 K_0) + w_1 K_1) + ...``, starting from zero:
the order of a plain einsum loop. BLAS matrix products would be faster per
grid but reassociate that sum, so written intensities would depend on the
BLAS build and on how diagrams are batched; the fixed order keeps every
grid bit-identical however many diagrams share a pass. :func:`intensity_at`
sums the same terms in the same order, so at a node it equals the grid.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
)
from .field import (
    GridSpec,
    box_spec,
    _gaussian_rows,
    _open_csv,
    _read_float_rows,
    _read_header,
    _read_spec_block,
    _read_values,
    _spec_head,
    _write_csv,
)
from .persistence import PersistenceDiagram

@dataclass(frozen=True)
class WeightSpec:
    """Pair weight w = g0 * lifetime in dim 0 and g1 * lifetime in dim 1."""

    g0: float = 1.0
    g1: float = 1.0

    def __post_init__(self):
        for name in ("g0", "g1"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0):
                raise InvalidParameterError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)


DEFAULT_WEIGHTS = WeightSpec()


def pooled_pairs(diagrams, w=DEFAULT_WEIGHTS):
    """Births, deaths and weights of all pairs of the diagrams, concatenated
    in stored order, plus each diagram's pair count."""
    # An empty diagram's arrays come first, so that no diagrams give empty arrays.
    columns = zip(PersistenceDiagram().arrays(), *(d.arrays() for d in diagrams))
    dims, births, deaths = (np.concatenate(c) for c in columns)
    counts = np.array([len(d) for d in diagrams], dtype=np.int64)
    weights = deaths - births  # the lifetimes, weighted in place below
    weights[dims == 0] *= w.g0
    weights[dims == 1] *= w.g1
    return births, deaths, weights, counts


def _check_values(vals):
    if not np.isfinite(vals).all():
        raise InvalidInputError("intensity values must all be finite")
    if (vals < 0).any():
        raise InvalidInputError("intensity values must be >= 0")


@dataclass(frozen=True)
class IntensityGrid:
    """Nonnegative intensity values on a (birth, death) grid."""

    spec: GridSpec
    values: np.ndarray
    tau: float
    weights: WeightSpec = DEFAULT_WEIGHTS

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.spec.nx, self.spec.ny):
            raise InvalidInputError(
                f"values shape {vals.shape} does not match grid {self.spec.nx}x{self.spec.ny}"
            )
        _check_values(vals)
        if not 0 < self.tau < math.inf:
            raise InvalidParameterError(f"tau must be finite and > 0, got {self.tau}")
        object.__setattr__(self, "values", vals)

    def mass(self):
        """Node-centered Riemann-sum mass of the grid."""
        return float(self.values.sum() * self.spec.cell_area)

    def compatible_with(self, other):
        return (
            self.spec == other.spec
            and self.tau == other.tau
            and self.weights == other.weights
        )


# Default padding of an intensity grid around its pairs, in bandwidths.
_PAD_TAUS = 4.0


def default_intensity_spec(diagrams, tau, nx=128, ny=128, pad_factor=_PAD_TAUS):
    """Grid covering the bounding box of all pairs, expanded by pad_factor*tau."""
    births, deaths, _, _ = pooled_pairs(diagrams)
    return box_spec(births, deaths, pad_factor * tau, nx, ny)


# The smoothing kernel's two work arrays stay near this size: averages
# smooth as many diagrams per pass, and the kernel makes as many pair terms
# per einsum call, as fit.
_CHUNK_BYTES = 1 << 19


def _grids_per_chunk(spec):
    return max(1, _CHUNK_BYTES // (8 * spec.nx * spec.ny))


def smooth_pooled(births, deaths, weights, counts, tau, spec, work=None):
    """Smoothed values of a batch of diagrams given as pooled pair arrays.

    Diagram k owns the next ``counts[k]`` entries of the pair arrays (see
    :func:`pooled_pairs`). Returns ``(grids, slots)``: an (m, nx, ny) array
    and the row ``slots[k]`` that holds diagram k's grid. Callers that
    smooth many batches pass ``work``, a (2, K, nx, ny) array with K >= m
    for the sums and the pair terms; the grids are then a view of it that
    the next call overwrites.

    Every value is summed from zero pair by pair in stored order, so each
    grid equals ``np.einsum("p,pi,pj->ij", w, bx, by, optimize=False) /
    tau**2`` of its diagram alone, bit for bit. The diagrams are sorted by
    pair count, largest first, and their pairs laid out step-major, so step
    k adds the k-th pair's term of every diagram that has one to a prefix
    of the sums, from contiguous rows of the kernel factors.
    """
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    sizes = counts[order]
    steps = np.arange(sizes.max(initial=0))[:, None]
    present = steps < sizes
    rows = ((np.cumsum(counts) - counts)[order] + steps)[present]
    wbx = weights[rows, None] * _gaussian_rows(births[rows], spec.xs(), tau)
    by = _gaussian_rows(deaths[rows], spec.ys(), tau)
    lives = present.sum(axis=1).tolist()
    starts = [0, *itertools.accumulate(lives)]  # first row of each step
    if work is None:
        sums = np.empty((counts.size, spec.nx, spec.ny))
        cap = max(counts.size, _grids_per_chunk(spec))
        term = np.empty((min(cap, rows.size), spec.nx, spec.ny))
    else:
        sums, term = work[0, : counts.size], work[1]
    sums[...] = 0.0
    cap = len(term)
    k = 0
    while k < len(lives):
        # One einsum call makes the terms of the steps k..j-1 that fit in
        # ``term``: outer products, one rounding per entry, in einsum's loop,
        # which is faster here than a broadcast multiply.
        j = bisect.bisect_right(starts, starts[k] + cap) - 1
        lo, hi = starts[k], starts[j]
        np.einsum("pi,pj->pij", wbx[lo:hi], by[lo:hi], out=term[: hi - lo])
        for s in range(k, j):
            live = lives[s]
            np.add(sums[:live], term[starts[s] - lo : starts[s + 1] - lo], out=sums[:live])
        k = j
    sums /= tau * tau
    return sums, np.argsort(order)


def mean_intensity_values(births, deaths, weights, counts, tau, spec):
    """Pointwise mean of the smoothed intensities of diagrams given as
    pooled pair arrays (see :func:`pooled_pairs`).

    The diagrams are smoothed a batch per pass and their grids added in
    diagram order, so no grid object is built per diagram; each batch is
    checked once.
    """
    acc = np.zeros((spec.nx, spec.ny))
    size = _grids_per_chunk(spec)
    # One work array for all batches: fresh ones cost page faults per batch.
    work = np.empty((2, size, spec.nx, spec.ny))
    edges = np.concatenate([[0], np.cumsum(counts)])  # each diagram's first pair
    for k in range(0, len(counts), size):
        lo, hi = edges[k], edges[min(k + size, len(counts))]
        pairs = births[lo:hi], deaths[lo:hi], weights[lo:hi], counts[k : k + size]
        grids, slots = smooth_pooled(*pairs, tau, spec, work)
        _check_values(grids)
        for slot in slots:
            acc += grids[slot]
    acc /= len(counts)
    return acc


def smooth_diagram(diagram, tau, w=DEFAULT_WEIGHTS, spec=None):
    """Smoothed weighted intensity of one diagram on the given grid.

    An empty diagram yields the zero grid. If ``spec`` is omitted it is
    derived from the diagram via :func:`default_intensity_spec`.
    """
    if not 0 < tau < math.inf:
        raise InvalidParameterError(f"tau must be finite and > 0, got {tau}")
    if spec is None:
        spec = default_intensity_spec([diagram], tau)
    grids, _ = smooth_pooled(*pooled_pairs([diagram], w), tau, spec)
    return IntensityGrid(spec=spec, values=grids[0], tau=tau, weights=w)


def _values_at(births, deaths, weights, tau, points):
    """Smoothed intensity of pooled pair arrays at an (m, 2) array of points,
    each value summed pair by pair in stored order as in :func:`smooth_pooled`."""
    kx = _gaussian_rows(births, points[:, 0], tau)
    ky = _gaussian_rows(deaths, points[:, 1], tau)
    return np.einsum("p,pk,pk->k", weights, kx, ky, optimize=False) / (tau * tau)


def intensity_at(diagram, tau, points, w=DEFAULT_WEIGHTS):
    """Evaluate the smoothed intensity at arbitrary (birth, death) points."""
    if not 0 < tau < math.inf:
        raise InvalidParameterError(f"tau must be finite and > 0, got {tau}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return _values_at(*pooled_pairs([diagram], w)[:3], tau, pts)


def pair_sum(diagram, fn, w=DEFAULT_WEIGHTS):
    """Weighted sum of fn over the diagram's points, sum_j w_j fn(b_j, d_j), in stored order."""
    births, deaths, weights, _ = pooled_pairs([diagram], w)
    terms = zip(weights.tolist(), births.tolist(), deaths.tolist())
    return float(sum(wt * fn(b, d) for wt, b, d in terms))


def integrate_against(grid, fn):
    """Riemann sum of fn(x, y) * intensity over the grid."""
    xs = grid.spec.xs()[:, None]
    ys = grid.spec.ys()[None, :]
    return float((fn(xs, ys) * grid.values).sum() * grid.spec.cell_area)


def _compatible(grids):
    """The grids as a list, checked to be nonempty and to share spec, tau and weights."""
    grids = list(grids)
    if not grids:
        raise InvalidInputError("need at least one intensity grid")
    if not all(grids[0].compatible_with(g) for g in grids[1:]):
        raise IncompatibleGridsError("intensity grids differ in spec, tau, or weights")
    return grids


def average_intensity(grids):
    """Pointwise arithmetic mean of intensity grids sharing spec/tau/weights."""
    grids = _compatible(grids)
    head = grids[0]
    vals = np.zeros_like(head.values)
    for g in grids:
        vals += g.values
    vals /= len(grids)
    return IntensityGrid(spec=head.spec, values=vals, tau=head.tau, weights=head.weights)


def write_intensity(grid, path):
    """Write an intensity grid: spec block, tau/weight block, row-major values."""
    w = grid.weights
    meta = f"tau,g0,g1\n{float(grid.tau)!r},{w.g0!r},{w.g1!r}\n"
    _write_csv(path, _spec_head("intensity", grid.spec) + meta, grid.values)


def read_intensity(path):
    """Read an intensity grid written by :func:`write_intensity`."""
    with _open_csv(path) as reader:
        _, spec = _read_spec_block(reader, path, kinds=("intensity",))
        _read_header(reader, path, "tau,g0,g1")
        meta, (line,) = _read_float_rows(reader, path, width=3, count=1, nonnegative=True)
        tau, g0, g1 = meta[0].tolist()
        if not tau > 0:
            raise CsvFormatError(path, line, f"tau must be > 0, got {tau!r}")
        vals = _read_values(reader, path, spec)
    return IntensityGrid(spec=spec, values=vals, tau=tau, weights=WeightSpec(g0, g1))
