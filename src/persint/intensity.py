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
grid bit-identical however many diagrams share a pass.
"""

import bisect
import csv
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
from .field import GridSpec, _fmt, _read_rows, _read_spec_block, _write_rows
from .persistence import PersistenceDiagram

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class WeightSpec:
    """Pair weight w = g(dim) * lifetime.

    ``g`` maps a homology dimension to a nonnegative multiplier (missing
    dimensions default to 1).
    """

    g: tuple = ((0, 1.0), (1, 1.0))

    def __post_init__(self):
        g = tuple(sorted((int(d), float(v)) for d, v in dict(self.g).items()))
        for d, v in g:
            if not (math.isfinite(v) and v >= 0):
                raise InvalidParameterError(f"g({d}) must be finite and >= 0, got {v}")
        object.__setattr__(self, "g", g)

    def g_of(self, dim):
        return dict(self.g).get(int(dim), 1.0)


DEFAULT_WEIGHTS = WeightSpec()


def weight_spec(g0=1.0, g1=1.0):
    """WeightSpec with multipliers g0 and g1 for dims 0 and 1."""
    return WeightSpec(g=((0, g0), (1, g1)))


def weight_eval(w, dim, lifetime):
    """Evaluate g(dim) * lifetime."""
    if lifetime < 0:
        raise InvalidInputError(f"lifetime must be >= 0, got {lifetime}")
    return w.g_of(dim) * lifetime


def pooled_pairs(diagrams, w=DEFAULT_WEIGHTS):
    """Births, deaths and weights of all pairs of the diagrams, concatenated
    in stored order, plus each diagram's pair count."""
    # An empty diagram's arrays come first, so that no diagrams give empty arrays.
    columns = zip(PersistenceDiagram().arrays(), *(d.arrays() for d in diagrams))
    dims, births, deaths = (np.concatenate(c) for c in columns)
    counts = np.array([len(d) for d in diagrams], dtype=np.int64)
    weights = deaths - births  # the lifetimes, weighted in place below
    for d, v in w.g:
        weights[dims == d] *= v
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
        if not self.tau > 0:
            raise InvalidParameterError(f"tau must be > 0, got {self.tau}")
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


def default_intensity_spec(diagrams, tau, nx=128, ny=128, pad_factor=4.0):
    """Grid covering the bounding box of all pairs, expanded by pad_factor*tau."""
    births, deaths, _, _ = pooled_pairs(diagrams)
    if not births.size:
        raise InvalidInputError("cannot derive intensity bounds: no pairs in any diagram")
    pad = pad_factor * tau
    return GridSpec(
        x_lo=float(births.min()) - pad,
        x_hi=float(births.max()) + pad,
        y_lo=float(deaths.min()) - pad,
        y_hi=float(deaths.max()) + pad,
        nx=nx,
        ny=ny,
    )


# The smoothing kernel's two work arrays stay near this size: averages
# smooth as many diagrams per pass, and the kernel makes as many pair terms
# per einsum call, as fit.
_CHUNK_BYTES = 1 << 19


def _grids_per_chunk(spec):
    return max(1, _CHUNK_BYTES // (8 * spec.nx * spec.ny))


def _gaussian_rows(centers, nodes, tau):
    return np.exp(-0.5 * ((centers[:, None] - nodes[None, :]) / tau) ** 2) / SQRT_TWO_PI


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


def mean_intensity_values(diagrams, tau, spec, w=DEFAULT_WEIGHTS):
    """Pointwise mean of the smoothed intensities of an iterable of diagrams.

    Diagrams are drawn and smoothed a batch per pass and their grids added
    in diagram order, so no grid object is built per diagram and at most one
    batch is held; each batch is checked once.
    """
    acc = np.zeros((spec.nx, spec.ny))
    size = _grids_per_chunk(spec)
    # One work array for all batches: fresh ones cost page faults per batch.
    work = np.empty((2, size, spec.nx, spec.ny))
    diagrams = iter(diagrams)
    count = 0
    while batch := list(itertools.islice(diagrams, size)):
        grids, slots = smooth_pooled(*pooled_pairs(batch, w), tau, spec, work)
        _check_values(grids)
        for slot in slots:
            acc += grids[slot]
        count += len(batch)
    acc /= count
    return acc


def smooth_diagram(diagram, tau, w=DEFAULT_WEIGHTS, spec=None):
    """Smoothed weighted intensity of one diagram on the given grid.

    An empty diagram yields the zero grid. If ``spec`` is omitted it is
    derived from the diagram via :func:`default_intensity_spec`.
    """
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    if spec is None:
        spec = default_intensity_spec([diagram], tau)
    grids, _ = smooth_pooled(*pooled_pairs([diagram], w), tau, spec)
    return IntensityGrid(spec=spec, values=grids[0], tau=tau, weights=w)


def intensity_at(diagram, tau, points, w=DEFAULT_WEIGHTS):
    """Evaluate the smoothed intensity at arbitrary (birth, death) points."""
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    births, deaths, wts, _ = pooled_pairs([diagram], w)
    if births.size == 0:
        return np.zeros(pts.shape[0])
    kx = np.exp(-0.5 * ((pts[:, 0][:, None] - births[None, :]) / tau) ** 2) / SQRT_TWO_PI
    ky = np.exp(-0.5 * ((pts[:, 1][:, None] - deaths[None, :]) / tau) ** 2) / SQRT_TWO_PI
    return (kx * ky) @ wts / (tau * tau)


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


def average_intensity(grids):
    """Pointwise arithmetic mean of intensity grids sharing spec/tau/weights."""
    grids = list(grids)
    if not grids:
        raise InvalidInputError("cannot average an empty list of intensity grids")
    head = grids[0]
    for g in grids[1:]:
        if not head.compatible_with(g):
            raise IncompatibleGridsError(
                "intensity grids differ in spec, tau, or weights; cannot average"
            )
    vals = np.zeros_like(head.values)
    for g in grids:
        vals += g.values
    vals /= len(grids)
    return IntensityGrid(spec=head.spec, values=vals, tau=head.tau, weights=head.weights)


def write_intensity(grid, path):
    """Write an intensity grid: spec block, tau/weight block, row-major values."""
    with open(path, "w", newline="") as fh:
        fh.write("kind,x_lo,x_hi,y_lo,y_hi,nx,ny\n")
        s = grid.spec
        fh.write(
            f"intensity,{_fmt(s.x_lo)},{_fmt(s.x_hi)},{_fmt(s.y_lo)},{_fmt(s.y_hi)},"
            f"{s.nx},{s.ny}\n"
        )
        fh.write("tau,g0,g1\n")
        fh.write(f"{_fmt(grid.tau)},{_fmt(grid.weights.g_of(0))},{_fmt(grid.weights.g_of(1))}\n")
        _write_rows(fh, grid.values)


def read_intensity(path):
    """Read an intensity grid written by :func:`write_intensity`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _, spec = _read_spec_block(reader, path, kinds=("intensity",))
        meta_header = next(reader, None)
        if meta_header is None or [h.strip() for h in meta_header] != ["tau", "g0", "g1"]:
            raise CsvFormatError(path, 3, "expected metadata header 'tau,g0,g1'")
        meta = next(reader, None)
        if meta is None or len(meta) != 3:
            raise CsvFormatError(path, 4, "expected a 3-column tau/weight row")
        try:
            tau = float(meta[0])
            w = weight_spec(float(meta[1]), float(meta[2]))
        except ValueError as exc:
            raise CsvFormatError(path, 4, f"bad value: {exc}") from None
        vals = _read_rows(reader, path, spec, first_line=5)
    return IntensityGrid(spec=spec, values=vals, tau=tau, weights=w)
