"""Kernel-smoothed weighted intensity of persistence diagrams.

A diagram is turned into a nonnegative function on the (birth, death)
plane: each pair contributes its weight times a product-Gaussian bump of
bandwidth tau, ``w_j * tau^-2 * K((x-b_j)/tau) * K((y-d_j)/tau)``. The
weight is the lifetime times a multiplier per dimension, g0 or g1
(:class:`WeightSpec`), which suppresses near-diagonal features, so no
boundary correction is applied at the diagonal. Intensities of several
diagrams are compared and averaged pointwise on a shared grid.

All smoothing runs through one kernel, :func:`smoothed_sum`. On the grid
the sum over pairs is a matrix product, ``(w * Bx)^T @ By / tau^2`` with
Bx and By the kernel rows of the births and deaths, and the kernel makes
one BLAS product per chunk of pairs. A kernel value below the smallest
normal double is exactly zero, as in every kernel row of the package
(``field._gaussian_rows``): far-tail lanes then skip exp's slow path, and
the products read no subnormals. Each diagram's grid is smoothed from
its own pairs alone, so it does not depend on which other diagrams are
smoothed or averaged beside it, nor on the BLAS thread count. BLAS builds
order the sums differently, so grids are equal to rounding, not bit for
bit, across builds and hosts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
    check_positive,
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
        check_positive("tau", self.tau)
        object.__setattr__(self, "values", vals)

    def mass(self):
        """Node-centered Riemann-sum mass of the grid."""
        return float(self.values.sum() * self.spec.cell_area)


# Default padding of an intensity grid around its pairs, in bandwidths.
_PAD_TAUS = 4.0


def default_intensity_spec(diagrams, tau, nx, ny, pad_factor=_PAD_TAUS):
    """Grid covering the bounding box of all pairs, expanded by pad_factor*tau."""
    check_positive("tau", tau)
    births, deaths, _, _ = pooled_pairs(diagrams)
    return box_spec(births, deaths, pad_factor * tau, nx, ny)


# Pairs per matrix product. OpenBLAS splits a deeper product at points
# that differ between its threaded and single-threaded drivers (measured
# past 384 pairs with its SkylakeX kernels), which would make grids depend
# on the BLAS thread count; 256 leaves a margin for kernels that split
# shallower. It also bounds the kernel rows held at once.
_CHUNK_PAIRS = 256


def smoothed_sum(births, deaths, weights, tau, spec):
    """Smoothed intensity of pooled pair arrays (see :func:`pooled_pairs`)
    on the grid nodes: ``sum_j w_j K_tau(x - b_j) K_tau(y - d_j)``.

    The pairs are summed a chunk at a time, one matrix product per chunk
    of ``(w * Bx)^T @ By``, into one (nx, ny) array that is then divided by
    ``tau**2``.
    """
    acc = np.zeros((spec.nx, spec.ny))
    xs, ys = spec.xs(), spec.ys()
    for lo in range(0, births.size, _CHUNK_PAIRS):
        hi = lo + _CHUNK_PAIRS
        wbx = weights[lo:hi, None] * _gaussian_rows(births[lo:hi], xs, tau)
        acc += wbx.T @ _gaussian_rows(deaths[lo:hi], ys, tau)
    acc /= tau * tau
    return acc


def mean_intensity_values(births, deaths, weights, counts, tau, spec):
    """Pointwise mean of the smoothed intensities of diagrams given as
    pooled pair arrays (see :func:`pooled_pairs`).

    The smoother is linear, so the mean is the smoothing of all pooled
    pairs divided by the number of diagrams; no grid is built per diagram.
    """
    vals = smoothed_sum(births, deaths, weights, tau, spec)
    vals /= len(counts)
    _check_values(vals)
    return vals


def smooth_diagram(diagram, tau, spec, w=DEFAULT_WEIGHTS):
    """Smoothed weighted intensity of one diagram on the grid ``spec``.

    An empty diagram yields the zero grid.
    """
    check_positive("tau", tau)
    values = smoothed_sum(*pooled_pairs([diagram], w)[:3], tau, spec)
    return IntensityGrid(spec=spec, values=values, tau=tau, weights=w)


def _values_at(births, deaths, weights, tau, points):
    """Smoothed intensity of pooled pair arrays at an (m, 2) array of points,
    each value summed pair by pair in stored order."""
    kx = _gaussian_rows(births, points[:, 0], tau)
    ky = _gaussian_rows(deaths, points[:, 1], tau)
    return np.einsum("p,pk,pk->k", weights, kx, ky, optimize=False) / (tau * tau)


def _compatible(grids):
    """The grids as a list, checked to be nonempty and to share spec, tau and weights."""
    grids = list(grids)
    if not grids:
        raise InvalidInputError("need at least one intensity grid")
    head = grids[0]
    if any((g.spec, g.tau, g.weights) != (head.spec, head.tau, head.weights) for g in grids):
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
