"""Scalar summary fields on regular 2D grids: kernel density and distance.

Grid convention: node (i, j) of a GridSpec sits at
``(x_lo + i*dx, y_lo + j*dy)`` with ``dx = (x_hi-x_lo)/(nx-1)``, and field
values are stored as an (nx, ny) array indexed ``values[i, j]``.
Integrals are node-centered Riemann sums, ``values.sum() * dx * dy``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, InvalidInputError, InvalidParameterError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

FIELD_KINDS = ("density", "distance")
_SPEC_HEADER = "kind,x_lo,x_hi,y_lo,y_hi,nx,ny"  # the first line of field and intensity CSVs


@dataclass(frozen=True)
class GridSpec:
    """Bounds and node counts of a regular 2D grid."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise InvalidParameterError(
                f"grid bounds must satisfy lo < hi, got x [{self.x_lo}, {self.x_hi}] "
                f"y [{self.y_lo}, {self.y_hi}]"
            )
        if self.nx < 2 or self.ny < 2:
            raise InvalidParameterError(f"grid needs nx, ny >= 2, got {self.nx}x{self.ny}")

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def dy(self):
        return (self.y_hi - self.y_lo) / (self.ny - 1)

    @property
    def cell_area(self):
        return self.dx * self.dy

    def xs(self):
        return self.x_lo + np.arange(self.nx) * self.dx

    def ys(self):
        return self.y_lo + np.arange(self.ny) * self.dy


@dataclass(frozen=True)
class GridField:
    """A scalar function sampled on a GridSpec; kind is 'density' or 'distance'."""

    spec: GridSpec
    values: np.ndarray
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.spec.nx, self.spec.ny):
            raise InvalidInputError(
                f"values shape {vals.shape} does not match grid {self.spec.nx}x{self.spec.ny}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("field values must all be finite")
        if self.kind not in FIELD_KINDS:
            raise InvalidParameterError(f"kind must be one of {FIELD_KINDS}, got {self.kind!r}")
        if np.any(vals < 0):
            raise InvalidInputError(f"{self.kind} field values must be >= 0")
        object.__setattr__(self, "values", vals)

    def integral(self):
        """Node-centered Riemann-sum integral over the grid."""
        return float(self.values.sum() * self.spec.cell_area)


def box_spec(xs, ys, pad, nx, ny):
    """Grid covering the bounding box of the points (xs, ys), expanded by ``pad``."""
    if not len(xs):
        raise InvalidInputError("cannot derive grid bounds: no points")
    return GridSpec(
        x_lo=float(xs.min()) - pad,
        x_hi=float(xs.max()) + pad,
        y_lo=float(ys.min()) - pad,
        y_hi=float(ys.max()) + pad,
        nx=nx,
        ny=ny,
    )


def default_kde_spec(cloud, h, nx=128, ny=128):
    """Grid covering the cloud's bounding box expanded by 4h per side."""
    return box_spec(cloud.x, cloud.y, 4.0 * h, nx, ny)


def _gaussian_rows(centers, nodes, bandwidth):
    """Standard Gaussian kernel at ``(center - node) / bandwidth``, one row per center."""
    return np.exp(-0.5 * ((centers[:, None] - nodes[None, :]) / bandwidth) ** 2) / SQRT_TWO_PI


def kde_grid(cloud, h, spec):
    """Gaussian kernel density estimate of the cloud sampled at the grid nodes.

    Value at node x is ``(n h^2)^-1 sum_i K2((X_i - x)/h)`` with K2 the
    product of two standard 1D Gaussian kernels. Evaluation is exact (no
    kernel truncation); summation over points runs in fixed index order.
    Desk-scale inputs make the O(n * nx * ny) cost affordable; truncating
    the kernel at 5h would be the hook if larger inputs ever matter.
    """
    if len(cloud) == 0:
        raise InvalidInputError("kernel density of an empty cloud is undefined")
    if not h > 0:
        raise InvalidParameterError(f"bandwidth h must be > 0, got {h}")
    ax = _gaussian_rows(cloud.x, spec.xs(), h)
    ay = _gaussian_rows(cloud.y, spec.ys(), h)
    # optimize=False keeps einsum on its fixed-order C loop (deterministic).
    vals = np.einsum("pi,pj->ij", ax, ay, optimize=False) / (len(cloud) * h * h)
    return GridField(spec=spec, values=vals, kind="density")


def distance_grid(cloud, spec):
    """Euclidean distance to the nearest cloud point at each grid node."""
    if len(cloud) == 0:
        raise InvalidInputError("distance to an empty cloud is undefined")
    xs = spec.xs()[:, None, None]
    ys = spec.ys()[None, :, None]
    best = np.full((spec.nx, spec.ny), np.inf)
    for start in range(0, len(cloud), 64):
        px = cloud.x[start : start + 64][None, None, :]
        py = cloud.y[start : start + 64][None, None, :]
        d2 = (xs - px) ** 2 + (ys - py) ** 2
        np.minimum(best, d2.min(axis=2), out=best)
    return GridField(spec=spec, values=np.sqrt(best), kind="distance")


def _fmt(x):
    return repr(float(x))


def write_field(field, path):
    """Write a field as CSV: a spec header block, then row-major values."""
    with open(path, "w", newline="") as fh:
        _write_spec_block(fh, field.kind, field.spec)
        _write_rows(fh, field.values)


def _write_spec_block(fh, kind, s):
    fh.write(f"{_SPEC_HEADER}\n")
    fh.write(f"{kind},{_fmt(s.x_lo)},{_fmt(s.x_hi)},{_fmt(s.y_lo)},{_fmt(s.y_hi)},{s.nx},{s.ny}\n")


def _write_rows(fh, rows, labels=None):
    """Write numeric rows as CSV lines, every value as its ``repr``.

    ``rows`` is a float array or a list of rows of Python ints and floats.
    A float's ``repr`` is the shortest string that reads back to the same
    double, so values round-trip exactly. With ``labels``, each line ends
    with its row's label.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if labels is None:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    else:
        lines = zip(rows, labels, strict=True)
        fh.writelines(f"{','.join(map(repr, row))},{label}\n" for row, label in lines)


def _read_header(reader, path, header, line=1):
    row = next(reader, None)
    if row is None or [h.strip() for h in row] != header.split(","):
        raise CsvFormatError(path, line, f"expected header '{header}'")


def _read_spec_block(reader, path, kinds):
    _read_header(reader, path, _SPEC_HEADER)
    row = next(reader, None)
    if row is None or len(row) != 7:
        raise CsvFormatError(path, 2, "expected a 7-column spec row")
    kind = row[0].strip()
    if kind not in kinds:
        raise CsvFormatError(path, 2, f"unknown field kind {kind!r}")
    try:
        spec = GridSpec(
            x_lo=float(row[1]),
            x_hi=float(row[2]),
            y_lo=float(row[3]),
            y_hi=float(row[4]),
            nx=int(row[5]),
            ny=int(row[6]),
        )
    except (ValueError, InvalidParameterError) as exc:
        raise CsvFormatError(path, 2, f"bad grid spec: {exc}") from None
    return kind, spec


def _read_rows(reader, path, spec, first_line):
    vals = np.empty((spec.nx, spec.ny))
    lineno = first_line - 1
    for i in range(spec.nx):
        row = next(reader, None)
        lineno += 1
        if row is None:
            raise CsvFormatError(path, lineno, f"expected {spec.nx} value rows, got {i}")
        if len(row) != spec.ny:
            raise CsvFormatError(path, lineno, f"expected {spec.ny} columns, got {len(row)}")
        try:
            vals[i] = [float(v) for v in row]
        except ValueError as exc:
            raise CsvFormatError(path, lineno, f"bad float: {exc}") from None
    for row in reader:
        lineno += 1
        if any(cell.strip() for cell in row):
            raise CsvFormatError(path, lineno, f"unexpected data after {spec.nx} value rows")
    _reject_bad_values(path, vals, range(first_line, first_line + spec.nx), nonnegative=True)
    return vals


def _reject_bad_values(path, vals, lines, nonnegative=False):
    """CsvFormatError at the line of the first row of ``vals`` (read from
    ``lines``) with a value that is not finite, or negative if ``nonnegative``."""
    bad = ~np.isfinite(vals) | (nonnegative & (vals < 0))
    if bad.any():
        need = "finite and >= 0" if nonnegative else "finite"
        line = lines[int(bad.any(axis=1).argmax())]
        raise CsvFormatError(path, line, f"values must be {need}, got {float(vals[bad][0])!r}")


def _read_float_rows(reader, path, first_line, width=None):
    """The nonblank CSV rows from ``first_line`` on as a 2D float array, each
    ``width`` values long (by default, as long as the first). CsvFormatError
    names the first line that breaks this or holds a non-finite value."""
    rows, lines = [], []
    for lineno, row in enumerate(reader, start=first_line):
        if not row:
            continue
        width = width or len(row)
        if len(row) != width:
            raise CsvFormatError(path, lineno, f"expected {width} columns, got {len(row)}")
        try:
            rows.append(list(map(float, row)))
        except ValueError as exc:
            raise CsvFormatError(path, lineno, f"bad float: {exc}") from None
        lines.append(lineno)
    vals = np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
    _reject_bad_values(path, vals, lines)
    return vals


def read_field(path):
    """Read a field written by :func:`write_field`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        kind, spec = _read_spec_block(reader, path, FIELD_KINDS)
        vals = _read_rows(reader, path, spec, first_line=3)
    return GridField(spec=spec, values=vals, kind=kind)
