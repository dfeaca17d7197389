"""Scalar summary fields on regular 2D grids: kernel density and distance.

Grid convention: node (i, j) of a GridSpec sits at
``(x_lo + i*dx, y_lo + j*dy)`` with ``dx = (x_hi-x_lo)/(nx-1)``, and field
values are stored as an (nx, ny) array indexed ``values[i, j]``.
Integrals are node-centered Riemann sums, ``values.sum() * dx * dy``.

This module also holds the codecs of every artifact: `_write_csv` and
`_read_float_rows` for CSV, and `_write_json` for JSON.
"""

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, InvalidInputError, InvalidParameterError, check_positive

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
        if self.nx < 2 or self.ny < 2:
            raise InvalidParameterError(f"grid needs nx, ny >= 2, got {self.nx}x{self.ny}")
        # The cell area is finite only if the bounds, dx and dy all are, and
        # positive only if neither step nor their product underflows to zero.
        bounds_ok = self.x_lo < self.x_hi and self.y_lo < self.y_hi
        if not (bounds_ok and 0.0 < self.cell_area < math.inf):
            raise InvalidParameterError(
                f"grid bounds must be finite with lo < hi and a positive, finite cell area, got "
                f"x [{self.x_lo}, {self.x_hi}] y [{self.y_lo}, {self.y_hi}]"
            )

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


def default_kde_spec(cloud, h, nx, ny):
    """Grid covering the cloud's bounding box expanded by 4h per side."""
    check_positive("h", h)
    return box_spec(cloud.x, cloud.y, 4.0 * h, nx, ny)


# The least exponent whose kernel value exp(arg) / SQRT_TWO_PI is a normal double.
_LOG_FLOOR = -707.4774799990594


def _gaussian_rows(centers, nodes, bandwidth):
    """Standard Gaussian kernel at ``(center - node) / bandwidth``, one row per center.

    A value below the smallest normal double is exactly 0.0: its exponent
    becomes -inf first, which exp maps to zero off its slow path for
    subnormal and underflowing results, and no product then pays a
    microcode assist per subnormal. Every other value is
    ``exp(arg) / SQRT_TWO_PI`` bit for bit.
    """
    arg = -0.5 * ((centers[:, None] - nodes[None, :]) / bandwidth) ** 2
    arg[arg < _LOG_FLOOR] = -np.inf
    np.exp(arg, out=arg)
    arg /= SQRT_TWO_PI
    return arg


def kde_grid(cloud, h, spec):
    """Gaussian kernel density estimate of the cloud sampled at the grid nodes.

    Value at node x is ``(n h^2)^-1 sum_i K2((X_i - x)/h)`` with K2 the
    product of two standard 1D Gaussian kernels, each zero where its value
    would fall below the smallest normal double (:func:`_gaussian_rows`).
    Summation over points runs in fixed index order.
    """
    if len(cloud) == 0:
        raise InvalidInputError("kernel density of an empty cloud is undefined")
    check_positive("h", h)
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


def _spec_head(kind, s):
    """The spec block that opens a field or intensity CSV; bounds are written as floats."""
    bounds = ",".join(repr(float(v)) for v in (s.x_lo, s.x_hi, s.y_lo, s.y_hi))
    return f"{_SPEC_HEADER}\n{kind},{bounds},{s.nx},{s.ny}\n"


def _write_csv(path, head, rows, labels=None):
    """Write a CSV artifact: the ``head`` text, then one line per row of numbers.

    ``rows`` is a float array or an iterable of rows of Python ints and
    floats, each written as its ``repr``: the shortest string that reads back
    to the same double, so values round-trip exactly. With ``labels``, each
    line ends with its row's label.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        if labels is None:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        else:
            lines = zip(rows, labels, strict=True)
            fh.writelines(f"{','.join(map(repr, row))},{label}\n" for row, label in lines)


def _write_json(path, payload):
    """Write a JSON artifact: keys sorted, two-space indents, a final newline.
    A NaN or infinity, which JSON cannot hold, raises ValueError before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_field(field, path):
    """Write a field as CSV: a spec header block, then row-major values."""
    _write_csv(path, _spec_head(field.kind, field.spec), field.values)


@contextmanager
def _open_csv(path, header=None):
    """A csv reader over ``path``, past its checked ``header`` line if one is given."""
    # Lines are decoded one at a time: a text-mode file decodes ahead in
    # chunks, so its errors would not name the line that is not UTF-8.
    with open(path, "rb") as fh:
        reader = csv.reader(map(bytes.decode, fh))
        try:
            if header is not None:
                _read_header(reader, path, header)
            yield reader
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise CsvFormatError(path, reader.line_num, str(exc)) from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(path, reader.line_num + 1, f"not UTF-8: {exc}") from None


def _read_header(reader, path, header):
    row = next(reader, None)
    if row is None or [h.strip() for h in row] != header.split(","):
        raise CsvFormatError(path, reader.line_num + (row is None), f"expected header '{header}'")


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


def _read_float_rows(reader, path, width=None, count=None, nonnegative=False):
    """The next nonblank rows of ``reader`` as a 2D float array, with the
    line number of each row.

    Reads ``count`` rows, or every row to the end of the file, each
    ``width`` values long (by default, as long as the first). Blank lines
    are skipped. CsvFormatError names the first line that breaks this or
    holds a value that is not finite, or negative if ``nonnegative``.
    """
    rows, lines = [], []
    for row in reader:
        if not row:
            continue
        width = width or len(row)
        if len(row) != width:
            raise CsvFormatError(path, reader.line_num, f"expected {width} columns, got {len(row)}")
        try:
            rows.append(list(map(float, row)))
        except ValueError as exc:
            raise CsvFormatError(path, reader.line_num, f"bad float: {exc}") from None
        lines.append(reader.line_num)
        if len(rows) == count:
            break
    if count is not None and len(rows) < count:
        raise CsvFormatError(path, reader.line_num + 1, f"expected {count} rows, got {len(rows)}")
    vals = np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
    bad = ~np.isfinite(vals) | (nonnegative & (vals < 0))
    if bad.any():
        need = "finite and >= 0" if nonnegative else "finite"
        line = lines[int(bad.any(axis=1).argmax())]
        raise CsvFormatError(path, line, f"values must be {need}, got {float(vals[bad][0])!r}")
    return vals, lines


def _read_values(reader, path, spec):
    """The nx rows of ny values >= 0 that end a field or intensity CSV."""
    vals, _ = _read_float_rows(reader, path, spec.ny, spec.nx, nonnegative=True)
    if any(any(cell.strip() for cell in row) for row in reader):
        raise CsvFormatError(path, reader.line_num, f"unexpected data after {spec.nx} value rows")
    return vals


def read_field(path):
    """Read a field written by :func:`write_field`."""
    with _open_csv(path) as reader:
        kind, spec = _read_spec_block(reader, path, FIELD_KINDS)
        return GridField(spec=spec, values=_read_values(reader, path, spec), kind=kind)
