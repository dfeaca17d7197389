"""Seeded generators for the synthetic point-cloud populations.

Draw protocol (pinned for reproducibility): every generator consumes, per
point, first one component-selector uniform, then the component-specific
variates in a fixed order. Single-component generators draw the selector
too, so the contaminated mixture with q=0 yields a stream bit-identical to
the plain uniform-square generator under the same seed.

Per-point variate order:

* noisy circles:    selector u, angle u, Box-Muller noise pair (2 uniforms)
* gaussian mixture: selector u, Box-Muller pair (2 uniforms)
* uniform square:   selector u (unused), x u, y u
* contaminated:     selector u, then (x u, y u) square branch or (angle u)
                    circle branch

Each cloud takes all its uniforms from one ``rng.random`` call, as many as
its points could need (3 per point for the square and circle mixture, which
uses 2 for a circle point), and reads them in the order above, as the
``seeding`` draw protocol describes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .field import _open_csv, _read_float_rows, _write_csv
from .seeding import TWO_PI, box_muller, make_rng, scaled_index

CIRCLE_CENTERS = ((0.0, 0.0),)
THREE_CIRCLE_CENTERS = ((0.0, 0.0), (1.0, 0.0), (1.5, 0.5))
GAUSS3_CENTERS = THREE_CIRCLE_CENTERS


@dataclass(frozen=True)
class PointCloud:
    """A finite set of 2D sample points, stored as an (n, 2) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def x(self):
        return self.points[:, 0]

    @property
    def y(self):
        return self.points[:, 1]


def _check_count(n):
    n = int(n)
    if n < 0:
        raise InvalidParameterError(f"point count must be >= 0, got {n}")
    return n


def _check_fraction(q):
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0, 1], got {q}")
    return q


def gen_noisy_circles(n, centers, radius, noise_sd, seed):
    """n points on circles around ``centers``, blurred by isotropic Gaussian noise.

    Per point: a center is chosen uniformly, an angle uniformly on [0, 2pi),
    the point is placed on the circle of the given radius, and N(0, noise_sd^2)
    noise is added per axis.
    """
    n = _check_count(n)
    centers = [(float(cx), float(cy)) for cx, cy in centers]
    if not centers:
        raise InvalidParameterError("centers must be nonempty")
    if not radius > 0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    if noise_sd < 0:
        raise InvalidParameterError(f"noise_sd must be >= 0, got {noise_sd}")
    u = make_rng(seed).random((n, 4))
    picks = scaled_index(u[:, 0], len(centers)).tolist()
    pts = []
    for pick, (_, angle, u1, u2) in zip(picks, u.tolist()):
        cx, cy = centers[pick]
        theta = TWO_PI * angle
        gx, gy = box_muller(u1, u2)
        pts += (cx + radius * math.cos(theta) + noise_sd * gx,
                cy + radius * math.sin(theta) + noise_sd * gy)
    return PointCloud(pts)


def gen_gaussian_mixture(n, centers, sd, seed):
    """n points from an equal-weight mixture of isotropic Gaussians."""
    n = _check_count(n)
    centers = [(float(cx), float(cy)) for cx, cy in centers]
    if not centers:
        raise InvalidParameterError("centers must be nonempty")
    if not sd > 0:
        raise InvalidParameterError(f"sd must be > 0, got {sd}")
    u = make_rng(seed).random((n, 3))
    picks = scaled_index(u[:, 0], len(centers)).tolist()
    pts = []
    for pick, (_, u1, u2) in zip(picks, u.tolist()):
        cx, cy = centers[pick]
        gx, gy = box_muller(u1, u2)
        pts += (cx + sd * gx, cy + sd * gy)
    return PointCloud(pts)


def _mixture_square_circle(n, q, lo, hi, seed):
    # Shared draw path for the uniform square and the contaminated mixture.
    width = hi - lo
    u = make_rng(seed).random(3 * n).tolist()
    pts = []
    k = 0  # cursor into u: a circle point reads 2 uniforms, a square point 3
    for _ in range(n):
        if u[k] < q:
            theta = TWO_PI * u[k + 1]
            pts += (math.cos(theta), math.sin(theta))
            k += 2
        else:
            pts += (lo + width * u[k + 1], lo + width * u[k + 2])
            k += 3
    return PointCloud(pts)


def gen_uniform_square(n, lo, hi, seed):
    """n i.i.d. points uniform on [lo, hi]^2."""
    n = _check_count(n)
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise InvalidParameterError(f"lo must be < hi, got lo={lo}, hi={hi}")
    return _mixture_square_circle(n, 0.0, lo, hi, seed)


def gen_circle_contamination(n, q, seed):
    """Uniform on [-1,1]^2 contaminated with prob q by the unit circle.

    Each point is drawn independently: with probability 1-q uniform on the
    square, with probability q uniform on the unit circle (angle uniform,
    radius exactly 1).
    """
    return _mixture_square_circle(_check_count(n), _check_fraction(q), -1.0, 1.0, seed)


POPULATIONS = ("circle", "three-circles", "gauss3", "uniform", "contaminated")


def generate_population(pop, n, seed, q=0.0):
    """Dispatch on a named population with its pinned parameters.

    Only ``contaminated`` uses ``q``, but every population checks it.
    """
    q = _check_fraction(q)
    if pop == "circle":
        return gen_noisy_circles(n, CIRCLE_CENTERS, 1.0, 0.1, seed)
    if pop == "three-circles":
        return gen_noisy_circles(n, THREE_CIRCLE_CENTERS, 0.25, 0.05, seed)
    if pop == "gauss3":
        return gen_gaussian_mixture(n, GAUSS3_CENTERS, 0.2, seed)
    if pop == "uniform":
        return gen_uniform_square(n, -1.0, 1.0, seed)
    if pop == "contaminated":
        return gen_circle_contamination(n, q, seed)
    raise InvalidParameterError(f"unknown population {pop!r}; expected one of {POPULATIONS}")


def write_cloud(cloud, path):
    """Write a point cloud as CSV with header x,y at full float precision."""
    _write_csv(path, "x,y\n", cloud.points)


def read_cloud(path):
    """Read a point cloud written by :func:`write_cloud`."""
    with _open_csv(path, "x,y") as reader:
        return PointCloud(_read_float_rows(reader, path, width=2)[0])
