"""Comparing collections of intensity grids: L1 distances, classical MDS,
normalized-cut spectral embedding, and k-means."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    DegenerateGraphError,
    InvalidInputError,
    InvalidParameterError,
    InvariantError,
)
from .field import _open_csv, _read_float_rows, _write_csv
from .intensity import _compatible
from .seeding import make_rng, pick_index

_DISTANCE_ROWS = "distance matrix rows must be finite, >= 0, equal their columns, 0 on the diagonal"


def _bad_rows(d):
    """Which rows of a square array break the distance matrix rule."""
    bad = ~np.isfinite(d) | (d < 0) | (d != d.T)
    return bad.any(axis=1) | (np.diag(d) != 0)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.entries, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError(f"distance matrix must be square, got {d.shape}")
        if _bad_rows(d).any():
            raise InvalidInputError(_DISTANCE_ROWS)
        object.__setattr__(self, "entries", d)

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates for n items."""

    coords: np.ndarray
    method: str

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] < 1:
            raise InvalidInputError(f"embedding coords must be (n, k) with k >= 1, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("embedding coords must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def k(self):
        return self.coords.shape[1]


@dataclass(frozen=True)
class ClusterAssignment:
    """k-means result: labels per item, centers, and total inertia."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        centers = np.asarray(self.centers, dtype=np.float64)
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= centers.shape[0]:
            raise InvalidInputError("labels must reference existing centers")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "centers", centers)


def l1_distance(a, b):
    """Riemann-sum L1 distance between two intensity grids on the same spec."""
    _compatible([a, b])
    return float(np.abs(a.values - b.values).sum() * a.spec.cell_area)


def distance_matrix(grids):
    """Pairwise L1 distance matrix, each unordered pair computed once."""
    grids = list(grids)
    if len(grids) < 2:
        raise InvalidInputError("need at least 2 grids for a distance matrix")
    n = len(grids)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = l1_distance(grids[i], grids[j])
    return DistanceMatrix(entries=d)


def _fix_signs(coords):
    # Deterministic sign convention: the largest-magnitude coordinate of
    # each axis is made positive (first occurrence wins on ties).
    for c in range(coords.shape[1]):
        col = coords[:, c]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            coords[:, c] = -col
    return coords


def classical_mds(d, k):
    """Classical multidimensional scaling of a distance matrix.

    Double-centers the squared distances, eigendecomposes, and returns the
    top-k eigenvectors scaled by sqrt(max(eigenvalue, 0)), eigenvalues
    sorted descending, with the deterministic sign convention.
    """
    if not isinstance(d, DistanceMatrix):
        d = DistanceMatrix(entries=d)
    n = d.n
    if not 1 <= k < n:
        raise InvalidParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d.entries**2) @ j
    evals, evecs = np.linalg.eigh(b)
    idx = np.argsort(evals)[::-1][:k]
    scale = np.sqrt(np.maximum(evals[idx], 0.0))
    coords = _fix_signs(evecs[:, idx] * scale[None, :])
    return Embedding(coords=coords, method="mds")


def similarity_from_distance(d, scale):
    """Similarity matrix S_ij = exp(-D_ij / scale); unit diagonal."""
    if not scale > 0:
        raise InvalidParameterError(f"scale must be > 0, got {scale}")
    if not isinstance(d, DistanceMatrix):
        d = DistanceMatrix(entries=d)
    return np.exp(-d.entries / scale)


def spectral_embed(s, k):
    """Eigenvectors of the k smallest eigenvalues of the normalized Laplacian.

    Forms L_sym = I - D^-1/2 S D^-1/2 and embeds items by its bottom-k
    eigenvectors, the trivial constant one included.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"similarity matrix must be square, got {s.shape}")
    if not np.array_equal(s, s.T):
        raise InvalidInputError("similarity matrix must be symmetric")
    if np.any(s < 0) or np.any(s > 1):
        raise InvalidInputError("similarity entries must lie in [0, 1]")
    deg = s.sum(axis=1)
    if np.any(deg <= 0):
        raise DegenerateGraphError("similarity graph has a zero-degree node")
    dinv = 1.0 / np.sqrt(deg)
    n = len(s)
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    _, evecs = np.linalg.eigh(np.eye(n) - dinv[:, None] * s * dinv[None, :])
    return Embedding(coords=_fix_signs(evecs[:, :k].copy()), method="spectral")


_RESTARTS, _MAX_ITER = 10, 300  # k-means starts, and Lloyd steps per start at most


def _greedy_centers(x, k, first):
    centers = [first]
    d2 = ((x - x[first]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(d2))  # ties resolve to the lowest index
        centers.append(nxt)
        d2 = np.minimum(d2, ((x - x[nxt]) ** 2).sum(axis=1))
    return x[centers].copy()


def _lloyd(x, centers):
    labels = None
    prev_inertia = np.inf
    for _ in range(_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)  # ties resolve to the lowest center
        inertia = float(d2[np.arange(x.shape[0]), new_labels].sum())
        if inertia > prev_inertia + 1e-9:
            raise InvariantError(f"k-means inertia increased: {prev_inertia!r} -> {inertia!r}")
        prev_inertia = inertia
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centers.shape[0]):
            mask = labels == c
            if mask.any():
                centers[c] = x[mask].mean(axis=0)
            # empty cluster: keep the previous center
    return labels, centers, prev_inertia


def kmeans(embedding, k, seed):
    """Seeded k-means: greedy farthest-point init, Lloyd iterations, best of
    ``_RESTARTS`` runs by inertia. A raw (n, k) array is checked as an Embedding."""
    if not isinstance(embedding, Embedding):
        embedding = Embedding(coords=embedding, method="raw")
    x = embedding.coords
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = make_rng(seed)
    best = None
    for _ in range(_RESTARTS):
        first = pick_index(rng, n)
        centers = _greedy_centers(x, k, first)
        labels, centers, inertia = _lloyd(x, centers)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    return ClusterAssignment(labels=labels, centers=centers, inertia=inertia)


def confusion_matrix(true_labels, assigned_labels, n_classes=None, n_clusters=None):
    """Count table: entry (i, j) = items with true label i assigned cluster j."""
    t = np.asarray(true_labels, dtype=np.int64)
    a = np.asarray(assigned_labels, dtype=np.int64)
    if t.shape != a.shape:
        raise InvalidInputError(f"label length mismatch: {t.shape} vs {a.shape}")
    if n_classes is None:
        n_classes = int(t.max(initial=-1)) + 1
    if n_clusters is None:
        n_clusters = int(a.max(initial=-1)) + 1
    for kind, labels, size in (("true", t, n_classes), ("assigned", a, n_clusters)):
        outside = labels[(labels < 0) | (labels >= size)]
        if outside.size:
            raise InvalidInputError(f"{kind} label {outside[0]} is outside [0, {size})")
    table = np.zeros((n_classes, n_clusters), dtype=np.int64)
    for ti, ai in zip(t.tolist(), a.tolist()):
        table[ti, ai] += 1
    return table


def write_matrix(matrix, path):
    """Plain CSV rows of a numeric matrix at full precision."""
    _write_csv(path, "", np.atleast_2d(np.asarray(matrix, dtype=np.float64)))


def read_matrix(path):
    """Read a distance matrix written by :func:`write_matrix`; CsvFormatError
    names the first row that is not a row of one."""
    with _open_csv(path) as reader:
        d, lines = _read_float_rows(reader, path)
        end = reader.line_num
    n, width = d.shape
    if not n:
        raise CsvFormatError(path, 1, "empty matrix file")
    if n != width:
        line = lines[width] if n > width else end + 1
        raise CsvFormatError(path, line, f"distance matrix must be square, got {d.shape}")
    bad = _bad_rows(d)
    if bad.any():
        raise CsvFormatError(path, lines[int(bad.argmax())], _DISTANCE_ROWS)
    return d


def write_embedding(embedding, path, labels=None):
    """Embedding CSV: id,c1,...,ck, optionally with a trailing label column."""
    coords = embedding.coords
    cols = ",".join(f"c{i + 1}" for i in range(coords.shape[1]))
    head = f"id,{cols}" + (",label\n" if labels is not None else "\n")
    _write_csv(path, head, [[i, *row] for i, row in enumerate(coords.tolist())], labels)
