import itertools
import math

import numpy as np
import pytest

from persint.analyze import (
    DistanceMatrix,
    Embedding,
    classical_mds,
    confusion_matrix,
    distance_matrix,
    kmeans,
    l1_distance,
    read_matrix,
    similarity_from_distance,
    spectral_embed,
    write_embedding,
    write_matrix,
)
from persint.errors import (
    CsvFormatError,
    DegenerateGraphError,
    IncompatibleGridsError,
    InvalidInputError,
    InvalidParameterError,
)
from persint.field import GridSpec
from persint.intensity import IntensityGrid


def _grid(values, spec=None, tau=0.1):
    values = np.asarray(values, dtype=np.float64)
    if spec is None:
        spec = GridSpec(0, 1, 0, 1, *values.shape)
    return IntensityGrid(spec=spec, values=values, tau=tau)


def test_l1_identity_and_constants():
    a = _grid(np.random.default_rng(0).uniform(size=(8, 8)))
    assert l1_distance(a, a) == 0.0
    spec = GridSpec(0, 2, 0, 3, 5, 7)  # area 6
    c1 = _grid(np.full((5, 7), 1.25), spec)
    c2 = _grid(np.full((5, 7), 0.5), spec)
    # node-centered cells: (nx * ny) * dx * dy
    area = spec.cell_area * 5 * 7
    assert l1_distance(c1, c2) == pytest.approx(0.75 * area, rel=1e-12)


def test_l1_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    spec = GridSpec(0, 1, 0, 1, 6, 9)
    a = _grid(rng.uniform(size=(6, 9)), spec)
    b = _grid(rng.uniform(size=(6, 9)), spec)
    total = 0.0
    for i in range(6):
        for j in range(9):
            total += abs(a.values[i, j] - b.values[i, j])
    assert l1_distance(a, b) == pytest.approx(total * spec.cell_area, rel=1e-12)


def test_l1_incompatible():
    a = _grid(np.zeros((4, 4)))
    b = _grid(np.zeros((4, 4)), tau=0.2)
    with pytest.raises(IncompatibleGridsError):
        l1_distance(a, b)


def test_l1_metric_triangle():
    rng = np.random.default_rng(9)
    spec = GridSpec(0, 1, 0, 1, 8, 8)
    grids = [_grid(rng.uniform(size=(8, 8)), spec) for _ in range(6)]
    for x, y, z in itertools.permutations(grids, 3):
        dxy = l1_distance(x, y)
        assert dxy == pytest.approx(l1_distance(y, x), rel=1e-15)
        assert dxy <= l1_distance(x, z) + l1_distance(z, y) + 1e-12


def test_distance_matrix():
    rng = np.random.default_rng(5)
    spec = GridSpec(0, 1, 0, 1, 5, 5)
    grids = [_grid(rng.uniform(size=(5, 5)), spec) for _ in range(4)]
    dm = distance_matrix(grids)
    assert dm.n == 4
    for i in range(4):
        for j in range(4):
            assert dm.entries[i, j] == pytest.approx(
                l1_distance(grids[i], grids[j]), rel=1e-15
            )
    two = distance_matrix([grids[0], grids[0]])
    assert np.all(two.entries == 0.0)
    with pytest.raises(InvalidInputError):
        distance_matrix([grids[0]])


def test_distance_matrix_validation():
    with pytest.raises(InvalidInputError):
        DistanceMatrix(entries=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        DistanceMatrix(entries=np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_mds_equilateral_triangle():
    d = DistanceMatrix(entries=np.ones((3, 3)) - np.eye(3))
    emb = classical_mds(d, 2)
    for i in range(3):
        for j in range(i + 1, 3):
            dist = np.linalg.norm(emb.coords[i] - emb.coords[j])
            assert dist == pytest.approx(1.0, abs=1e-9)


def test_mds_reconstructs_planar_points():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2, 2, size=(10, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = classical_mds(DistanceMatrix(entries=d), 2)
    d2 = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    assert np.allclose(d2, d, atol=1e-6)


def test_mds_zero_matrix_and_signs():
    emb = classical_mds(DistanceMatrix(entries=np.zeros((4, 4))), 2)
    assert np.all(emb.coords == 0.0)
    # sign convention: largest-magnitude coordinate positive per axis
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(7, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = classical_mds(DistanceMatrix(entries=d), 2)
    for c in range(2):
        assert emb.coords[np.argmax(np.abs(emb.coords[:, c])), c] >= 0


def test_mds_parameter_errors():
    d = DistanceMatrix(entries=np.zeros((3, 3)))
    with pytest.raises(InvalidParameterError):
        classical_mds(d, 3)
    with pytest.raises(InvalidInputError):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)


def test_similarity():
    d = DistanceMatrix(entries=np.array([[0.0, 200.0], [200.0, 0.0]]))
    s = similarity_from_distance(d, 200.0)
    assert s[0, 0] == 1.0 and s[1, 1] == 1.0
    assert s[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
    with pytest.raises(InvalidParameterError):
        similarity_from_distance(d, 0.0)


def test_spectral_complete_graph():
    s = np.ones((6, 6))
    emb = spectral_embed(s, 1)
    col = emb.coords[:, 0]
    assert np.allclose(col, col[0], atol=1e-9)  # constant eigenvector


def test_spectral_three_blocks():
    rng = np.random.default_rng(2)
    eps = 1e-3
    s = np.full((9, 9), eps)
    for block in (slice(0, 3), slice(3, 6), slice(6, 9)):
        s[block, block] = 1.0
    s = (s + s.T) / 2
    emb = spectral_embed(s, 3)
    labels = kmeans(emb, 3, seed=1).labels
    assert len({tuple(labels[i : i + 3]) for i in (0, 3, 6)}) == 3
    for start in (0, 3, 6):
        assert len(set(labels[start : start + 3].tolist())) == 1


def test_spectral_validation():
    with pytest.raises(InvalidInputError):
        spectral_embed(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)  # entries > 1
    with pytest.raises(InvalidInputError):
        spectral_embed(np.array([[1.0, 0.5], [0.4, 1.0]]), 1)  # asymmetric
    with pytest.raises(DegenerateGraphError):
        spectral_embed(np.zeros((3, 3)), 1)


def test_spectral_embed_checks_list_and_array_alike():
    s = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]
    assert np.array_equal(spectral_embed(s, 2).coords, spectral_embed(np.array(s), 2).coords)
    bad = [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), InvalidInputError),  # entries > 1
        (np.array([[1.0, 0.5], [0.4, 1.0]]), InvalidInputError),  # asymmetric
        (np.ones((2, 3)), InvalidInputError),  # not square
        (np.zeros((3, 3)), DegenerateGraphError),
    ]
    for matrix, error in bad:
        with pytest.raises(error):
            spectral_embed(matrix, 1)


def test_kmeans_k_equals_n():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    out = kmeans(Embedding(coords=pts, method="mds"), 3, seed=0)
    assert out.inertia == 0.0
    assert sorted(out.labels.tolist()) == [0, 1, 2]


def test_kmeans_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
    out = kmeans(Embedding(coords=pts, method="mds"), 2, seed=3)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]
    assert out.inertia == 0.0
    centers = sorted(out.centers.tolist())
    assert centers == [[0.0, 0.0], [10.0, 10.0]]


def test_kmeans_blob_recovery_rate():
    rng = np.random.default_rng(8)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    pts = np.vstack([c + 0.3 * rng.standard_normal((12, 2)) for c in centers])
    truth = np.repeat(np.arange(3), 12)
    hits = 0
    for seed in range(100):
        labels = kmeans(Embedding(coords=pts, method="mds"), 3, seed=seed).labels
        best = max(
            sum(1 for t, l in zip(truth, labels) if perm[t] == l)
            for perm in itertools.permutations(range(3))
        )
        hits += best == len(truth)
    assert hits >= 95


def test_kmeans_parameter_errors():
    pts = np.zeros((3, 2))
    with pytest.raises(InvalidParameterError):
        kmeans(Embedding(coords=pts, method="mds"), 4, seed=0)


def test_kmeans_checks_a_raw_array_as_an_embedding():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
    raw, wrapped = kmeans(pts, 2, seed=3), kmeans(Embedding(coords=pts, method="mds"), 2, seed=3)
    assert raw.labels.tolist() == wrapped.labels.tolist() and raw.inertia == wrapped.inertia
    with pytest.raises(InvalidInputError, match="finite"):
        kmeans(np.array([[0.0, np.nan], [1.0, 1.0]]), 1, seed=0)
    with pytest.raises(InvalidInputError, match=r"\(n, k\)"):
        kmeans(np.array([1.0, 2.0, 3.0]), 1, seed=0)


def test_confusion_matrix():
    table = confusion_matrix([0, 0, 1, 1, 2], [0, 0, 1, 1, 2])
    assert np.array_equal(table, np.diag([2, 2, 1]))
    # an empty class keeps a zero row
    table = confusion_matrix([0, 2, 2], [1, 0, 0], n_classes=3, n_clusters=2)
    assert np.array_equal(table, np.array([[0, 1], [0, 0], [2, 0]]))
    with pytest.raises(InvalidInputError):
        confusion_matrix([0, 1], [0])


@pytest.mark.parametrize(
    "true, assigned, sizes, message",
    [
        pytest.param([0, -1], [0, 0], {}, "true label -1 is outside", id="negative_true"),
        pytest.param([0, 2], [0, 0], dict(n_classes=2), "true label 2 is", id="true_at_n_classes"),
        pytest.param([0, 0], [0, -3], {}, "assigned label -3 is", id="negative_assigned"),
        pytest.param([0, 0], [1, 0], dict(n_clusters=1), "assigned label 1 is", id="at_n_clusters"),
    ],
)
def test_confusion_rejects_a_label_outside_the_table(true, assigned, sizes, message):
    with pytest.raises(InvalidInputError, match=message):
        confusion_matrix(true, assigned, **sizes)


def test_confusion_hand_counted():
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 3, size=10)
    pred = rng.integers(0, 3, size=10)
    table = confusion_matrix(truth, pred, n_classes=3, n_clusters=3)
    for i in range(3):
        for j in range(3):
            assert table[i, j] == sum(
                1 for t, p in zip(truth, pred) if t == i and p == j
            )
    assert table.sum() == 10


def test_confusion_label_permutation_permutes_columns():
    rng = np.random.default_rng(7)
    truth = rng.integers(0, 3, size=30)
    pred = rng.integers(0, 3, size=30)
    base = confusion_matrix(truth, pred, n_classes=3, n_clusters=3)
    perm = [2, 0, 1]
    relabeled = [perm[p] for p in pred]
    permuted = confusion_matrix(truth, relabeled, n_classes=3, n_clusters=3)
    assert np.array_equal(permuted[:, perm], base)


def test_matrix_csv_round_trip(tmp_path):
    m = np.random.default_rng(0).uniform(size=(4, 4))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    path = tmp_path / "m.csv"
    write_matrix(m, path)
    assert np.array_equal(read_matrix(path), m)


DISTANCE_ROWS = "distance matrix rows must be finite, >= 0, equal their columns, 0 on the diagonal"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("0.0,1.0\n\n1.0,0.0\n1.0,nan\n-inf,1\n", 4, "values must be finite, got nan"),
        ("0.0,1.0\n\n1.0,0.0,2.0\n", 3, "expected 2 columns, got 3"),
        ("\n\n", 1, "empty matrix file"),
    ],
)
def test_matrix_csv_names_the_bad_line(tmp_path, text, line, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        read_matrix(path)
    assert (err.value.path, err.value.line, err.value.message) == (str(path), line, message)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("0,1\n1,0\n1,1\n", 3, "distance matrix must be square, got (3, 2)"),
        ("0,1,1\n1,0,1\n", 3, "distance matrix must be square, got (2, 3)"),
        ("0,1\n2,0\n", 1, DISTANCE_ROWS),
        ("0,1,2\n1,0,3\n\n2,4,0\n", 2, DISTANCE_ROWS),
        ("0,-1\n-1,0\n", 1, DISTANCE_ROWS),
        ("0,1\n\n1,2\n", 3, DISTANCE_ROWS),
    ],
)
def test_matrix_csv_rejects_what_is_not_a_distance_matrix(tmp_path, text, line, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        read_matrix(path)
    assert (err.value.path, err.value.line, err.value.message) == (str(path), line, message)


def test_embedding_csv(tmp_path):
    emb = Embedding(coords=np.array([[1.0, 2.0], [3.0, 4.0]]), method="mds")
    path = tmp_path / "emb.csv"
    write_embedding(emb, path, labels=["a", "b"])
    lines = path.read_text().splitlines()
    assert lines[0] == "id,c1,c2,label"
    assert lines[1] == "0,1.0,2.0,a"
