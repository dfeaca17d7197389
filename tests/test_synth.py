import math

import numpy as np
import pytest

from persint.errors import CsvFormatError, InvalidParameterError
from persint.seeding import make_rng
from persint.synth import (
    CIRCLE_CENTERS,
    GAUSS3_CENTERS,
    THREE_CIRCLE_CENTERS,
    PointCloud,
    gen_circle_contamination,
    gen_gaussian_mixture,
    gen_noisy_circles,
    gen_uniform_square,
    generate_population,
    read_cloud,
    write_cloud,
)

MOMENT_N = 100_000


def _mean_close(sample, expected):
    # 4-sigma CLT band around the analytic mean
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    assert abs(sample.mean() - expected) < 4 * se + 1e-12


def _var_close(sample, expected):
    centered = sample - sample.mean()
    s2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / len(sample))
    assert abs(s2 - expected) < 4 * se + 1e-12


def test_empty_clouds():
    for cloud in (
        gen_noisy_circles(0, [(0, 0)], 1.0, 0.1, 1),
        gen_gaussian_mixture(0, [(0, 0)], 0.2, 1),
        gen_uniform_square(0, -1, 1, 1),
        gen_circle_contamination(0, 0.5, 1),
    ):
        assert len(cloud) == 0


def test_determinism_bit_identical():
    a = gen_noisy_circles(500, [(0, 0)], 1.0, 0.1, 42)
    b = gen_noisy_circles(500, [(0, 0)], 1.0, 0.1, 42)
    assert np.array_equal(a.points, b.points)
    c = gen_noisy_circles(500, [(0, 0)], 1.0, 0.1, 43)
    assert not np.array_equal(a.points, c.points)


def test_noiseless_circle_radius():
    cloud = gen_noisy_circles(10_000, [(0.0, 0.0)], 1.0, 0.0, 5)
    r = np.hypot(cloud.x, cloud.y)
    assert np.all(np.abs(r - 1.0) < 1e-9)
    assert abs(r.mean() - 1.0) < 1e-9


def test_gaussian_mixture_clt_mean():
    cloud = gen_gaussian_mixture(10_000, [(1.0, 0.0)], 0.2, 11)
    bound = 3 * 0.2 / math.sqrt(10_000)
    assert abs(cloud.x.mean() - 1.0) < bound
    assert abs(cloud.y.mean() - 0.0) < bound


def test_uniform_square_halves():
    cloud = gen_uniform_square(10_000, -1, 1, 13)
    frac = float((cloud.x > 0).mean())
    assert abs(frac - 0.5) < 3 / (2 * math.sqrt(10_000))


def test_circle_moments():
    # one circle: Var per axis = r^2/2 + sd^2
    cloud = gen_noisy_circles(MOMENT_N, [(0.5, -0.25)], 1.0, 0.1, 101)
    _mean_close(cloud.x, 0.5)
    _mean_close(cloud.y, -0.25)
    _var_close(cloud.x, 0.5 + 0.01)
    _var_close(cloud.y, 0.5 + 0.01)


def test_three_gauss_moments():
    cloud = gen_gaussian_mixture(MOMENT_N, GAUSS3_CENTERS, 0.2, 103)
    cx = np.array([c[0] for c in GAUSS3_CENTERS])
    cy = np.array([c[1] for c in GAUSS3_CENTERS])
    _mean_close(cloud.x, cx.mean())
    _mean_close(cloud.y, cy.mean())
    _var_close(cloud.x, 0.04 + cx.var())
    _var_close(cloud.y, 0.04 + cy.var())


def test_uniform_moments():
    cloud = gen_uniform_square(MOMENT_N, -1, 1, 105)
    _mean_close(cloud.x, 0.0)
    _var_close(cloud.x, 1.0 / 3.0)
    _var_close(cloud.y, 1.0 / 3.0)


def test_contamination_moments():
    q = 0.3
    cloud = gen_circle_contamination(MOMENT_N, q, 107)
    _mean_close(cloud.x, 0.0)
    _var_close(cloud.x, (1 - q) / 3 + q / 2)
    _var_close(cloud.y, (1 - q) / 3 + q / 2)


def test_contamination_q0_matches_uniform_stream():
    a = gen_circle_contamination(400, 0.0, 99)
    b = gen_uniform_square(400, -1.0, 1.0, 99)
    assert np.array_equal(a.points, b.points)


def test_contamination_q1_pure_circle():
    cloud = gen_circle_contamination(10_000, 1.0, 9)
    assert np.all(np.abs(np.hypot(cloud.x, cloud.y) - 1.0) < 1e-12)


def test_parameter_errors():
    with pytest.raises(InvalidParameterError):
        gen_noisy_circles(10, [], 1.0, 0.1, 1)
    with pytest.raises(InvalidParameterError):
        gen_gaussian_mixture(10, [], 0.2, 1)
    with pytest.raises(InvalidParameterError):
        gen_uniform_square(10, 1.0, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        gen_circle_contamination(10, 1.5, 1)
    with pytest.raises(InvalidParameterError):
        gen_noisy_circles(-1, [(0, 0)], 1.0, 0.1, 1)
    with pytest.raises(InvalidParameterError):
        gen_noisy_circles(10, [(0, 0)], 0.0, 0.1, 1)


def test_population_dispatch():
    for pop in ("circle", "three-circles", "gauss3", "uniform", "contaminated"):
        assert len(generate_population(pop, 25, 3, q=0.1)) == 25
    with pytest.raises(InvalidParameterError):
        generate_population("nope", 5, 1)


def test_cloud_csv_round_trip(tmp_path):
    cloud = gen_gaussian_mixture(77, GAUSS3_CENTERS, 0.2, 21)
    path = tmp_path / "cloud.csv"
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert np.array_equal(cloud.points, back.points)


def test_cloud_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_cloud(path)
    assert err.value.line == 2
    path.write_text("a,b\n")
    with pytest.raises(CsvFormatError):
        read_cloud(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cloud_csv_rejects_nonfinite_values(tmp_path, bad):
    path = tmp_path / "cloud.csv"
    path.write_text(f"x,y\n-1.0,2.0\n\n0.5,{bad}\n{bad},0\n")
    with pytest.raises(CsvFormatError) as err:
        read_cloud(path)
    assert (err.value.path, err.value.line) == (str(path), 4)  # the blank line counts
    assert err.value.message == f"values must be finite, got {float(bad)!r}"


def test_pointcloud_rejects_nonfinite():
    from persint.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[0.0, np.inf]]))


# Differential test against the per-point generator loops as they stood
# before each cloud's uniforms came from one rng.random call: one scalar
# rng.random() per variate, with the seeding helpers' transforms inlined.

_TWO_PI = 2.0 * math.pi


def _frozen_pick(rng, count):
    k = int(rng.random() * count)
    return count - 1 if k >= count else k


def _frozen_gauss_pair(rng):
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(_TWO_PI * u2), r * math.sin(_TWO_PI * u2)


def _frozen_noisy_circles(n, centers, radius, noise_sd, seed):
    rng = make_rng(seed)
    pts = np.empty((n, 2))
    for i in range(n):
        cx, cy = centers[_frozen_pick(rng, len(centers))]
        theta = _TWO_PI * rng.random()
        gx, gy = _frozen_gauss_pair(rng)
        pts[i, 0] = cx + radius * math.cos(theta) + noise_sd * gx
        pts[i, 1] = cy + radius * math.sin(theta) + noise_sd * gy
    return pts


def _frozen_gaussian_mixture(n, centers, sd, seed):
    rng = make_rng(seed)
    pts = np.empty((n, 2))
    for i in range(n):
        cx, cy = centers[_frozen_pick(rng, len(centers))]
        gx, gy = _frozen_gauss_pair(rng)
        pts[i, 0] = cx + sd * gx
        pts[i, 1] = cy + sd * gy
    return pts


def _frozen_square_circle(n, q, lo, hi, seed):
    rng = make_rng(seed)
    width = hi - lo
    pts = np.empty((n, 2))
    for i in range(n):
        if rng.random() < q:
            theta = _TWO_PI * rng.random()
            pts[i, 0] = math.cos(theta)
            pts[i, 1] = math.sin(theta)
        else:
            pts[i, 0] = lo + width * rng.random()
            pts[i, 1] = lo + width * rng.random()
    return pts


def _generator_pairs(n, seed):
    """(new cloud, frozen points) for every generator and parameter set."""
    yield gen_uniform_square(n, -1.0, 1.0, seed), _frozen_square_circle(n, 0.0, -1.0, 1.0, seed)
    yield gen_uniform_square(n, 0.0, 3.0, seed), _frozen_square_circle(n, 0.0, 0.0, 3.0, seed)
    for q in (0.0, 0.05, 0.5, 1.0):
        yield gen_circle_contamination(n, q, seed), _frozen_square_circle(n, q, -1.0, 1.0, seed)
    for centers, radius, sd in ((CIRCLE_CENTERS, 1.0, 0.1), (THREE_CIRCLE_CENTERS, 0.25, 0.05)):
        yield (gen_noisy_circles(n, centers, radius, sd, seed),
               _frozen_noisy_circles(n, centers, radius, sd, seed))
    yield (gen_gaussian_mixture(n, GAUSS3_CENTERS, 0.2, seed),
           _frozen_gaussian_mixture(n, GAUSS3_CENTERS, 0.2, seed))


def test_generators_match_the_frozen_per_point_loops():
    for seed in range(250):
        for n in (0, 1, 2, 1 + seed % 40):
            for cloud, want in _generator_pairs(n, seed):
                assert cloud.points.shape == want.shape
                assert cloud.points.tobytes() == want.tobytes()
