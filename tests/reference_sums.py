"""Reference computations that only the tests read.

Rank correlation (C08's power trend) and the two sides of the pairing
identity of a diagram with a test function (C09): the weighted sum over
its points, and the Riemann sum of the function against its smoothed
intensity.
"""

import math

import numpy as np

from persint.intensity import DEFAULT_WEIGHTS, pooled_pairs


def rank_values(values):
    """Ranks with ties averaged, 1-based."""
    _, which, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True,
                                 return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[which]


def spearman(xs, ys):
    """Spearman rank correlation; 0.0 when either sequence is constant."""
    rx, ry = (r - r.mean() for r in (rank_values(xs), rank_values(ys)))
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    return 0.0 if denom == 0.0 else float((rx * ry).sum() / denom)


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
