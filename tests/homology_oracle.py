"""Brute-force persistence oracle for small grids.

Works straight from the definition: enumerate the vertex-ordered filtration
steps, build each level-set cubical complex explicitly, compute persistent
Betti numbers (components by fresh union-find labelings, loops by GF(2)
ranks of explicit boundary matrices), and read pair multiplicities off the
inclusion-exclusion formula. Completely independent of the production
algorithm, an elder-rule union-find that finds loops as components of the
dual graph (planar duality, Garin et al., arXiv:2005.04597).

Requires distinct vertex values so steps and values coincide.
"""

import numpy as np


def _rank_gf2(columns):
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            high = col.bit_length() - 1
            other = pivots.get(high)
            if other is None:
                pivots[high] = col
                rank += 1
                break
            col ^= other
    return rank


class _Labeler:
    """Fresh union-find over vertex linear ids for one fixed complex."""

    def __init__(self, m):
        self.parent = list(range(m))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _complex_cells(nx, ny):
    edges = []
    for i in range(nx):
        for j in range(ny - 1):
            edges.append((i * ny + j, i * ny + j + 1))
    for i in range(nx - 1):
        for j in range(ny):
            edges.append((i * ny + j, (i + 1) * ny + j))
    squares = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            squares.append((a, a + 1, a + ny, a + ny + 1))
    return edges, squares


def sublevel_pairs_by_definition(values, max_dim=1):
    """Finite (dim, birth, death) pairs of the sublevel filtration, plus the
    single essential dim-0 birth. Zero-lifetime pairs never arise because
    values are distinct."""
    vals = np.asarray(values, dtype=np.float64)
    nx, ny = vals.shape
    m = nx * ny
    flat = vals.ravel()
    assert len(set(flat.tolist())) == m, "oracle requires distinct values"
    order = sorted(range(m), key=lambda v: flat[v])
    rank = {v: r for r, v in enumerate(order)}

    edges, squares = _complex_cells(nx, ny)
    edge_step = [max(rank[u], rank[v]) for u, v in edges]
    square_step = [max(rank[a], rank[b], rank[c], rank[d]) for a, b, c, d in squares]

    # beta0[i][j]: number of components of K_j containing a vertex of K_i.
    beta0 = [[0] * m for _ in range(m)]
    for j in range(m):
        uf = _Labeler(m)
        for e, (u, v) in enumerate(edges):
            if edge_step[e] <= j:
                uf.union(u, v)
        seen = set()
        count = 0
        for i in range(j + 1):
            root = uf.find(order[i])
            if root not in seen:
                seen.add(root)
                count += 1
            beta0[i][j] = count

    beta1 = None
    if max_dim >= 1:
        edge_bit = {e: 1 << e for e in range(len(edges))}
        vert_cols = {e: (1 << u) | (1 << v) for e, (u, v) in enumerate(edges)}
        square_cols = []
        for a, b, c, d in squares:
            # boundary edges of the square with corners a=(i,j) .. d=(i+1,j+1)
            idx = []
            for e, (u, v) in enumerate(edges):
                if {u, v} in ({a, b}, {c, d}, {a, c}, {b, d}):
                    idx.append(e)
            assert len(idx) == 4
            square_cols.append(sum(edge_bit[e] for e in idx))

        # cycle-space dimension of K_i
        z_dim = [0] * m
        for i in range(m):
            cols = [vert_cols[e] for e in range(len(edges)) if edge_step[e] <= i]
            z_dim[i] = len(cols) - _rank_gf2(cols)

        beta1 = [[0] * m for _ in range(m)]
        for j in range(m):
            cols_j = [square_cols[s] for s in range(len(squares)) if square_step[s] <= j]
            r_full = _rank_gf2(cols_j)
            for i in range(j + 1):
                # mask of edges outside K_i
                mask_out = 0
                for e in range(len(edges)):
                    if edge_step[e] > i:
                        mask_out |= edge_bit[e]
                r_out = _rank_gf2([c & mask_out for c in cols_j])
                boundary_inside = r_full - r_out
                beta1[i][j] = z_dim[i] - boundary_inside

        # Euler cross-check: b0(K_j) - b1(K_j) = V - E + F at every step.
        for j in range(m):
            e_count = sum(1 for s in edge_step if s <= j)
            f_count = sum(1 for s in square_step if s <= j)
            assert beta0[j][j] - beta1[j][j] == (j + 1) - e_count + f_count

    pairs = []
    tables = [(0, beta0)] + ([(1, beta1)] if beta1 is not None else [])
    for dim, beta in tables:
        for i in range(m):
            for j in range(i + 1, m):
                mult = beta[i][j - 1] - beta[i][j]
                if i > 0:
                    mult -= beta[i - 1][j - 1] - beta[i - 1][j]
                assert mult >= 0
                for _ in range(mult):
                    pairs.append((dim, float(flat[order[i]]), float(flat[order[j]])))

    # essential classes: one dim-0 born at the global minimum, nothing else
    assert beta0[0][m - 1] == 1
    for i in range(1, m):
        assert beta0[i][m - 1] - beta0[i - 1][m - 1] == 0
    if beta1 is not None:
        assert beta1[m - 1][m - 1] == 0
    return pairs, float(flat[order[0]])


def oracle_diagram(values, direction="superlevel", max_dim=1):
    """Stored-convention pair multiset matching the production diagram."""
    vals = np.asarray(values, dtype=np.float64)
    if direction == "superlevel":
        raw, essential = sublevel_pairs_by_definition(-vals, max_dim)
        pairs = [(d, -death, -birth) for d, birth, death in raw]
        essential = -essential
    else:
        pairs, essential = sublevel_pairs_by_definition(vals, max_dim)
    return tuple(sorted(pairs)), essential
