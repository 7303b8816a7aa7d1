"""Mod-2 Betti numbers via boundary-matrix rank.

For a regular complex every incidence coefficient is +-1, so over GF(2)
the boundary matrix is simply the face-relation indicator.  Complexes
here are desk scale; dense numpy elimination is plenty.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, NegativeBetti


@dataclass(frozen=True)
class BettiVector:
    b: tuple
    coefficient_field: str = "GF(2)"

    def __iter__(self):
        return iter(self.b)

    def __getitem__(self, p):
        return self.b[p]

    def __len__(self):
        return len(self.b)


def boundary_matrix_mod2(K, p):
    """Binary matrix of the boundary map from p-cells to (p-1)-cells.

    Rows are the (p-1)-cells and columns the p-cells, both in sorted id
    order; entry 1 iff the face relation holds.
    """
    if p < 1 or p > K.top_dim:
        raise BadDimension("p=%d outside 1..%d" % (p, K.top_dim))
    rows = K.cells_of_dim(p - 1)
    cols = K.cells_of_dim(p)
    row_index = {cid: i for i, cid in enumerate(rows)}
    A = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, cid in enumerate(cols):
        for fid in K.cells[cid].boundary:
            A[row_index[fid], j] = 1
    return A


def rank_gf2(A):
    """Rank of a binary matrix over GF(2) by Gaussian elimination."""
    A = A.copy().astype(np.uint8)
    nrows, ncols = A.shape
    rank = 0
    row = 0
    for col in range(ncols):
        pivots = np.nonzero(A[row:, col])[0]
        if pivots.size == 0:
            continue
        pivot = row + pivots[0]
        if pivot != row:
            A[[row, pivot]] = A[[pivot, row]]
        others = np.nonzero(A[:, col])[0]
        for r in others:
            if r != row:
                A[r, :] ^= A[row, :]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def betti_mod2(K):
    """BettiVector of K over GF(2): b_p = dim ker d_p - rank d_{p+1}."""
    n = K.top_dim
    counts = K.counts()
    ranks = [0] * (n + 2)  # rank of d_p; d_0 and d_{n+1} are zero
    for p in range(1, n + 1):
        ranks[p] = rank_gf2(boundary_matrix_mod2(K, p))
    b = []
    for p in range(n + 1):
        kernel = counts[p] - ranks[p]
        b.append(kernel - ranks[p + 1])
        # the alternating sum of the b_p equals chi whatever the ranks
        # are, so the sign is what exposes a wrong rank
        if b[p] < 0:
            raise NegativeBetti("b_%d = %d from ranks %s" % (p, b[p], ranks))
    return BettiVector(tuple(b))
