"""Mod-2 Betti numbers via boundary-matrix rank.

For a regular complex every incidence coefficient is +-1, so over GF(2)
the boundary matrix is simply the face-relation indicator.  Each column
is held as a Python int bitset over the (p-1)-cells, and the rank comes
from a column reduction on those ints; no numpy matrix is built.
"""

from dataclasses import dataclass

from .errors import BadDimension, NegativeBetti


@dataclass(frozen=True)
class BettiVector:
    b: tuple

    def __iter__(self):
        return iter(self.b)

    def __len__(self):
        return len(self.b)


def boundary_matrix_mod2(K, p):
    """Binary numpy matrix of the boundary map from p-cells to
    (p-1)-cells, for inspection; `betti_mod2` does not build it.

    Rows are the (p-1)-cells and columns the p-cells, both in sorted id
    order; entry 1 iff the face relation holds.
    """
    import numpy as np

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


def rank_gf2(columns):
    """Rank over GF(2) of the matrix whose columns are the given int
    bitsets.  Each column is reduced by the kept columns, keyed by their
    lowest set bit, until its lowest bit is new or it vanishes."""
    pivots = {}
    for col in columns:
        while col:
            low = col & -col
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            col ^= other
    return len(pivots)


def betti_mod2(K):
    """BettiVector of K over GF(2): b_p = dim ker d_p - rank d_{p+1}."""
    n = K.top_dim
    counts = K.counts()
    ranks = [0] * (n + 2)  # rank of d_p; d_0 and d_{n+1} are zero
    for p in range(1, n + 1):
        bit = {cid: 1 << i for i, cid in enumerate(K.cells_of_dim(p - 1))}
        columns = []
        for cid in K.cells_of_dim(p):
            col = 0
            for fid in K.cells[cid].boundary:
                col |= bit[fid]
            columns.append(col)
        ranks[p] = rank_gf2(columns)
    b = []
    for p in range(n + 1):
        kernel = counts[p] - ranks[p]
        b.append(kernel - ranks[p + 1])
        # the alternating sum of the b_p equals chi whatever the ranks
        # are, so the sign is what exposes a wrong rank
        if b[p] < 0:
            raise NegativeBetti("b_%d = %d from ranks %s" % (p, b[p], ranks))
    return BettiVector(tuple(b))
