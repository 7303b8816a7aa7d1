"""Mod-2 Betti numbers via boundary-matrix rank.

For a regular complex every incidence coefficient is +-1, so over GF(2)
the boundary matrix is simply the face-relation indicator.  Each column
is held as a Python int bitset over the (p-1)-cells, and the rank comes
from a column reduction on those ints.
"""

from dataclasses import dataclass

from .errors import NegativeBetti


@dataclass(frozen=True)
class BettiVector:
    b: tuple

    def __iter__(self):
        return iter(self.b)

    def __len__(self):
        return len(self.b)


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
    """BettiVector of K over GF(2): b_p = dim ker d_p - rank d_{p+1}.

    A GF(2) rank does not depend on the order of rows or columns, so the
    cells are numbered in one pass over K.cells as they come."""
    n = K.top_dim
    counts = [0] * (n + 1)
    bit = {}
    for cid, cell in K.cells.items():
        p = cell.dim
        bit[cid] = 1 << counts[p]
        counts[p] += 1
    columns = [[] for _ in range(n + 1)]
    for cell in K.cells.values():
        if cell.dim:
            col = 0
            for fid in cell.boundary:
                col |= bit[fid]
            columns[cell.dim].append(col)
    ranks = [0] * (n + 2)  # rank of d_p; d_0 and d_{n+1} are zero
    for p in range(1, n + 1):
        ranks[p] = rank_gf2(columns[p])
    return _betti_from_ranks(counts, ranks)


def _betti_from_ranks(counts, ranks):
    """BettiVector from the cell counts of a chain complex and the ranks
    of its differentials (`ranks[p]` for d_p, with d_0 = d_{n+1} = 0)."""
    b = []
    for p in range(len(counts)):
        kernel = counts[p] - ranks[p]
        b.append(kernel - ranks[p + 1])
        # the alternating sum of the b_p equals chi whatever the ranks
        # are, so the sign is what exposes a wrong rank
        if b[p] < 0:
            raise NegativeBetti("b_%d = %d from ranks %s" % (p, b[p], ranks))
    return BettiVector(tuple(b))
