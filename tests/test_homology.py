import random

import numpy as np
import pytest

from dms.cellcomplex import Complex, euler_characteristic
import dms.homology
from dms.errors import NegativeBetti
from dms.fixtures import genus_surface
from dms.homology import betti_mod2, rank_gf2


def boundary_matrix_mod2(K, p):
    """Binary numpy matrix of the boundary map from p-cells to
    (p-1)-cells, the independent oracle for `betti_mod2` and `rank_gf2`.

    Rows are the (p-1)-cells and columns the p-cells, both in sorted id
    order; entry 1 iff the face relation holds.
    """
    rows = K.cells_of_dim(p - 1)
    cols = K.cells_of_dim(p)
    row_index = {cid: i for i, cid in enumerate(rows)}
    A = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, cid in enumerate(cols):
        for fid in K.cells[cid].boundary:
            A[row_index[fid], j] = 1
    return A


def columns(A):
    """The columns of a binary matrix as int bitsets, row i as bit i."""
    return [sum(1 << i for i in range(A.shape[0]) if A[i, j])
            for j in range(A.shape[1])]


def row_reduce(A):
    """Reduced row echelon form of a binary matrix over GF(2) by dense
    numpy Gaussian elimination: (R, pivot columns)."""
    R = A.copy().astype(np.uint8)
    nrows, ncols = R.shape
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        hits = np.nonzero(R[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        if pivot != row:
            R[[row, pivot]] = R[[pivot, row]]
        for r in np.nonzero(R[:, col])[0]:
            if r != row:
                R[r, :] ^= R[row, :]
        pivots.append(col)
    return R, pivots


def dense_rank(A):
    """Independent GF(2) rank: dense numpy Gaussian elimination."""
    return len(row_reduce(A)[1])


def null_space(A):
    """Basis of the GF(2) null space of A, one row per free column of
    its reduced row echelon form."""
    R, pivots = row_reduce(A)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), A.shape[1]), dtype=np.uint8)
    for k, col in enumerate(free):
        basis[k, col] = 1
        for i, p in enumerate(pivots):
            basis[k, p] = R[i, col]
    return basis


def bitmask_rank(A):
    """Independent GF(2) rank: rows as python ints, textbook elimination."""
    rows = [int("".join(str(int(x)) for x in row), 2) if row.size else 0
            for row in A]
    rank = 0
    for col in range(A.shape[1]):
        bit = 1 << (A.shape[1] - 1 - col)
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def test_boundary_matrix_shapes_tetra(tetra):
    A1 = boundary_matrix_mod2(tetra, 1)
    A2 = boundary_matrix_mod2(tetra, 2)
    assert A1.shape == (4, 6)
    assert list(A1.sum(axis=0)) == [2] * 6
    assert A2.shape == (6, 4)
    assert list(A2.sum(axis=0)) == [3] * 4


def test_torus_boundary_matrix_rank(torus):
    A2 = boundary_matrix_mod2(torus, 2)
    assert A2.shape == (21, 14)
    assert list(A2.sum(axis=0)) == [3] * 14
    assert rank_gf2(columns(A2)) == 13
    assert bitmask_rank(A2) == 13


def test_rank_agrees_with_independent_oracle(tetra, torus, genus2):
    for K in (tetra, torus, genus2[0]):
        for p in range(1, K.top_dim + 1):
            A = boundary_matrix_mod2(K, p)
            assert rank_gf2(columns(A)) == bitmask_rank(A)


def test_rank_matches_both_oracles_on_genus_surfaces():
    for g in range(7):
        K = genus_surface(g)[0]
        counts = K.counts()
        ranks = [0] * (K.top_dim + 2)
        for p in range(1, K.top_dim + 1):
            A = boundary_matrix_mod2(K, p)
            ranks[p] = dense_rank(A)
            assert rank_gf2(columns(A)) == ranks[p] == bitmask_rank(A)
        # betti_mod2 builds its columns itself; its numbers must be the
        # ones the dense ranks give
        assert betti_mod2(K).b == tuple(
            counts[p] - ranks[p] - ranks[p + 1]
            for p in range(K.top_dim + 1))


def test_rank_matches_both_oracles_on_random_matrices():
    rng = random.Random(20151)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 4), (3, 7), (7, 3)]
    shapes += [(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(193)]
    for k, (nrows, ncols) in enumerate(shapes):
        density = (0.0, 0.05, 0.3, 0.5, 0.9)[k % 5]
        A = np.array([[int(rng.random() < density) for _ in range(ncols)]
                      for _ in range(nrows)], dtype=np.uint8)
        A = A.reshape(nrows, ncols)
        expected = dense_rank(A)
        assert bitmask_rank(A) == expected, (nrows, ncols)
        assert rank_gf2(columns(A)) == expected, (nrows, ncols)
        if density == 0.0:
            assert expected == 0


def test_betti_numbers(tetra, torus, genus2):
    assert betti_mod2(tetra).b == (1, 0, 1)
    assert betti_mod2(torus).b == (1, 2, 1)
    assert betti_mod2(genus2[0]).b == (1, 4, 1)


@pytest.mark.parametrize("seed", range(3))
def test_betti_ignores_the_cell_order(tetra, torus, rp2, pillow_sphere,
                                      genus2, genus3, seed):
    # betti_mod2 numbers rows and columns in the order of K.cells
    rng = random.Random(seed)
    for K in (tetra, torus, rp2, pillow_sphere, genus2[0], genus3[0]):
        cells = list(K.cells.values())
        rng.shuffle(cells)
        shuffled = Complex(cells)
        assert list(shuffled.cells) != list(K.cells)
        assert betti_mod2(shuffled) == betti_mod2(K)


def test_rank_nullity_and_dd_zero(tetra, torus):
    for K in (tetra, torus):
        counts = K.counts()
        for p in range(1, K.top_dim + 1):
            A = boundary_matrix_mod2(K, p)
            kernel = null_space(A)
            for x in kernel:
                assert not ((A.astype(int) @ x) % 2).any()
            assert dense_rank(kernel) == len(kernel)
            assert len(kernel) == counts[p] - rank_gf2(columns(A))
        for p in range(2, K.top_dim + 1):
            A = boundary_matrix_mod2(K, p - 1)
            B = boundary_matrix_mod2(K, p)
            assert not ((A @ B) % 2).any()


def test_betti_rejects_inconsistent_ranks(tetra, monkeypatch):
    # every over-counted rank still telescopes to the Euler
    # characteristic, so only a sign check can catch it
    monkeypatch.setattr(dms.homology, "rank_gf2", lambda A: rank_gf2(A) + 1)
    with pytest.raises(NegativeBetti):
        betti_mod2(tetra)


def test_alternating_sum_is_euler(tetra, torus, genus2, pillow_sphere):
    for K in (tetra, torus, genus2[0], pillow_sphere):
        b = betti_mod2(K).b
        assert sum((-1) ** p * bp for p, bp in enumerate(b)) \
            == euler_characteristic(K)
