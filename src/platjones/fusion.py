"""The comb labellings of fusion paths, and the 2 x 2 recoupling rotations between them.

Strand spins are all 1/2; labels are doubled spins, so triad arithmetic
stays integral. A comb labelling m_0..m_{2n} (_comb) gives the doubled
spin after each strand, from 0 back to 0 in steps of +-1; there are
d = Catalan(n) of them (block_dimension), and path 0, the labelling
0, 1, 0, 1, ..., 0, is the odd vacuum. g_i changes m_i alone
(comb_move): its 2 x 2 blocks pair the paths with
m_{i-1} = m_{i+1} = a > 0 and m_i = a -+ 1, and every other path is a
1 x 1 block with pair spin J = 1 if m_{i-1} != m_{i+1}, else J = 0.

On the 2 x 2 block at a, g_i^p acts as F^T diag(lambda_0^p,
lambda_1^p) F, F = rotations(n, point)[a - 1] the spin-1/2 recoupling
rotation, rows J and columns m_i = a -+ 1 (Kauffman and Lins,
Temperley-Lieb Recoupling Theory, 1994). That one table, cached per
(n, point) behind one phase check, is what evaluator.comb and qsim's
unitarity check (move_deviation) read.
"""

from __future__ import annotations

import functools

import numpy as np

from .qnum import check_arc, q_table


@functools.cache
def _comb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The comb labellings m_0..m_{2n}, (paths, 2n + 1) int8 in sorted order, and their step codes.

    m_t, the doubled spin after t strands, starts and ends at 0 in steps
    of +-1: the Catalan(n) Dyck paths, grown a strand at a time. A code
    has a bit per step, 1 up and the first step highest, so the codes
    ascend with the rows; path 0 is the odd vacuum 0, 1, 0, 1, ..., 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.zeros((1, 1), dtype=np.int8)
    for left in range(2 * n - 1, -1, -1):
        e = rows[:, -1:] + np.array([-1, 1], dtype=np.int8)
        path, step = np.nonzero((e >= 0) & (e <= left))
        rows = np.concatenate([rows[path], e[path, step, None]], 1)
    codes = np.zeros(len(rows), dtype=np.int64)
    for t in range(2 * n):
        codes = 2 * codes + (rows[:, t + 1] > rows[:, t])
    return rows, codes


@functools.cache
def comb_move(n: int, i: int) -> tuple[np.ndarray, ...]:
    """The blocks of g_i on the comb labellings: low paths, partners, a - 1, and each path's J.

    g_i changes m_i alone. With a = m_{i-1} and d = m_{i+1}, its 2 x 2
    blocks pair the paths with a = d > 0 and m_i = a - 1 (low) with the
    same path at m_i = a + 1 (steps i and i + 1 swapped, a search of the
    sorted codes); J = 1 where a != d and 0 where a = d, that of every
    1 x 1 block. Indices are int32, a - 1 and J int8.
    """
    labels, codes = _comb(n)
    a, e, d = labels[:, i - 1], labels[:, i], labels[:, i + 1]
    low = np.flatnonzero((a == d) & (e < a))
    high = np.searchsorted(codes, codes[low] + (1 << (2 * n - i - 1)))
    move = low.astype(np.int32), high.astype(np.int32), a[low] - 1, (a != d).astype(np.int8)
    for array in move:
        array.setflags(write=False)
    return move


def block_dimension(n: int) -> int:
    """d = Catalan(n), the number of comb labellings and of paths in each basis (the odd one at n = 1)."""
    return len(_comb(n)[1])


def _rotation_table(n: int, point) -> np.ndarray:
    """F of every label a = 1..n-1, (n - 1, 2, 2) + the point's phase axes, unchecked.

    F = [[-sqrt[a], sqrt[a+2]], [sqrt[a+2], sqrt[a]]] / (sqrt[2] sqrt[a+1]),
    [k] = q_table's row k, orthogonal since [a] + [a+2] = [2][a+1]. Each
    q-number's root is taken alone: at a circle point sqrt(XY) is not
    sqrt(X) sqrt(Y), and only roots of single q-numbers cancel from the
    plat element whatever their branch.
    """
    roots = np.sqrt(q_table(n + 1, point))
    a = np.arange(1, n)
    sign = np.array([[-1.0, 1.0], [1.0, 1.0]]).reshape((2, 2) + (1,) * (roots.ndim - 1))
    top = a[:, None, None] + np.array([[0, 2], [2, 0]])
    return sign * roots[top] / (roots[2] * roots[a + 1])[:, None, None]


@functools.lru_cache(maxsize=64)
def rotations(n: int, point) -> np.ndarray:
    """The F-moves' 2 x 2 rotations at a point: read-only, (n - 1, 2, 2) + its phase axes.

    Entry [a - 1, J, c] recouples label a: rows J = 0, 1, columns
    e = a - 1 (c = 0) and a + 1 (c = 1). One phase check (check_arc)
    keeps every [k] up to [n + 1] positive on the unit circle; other
    points have no zeros.
    """
    check_arc(n, point)
    table = _rotation_table(n, point)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def move_deviation(n: int, point) -> float:
    """max |R R^H - 1| over the 2 x 2 rotations R of the F-moves, at every phase.

    Every F-move is a direct sum of these rotations and 1 x 1 blocks of
    value 1, so a is unitary iff each rotation is.
    """
    R = rotations(n, point)
    gram = np.einsum("bie...,bje...->b...ij", R, R.conj()) - np.eye(2)
    return float(np.max(np.abs(gram)))
