"""Fusion path bases on the comb labellings, and the F-moves between them as one table of rotations.

Strand spins are all 1/2; labels are doubled spins, so triad arithmetic
stays integral. A comb labelling m_0..m_{2n} (_comb) gives the doubled
spin after each strand, from 0 back to 0 in steps of +-1; there are
d = Catalan(n) of them (block_dimension), and both fusion bases number
their paths by them. The odd basis pairs strands (2i-1, 2i), the even
one the interior pairs (2i, 2i+1); a path stores at each of its pair
positions i the spin J = 0 iff m_{i-1} = m_{i+1} and m_i = |m_{i-1} - 1|
(pair_couplings). g_i changes m_i alone (comb_move): its 2 x 2 blocks
pair the paths with m_{i-1} = m_{i+1} = a > 0 and m_i = a -+ 1.

The F-move at position i replaces J by m_i. It is the identity on the
1 x 1 blocks and, on the 2 x 2 block at a, the spin-1/2 recoupling
rotation rotations(n, point)[a - 1], rows J and columns m_i = a -+ 1
(Kauffman and Lins, Temperley-Lieb Recoupling Theory, 1994). That one
table, cached per (n, point) behind one phase check, is what recouple
(the duality matrix a = C_odd C_even^T: the moves at positions
3, 5, ..., 2n - 1, then 2n - 2, ..., 2), move_deviation (a's
unitarity) and evaluator.comb_element read; racah gives one entry per
key, and duality_matrix is the tests' dense reference.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonAdmissibleTriple
from .qnum import check_arc, is_admissible, q_table


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


@functools.cache
def pair_couplings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, pairs) read-only int8 arrays of the pair couplings J of the odd and the even basis.

    Row p is the path at comb labelling p. J at position i is 0 iff
    m_{i-1} = m_{i+1} and m_i = |m_{i-1} - 1|; the odd basis reads the
    odd positions 1, 3, ..., 2n - 1, the even one 2, 4, ..., 2n - 2.
    """
    m = _comb(n)[0]
    J = (m[:, :-2] != m[:, 2:]) | (m[:, 1:-1] != abs(m[:, :-2] - 1))
    couplings = tuple(np.ascontiguousarray(J[:, first::2], dtype=np.int8) for first in (0, 1))
    for array in couplings:
        array.setflags(write=False)
    return couplings


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
    e = a - 1 (c = 0) and a + 1 (c = 1). One phase check of the largest
    triad read, ((n-1)/2, 1/2, n/2), keeps every [k] up to [n + 1]
    positive on the unit circle; other points have no zeros.
    """
    check_arc(n - 1, 1, n, point)
    table = _rotation_table(n, point)
    table.setflags(write=False)
    return table


def racah(two_j, two_l, two_s1, two_s2, two_s3, two_s4, point):
    """Racah recoupling coefficient of two spin-1/2 strands, doubled spin arguments.

    Read as the key (e, 2J, a, 1/2, 1/2, d), with s2 = s3 = 1/2 (ValueError
    otherwise): 1 on a 1 x 1 block (d != a or a = 0), else the rotations
    entry [a - 1, J, e > a], per phase of the point, behind a check of the
    key's own triads, whose arc at e = a - 1, J = 0 is wider than the table's.
    """
    triads = ((two_s1, two_s2, two_j), (two_s3, two_s4, two_j), (two_s1, two_s4, two_l), (two_s2, two_s3, two_l))
    for triad in triads:
        if not is_admissible(*triad):
            raise NonAdmissibleTriple("({}/2, {}/2, {}/2)".format(*triad))
    if two_s2 != 1 or two_s3 != 1:
        raise ValueError("racah recouples two spin-1/2 strands: s2 = s3 = 1/2")
    check_arc(*max(triads, key=sum), point)
    if two_s4 != two_s1 or two_s1 == 0:
        return np.ones_like(q_table(0, point))[0]  # the point's dtype and phases, and its DegenerateQ
    with np.errstate(invalid="ignore"):  # [a + 2] may be < 0; the arc check proved every [k] read > 0
        return _rotation_table(two_s1 + 1, point)[-1, two_l // 2, int(two_j > two_s1)]


@functools.lru_cache(maxsize=64)
def move_deviation(n: int, point) -> float:
    """max |R R^H - 1| over the 2 x 2 rotations R of the F-moves, at every phase.

    Every F-move is a direct sum of these rotations and 1 x 1 blocks of
    value 1, so a is unitary iff each rotation is.
    """
    R = rotations(n, point)
    gram = np.einsum("bie...,bje...->b...ij", R, R.conj()) - np.eye(2)
    return float(np.max(np.abs(gram)))


def recouple(v: np.ndarray, n: int, point, transpose: bool = False) -> np.ndarray:
    """v @ a, or v @ a^T with transpose, for a the duality matrix at the point.

    v holds row vectors over the paths in its last axis; the axis before
    it runs over the phases of a batched point. a is the product of the
    symmetric F-moves at positions 3, 5, ..., 2n - 1, then 2n - 2, ...,
    2, so v @ a runs them in that order on one copy of v, broadcast over
    the phases, and v @ a^T in reverse. Each move rewrites only the
    paths of its 2 x 2 blocks (comb_move), in place, by their rotations.
    """
    F = np.moveaxis(rotations(n, point), (0, 1, 2), (-3, -2, -1))
    shape = np.broadcast_shapes(v.shape, F.shape[:-3] + v.shape[-1:])
    v = np.broadcast_to(v, shape).astype(np.result_type(v, F), order="C")
    positions = [*range(3, 2 * n, 2), *range(2 * n - 2, 1, -2)]
    for i in positions[::-1] if transpose else positions:
        low, high, block, _ = comb_move(n, i)
        if len(low):
            lo, hi, f = v[..., low], v[..., high], F[..., block, :, :]
            v[..., low] = lo * f[..., 0, 0] + hi * f[..., 1, 0]
            v[..., high] = lo * f[..., 0, 1] + hi * f[..., 1, 1]
    return v


def duality_matrix(n: int, point) -> np.ndarray:
    """Orthogonal map from even-path coordinates to odd-path coordinates.

    Rows are indexed by odd paths, columns by even paths, both in comb
    order (pair_couplings). For n = 2 this is the single all-1/2
    racah matrix. At a batched point the entries are a stack with one
    leading axis over the phases. The rows are the F-moves of recouple
    applied to the identity.
    """
    if n < 2:
        raise ValueError("duality needs n >= 2 (no even basis on 2 strands)")
    d = block_dimension(n)
    phases = np.ndim(point.log_q_half)
    identity = np.eye(d).reshape((d,) + (1,) * phases + (d,))
    return np.moveaxis(recouple(identity, n, point), 0, -2)
