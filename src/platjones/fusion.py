"""Total-spin-0 fusion path bases, the odd/even duality matrix and the comb moves.

Strand spins are all 1/2. A comb labelling m_0..m_{2n} (_comb) gives
the doubled spin after each strand, from 0 back to 0 in steps of +-1;
there are d = Catalan(n) of them (block_dimension). Both fusion bases
are numbered by them. The odd basis pairs strands (2i-1, 2i) and keeps
the labels at even positions; the even basis starts from strand 1's
spin 1/2, fuses the interior pairs (2i, 2i+1) and keeps the labels at
odd positions. Each replaces the other labels m_i by the pair spins J
at those positions, with J = 0 iff m_{i-1} = m_{i+1} and
m_i = |m_{i-1} - 1|, so every path of either basis sits at the index
of one comb labelling (pair_couplings gives each basis's J, int8).
The F-move at position i replaces J by m_i: it is the identity on its
1 x 1 blocks and a symmetric 2 x 2 rotation of spin-1/2 recoupling
(_racah_rows) on the blocks of comb_move(n, i), the paths with
m_{i-1} = m_{i+1} = a > 0 and m_i = a -+ 1. The duality matrix
a = C_odd C_even^T is the product of the moves at the odd positions
3, 5, ..., 2n - 1 and the even ones 2n - 2, ..., 2 (recouple). The
rotations of a point come in one batch from one qnum.q_table, cached
per (n, point). recouple applies the moves in place at every phase of
a point at once, move_deviation checks a's unitarity on the rotations,
and duality_matrix (the moves applied to the identity) is the tests'
dense reference. On a comb labelling, g_i changes m_i alone
(comb_move), which jones reads directly.

Labels are doubled integers (twice the spin) so triad arithmetic
stays integral; the paths' pair couplings J are plain integer spins.
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
    return rows, (np.diff(rows) > 0) @ (1 << np.arange(2 * n - 1, -1, -1))


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


def racah(two_j, two_l, two_s1, two_s2, two_s3, two_s4, point):
    """Racah recoupling coefficient of two spin-1/2 strands, doubled spin arguments.

    The strands are s2 = s3 = 1/2 (ValueError otherwise); one value per
    phase of the point, from the closed form of _racah_rows.
    """
    return _racah_rows([(two_j, two_l, two_s1, two_s2, two_s3, two_s4)], point)[0]


def _racah_rows(keys, point):
    """racah of each key (e, 2J, a, 1, 1, d), doubled, one row per key, all keys at once.

    With [k] = q_number(2k) of doubled labels, the keys sharing outer
    labels (a, d) form one recoupling block, rows J and columns e. It is
    1 x 1 with value 1 unless d = a > 0; then rows J = 0, 1 and columns
    e = a - 1, a + 1 hold the rotation
    [[-sqrt[a], sqrt[a+2]], [sqrt[a+2], sqrt[a]]] / (sqrt[2] sqrt[a+1]),
    orthogonal since [a] + [a+2] = [2][a+1]. Every triad is checked for
    admissibility, since the keys may come from outside; then one phase
    check of the triad with the largest sum keeps every [k] read here
    positive on the unit circle; other points have no zeros. Each
    q-number's root is taken alone: at a circle point sqrt(XY) is not
    sqrt(X) sqrt(Y), and only roots of single q-numbers cancel from the
    plat element whatever their branch.
    """
    e, J, a, s2, s3, d = np.array(keys).T
    triads = np.stack([a, s2, e, s3, d, e, a, d, J, s2, s3, J], -1).reshape(-1, 3)
    admissible = is_admissible(*triads.T)
    if not admissible.all():
        x, y, z = triads[np.argmin(admissible)]
        raise NonAdmissibleTriple(f"({x}/2, {y}/2, {z}/2)")
    if (s2 != 1).any() or (s3 != 1).any():
        raise ValueError("racah recouples two spin-1/2 strands: s2 = s3 = 1/2")
    check_arc(*triads[np.argmax(triads.sum(-1))], point)
    a = np.where((d == a) & (a > 0), a, 0)  # 0 marks a 1 x 1 block
    roots = np.sqrt(q_table(a.max() + 2, point))
    top = np.where((e < a) == (J == 0), a, a + 2)
    sign = np.where((e < a) & (J == 0), -1.0, 1.0)
    column = lambda x: x.reshape(x.shape + (1,) * (roots.ndim - 1))
    rotation = column(sign) * roots[top] / (roots[2] * roots[a + 1])
    return np.where(column(a > 0), rotation, 1.0)


def _move_keys(n: int) -> tuple:
    """The racah keys (doubled) of each a = 1..n-1's rotation: rows J = 0, 1, columns e = a - 1, a + 1."""
    return tuple((e, 2 * j, a, 1, 1, a) for a in range(1, n) for j in (0, 1) for e in (a - 1, a + 1))


@functools.lru_cache(maxsize=64)
def _racah_values(n: int, point) -> np.ndarray:
    """racah of every key of _move_keys, one row per key, one column per phase.

    Every key reads the one q_table of the point that reaches them all.
    """
    values = _racah_rows(_move_keys(n), point)
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=64)
def move_deviation(n: int, point) -> float:
    """max |R R^H - 1| over the 2 x 2 rotations R of the F-moves, at every phase.

    Every F-move is a direct sum of these rotations and 1 x 1 blocks of
    value 1, so a is unitary iff each rotation is.
    """
    values = _racah_values(n, point)
    R = values.reshape((-1, 2, 2) + values.shape[1:])
    gram = np.einsum("bie...,bje...->b...ij", R, R.conj()) - np.eye(2)
    return float(np.max(np.abs(gram)))


def recouple(v: np.ndarray, n: int, point, transpose: bool = False) -> np.ndarray:
    """v @ a, or v @ a^T with transpose, for a the duality matrix at the point.

    v holds row vectors over the paths in its last axis; the axis before
    it runs over the phases of a batched point. a is the product of the
    symmetric F-moves at positions 3, 5, ..., 2n - 1, then 2n - 2, ...,
    2, so v @ a runs them in that order on one copy of v, broadcast over
    the phases, and v @ a^T in reverse. Each move rewrites only the
    paths of its 2 x 2 blocks (comb_move), in place, F's rows J and
    columns m_i = a -+ 1 (_racah_values).
    """
    values = _racah_values(n, point).T
    F = values.reshape(values.shape[:-1] + (n - 1, 2, 2))
    shape = np.broadcast_shapes(v.shape, values.shape[:-1] + v.shape[-1:])
    v = np.broadcast_to(v, shape).astype(np.result_type(v, values), order="C")
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
    phases = np.ndim(_racah_values(n, point)) - 1
    identity = np.eye(d).reshape((d,) + (1,) * phases + (d,))
    return np.moveaxis(recouple(identity, n, point), 0, -2)
