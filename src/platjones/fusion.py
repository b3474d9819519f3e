"""Total-spin-0 fusion path bases, the odd/even duality matrix and the comb moves.

Strand spins are all 1/2. One builder (_chains) gives both bases as
chains that fuse a running spin with one pair spin J in {0, 1} at a
time. The odd basis pairs strands (2i-1, 2i) and runs its n pair spins
down a left comb from spin 0 back to 0; the even basis starts from
strand 1's spin 1/2, fuses the n - 1 interior pairs (2i, 2i+1) and ends
on 1/2 so the last strand can close the total to 0. A basis is a pair of
int8 arrays (_bases), (paths, pairs) of the pair spins J and of the
doubled labels. Each basis has d = Catalan(n) paths (block_dimension),
as many as the comb labellings of the 2n strands (_comb), which each
basis reaches by one F-move per strand pair, so the duality matrix
a = C_odd C_even^T is a product of 2(n - 1) sparse moves, planned once per
n from the bases' arrays (_move_plan). Each move recouples two spin-1/2
strands, so it is the identity on its 1 x 1 blocks and a symmetric 2 x 2
rotation of spin-1/2 recoupling (_racah_rows) on each pair of paths that
differ only in the pair spin it replaces: every stage holds one state
per basis path and is numbered by it, and one permutation joins the two
sides at the comb labellings; the plan's indices are int32. The
rotations of a point come in one batch from one qnum.q_table, cached per
(n, point). recouple applies the moves in place at every phase of a
point at once, move_deviation checks a's unitarity on the rotations, and
duality_matrix (the moves applied to the identity) is the tests' dense
reference. On a comb labelling, g_i changes m_i alone (comb_move).

Labels are doubled integers (twice the spin) so triad arithmetic
stays integral; the paths' pair couplings J are plain integer spins.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonAdmissibleTriple
from .qnum import check_arc, is_admissible, q_table


TWO_J = np.array([0, 2, 2, 2], dtype=np.int8)  # doubled pair spin 2J of each way to extend a chain
STEPS = np.array([0, -2, 0, 2], dtype=np.int8)  # and the step it moves the last label by, doubled


def _chains(two_start: int, pairs: int, two_end: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, labels) arrays, (chains, pairs) each, of pair spins J in {0, 1} from doubled two_start to two_end.

    A pair fuses J with the last label, to a label from |2J - last| to
    2J + last; a step of at most 2J keeps the parity and the upper
    bound, so only the lower bound is checked. A label farther than 2 *
    (pairs left) from two_end is dropped. Rows are in the order of
    sorted (J, labels) tuples.
    """
    rows = np.array([[two_start]], dtype=np.int8)  # the start, then 2J and the label of each pair
    for left in range(pairs - 1, -1, -1):
        last = rows[:, -1:]
        e = last + STEPS
        chain, step = np.nonzero((e >= abs(last - TWO_J)) & (abs(e - two_end) <= 2 * left))
        rows = np.concatenate([rows[chain], TWO_J[step, None], e[chain, step, None]], 1)
    J, labels = rows[:, 1::2] // 2, rows[:, 2::2]
    order = np.lexsort(np.concatenate([J, labels], 1).T[::-1])
    return J[order], labels[order]


@functools.cache
def _bases(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(J, doubled labels) int8 arrays of the odd basis, then of the even one, built once per n.

    The odd labels are l_0..l_{n-1}, the even ones r_0..r_{n-2}; the
    even arrays have no rows at n = 1 (no interior pairs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    empty = np.zeros((0, 0), dtype=np.int8)
    bases = _chains(0, n, 0), (_chains(1, n - 1, 1) if n > 1 else (empty, empty))
    for array in (*bases[0], *bases[1]):
        array.setflags(write=False)
    return bases


@functools.cache
def _comb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The comb labellings m_0..m_{2n}, (paths, 2n + 1) int8 in sorted order, and their step codes.

    m_t, the doubled spin after t strands, starts and ends at 0 in steps
    of +-1: the Catalan(n) Dyck paths, grown as in _chains. A code has a
    bit per step, 1 up and the first step highest, so the codes ascend
    with the rows; path 0 is the odd vacuum 0, 1, 0, 1, ..., 0.
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


def pair_couplings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, pairs) read-only arrays of the pair couplings J of the odd and the even basis."""
    return _bases(n)[0][0], _bases(n)[1][0]


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


@functools.cache
def _move_plan(n: int):
    """The F-moves whose product is the duality matrix, built once per n.

    An odd path fixes the left-comb labels after an even number of
    strands, l_0, ..., l_{n-1}, and an even path those after an odd
    number, r_0, ..., r_{n-2}. Odd move k replaces the pair coupling
    J_{k+1} by r_k, with coefficient racah(r_k, J_{k+1}, l_k, 1/2, 1/2,
    l_{k+1}); even move k replaces J_k by l_k, with racah(l_k, J_k,
    r_{k-1}, 1/2, 1/2, r_k) and r_{-1} = 1/2. With a and d the labels a
    move keeps, the new label is e = a - 1 + 2J in a 2 x 2 block (a = d
    > 0) and the one admissible e otherwise, so every stage of a side
    holds one state per basis path and is numbered by the path. A move
    is then the identity on its 1 x 1 blocks (value 1) and a symmetric
    rotation on each 2 x 2 block, whose two paths differ only in J: the
    i-th J = 0 and the i-th J = 1 path of the move's blocks, in basis
    order. After n - 1 moves both sides reach the comb labellings, and
    sorting them gives the permutation P that matches them, so
    a = M_0 ... M_{n-2} P E_{n-2} ... E_0, as every M_k^T = M_k.

    Every a = 1..n-1 has blocks, the even ones on the odd side and the
    odd ones on the even side. Returns the racah keys of each a's
    rotation, four per a (_move_keys); per side (odd, even) and move, the
    paths p of its 2 x 2 blocks, their partners q and the keys of p's
    diagonal entry and of its off-diagonal one; and P as two gathers,
    the odd path of each even path and the even path of each odd one;
    every index array is int32.
    """
    (odd_J, odd_l), (even_J, even_r) = _bases(n)

    def side(J, fixed):
        """Per move of one side, (p, q, own key, other key), and the label e that it gives each path."""
        moves, reached = [], []
        for k in range(n - 1):
            a, d, j = fixed[k], fixed[k + 1], J[:, k]
            two = (a == d) & (a > 0)
            zero, one = np.flatnonzero(two & (j == 0)), np.flatnonzero(two & (j == 1))
            p, q = np.concatenate([zero, one]), np.concatenate([one, zero])
            block, j_p = 4 * (a[p].astype(int) - 1), j[p]
            moves.append(tuple(x.astype(np.int32) for x in (p, q, block + 3 * j_p, block + 2 - j_p)))
            reached.append(a - 1 + 2 * np.where(two, j, d >= a))
        return tuple(moves), reached

    odd_moves, r = side(odd_J[:, 1:], list(odd_l.T))
    even_moves, l = side(even_J, [np.ones_like(even_r[:, 0]), *even_r.T])
    # each side's comb labellings (l_0..l_{n-2}, r_0..r_{n-2}), matched by one sort of each
    odd, even = (np.lexsort(keys).astype(np.int32) for keys in ([*odd_l[:, :-1].T, *r], [*l, *even_r.T]))
    from_odd, from_even = np.empty_like(odd), np.empty_like(even)
    from_odd[even], from_even[odd] = odd, even
    return _move_keys(n), (odd_moves, even_moves), (from_odd, from_even)


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
    """max |R R^H - 1| over the 2 x 2 rotations R of the move plan, at every phase.

    Every F-move is a direct sum of these rotations and 1 x 1 blocks of
    value 1, so a is unitary iff each rotation is.
    """
    values = _racah_values(n, point)
    R = values.reshape((-1, 2, 2) + values.shape[1:])
    gram = np.einsum("bie...,bje...->b...ij", R, R.conj()) - np.eye(2)
    return float(np.max(np.abs(gram)))


def recouple(v: np.ndarray, n: int, point, transpose: bool = False) -> np.ndarray:
    """v @ a, or v @ a^T with transpose, for a the duality matrix at the point.

    v holds row vectors over the odd paths (over the even paths with
    transpose) in its last axis; the axis before it runs over the
    phases of a batched point. a = M_0 ... M_{n-2} P E_{n-2} ... E_0
    with symmetric moves (_move_plan), so v @ a runs the odd moves in
    order on one copy of v, broadcast over the phases, then gathers
    through the comb permutation and runs the even moves in reverse;
    v @ a^T swaps the sides and gathers the other way. Each move
    rewrites only the paths of its 2 x 2 blocks, in place.
    """
    _, sides, combs = _move_plan(n)
    values = _racah_values(n, point).T
    shape = np.broadcast_shapes(v.shape, values.shape[:-1] + v.shape[-1:])
    v = np.broadcast_to(v, shape).astype(np.result_type(v, values), order="C")
    first, last = sides[::-1] if transpose else sides

    def run(v, moves):
        for p, q, own, other in moves:
            v[..., p] = v[..., p] * values[..., own] + v[..., q] * values[..., other]
        return v

    return run(run(v, first)[..., combs[transpose]], last[::-1])


def duality_matrix(n: int, point) -> np.ndarray:
    """Orthogonal map from even-path coordinates to odd-path coordinates.

    Rows are indexed by odd paths, columns by even paths, both in their
    frozen enumeration order. For n = 2 this is the single all-1/2
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
