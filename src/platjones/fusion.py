"""Total-spin-0 fusion path bases and the odd/even duality matrix.

Strand spins are all 1/2. One builder (_chains) gives both bases as
chains that fuse a running spin with one pair spin J in {0, 1} at a
time. The odd basis pairs strands (2i-1, 2i) and runs its n pair spins
down a left comb from spin 0 back to 0; the even basis starts from
strand 1's spin 1/2, fuses the n - 1 interior pairs (2i, 2i+1) and ends
on 1/2 so the last strand can close the total to 0. A basis is a pair
of integer arrays (_bases), (paths, pairs) of the pair spins J and of
the doubled labels; OddPath and EvenPath lists (path_bases) are made
from them only on demand. Each basis has d = Catalan(n) paths
(block_dimension) and reaches the left-comb basis of the 2n strands by
one F-move per strand pair, so the duality matrix a = C_odd C_even^T is
a product of 2(n - 1) sparse moves, planned once per n from the bases'
arrays (_move_plan): every stage of the moves holds one state per path,
numbered by one sort of an integer code (_stages). Each move recouples
two spin-1/2 strands, so its racah values are the closed-form 2 x 2
rotations and 1 x 1 blocks of spin-1/2 recoupling (_racah_rows); those
of a point come in one batch from one qnum.q_table, cached per
(n, point). recouple applies the moves at every phase of a point at
once, move_deviation checks a's unitarity on their recoupling blocks,
and duality_matrix (the moves applied to the identity) is the tests'
dense reference.

Labels are doubled integers (twice the spin) so triad arithmetic
stays integral; the paths' pair couplings J are plain integer spins.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonAdmissibleTriple
from .qnum import check_arc, is_admissible, q_table


@dataclass(frozen=True, order=True)
class OddPath:
    """Pair couplings J_{2i+1} and comb intermediates l_i (l_{n-1} = 0)."""

    J: tuple[int, ...]
    l: tuple[int, ...]


@dataclass(frozen=True, order=True)
class EvenPath:
    """Pair couplings J_{2i} and doubled half-integer intermediates.

    two_r[-1] == 1 always: the chain must reach spin 1/2 before fusing
    with the last strand to reach total spin 0.
    """

    J: tuple[int, ...]
    two_r: tuple[int, ...]


def _fuse_range(two_a: int, two_b: int):
    return range(abs(two_a - two_b), two_a + two_b + 1, 2)


TWO_J = np.array([0, 2, 2, 2])  # doubled pair spin 2J of each way to extend a chain
STEPS = np.array([0, -2, 0, 2])  # and the step it moves the last label by, doubled


def _chains(two_start: int, pairs: int, two_end: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, labels) arrays, (chains, pairs) each, of pair spins J in {0, 1} from doubled two_start to two_end.

    A pair fuses J with the last label, to a label in _fuse_range of the
    two; a step of at most 2J keeps the parity and the upper bound, so
    only the lower bound is checked. A label farther than 2 * (pairs
    left) from two_end is dropped. Rows are in the order of sorted
    (J, labels) tuples.
    """
    rows = np.array([[two_start]])  # the start, then 2J and the label of each pair
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
    """(J, doubled labels) arrays of the odd basis, then of the even one, built once per n.

    The odd labels are l_0..l_{n-1}, the even ones r_0..r_{n-2}; the
    even arrays have no rows at n = 1 (no interior pairs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    empty = np.zeros((0, 0), dtype=int)
    bases = _chains(0, n, 0), (_chains(1, n - 1, 1) if n > 1 else (empty, empty))
    for array in (*bases[0], *bases[1]):
        array.setflags(write=False)
    return bases


def enumerate_odd_paths(n: int) -> list[OddPath]:
    """Chains from spin 0 over n pairs back to 0, lexicographic; all-zero path first."""
    J, labels = _bases(n)[0]
    return [OddPath(*path) for path in zip(map(tuple, J.tolist()), map(tuple, (labels // 2).tolist()))]


def enumerate_even_paths(n: int) -> list[EvenPath]:
    """Chains from spin 1/2 over n - 1 pairs back to 1/2; empty for n = 1 (no interior pairs)."""
    J, labels = _bases(n)[1]
    return [EvenPath(*path) for path in zip(map(tuple, J.tolist()), map(tuple, labels.tolist()))]


@functools.cache
def path_bases(n: int) -> tuple[tuple[OddPath, ...], tuple[EvenPath, ...]]:
    """Odd and even path lists for n caps, as path objects made from the arrays of _bases."""
    return tuple(enumerate_odd_paths(n)), tuple(enumerate_even_paths(n))


def block_dimension(n: int) -> int:
    """d = Catalan(n), the number of paths in each basis (the odd one at n = 1)."""
    return len(_bases(n)[0][0])


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


def _stages(n: int, base: int):
    """Each stage's numbering of the states of the F-move sweeps, a side a leading row.

    From the bases' arrays, fixed (sides, n, paths) holds the doubled
    labels that every move keeps, l for the odd side and (1/2, r) for
    the even one, and J (sides, n - 1, paths) the pair spins that the
    moves replace, one basis path a column. Move k replaces J_k by each
    e with (a, 1/2, e) and (e, 1/2, d) admissible, a and d = fixed[k]
    and fixed[k + 1]: e = a - 1 + 2b, for both b where a = d > 0 (a
    2 x 2 block, where b = J maps its states to the paths) and for the
    one admissible b otherwise. So every stage k = 0..n-1 holds one state per path, and
    the plan needs only each stage's numbering of them: the order in
    which move k - 1, running through its sources in order and e
    ascending, first reaches them. A target is first reached from its
    source of least J, [a != d], so by induction stage k sorts by
    fixed[0], then [a != d] before position k and J from it, then
    fixed, then b before k: one int64 code per (stage, path), with one
    bit per J or b and one base-3 digit per step of fixed (room to
    n = 17). Returns the (stage, position) paths and (stage, path)
    positions; per (move, path) the 2 x 2 flag, that flag at J = 1, and
    the racah keys (e, 2J, a, d) as base-`base` numbers: of the entry
    that first reaches the target the path stands for, and of the path
    as a source to e's b = 0 (its one e in a 1 x 1 block) and to b = 1;
    and the even side's last-stage position of each odd position, the
    same comb labelling looked up by sorting a code of each comb.
    """
    (odd_J, odd_l), (even_J, even_r) = _bases(n)
    fixed, J = np.empty((2, n, len(odd_J)), dtype=np.int32), np.empty((2, n - 1, len(odd_J)), dtype=np.int32)
    fixed[0], fixed[1, 0], fixed[1, 1:], J[0], J[1] = odd_l.T, 1, even_r.T, odd_J[:, 1:].T, even_J.T
    a, d = fixed[:, :-1], fixed[:, 1:]
    pair = (a == d) & (a > 0)
    b = np.where(pair, J, d >= a)
    e = a - 1 + 2 * b
    bit = 1 << np.arange(n - 2, -1, -1)
    steps = fixed.copy()
    steps[:, 1:] -= fixed[:, :-1]
    digits = 3 ** np.arange(n - 1, -1, -1) @ (steps // 2 + 1)
    codes = np.empty(fixed.shape, dtype=np.int64)
    codes[:, 0] = ((fixed[:, 0].astype(np.int64) << n - 1 | bit @ J) * 3**n + digits) << n - 1
    codes[:, 1:] = codes[:, :1] + ((((a != d) - J) * (np.int64(3**n) << n - 1) + b) * bit[:, None]).cumsum(1)
    order = codes.argsort(-1)
    rank = order.argsort(-1)
    odd_combs, even_combs = _comb_code(fixed[0, :-1], e[0]).argsort(), _comb_code(e[1], fixed[1, 1:]).argsort()
    comb = np.empty_like(odd_combs)
    comb[odd_combs] = rank[1, -1, even_combs]
    outer = a * base + d
    key = lambda e, J: (e * base + 2 * J) * base**2 + outer
    keys = key(e, J & ~pair), key(np.where(pair, a - 1, e), J), key(a + 1, J)
    return order, rank, pair, pair & (J == 1), keys, comb[order[0, -1]]


def _comb_code(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Comb labellings 1/2, l_0, r_0, ..., l_{n-2}, r_{n-2} (doubled) down the columns, a bit per step: each is +-1/2."""
    path = np.empty((2 * len(l) + 1, l.shape[1]), dtype=l.dtype)
    path[0], path[1::2], path[2::2] = 1, l, r
    return (1 << np.arange(len(path) - 1)) @ (path[1:] > path[:-1])


def _numbered(ends: np.ndarray, two: np.ndarray, base: int):
    """The distinct racah keys in order of first appearance, and a table numbering them.

    ends (..., 2) holds each source's key codes (base-`base` numbers of
    (e, 2J, a, d)) to b = 0 and b = 1, the second an entry only where
    two is set, and the entries run in C order.
    """
    entries = np.ones(ends.shape, dtype=bool)
    entries[..., 1] = two
    entries = ends[entries]
    seen = np.full(base**4, len(entries))
    np.minimum.at(seen, entries, np.arange(len(entries)))
    distinct = np.flatnonzero(seen < len(entries))
    distinct = distinct[seen[distinct].argsort()]
    number = np.empty(base**4, dtype=np.intp)
    number[distinct] = np.arange(len(distinct))
    keys = tuple((c // base**3, c // base**2 % base, c // base % base, 1, 1, c % base) for c in distinct.tolist())
    return keys, number


@functools.cache
def _move_plan(n: int):
    """The F-moves whose product is the duality matrix, built once per n.

    An odd path fixes the left-comb labels after an even number of
    strands, l_0, ..., l_{n-1}, and an even path those after an odd
    number, r_0, ..., r_{n-2}. Odd move k replaces the pair coupling
    J_{k+1} of a state (l, r_0..r_{k-1}, J_{k+1}..J_{n-1}) by each
    admissible r_k, with coefficient racah(r_k, J_{k+1}, l_k, 1/2, 1/2,
    l_{k+1}); even move k replaces J_k of (r, l_0..l_{k-1}, J_k..J_{n-2})
    by each admissible l_k, with racah(l_k, J_k, r_{k-1}, 1/2, 1/2, r_k)
    and r_{-1} = 1/2. After n - 1 moves both sides reach the comb
    labellings, so a = M_0 ... M_{n-2} E_{n-2}^T ... E_0^T; the last
    odd move numbers its targets in the even side's comb order (found
    by _stages from a code of each comb). Each stage numbers its
    states by first appearance (_stages, on the bases' arrays): a
    2 x 2 block's two targets are neighbours there, J = 0 first, and
    its J = 0 source comes before its J = 1 source. A state has 1 or 2
    neighbours through a move, so a step that writes the d states of
    one side from the other is stored as (index, key) arrays of every
    state's first neighbour and (state, index, key) arrays of the
    second neighbours of the states that have one, about half. Returns
    the distinct racah keys (doubled arguments, numbered by first
    appearance over the odd moves, then the even ones, each source by
    source, e ascending), the steps of v @ a (the odd moves
    target-major, then the transposed even moves, source-major) and
    those of v @ a^T.
    """
    d, width, base = block_dimension(n), n - 1, 2 * n + 2  # base is past every doubled label
    order, rank, pair, upper, (reached, first, second), comb = _stages(n, base)
    cell = np.arange(2 * width).reshape(2, width, 1)  # the (side, move) rows

    def gather(x, at, ahead=0):
        """x per (side, move or stage, path) at each entry of at, a (side, move, ...) array, stages ahead."""
        rows = cell + ahead + (cell // width if x.shape[1] > width else 0)
        return x.reshape(-1)[rows * d + at]

    source = gather(order, np.arange(d))
    back, two = gather(upper, source), gather(pair, source)  # the J = 1 and all 2 x 2 sources
    ends = np.stack([gather(first, source), gather(second, source)], -1)  # a source's keys to b = 0, 1
    del first, second  # each array goes once read: they would be most of the peak memory at n = 11
    keys, number = _numbered(ends, two, base)

    # target-major: a target's first source is its own path or, J = 1 in a 2 x 2 block, the one before;
    # a J = 1 source (entry) also reaches both targets of its block second, J = 0 first
    t_index = gather(rank, gather(order, np.arange(d) - gather(upper, order[:, 1:]), 1))
    t_key = number[gather(reached, order[:, 1:])]
    del order, reached, upper
    entry = np.flatnonzero(back)
    t1 = rank.reshape(-1)[(entry // d + entry // (width * d) + 1) * d + source.reshape(-1)[entry]]
    t_rows, t_second = (t1[:, None] + (-1, 0)).reshape(-1), np.repeat(entry % d, 2)
    t_keys = number[ends.reshape(-1, 2)[entry]].reshape(-1)
    # source-major: a source's first target has b = 0 (or its one b), a 2 x 2 source's second is next
    s_index = gather(rank, source, 1) - back
    del rank, source
    s_key = number[ends[..., 0]]
    entry = np.flatnonzero(two)
    s_rows, s_second, s_keys = entry % d, s_index.reshape(-1)[entry] + 1, number[ends[..., 1].reshape(-1)[entry]]

    # the odd side's last move reaches the comb labellings: its targets in the even side's comb order
    t_index[0, -1, comb], t_key[0, -1, comb] = t_index[0, -1].copy(), t_key[0, -1].copy()
    last = slice(2 * back[0, :-1].sum(), 2 * back[0].sum())
    t_rows[last] = comb[t_rows[last]]
    s_index[0, -1] = comb[s_index[0, -1]]
    last = slice(two[0, :-1].sum(), two[0].sum())
    s_second[last] = comb[s_second[last]]

    def split(index, key, rows, second, keys, counts):
        """Per side, per move, ((index, key), (rows, second, keys)), the seconds cut by their counts."""
        bounds = [0, *counts.reshape(-1).cumsum().tolist()]
        parts = [tuple(x[i:j] for x in (rows, second, keys)) for i, j in zip(bounds, bounds[1:])]
        return [[((index[i, k], key[i, k]), parts[i * width + k]) for k in range(width)] for i in (0, 1)]

    (odd, even), (odd_t, even_t) = (split(t_index, t_key, t_rows, t_second, t_keys, 2 * back.sum(-1)),
                                    split(s_index, s_key, s_rows, s_second, s_keys, two.sum(-1)))
    return keys, tuple(odd + even_t[::-1]), tuple(even + odd_t[::-1])


@functools.lru_cache(maxsize=64)
def _racah_values(n: int, point) -> np.ndarray:
    """racah of every key of the move plan, one row per key, one column per phase.

    Every key reads the one q_table of the point that reaches them all.
    """
    values = _racah_rows(_move_plan(n)[0], point)
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=64)
def move_deviation(n: int, point) -> float:
    """max |R R^H - 1| over the move plan's recoupling blocks R, at every phase.

    The keys sharing outer labels (a, d) form one block, rows J and
    columns e; every F-move is a direct sum of these blocks, so a is
    unitary iff each block is.
    """
    values, blocks = _racah_values(n, point), {}
    for key, (e, J, a, _, _, d) in enumerate(_move_plan(n)[0]):
        blocks.setdefault((a, d), {}).setdefault(J, {})[e] = key
    deviation = 0.0
    for rows in blocks.values():
        R = values[np.array([[row[e] for e in sorted(row)] for row in rows.values()])]
        gram = np.einsum("ie...,je...->...ij", R, R.conj()) - np.eye(len(rows))
        deviation = max(deviation, float(np.max(np.abs(gram))))
    return deviation


def recouple(v: np.ndarray, n: int, point, transpose: bool = False) -> np.ndarray:
    """v @ a, or v @ a^T with transpose, for a the duality matrix at the point.

    v holds row vectors over the odd paths (over the even paths with
    transpose) in its last axis; the axis before it runs over the
    phases of a batched point. Each F-move is a gather and a multiply of
    v by the move's racah values at every phase, plus a multiply-add on
    the states that have a second neighbour.
    """
    _, forward, backward = _move_plan(n)
    values = _racah_values(n, point).T
    for (index, key), (rows, second, second_key) in backward if transpose else forward:
        w = v[..., index] * values[..., key]
        w[..., rows] += v[..., second] * values[..., second_key]
        v = w
    return v


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
