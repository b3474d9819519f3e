"""Total-spin-0 fusion path bases and the odd/even duality matrix.

Strand spins are all 1/2. The odd basis pairs strands (2i-1, 2i) and
couples the pair spins J in {0,1} down a left comb whose final label
must be 0; the even basis couples strand 1 with the interior pairs
(2i, 2i+1) and ends on 1/2 so the last strand can close the total to 0.
Both bases have Catalan(n) elements. Each basis reaches the left-comb
basis of the 2n strands by one F-move per strand pair; the moves act on
distinct nodes, so a basis-change entry is a product of one q-Racah
coefficient per pair. In the duality matrix C_odd C_even^T each entry
is then one product of Racah coefficients, built from a per-n plan of
those products and the few distinct Racah arguments; the plan groups
the entries in blocks whose rows share their odd-move products. A
phase point may carry a batch of phases: the Racah values then form
one (keys, phases) table, cached per (n, point), and the matrix a
(phases, paths, paths) stack, rebuilt from that table on each call.
Every Racah value of one (n, point) reads its q-numbers and
q-factorials from one qnum.q_table, built with one q_number call.

Labels are handled as doubled integers (twice the spin) so triangle
arithmetic stays integral; the path dataclasses expose pair couplings
as plain integers since those are integral spins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeRadicand, NonAdmissibleTriple
from .qnum import check_arc, first_at, is_admissible, q_table, triangle


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


@dataclass(frozen=True, eq=False)
class DualityMatrix:
    n: int
    point: object
    entries: np.ndarray = field(repr=False)
    odd_paths: tuple[OddPath, ...] = field(repr=False)
    even_paths: tuple[EvenPath, ...] = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.odd_paths)


def _fuse_range(two_a: int, two_b: int):
    return range(abs(two_a - two_b), two_a + two_b + 1, 2)


def enumerate_odd_paths(n: int) -> list[OddPath]:
    """All admissible odd paths, lexicographic; all-zero path first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []

    def rec(i, J, l):
        if i == n:
            if l[-1] == 0:
                out.append(OddPath(tuple(J), tuple(l)))
            return
        for Ji in (0, 1):
            if i == 0:
                rec(1, [Ji], [Ji])
            else:
                for li in _fuse_range(2 * l[-1], 2 * Ji):
                    rec(i + 1, J + [Ji], l + [li // 2])

    rec(0, [], [])
    out.sort()
    return out


def enumerate_even_paths(n: int) -> list[EvenPath]:
    """All admissible even paths; empty for n = 1 (no interior pairs)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return []
    out = []

    def rec(i, J, inter):
        if i == n - 1:
            if inter[-1] == 1:
                out.append(EvenPath(tuple(J), tuple(inter)))
            return
        cur = inter[-1] if inter else 1  # start from strand 1, spin 1/2
        for Ji in (0, 1):
            for ri in _fuse_range(cur, 2 * Ji):
                rec(i + 1, J + [Ji], inter + [ri])

    rec(0, [], [])
    out.sort()
    return out


@functools.cache
def path_bases(n: int) -> tuple[tuple[OddPath, ...], tuple[EvenPath, ...]]:
    """Odd and even path lists for n caps, enumerated once per n."""
    return tuple(enumerate_odd_paths(n)), tuple(enumerate_even_paths(n))


@functools.cache
def pair_couplings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, pairs) arrays of the pair couplings J of path_bases(n), built once per n."""
    arrays = tuple(np.array([p.J for p in paths], dtype=int) for paths in path_bases(n))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _quads(two_j, two_l, two_s1, two_s2, two_s3, two_s4):
    """The three sums bounding racah's m-sum from above."""
    return (
        two_s1 + two_s2 + two_s3 + two_s4,
        two_s1 + two_s3 + two_j + two_l,
        two_s2 + two_s4 + two_j + two_l,
    )


def _table(keys, point):
    """One q_table of the point reaching every [k] and [k]! that racah reads for keys.

    The first key's first triangle checks its phase bound before the
    table is built, as when each triangle built a table of its own: a
    phase at a nonzero multiple of 2 pi then fails that bound, not
    q_number's degeneracy check.
    """
    two_j, _, two_s1, two_s2, _, _ = keys[0]
    check_arc(two_s1, two_s2, two_j, point)
    # the m-sum reads up to [min(quads)/2 + 1]!; the triangle rules make
    # max(triads) <= min(quads) and two_j, two_l <= min(quads) // 2, so
    # that also covers the triangles and the roots of [2j+1] and [2l+1]
    return q_table(max(min(_quads(*k)) // 2 + 1 for k in keys), point)


def racah(two_j, two_l, two_s1, two_s2, two_s3, two_s4, point, table=None):
    """Quantum Racah recoupling coefficient, doubled spin arguments.

    Prefactor (-1)^{s1+s2+s3+s4} sqrt([2j+1]) sqrt([2l+1]) times the four
    triangle coefficients times the alternating sum over m of
    (-1)^m [m+1]! over the seven constraint factorials. The m bounds
    keep every factorial argument nonnegative. One value per phase of
    the point, every [k] and [k]! read from table, a q_table of the
    point long enough for these arguments (_table); without one it
    builds its own. Each label's root is taken alone: at a circle point
    sqrt(XY) is not sqrt(X) sqrt(Y), and only roots of single labels
    cancel from the plat element whatever their branch. On the unit
    circle the triangles' range check also keeps [2j+1] and [2l+1]
    positive.
    """
    triads = (
        (two_s1, two_s2, two_j),
        (two_s3, two_s4, two_j),
        (two_s1, two_s4, two_l),
        (two_s2, two_s3, two_l),
    )
    for a, b, c in triads:
        if not is_admissible(a, b, c):
            raise NonAdmissibleTriple(f"({a}/2, {b}/2, {c}/2)")
    key = (two_j, two_l, two_s1, two_s2, two_s3, two_s4)
    quads = _quads(*key)
    if table is None:
        table = _table([key], point)
    numbers, fact = table
    pref = (-1) ** (quads[0] // 2) * math.prod(triangle(*t, point, table) for t in triads)
    pref = pref * np.sqrt(numbers[two_j + 1])
    pref = pref * np.sqrt(numbers[two_l + 1])
    total = 0.0
    for m in range(max(map(sum, triads)) // 2, min(quads) // 2 + 1):
        den = math.prod(
            [fact[m - sum(t) // 2] for t in triads] + [fact[b // 2 - m] for b in quads]
        )
        if np.abs(den).min() == 0.0:
            raise NegativeRadicand(
                "racah sum denominator vanishes at "
                f"theta={first_at(point.thetas, den == 0.0)!r}; "
                "theta too large for these spins"
            )
        total += (-1) ** m * fact[m + 1] / den
    return pref * total


@functools.cache
def _recoupling_plan(n: int):
    """Phase-independent structure of the duality matrix a = C_odd C_even^T.

    An odd path fixes the comb labels at even positions, (2l_0, ., 2l_1,
    ..., 2l_{n-1}), and an even path those at odd positions, (., r_0, .,
    r_1, ..., r_{n-2}, .), so each pair of paths meets in exactly one comb
    labelling and a[odd, even] is a single product. Each F-move
    (A (B C)_f)_d = sum_e racah(e, f, a, b, c, d) ((A B)_e C)_d, with
    b = c = 1/2, contributes one factor: the odd path's move at pair i
    takes e = r_{i-1}, the even path's move at pair i takes e = 2l_i. An
    odd path's admissible r sequences thus pick its nonzero entries, and
    the even moves are then admissible too. The entries of one r form a
    block, every odd path admitting r against every even path ending in
    r; in it the odd moves depend only on the row and the even moves
    only on the column and the row's l labels, so the keys are found
    once per row and once per (l labels, column). Returns the distinct
    racah keys and per block (rows, cols, odd, even): rows as a column,
    odd[:, i] indexing the keys of row i's odd moves and even[:, i, j]
    those of the even moves of entry (i, j).
    """
    odd, even = path_bases(n)
    by_r = {}
    for col, q in enumerate(even):
        by_r.setdefault(q.two_r, []).append(col)
    blocks = {r: ([], [], [], {}, []) for r in by_r}
    keys = {}

    def index(e, f, a, d):
        return keys.setdefault((e, f, a, 1, 1, d), len(keys))

    for row, p in enumerate(odd):
        l = [2 * x for x in p.l]
        choices = [
            [e for e in _fuse_range(a, 1) if is_admissible(e, 1, d)]
            for a, d in zip(l, l[1:])
        ]
        for r in itertools.product(*choices):
            rows, odd_block, row_l, l_index, even_block = blocks[r]
            rows.append(row)
            moves = zip(r, p.J[1:], l, l[1:])
            odd_block.append([index(e, 2 * J, a, d) for e, J, a, d in moves])
            if p.l not in l_index:
                l_index[p.l] = len(even_block)
                # r_{-1} = 1: strand 1 alone
                moves = [zip(l, even[col].J, (1,) + r, r) for col in by_r[r]]
                even_block.append([[index(e, 2 * J, a, d) for e, J, a, d in m] for m in moves])
            row_l.append(l_index[p.l])
    return tuple(keys), tuple(
        (
            np.array(rows)[:, None],
            np.array(by_r[r]),
            np.array(odd_block).T,
            np.moveaxis(np.array(even_block)[row_l], -1, 0),
        )
        for r, (rows, odd_block, row_l, _, even_block) in blocks.items()
    )


@functools.lru_cache(maxsize=64)
def _racah_values(n: int, point) -> np.ndarray:
    """racah of every distinct key of the plan, one row per key, one column per phase.

    Every key reads the one q_table of the point that reaches them all.
    """
    keys = _recoupling_plan(n)[0]
    table = _table(keys, point)
    values = np.array([racah(*k, point, table=table) for k in keys])
    values.setflags(write=False)
    return values


def duality_matrix(n: int, point) -> DualityMatrix:
    """Orthogonal map from even-path coordinates to odd-path coordinates.

    Rows are indexed by odd paths, columns by even paths, both in their
    frozen enumeration order. For n = 2 this is the single all-1/2
    racah matrix. At a batched point the entries are a stack with one
    leading axis over the phases. Only the racah values are cached, per
    (n, point); the stack is rebuilt from them on every call.
    """
    if n < 2:
        raise ValueError("duality needs n >= 2 (no even basis on 2 strands)")
    odd, even = path_bases(n)
    values = _racah_values(n, point)
    a = np.zeros(values.shape[1:] + (len(odd), len(even)), dtype=values.dtype)
    for rows, cols, odd_factors, even_factors in _recoupling_plan(n)[1]:
        odd_products = math.prod(values[k] for k in odd_factors)
        # chunks of rows with about 8192 (entry, phase) products keep the
        # temporaries, and the process's peak memory, small next to a
        step = max(1, 8192 // (len(cols) * values[0].size))
        for lo in range(0, len(rows), step):
            part = slice(lo, lo + step)
            entries = odd_products[part, None]
            for k in even_factors[:, part]:
                entries = entries * values[k]
            a[..., rows[part], cols] = np.moveaxis(entries, (0, 1), (-2, -1))
    return DualityMatrix(n, point, a, odd, even)
