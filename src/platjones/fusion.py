"""Total-spin-0 fusion path bases and the odd/even duality matrix.

Strand spins are all 1/2. The odd basis pairs strands (2i-1, 2i) and
couples the pair spins J in {0,1} down a left comb whose final label
must be 0; the even basis couples strand 1 with the interior pairs
(2i, 2i+1) and ends on 1/2 so the last strand can close the total to 0.
Both bases have Catalan(n) elements. Each basis reaches the left-comb
basis of the 2n strands by one F-move per strand pair; the moves act on
distinct nodes, so a basis-change entry is a product of one q-Racah
coefficient per pair. The duality matrix is C_odd C_even^T, built from
a per-n plan of those products and the few distinct Racah arguments.

Labels are handled as doubled integers (twice the spin) so triangle
arithmetic stays integral; the path dataclasses expose pair couplings
as plain integers since those are integral spins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeRadicand, NonAdmissibleTriple
from .qnum import is_admissible, q_factorial, q_number, triangle


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


def racah(two_j, two_l, two_s1, two_s2, two_s3, two_s4, point) -> float:
    """Quantum Racah recoupling coefficient, doubled spin arguments.

    Prefactor (-1)^{s1+s2+s3+s4} sqrt([2j+1][2l+1]) times the four
    triangle coefficients times the alternating sum over m of
    (-1)^m [m+1]! over the seven constraint factorials. The m bounds
    keep every factorial argument nonnegative.
    """
    for a, b, c in (
        (two_s1, two_s2, two_j),
        (two_s3, two_s4, two_j),
        (two_s1, two_s4, two_l),
        (two_s2, two_s3, two_l),
    ):
        if not is_admissible(a, b, c):
            raise NonAdmissibleTriple(f"({a}/2, {b}/2, {c}/2)")
    pref = (-1) ** ((two_s1 + two_s2 + two_s3 + two_s4) // 2)
    norm = q_number(2 * (two_j + 1), point) * q_number(2 * (two_l + 1), point)
    if norm <= 0.0:
        raise NegativeRadicand(
            f"[{two_j + 1}][{two_l + 1}] = {norm!r} not positive; theta too large"
        )
    pref *= math.sqrt(norm)
    pref *= (
        triangle(two_s1, two_s2, two_j, point)
        * triangle(two_s3, two_s4, two_j, point)
        * triangle(two_s1, two_s4, two_l, point)
        * triangle(two_s2, two_s3, two_l, point)
    )
    mmin = max(
        two_s1 + two_s2 + two_j,
        two_s3 + two_s4 + two_j,
        two_s1 + two_s4 + two_l,
        two_s2 + two_s3 + two_l,
    ) // 2
    mmax = min(
        two_s1 + two_s2 + two_s3 + two_s4,
        two_s1 + two_s3 + two_j + two_l,
        two_s2 + two_s4 + two_j + two_l,
    ) // 2
    total = 0.0
    for m in range(mmin, mmax + 1):
        den = (
            q_factorial(m - (two_s1 + two_s2 + two_j) // 2, point)
            * q_factorial(m - (two_s3 + two_s4 + two_j) // 2, point)
            * q_factorial(m - (two_s1 + two_s4 + two_l) // 2, point)
            * q_factorial(m - (two_s2 + two_s3 + two_l) // 2, point)
            * q_factorial((two_s1 + two_s2 + two_s3 + two_s4) // 2 - m, point)
            * q_factorial((two_s1 + two_s3 + two_j + two_l) // 2 - m, point)
            * q_factorial((two_s2 + two_s4 + two_j + two_l) // 2 - m, point)
        )
        if den == 0.0:
            raise NegativeRadicand(
                "racah sum denominator vanishes; theta too large for these spins"
            )
        total += (-1) ** m * q_factorial(m + 1, point) / den
    return pref * total


def _comb_terms(moves):
    """Comb labels and racah keys of every term of one path's comb expansion.

    Each move (a, f, d) is one F-move at a node with label d whose left
    subtree has label a and whose right child is a strand pair coupled
    to f: (A (B C)_f)_d = sum_e racah(e, f, a, b, c, d) ((A B)_e C)_d
    with b = c = 1/2. A move touches only its own node, so the moves
    commute and each term is a product of one coefficient per move.
    """
    terms = [((), ())]
    for a, f, d in moves:
        terms = [
            (labels + (e, d), keys + ((e, f, a, 1, 1, d),))
            for labels, keys in terms
            for e in _fuse_range(a, 1)
            if is_admissible(e, 1, d)
        ]
    return terms


@functools.cache
def _recoupling_plan(n: int):
    """Phase-independent structure of the odd and even basis-to-comb maps.

    Returns the distinct racah keys, the comb width, and per basis the
    (rows, cols, factors) arrays of its terms: factors[t] indexes into
    the keys whose coefficients multiply to term t. Comb columns are
    numbered as labels are first seen; a = C_odd C_even^T does not
    depend on that order.
    """
    odd, even = path_bases(n)
    keys, columns = {}, {}

    def terms(rows_moves):
        rows, cols, factors = [], [], []
        for row, (head, moves, tail) in enumerate(rows_moves):
            for labels, term_keys in _comb_terms(moves):
                rows.append(row)
                cols.append(columns.setdefault(head + labels + tail, len(columns)))
                factors.append([keys.setdefault(k, len(keys)) for k in term_keys])
        return np.array(rows), np.array(cols), np.array(factors)

    # odd comb (2l_0, e_1, 2l_1, ..., e_{n-1}, 2l_{n-1}), moves (2l_{i-1}, 2J_i, 2l_i)
    odd_terms = terms(
        (
            (2 * p.l[0],),
            [(2 * a, 2 * f, 2 * d) for a, f, d in zip(p.l, p.J[1:], p.l[1:])],
            (),
        )
        for p in odd
    )
    # even comb (e_0, r_0, ..., e_{n-2}, r_{n-2}, 0), moves (r_{i-1}, 2J_i, r_i),
    # r_{-1} = 1 for strand 1
    even_terms = terms(
        ((), [(a, 2 * f, d) for a, f, d in zip((1,) + p.two_r, p.J, p.two_r)], (0,))
        for p in even
    )
    return tuple(keys), len(columns), odd_terms, even_terms


@functools.lru_cache(maxsize=512)
def _duality_entries(n: int, point) -> np.ndarray:
    keys, width, odd_terms, even_terms = _recoupling_plan(n)
    values = np.array([racah(*k, point) for k in keys])
    Co, Ce = np.zeros((2, len(path_bases(n)[0]), width))
    for C, (rows, cols, factors) in ((Co, odd_terms), (Ce, even_terms)):
        C[rows, cols] = values[factors].prod(axis=1)
    a = Co @ Ce.T
    a.setflags(write=False)
    return a


def duality_matrix(n: int, point) -> DualityMatrix:
    """Orthogonal map from even-path coordinates to odd-path coordinates.

    Rows are indexed by odd paths, columns by even paths, both in their
    frozen enumeration order. For n = 2 this is the single all-1/2
    racah matrix.
    """
    if n < 2:
        raise ValueError("duality needs n >= 2 (no even basis on 2 strands)")
    odd, even = path_bases(n)
    return DualityMatrix(
        n=n,
        point=point,
        entries=_duality_entries(n, point),
        odd_paths=odd,
        even_paths=even,
    )
