"""Total-spin-0 fusion path bases and the odd/even duality matrix.

Strand spins are all 1/2. The odd basis pairs strands (2i-1, 2i) and
couples the pair spins J in {0,1} down a left comb whose final label
must be 0; the even basis couples strand 1 with the interior pairs
(2i, 2i+1) and ends on 1/2 so the last strand can close the total to 0.
Both bases have Catalan(n) elements. The change of basis is built by
composing elementary one-node recoupling moves on explicit fusion
trees; each move applies one q-Racah coefficient.

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


# Fusion trees: leaf = strand id (spin 1/2), node = (left, right, doubled label).


def _label(t) -> int:
    return 1 if isinstance(t, int) else t[2]


def _first_right_internal(t, path=()):
    if isinstance(t, int):
        return None
    left, right = t[0], t[1]
    if not isinstance(right, int):
        return path
    found = _first_right_internal(left, path + (0,))
    if found is not None:
        return found
    return _first_right_internal(right, path + (1,))


def _subtree(t, path):
    for d in path:
        t = t[d]
    return t


def _replace(t, path, new):
    if not path:
        return new
    left, right, lb = t
    if path[0] == 0:
        return (_replace(left, path[1:], new), right, lb)
    return (left, _replace(right, path[1:], new), lb)


def _to_comb(state: dict, point) -> dict:
    """Rotate every tree to the left comb by inverse F-moves.

    (A (B C)_f)_d = sum_e racah(e, f, a, b, c, d) ((A B)_e C)_d applied
    at the first (pre-order) node with an internal right child, until
    no such node remains. All trees in a state share one shape.
    """
    while True:
        shape = next(iter(state))
        path = _first_right_internal(shape)
        if path is None:
            return state
        new = {}
        for t, amp in state.items():
            A, BC, d = _subtree(t, path)
            B, C, f = BC
            a, b, c = _label(A), _label(B), _label(C)
            for e in _fuse_range(a, b):
                if not is_admissible(e, c, d):
                    continue
                coef = racah(e, f, a, b, c, d, point)
                nt = _replace(t, path, ((A, B, e), C, d))
                new[nt] = new.get(nt, 0.0) + amp * coef
        state = new


def _comb_labels(t):
    if isinstance(t, int):
        return []
    return _comb_labels(t[0]) + [t[2]]


def _odd_tree(n: int, p: OddPath):
    t = (1, 2, 2 * p.J[0])
    for i in range(1, n):
        pair = (2 * i + 1, 2 * i + 2, 2 * p.J[i])
        t = (t, pair, 2 * p.l[i])
    return t


def _even_tree(n: int, p: EvenPath):
    t = 1
    for i in range(n - 1):
        pair = (2 * i + 2, 2 * i + 3, 2 * p.J[i])
        t = (t, pair, p.two_r[i])
    return (t, 2 * n, 0)


def _std_paths(n: int):
    """Left-comb intermediate label sequences, total spin 0."""
    out = []

    def rec(i, ks):
        if i == 2 * n - 1:
            if ks[-1] == 0:
                out.append(tuple(ks))
            return
        opts = (0, 2) if i == 0 else _fuse_range(ks[-1], 1)
        for k in opts:
            rec(i + 1, ks + [k])

    rec(0, [])
    return sorted(out)


def _basis_matrix(n, paths, tree_fn, point) -> np.ndarray:
    std = _std_paths(n)
    index = {p: i for i, p in enumerate(std)}
    C = np.zeros((len(paths), len(std)))
    for row, p in enumerate(paths):
        state = _to_comb({tree_fn(n, p): 1.0}, point)
        for t, amp in state.items():
            C[row, index[tuple(_comb_labels(t))]] += amp
    return C


@functools.lru_cache(maxsize=512)
def _duality_entries(n: int, point) -> np.ndarray:
    odd, even = path_bases(n)
    Co = _basis_matrix(n, odd, _odd_tree, point)
    Ce = _basis_matrix(n, even, _even_tree, point)
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
