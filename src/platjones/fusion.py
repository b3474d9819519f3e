"""Total-spin-0 fusion path bases and the odd/even duality matrix.

Strand spins are all 1/2. One builder (_chains) gives both bases as
chains that fuse a running spin with one pair spin J in {0, 1} at a
time. The odd basis pairs strands (2i-1, 2i) and runs its n pair spins
down a left comb from spin 0 back to 0; the even basis starts from
strand 1's spin 1/2, fuses the n - 1 interior pairs (2i, 2i+1) and ends
on 1/2 so the last strand can close the total to 0. Each basis has
d = Catalan(n) paths (block_dimension) and reaches the left-comb basis
of the 2n strands by one F-move per strand pair, so the duality matrix
a = C_odd C_even^T is a product of 2(n - 1) sparse moves, planned once
per n (_move_plan), whose racah values at a point come in one batch
from one qnum.q_table, cached per (n, point). recouple applies the
moves at every phase of a point at once, move_deviation checks a's
unitarity on their recoupling blocks, and duality_matrix (the moves
applied to the identity) is the tests' dense reference.

Labels are doubled integers (twice the spin) so triangle arithmetic
stays integral; the paths' pair couplings J are plain integer spins.
"""

from __future__ import annotations

import functools
import math
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


def _chains(two_start: int, pairs: int, two_end: int):
    """Sorted (J, labels) chains of pairs spins J in {0, 1} from doubled two_start to two_end.

    A pair moves a label by at most 2, so one farther than 2 * (pairs left) from two_end is dropped.
    """
    chains = [((), (two_start,))]
    for left in range(pairs - 1, -1, -1):
        chains = [(J + (j,), labels + (e,)) for J, labels in chains for j in (0, 1)
                  for e in _fuse_range(labels[-1], 2 * j) if abs(e - two_end) <= 2 * left]
    return sorted((J, labels[1:]) for J, labels in chains)


def enumerate_odd_paths(n: int) -> list[OddPath]:
    """Chains from spin 0 over n pairs back to 0, lexicographic; all-zero path first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [OddPath(J, tuple(e // 2 for e in labels)) for J, labels in _chains(0, n, 0)]


def enumerate_even_paths(n: int) -> list[EvenPath]:
    """Chains from spin 1/2 over n - 1 pairs back to 1/2; empty for n = 1 (no interior pairs)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [EvenPath(J, labels) for J, labels in _chains(1, n - 1, 1)] if n > 1 else []


@functools.cache
def path_bases(n: int) -> tuple[tuple[OddPath, ...], tuple[EvenPath, ...]]:
    """Odd and even path lists for n caps, built once per n by the one chain builder."""
    return tuple(enumerate_odd_paths(n)), tuple(enumerate_even_paths(n))


def block_dimension(n: int) -> int:
    """d = Catalan(n), the number of paths in each basis (the odd one at n = 1)."""
    return len(path_bases(n)[0])


@functools.cache
def pair_couplings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, pairs) arrays of the pair couplings J of path_bases(n), built once per n."""
    arrays = tuple(np.array([p.J for p in paths], dtype=int) for paths in path_bases(n))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def racah(two_j, two_l, two_s1, two_s2, two_s3, two_s4, point):
    """Quantum Racah recoupling coefficient, doubled spin arguments.

    Prefactor (-1)^{s1+s2+s3+s4} sqrt([2j+1]) sqrt([2l+1]) times the four
    triangle coefficients times the alternating sum over m of
    (-1)^m [m+1]! over the seven constraint factorials. The m bounds
    keep every factorial argument nonnegative. One value per phase of
    the point. Each label's root is taken alone: at a circle point
    sqrt(XY) is not sqrt(X) sqrt(Y), and only roots of single labels
    cancel from the plat element whatever their branch.
    """
    return _racah_rows([(two_j, two_l, two_s1, two_s2, two_s3, two_s4)], point)[0]


def _racah_rows(keys, point):
    """racah of each key (its six arguments), one row per key, all keys at once.

    Every triad is checked for admissibility, since the keys may come
    from outside. Then one phase check decides every failure: each
    factorial argument of a denominator or radicand, and 2j+1 and 2l+1,
    is at most the largest triad sum plus one, so on the unit circle
    check_arc of the triad with the largest sum keeps every [k] read
    there positive; other points have no zeros. Past a key's last m its
    factorials read [0]! = 1 and its term is 0.
    """
    j, l, s1, s2, s3, s4 = np.array(keys).T
    triads = np.stack([s1, s2, j, s3, s4, j, s1, s4, l, s2, s3, l], -1).reshape(-1, 4, 3)
    quads = np.stack([s1 + s2 + s3 + s4, s1 + s3 + j + l, s2 + s4 + j + l], -1)
    for a, b, c in triads.reshape(-1, 3):
        if not is_admissible(a, b, c):
            raise NonAdmissibleTriple(f"({a}/2, {b}/2, {c}/2)")
    sums = triads.sum(-1)
    check_arc(*triads.reshape(-1, 3)[np.argmax(sums)], point)
    # the m-sum reads up to [min(quads)/2 + 1]!; every other index is below
    numbers, fact = q_table(quads.min(-1).max() // 2 + 1, point)
    column = lambda x: x.reshape(x.shape + (1,) * (fact.ndim - 1))
    lo, hi = sums.max(-1) // 2, quads.min(-1) // 2
    total = 0.0
    for m in lo + np.arange(max(hi - lo) + 1)[:, None]:
        valid = np.clip(hi - m + 1, 0, 1)  # 1 up to a key's last m
        args = np.concatenate([m[:, None] - sums // 2, quads // 2 - m[:, None]], 1)
        den = math.prod(np.moveaxis(fact[args * valid[:, None]], 1, 0))
        total = total + column(valid * (-1) ** m) * fact[(m + 1) * valid] / den
    rad = math.prod(np.moveaxis(fact[(sums[..., None] - 2 * triads) // 2], 2, 0))
    rad = rad / fact[sums // 2 + 1]
    pref = column((-1) ** (quads[:, 0] // 2)) * math.prod(np.moveaxis(np.sqrt(rad), 1, 0))
    return pref * np.sqrt(numbers[j + 1]) * np.sqrt(numbers[l + 1]) * total


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
    labellings, so a = M_0 ... M_{n-2} E_{n-2}^T ... E_0^T; the last odd
    move numbers its targets in the even side's comb order. A state has
    1 or 2 neighbours through a move, so a step that writes the d states
    of one side from the other is stored as (index, key) arrays of every
    state's first neighbour and (state, index, key) arrays of the second
    neighbours of the states that have one, about half. Returns the
    distinct racah keys (doubled arguments), the steps of v @ a (the odd
    moves target-major, then the transposed even moves, source-major)
    and those of v @ a^T.
    """
    odd, even = path_bases(n)
    keys = {}
    number = lambda table, item: table.setdefault(item, len(table))

    def sweep(states):
        """The moves from states (fixed labels, labels to replace), doubled."""
        moves = []
        for k in range(n - 1):
            index, entries = {}, []
            for source, (fixed, labels) in enumerate(states):
                a, d = fixed[k], fixed[k + 1]
                for e in _fuse_range(a, 1):
                    if not is_admissible(e, 1, d):
                        continue
                    target = (fixed, labels[:k] + (e,) + labels[k + 1 :])
                    key = (e, labels[k], a, 1, 1, d)
                    entries.append((source, number(index, target), number(keys, key)))
            states = list(index)
            moves.append(entries)
        return states, moves

    doubled = lambda labels: tuple(2 * x for x in labels)
    odd_combs, odd_moves = sweep([(doubled(p.l), doubled(p.J[1:])) for p in odd])
    even_combs, even_moves = sweep([((1,) + p.two_r, doubled(p.J)) for p in even])
    comb = {(l, r[1:]): i for i, (r, l) in enumerate(even_combs)}
    order = [comb[l[:-1], r] for l, r in odd_combs]
    odd_moves[-1] = [(s, order[t], k) for s, t, k in odd_moves[-1]]

    def step(entries, transpose):
        first, second = {}, []
        for source, target, key in entries:
            col, other = (source, target) if transpose else (target, source)
            if col in first:
                second.append((col, other, key))
            else:
                first[col] = (other, key)
        first = np.array([first[col] for col in range(len(odd))], dtype=np.intp).T
        return tuple(first), tuple(np.array(second, dtype=np.intp).reshape(-1, 3).T)

    forward = [step(m, False) for m in odd_moves] + [step(m, True) for m in even_moves[::-1]]
    backward = [step(m, False) for m in even_moves] + [step(m, True) for m in odd_moves[::-1]]
    return tuple(keys), tuple(forward), tuple(backward)


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
