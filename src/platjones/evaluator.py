"""Compile annotated words into block operators and evaluate the plat element.

A word splits into maximal runs of same-parity generator indices.
Odd-index runs are diagonal in the odd path basis; even-index runs are
diagonal in the even basis and appear conjugated by the duality matrix,
so a program reads like  a f a† g a h a† ...  with diagonal letters
assigned in order of appearance. The plat matrix element <0|M_1...M_L|0>
is read by pushing the row vector e_0 through the operators in order
(elements), for every program of one n and every phase of a point in
one pass along their shared schedule (schedule): programs and phases
are numpy axes through the F-moves of a and a† (fusion.recouple), with
no d x d matrix. A diagonal letter is compiled once into integer
tallies per pair k and J = 0, 1 (summed power of q^{1/2}, count of -1
signs); one gather-sum over the paths' pair couplings gives a step's
signs and powers per path (letters). The Jones polynomial is read off
samples of the element, times the unlink normalization d^{n-1}, on the
circle |q^{1/2}| = RHO just outside the unit circle: an inverse FFT
gives the Laurent coefficients (a Cauchy integral, Bornemann, Found.
Comput. Math. 11, 2011), rounded to integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .braid import (
    ANTIPARALLEL,
    PARALLEL,
    BraidWord,
    Syllable,
    resolve_orientations,
)
from .errors import ParityMismatch, UnannotatedSyllable
from .fusion import block_dimension, pair_couplings, recouple
from .laurent import LaurentPoly, circle_samples, laurent_eval, read_coefficients
from .qnum import QPoint

RIGHT = "right"
LEFT = "left"

ODD = "odd"
EVEN = "even"

DIAGONAL = "diagonal"
DUALITY = "duality"
DUALITY_INVERSE = "duality_inverse"

DAGGER = "a†"
BLOCK_ENTRIES = 1 << 12  # complex entries (64 KiB) of one block of row vectors or registers

# right-handed braiding eigenvalues +-x^e, x = q^{1/2}: rows sign and e, columns J = 0, 1
SPECTRUM = {PARALLEL: ((-1, 1), (3, 1)), ANTIPARALLEL: ((1, -1), (0, -2))}


def braiding_phase(J: int, orientation: str, handedness: str, point):
    """Markov-corrected braiding eigenvalue for pair coupling J, per phase.

    Right-handed: parallel strands give (-q^{3/2}, q^{1/2}) for J=0,1;
    antiparallel give (1, -q^{-1}). Left-handed is the complex inverse.
    """
    if J not in (0, 1):
        raise ValueError(f"pair coupling must be 0 or 1, got {J}")
    signs, exponents = _spectrum(orientation, handedness)
    return signs[J] * point.q_half ** exponents[J]


def _spectrum(orientation: str, handedness: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Signs and x-exponents of the braiding eigenvalues, columns J = 0, 1."""
    if orientation not in SPECTRUM:
        raise UnannotatedSyllable(f"orientation {orientation!r} is not resolved")
    if handedness not in (RIGHT, LEFT):
        raise ValueError(f"handedness must be {RIGHT!r} or {LEFT!r}")
    signs, exponents = SPECTRUM[orientation]
    return signs, (exponents if handedness == RIGHT else (-exponents[0], -exponents[1]))


def _pair_of_index(index: int, basis: str) -> int:
    if basis == ODD:
        if index % 2 == 0:
            raise ParityMismatch(f"even generator {index} in an odd-basis run")
        return (index - 1) // 2
    if index % 2 != 0:
        raise ParityMismatch(f"odd generator {index} in an even-basis run")
    return index // 2 - 1


@dataclass(frozen=True)
class BlockOperator:
    """One factor of a compiled program, materialized per phase point."""

    kind: str
    n: int
    token: str
    basis: Optional[str] = None
    run: tuple[Syllable, ...] = ()

    @functools.cached_property
    def _tally(self) -> tuple[int, ...]:
        """Minus signs, then x-exponents, of the run per pair k and J = 0, 1; flat (2, pairs, 2)."""
        pairs = pair_couplings(self.n)[self.basis != ODD].shape[1]
        tally = [0] * (4 * pairs)
        for s in self.run:
            k = _pair_of_index(s.index, self.basis)
            signs, exponents = _spectrum(s.orientation, RIGHT if s.power > 0 else LEFT)
            for J in (0, 1):
                tally[2 * k + J] += abs(s.power) * (signs[J] < 0)
                tally[2 * (pairs + k) + J] += abs(s.power) * exponents[J]
        return tuple(tally)

    def phases(self, point) -> np.ndarray:
        """Diagonal entries sign * x^exponent, one row per phase of the point."""
        if self.kind != DIAGONAL:
            raise ValueError("only diagonal operators carry phases")
        sign, exponent = letters([self])
        return sign[0] * np.power.outer(point.q_half, exponent[0])

    def act(self, v: np.ndarray, point, transpose: bool = False) -> np.ndarray:
        """v @ M, or v @ M^T with transpose, for M this operator at the point.

        v holds row vectors over the paths in its last axis, one row per
        phase of a batched point. A diagonal letter scales v by its
        phases. a and a† = a^T are the F-moves of fusion.recouple, run
        backward for a†; transpose flips the direction once more.
        """
        if self.kind == DIAGONAL:
            return v * self.phases(point)
        backward = (self.kind == DUALITY_INVERSE) != transpose
        return recouple(v, self.n, point, transpose=backward)


@dataclass(frozen=True)
class CompiledProgram:
    n: int
    operators: tuple[BlockOperator, ...]
    word: BraidWord = field(repr=False)

    def tokens(self) -> list[str]:
        return [op.token for op in self.operators]

    @property
    def operator_count(self) -> int:
        return len(self.operators)

    def element(self, point) -> np.ndarray:
        """Plat element <0|M_1 ... M_L|0>, one value per phase of the point."""
        return elements([self], point)[0]


def group_slices(programs, width) -> list:
    """Programs of one n in slices of at most BLOCK_ENTRIES // width(n).

    width(n) is one program's entries in a block, so a block's memory
    stays bounded however large the group; a slice has at least one.
    """
    if len({p.n for p in programs}) != 1:
        raise ValueError("expected at least one program, all of one n")
    step = max(1, BLOCK_ENTRIES // width(programs[0].n))
    return [programs[i : i + step] for i in range(0, len(programs), step)]


def schedule(programs) -> list:
    """(rows, operators) of each step of D, a, E, a†, D, ... (D, E diagonal) that programs cover.

    A program's operators cover consecutive steps, from 0 if its first run is odd, else from 1.
    """
    steps = {}
    for row, p in enumerate(programs):
        first = int(bool(p.operators) and p.operators[0].kind == DUALITY)
        for step, op in enumerate(p.operators, first):
            steps.setdefault(step, []).append((row, op))
    return [([row for row, _ in steps[s]], [op for _, op in steps[s]]) for s in sorted(steps)]


def letters(ops) -> tuple[np.ndarray, np.ndarray]:
    """Integer signs and x-exponents, (ops, paths) each, of diagonal letters of one n and basis.

    One gather-sum of their per-pair tallies over the paths' pair couplings J.
    """
    couplings = pair_couplings(ops[0].n)[ops[0].basis != ODD]
    tallies = np.array([op._tally for op in ops]).reshape(len(ops), 2, -1, 2)
    minus, exponent = tallies[:, :, np.arange(couplings.shape[1]), couplings].sum(-1).swapaxes(0, 1)
    return (-1) ** minus, exponent


def elements(programs, point) -> np.ndarray:
    """Plat elements of programs of one n: (programs, phases).

    A slice of programs (group_slices) and all phases go through the
    schedule as one (programs, phases, paths) block of row vectors: a
    step acts on the rows that cover it, a diagonal one by each row's
    own letter (letters, once per step), a or a† by one BlockOperator.act,
    so a row keeps the bits it has when evaluated alone.
    """
    out = []
    for part in group_slices(programs, lambda n: len(point.theta) * block_dimension(n)):
        # in the point's precision from the start, as v[rows] = ... cannot promote v
        v = np.zeros((len(part), len(point.theta), block_dimension(part[0].n)), point.q_half.dtype)
        v[..., 0] = 1.0
        for rows, ops in schedule(part):
            if ops[0].kind == DIAGONAL:
                sign, exponent = letters(ops)
                v[rows] *= sign[:, None] * np.power(point.q_half[:, None], exponent[:, None])
            else:
                v[rows] = ops[0].act(v[rows], point)
        out.append(v[..., 0].copy())  # a view would keep the whole block
    return np.concatenate(out)


def _diagonal_letter(i: int) -> str:
    base = "fgh"[i % 3]
    return base if i < 3 else f"{base}{i // 3}"


def compile(word: BraidWord) -> CompiledProgram:
    """Split into maximal same-parity runs and emit the operator list.

    Odd runs become bare diagonals; even runs become a, diagonal, a†.
    """
    n = word.n
    if not word.is_annotated():
        raise UnannotatedSyllable("compile needs a fully annotated word")
    ops: list[BlockOperator] = []
    for i, (odd, run) in enumerate(itertools.groupby(word.syllables, lambda s: s.index % 2)):
        diag = BlockOperator(DIAGONAL, n, _diagonal_letter(i), ODD if odd else EVEN, tuple(run))
        if odd:
            ops.append(diag)
        else:
            ops += [BlockOperator(DUALITY, n, "a"), diag, BlockOperator(DUALITY_INVERSE, n, DAGGER)]
    return CompiledProgram(n=n, operators=tuple(ops), word=word)


def evaluate(word: BraidWord, theta: float) -> complex:
    """Plat matrix element <0| program |0> at q = e^{i theta}."""
    annotated, _ = resolve_orientations(word)
    return complex(compile(annotated).element(QPoint((theta,)))[0])


def unlink_normalization(n: int, theta):
    """d^{n-1} with d = -(q^{1/2} + q^{-1/2}) = -2 cos(theta/2), per theta."""
    return (-2.0 * np.cos(theta / 2.0)) ** (n - 1)


def admissible_arc(n: int) -> tuple[float, float]:
    """Open phase interval where every needed q-number stays positive.

    The duality build reads q-numbers [k] with k <= n+1, so theta must
    stay below 2 pi / (n+1).
    """
    return (0.0, 2.0 * math.pi / (n + 1))


def phase_grid(n: int, count: int) -> np.ndarray:
    """count equispaced phases on the middle 90% of the admissible arc."""
    lo, hi = admissible_arc(n)
    span = hi - lo
    return np.linspace(lo + 0.05 * span, hi - 0.05 * span, count)


@dataclass(frozen=True)
class JonesResult:
    polynomial: LaurentPoly
    residual: float
    max_shift: float
    window: tuple[int, int]
    normalization: str
    program: CompiledProgram = field(repr=False)

    @property
    def n(self) -> int:
        return self.program.n

    @property
    def operator_count(self) -> int:
        return self.program.operator_count


def jones(word: BraidWord, tolerance: float = 1e-6) -> JonesResult:
    """Reconstruct the Jones polynomial of the plat closure.

    Samples the matrix element times the unlink normalization d^{n-1}
    at M points x = q^{1/2} on the circle |x| = RHO and reads the
    integer coefficients off an inverse FFT (read_coefficients); M is
    the window width plus a guard band on each side (circle_samples).

    The window is [-3c - (n-1), 3c + (n-1)] for c crossings. A Kauffman
    state of the plat closure has at most c + n loops: the
    all-vertical smoothing leaves the n cup-cap loops and each crossing
    smoothed the other way changes the count by one. Its bracket term
    A^{a-b} d^{loops-1} then has A-degree within c + 2(c + n - 1), the
    writhe factor (-A^3)^{-w} with |w| <= c adds 3c, and x = A^{-2}
    halves the total. The result equals (-1)^{mu+n} times the standard
    Jones polynomial (mu link components), with no power of q; see
    convention_factor. residual is max |P(x_j) - R(x_j)| over the
    samples, R the rounded polynomial.
    """
    annotated, _ = resolve_orientations(word)
    program = compile(annotated)
    n = word.n
    c = word.crossing_count()
    window = (-3 * c - (n - 1), 3 * c + n - 1)
    point = circle_samples(window)
    x = point.q_half
    values = program.element(point) * (-(x + 1.0 / x)) ** (n - 1)
    poly, shift = read_coefficients(values, window, tolerance)
    support = poly.support() or [0]
    return JonesResult(
        polynomial=poly,
        residual=float(np.max(np.abs(values - laurent_eval(poly, point)))),
        max_shift=shift,
        window=(support[0], support[-1]),
        normalization=f"d^{n - 1}, d = -(q^(1/2) + q^(-1/2))",
        program=program,
    )


def convention_factor(p: LaurentPoly, reference: LaurentPoly):
    """Unit-modulus monomial c*q^{s/4} with p == c * q^{s/4} * reference.

    Orientation and framing conventions differ between the braiding
    eigenvalues and the skein ground truth by exactly such a factor.
    Returns (c, s) with c in {1, -1} and s an even integer (both
    polynomials have integer exponents in x = q^{1/2}), or None.
    """
    if p.is_zero() or reference.is_zero():
        return (1, 0) if p == reference else None
    shift = p.support()[0] - reference.support()[0]
    shifted = reference.shift(shift)
    if p == shifted:
        return (1, 2 * shift)
    if p == -shifted:
        return (-1, 2 * shift)
    return None
