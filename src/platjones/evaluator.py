"""Compile annotated words into diagonal letters and evaluate the plat element.

A word splits into maximal runs of same-parity generator indices, one
diagonal letter per run, named in order of appearance. An odd letter
is diagonal in the odd path basis, D; an even letter is diagonal in
the even basis and acts conjugated by the duality matrix, a E a† with
a† = a^T, so a program reads like a f a† g a h a† ... That is the
paper's schedule, which qsim and verify run. Each S = D or a E a^T is
symmetric, S u = u S, so one loop (evolve) pushes e_0 through the
letters of every program of one n, at every phase of a point, along
their shared schedule (schedule), one in-place step (apply_letters)
each, through the F-moves of a and a^T (fusion.recouple): forwards it
reads <0|S_1...S_L|0> (elements), reversed and checked it is qsim's
evolution. Both bases number their paths by the comb labellings
(fusion). A letter is compiled once into integer tallies per pair k
and J = 0, 1, gathered over the paths' pair couplings (letters). jones
and evaluate read the same element on the comb labellings with no
F-move of a (comb_element): one local 2 x 2 move per syllable. The
Jones polynomial is read off samples of the element, times d^{n-1}, on
the circle |q^{1/2}| = RHO just outside the unit circle: an inverse DFT
(laurent.inverse_dft) gives the Laurent coefficients (a Cauchy
integral, Bornemann, Found. Comput. Math. 11, 2011), rounded.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .braid import (
    ANTIPARALLEL,
    PARALLEL,
    BraidWord,
    Syllable,
    resolve_orientations,
    state_loops,
    writhe,
)
from .errors import UnannotatedSyllable
from .fusion import block_dimension, comb_move, pair_couplings, recouple, rotations
from .laurent import LaurentPoly, circle_samples, laurent_eval, read_coefficients
from .qnum import QPoint

ODD = "odd"
EVEN = "even"

DAGGER = "a†"
BLOCK_ENTRIES = 1 << 12  # complex entries (64 KiB) of one block of d-vectors

# right-handed braiding eigenvalues +-x^e, x = q^{1/2}: rows sign and e, columns J = 0, 1
SPECTRUM = {PARALLEL: ((-1, 1), (3, 1)), ANTIPARALLEL: ((1, -1), (0, -2))}


def _spectrum(orientation: str, power: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Signs and x-exponents of the braiding eigenvalues of a crossing of power's sign, columns J = 0, 1."""
    if orientation not in SPECTRUM:
        raise UnannotatedSyllable(f"orientation {orientation!r} is not resolved")
    signs, exponents = SPECTRUM[orientation]
    return signs, (exponents if power > 0 else (-exponents[0], -exponents[1]))


@dataclass(frozen=True)
class BlockOperator:
    """One diagonal letter of a compiled program: a run's braiding phases in its basis."""

    n: int
    token: str
    basis: str
    run: tuple[Syllable, ...] = ()

    @functools.cached_property
    def _tally(self) -> tuple[int, ...]:
        """Minus signs, then x-exponents, of the run per pair k and J = 0, 1; flat (2, pairs, 2).

        ValueError unless their absolute sum, which bounds every path's
        sum of them in letters, fits in int64.
        """
        pairs = pair_couplings(self.n)[self.basis != ODD].shape[1]
        tally = [0] * (4 * pairs)
        for s in self.run:
            k = (s.index - 1) // 2  # sigma_i's pair in either basis: compile splits runs by parity
            signs, exponents = _spectrum(s.orientation, s.power)
            for J in (0, 1):
                tally[2 * k + J] += abs(s.power) * (signs[J] < 0)
                tally[2 * (pairs + k) + J] += abs(s.power) * exponents[J]
        if sum(map(abs, tally)) >= 2**63:
            raise ValueError(f"letter {self.token!r} has more crossings than int64 can tally")
        return tuple(tally)


@dataclass(frozen=True)
class CompiledProgram:
    n: int
    letters: tuple[BlockOperator, ...]
    word: BraidWord = field(repr=False)

    def tokens(self) -> list[str]:
        """The paper's operator list: an even letter E reads a, E, a†."""
        spelled = ([op.token] if op.basis == ODD else ["a", op.token, DAGGER] for op in self.letters)
        return [token for tokens in spelled for token in tokens]

    @property
    def operator_count(self) -> int:
        return len(self.tokens())

    def element(self, point) -> np.ndarray:
        """Plat element <0|S_1 ... S_L|0>, one value per phase of the point."""
        return elements([self], point)[0]


def group_slices(programs, phases: int) -> list:
    """Programs of one n in slices of at most BLOCK_ENTRIES // (phases * d).

    A program holds phases d-vectors of a block, so a block's memory
    stays bounded however large the group; a slice has at least one.
    """
    if len({p.n for p in programs}) != 1:
        raise ValueError("expected at least one program, all of one n")
    step = max(1, BLOCK_ENTRIES // (phases * block_dimension(programs[0].n)))
    return [programs[i : i + step] for i in range(0, len(programs), step)]


def schedule(programs) -> list:
    """(rows, letters) of each step D, E, D, E, ... (D odd, E even) that programs cover.

    A program's letters cover consecutive steps, from 0 if its first letter is odd, else from 1.
    """
    steps = {}
    for row, p in enumerate(programs):
        first = int(bool(p.letters) and p.letters[0].basis == EVEN)
        for step, op in enumerate(p.letters, first):
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


def apply_letters(v: np.ndarray, rows, ops, point, phases) -> None:
    """v[rows] = v[rows] S in place, S each row's letter at the point (phases, its diagonal).

    v holds d-vectors in its last axis, per phase of a batched point
    before it. An even letter's S = a E a^T runs the F-moves of a, scales by
    E and runs them back (fusion.recouple). S is symmetric, so this is
    also S u for column vectors u, the step of qsim's d-blocks.
    """
    even = ops[0].basis == EVEN
    if even:
        v[rows] = recouple(v[rows], ops[0].n, point)
    v[rows] *= phases
    if even:
        v[rows] = recouple(v[rows], ops[0].n, point, transpose=True)


def evolve(part, point, reverse=False, check=None) -> Iterator[np.ndarray]:
    """Yield the (programs, phases, paths) block of a slice, updated in place, before and after each step.

    The block starts as e_0 per program and phase, and goes through
    the schedule, reversed with reverse: a step applies each covering
    row's own letter (apply_letters, with letters once per step), so a
    row keeps the bits it has when evolved alone. check, if given, sees
    each step's (ops, point, phases) before it is applied.
    """
    # in the point's precision from the start, as v[rows] = ... cannot promote v
    v = np.zeros((len(part), len(point.theta), block_dimension(part[0].n)), point.q_half.dtype)
    v[..., 0] = 1.0
    yield v
    steps = schedule(part)
    for rows, ops in reversed(steps) if reverse else steps:
        sign, exponent = letters(ops)
        phases = sign[:, None] * np.power(point.q_half[:, None], exponent[:, None])
        if check is not None:
            check(ops, point, phases)
        apply_letters(v, rows, ops, point, phases)
        yield v


def elements(programs, point, reverse=False, check=None) -> np.ndarray:
    """Plat elements of programs of one n: (programs, phases).

    <0|S_1 ... S_L|0> of each program, one slice of programs
    (group_slices) and all phases at a time through evolve: row vectors
    S_1 first, or with reverse column vectors S_L first, the step order
    of qsim's register.
    """
    return np.concatenate([  # a slice's block is dropped once its column 0 is copied
        deque(evolve(part, point, reverse, check), maxlen=1).pop()[..., 0].copy()
        for part in group_slices(programs, len(point.theta))
    ])


def _diagonal_letter(i: int) -> str:
    base = "fgh"[i % 3]
    return base if i < 3 else f"{base}{i // 3}"


def compile(word: BraidWord) -> CompiledProgram:
    """Split into maximal same-parity runs, one diagonal letter each, in its run's basis."""
    if not word.is_annotated():
        raise UnannotatedSyllable("compile needs a fully annotated word")
    runs = itertools.groupby(word.syllables, lambda s: s.index % 2)
    return CompiledProgram(n=word.n, word=word, letters=tuple(
        BlockOperator(word.n, _diagonal_letter(i), ODD if odd else EVEN, tuple(run))
        for i, (odd, run) in enumerate(runs)
    ))


def comb_element(word: BraidWord, point) -> np.ndarray:
    """Plat element <0|R_1 ... R_c|0> of an annotated word on the comb labellings, per phase.

    v, (paths, phases), runs from the odd vacuum (path 0) through v <- v R
    per syllable g_i^p in word order (fusion.comb_move): R is lambda_J^p
    on a 1 x 1 block and F^T diag(lambda_0^p, lambda_1^p) F on the 2 x 2
    block at a, F's rows J and columns m_i = a -+ 1 (fusion.rotations),
    read at the first such block.
    """
    n, x = word.n, point.q_half
    v = np.zeros((block_dimension(n), len(x)), x.dtype)
    v[0] = 1.0
    F = None
    for s in word.syllables:
        signs, exponents = _spectrum(s.orientation, s.power)
        p = abs(s.power)
        lam = np.array(signs)[:, None] ** p * x ** (p * np.array(exponents)[:, None])
        low, high, block, J = comb_move(n, s.index)
        lo, hi = v[low], v[high]
        v *= lam[J]
        if len(low):
            F = rotations(n, point) if F is None else F
            R = np.einsum("bje...,j...,bjf...->bef...", F, lam, F)
            v[low] = lo * R[block, 0, 0] + hi * R[block, 1, 0]
            v[high] = lo * R[block, 0, 1] + hi * R[block, 1, 1]
    return v[0]


def evaluate(word: BraidWord, theta: float) -> complex:
    """Plat matrix element <0| program |0> at q = e^{i theta}, on the comb labellings."""
    return complex(comb_element(resolve_orientations(word), QPoint((theta,)))[0])


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


def support_window(word: BraidWord) -> tuple[int, int]:
    """Exponents [lo, hi] of x = q^{1/2} that hold the Jones polynomial of an annotated word.

    Kauffman's state bounds (Topology 26, 1987): with c crossings, the
    bracket's A-degrees lie in [-c - 2(|s_B| - 1), c + 2(|s_A| - 1)],
    |s| the loops of a state (braid.state_loops), s_A smoothing the
    negative crossings by e_i and s_B the positive ones. The writhe
    factor (-A^3)^{-w} and x = A^{-2} take an A-degree k to (3w - k)/2.
    """
    c, w = word.crossing_count, writhe(word)
    top = c + 2 * (state_loops(word, -1) - 1)
    bottom = -c - 2 * (state_loops(word, 1) - 1)
    return (3 * w - top) // 2, (3 * w - bottom) // 2


def jones(word: BraidWord, tolerance: float = 1e-6) -> JonesResult:
    """Reconstruct the Jones polynomial of the plat closure.

    Samples the comb element (comb_element; qsim and verify keep the
    paper's schedule) times the unlink normalization d^{n-1} at M
    points x = q^{1/2} on the circle |x| = RHO and reads the integer
    coefficients off an inverse DFT (read_coefficients); M is the
    window width plus a guard band on each side (circle_samples).

    The window is support_window of the resolved word: Kauffman's
    bounds on the degrees of the bracket, from the loops of the two
    states that smooth every crossing one way, shifted by the writhe.
    The result equals (-1)^{mu+n} times the standard Jones polynomial
    (mu link components), with no power of q; see convention_factor.
    residual is max |P(x_j) - R(x_j)| over the samples, R the rounded
    polynomial.
    """
    annotated = resolve_orientations(word)
    program = compile(annotated)
    n = word.n
    window = support_window(annotated)
    point = circle_samples(window)
    x = point.q_half
    values = comb_element(annotated, point) * (-(x + 1.0 / x)) ** (n - 1)
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
