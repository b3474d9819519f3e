"""Compile annotated words into the paper's operator list, and contract them on the comb labellings.

A word splits into maximal runs of same-parity generator indices, one
diagonal letter per run, named in order of appearance: an odd letter
is diagonal in the odd path basis, an even one in the even basis and
acts conjugated by the duality matrix, so a program prints like the
paper's a f a† g a h a† ... (compile, tokens). The commands print that
list; every backend (jones, evaluate, qsim, verify) reads the element
<0|R_1 ... R_c|0> on the comb labellings (fusion) instead: one local
move R per syllable g_i^p (fusion.comb_move), lambda_J^p on a 1 x 1
block and F^T diag(lambda_0^p, lambda_1^p) F on a 2 x 2 block at a,
F the rotation of a (fusion.rotations), lambda from SPECTRUM. comb runs
the words of one n as one batch, a slice at a time, each word with its
own moves (comb_elements reads column 0). The Jones polynomial is read
off samples of the element, times d^{n-1}, on the circle
|q^{1/2}| = RHO just outside the unit circle: an inverse DFT
(laurent.inverse_dft) gives the Laurent coefficients (a Cauchy
integral, Bornemann, Found. Comput. Math. 11, 2011), rounded.
"""

from __future__ import annotations

import functools
import itertools
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
from .fusion import block_dimension, comb_move, rotations
from .laurent import LaurentPoly, circle_samples, laurent_eval, read_coefficients
from .qnum import QPoint, admissible_arc

ODD = "odd"
EVEN = "even"

DAGGER = "a†"
BLOCK_ENTRIES = 1 << 12  # complex entries (64 KiB) of one slice's block of d-vectors

# right-handed braiding eigenvalues +-x^e, x = q^{1/2}: rows sign and e, columns J = 0, 1
SPECTRUM = {PARALLEL: ((-1, 1), (3, 1)), ANTIPARALLEL: ((1, -1), (0, -2))}


@functools.cache
def _spectrum(orientation: str, power: int) -> tuple[int, int, int, int]:
    """Signs, then x-exponents, of the braiding eigenvalues of a syllable of that power, J = 0, 1.

    ValueError unless the exponents fit in int64.
    """
    if orientation not in SPECTRUM:
        raise UnannotatedSyllable(f"orientation {orientation!r} is not resolved")
    (s0, s1), (e0, e1) = SPECTRUM[orientation]
    p = abs(power)
    if p * max(abs(e0), abs(e1)) >= 2**63:
        raise ValueError(f"power {power} has more crossings than int64 can tally")
    return s0**p, s1**p, power * e0, power * e1


@dataclass(frozen=True)
class BlockOperator:
    """One diagonal letter of a compiled program: a run of same-parity syllables in its basis."""

    n: int
    token: str
    basis: str
    run: tuple[Syllable, ...] = ()


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


def comb(words, point, reverse=False, check=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each slice's word indices and (words, paths, phases) block v, updated in place, before and after each step.

    v starts as the odd vacuum e_0 per word and phase. The annotated
    words of one n go longest first, in slices of at most
    BLOCK_ENTRIES // (phases * d) words, so the words still moving at a
    step are a prefix v[:k]. Step t applies each one's t-th syllable
    g_i^p, the words of each i in one move v <- v R with their own
    lambda, so a word keeps the bits it has alone: R is lambda_J^p on a
    1 x 1 block and F^T diag(lambda_0^p, lambda_1^p) F on a 2 x 2 block
    (fusion.comb_move; fusion.rotations, read at the first such block,
    checks the phases). With reverse it
    applies the t-th from the end: each R is symmetric, so these row
    steps are the column steps u <- R u of qsim's register. check, if
    given, sees each step's word indices, syllable positions, lambda
    (words, J, phases) and whether a 2 x 2 block moves, before the step.
    """
    if len({w.n for w in words}) != 1:
        raise ValueError("expected at least one word, all of one n")
    n, x = words[0].n, point.q_half
    d, F = block_dimension(n), None
    order = sorted(range(len(words)), key=lambda w: -len(words[w].syllables))
    size = max(1, BLOCK_ENTRIES // (len(x) * d))
    for start in range(0, len(order), size):
        rows = np.array(order[start : start + size])
        runs = [words[w].syllables[::-1] if reverse else words[w].syllables for w in rows]
        lengths = [len(run) for run in runs]
        # (words, steps, (i, signs, exponents)), padded past each word's end, which no step reads
        table = np.array([[(s.index, *_spectrum(s.orientation, s.power)) for s in run]
                          + [(0, 1, 1, 0, 0)] * (lengths[0] - len(run)) for run in runs])
        # in the point's precision from the start, as v[rows] = ... cannot promote v
        v = np.zeros((len(rows), d, len(x)), x.dtype)
        v[:, 0] = 1.0
        yield rows, v
        k = len(rows)
        for t in range(lengths[0]):
            while lengths[k - 1] <= t:  # the words still moving are a prefix: longest first
                k -= 1
            lam = table[:k, t, 1:3, None] * x ** table[:k, t, 3:, None]
            groups = {}
            for row, i in enumerate(table[:k, t, 0].tolist()):
                groups.setdefault(i, []).append(row)
            moves = [(comb_move(n, i), group) for i, group in groups.items()]
            if check is not None:
                positions = np.array(lengths[:k]) - 1 - t if reverse else np.full(k, t)
                check(rows[:k], positions, lam, any(len(move[0]) for move, _ in moves))
            for (low, high, block, J), group in moves:
                first, last = group[0], group[-1]
                # a view where the rows allow: one word's (paths, phases), as a word alone
                part = first if first == last else slice(first, last + 1) if last - first == len(group) - 1 else group
                u, g = v[part], lam[part]
                lo, hi = u[..., low, :], u[..., high, :]
                u *= g[..., J, :]
                if len(low):
                    F = rotations(n, point) if F is None else F
                    R = np.einsum("bjep,...jp,bjfp->...befp", F, g, F)
                    u[..., low, :] = lo * R[..., block, 0, 0, :] + hi * R[..., block, 1, 0, :]
                    u[..., high, :] = lo * R[..., block, 0, 1, :] + hi * R[..., block, 1, 1, :]
                if part is group:
                    v[part] = u
            yield rows, v


def comb_elements(words, point, reverse=False, check=None) -> np.ndarray:
    """The plat matrix entry <0|R_1 ... R_c|0> of each annotated word of one n, (words, phases): comb's column 0."""
    out = None
    for rows, v in comb(words, point, reverse, check):
        out = np.empty((len(words), v.shape[2]), v.dtype) if out is None else out
        out[rows] = v[:, 0]
    return out


def evaluate(word: BraidWord, theta: float) -> complex:
    """Plat matrix element <0| program |0> at q = e^{i theta}, on the comb labellings."""
    return complex(comb_elements([resolve_orientations(word)], QPoint((theta,)))[0, 0])


def unlink_normalization(n: int, theta):
    """d^{n-1} with d = -(q^{1/2} + q^{-1/2}) = -2 cos(theta/2), per theta."""
    return (-2.0 * np.cos(theta / 2.0)) ** (n - 1)


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

    Samples the comb element (comb_elements) times the unlink
    normalization d^{n-1} at M points x = q^{1/2} on the circle |x| = RHO and reads the integer
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
    values = comb_elements([annotated], point)[0] * (-(x + 1.0 / x)) ** (n - 1)
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
