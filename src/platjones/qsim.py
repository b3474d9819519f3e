"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the block of dimension d = Catalan(n)
sits on computational-basis indices 0..d-1, one per comb labelling
(fusion), and every syllable's move acts as block plus identity on the
rest, so only the d-block ever changes. Programs of one n run through
the evaluator's comb (evaluator.comb, a slice at a time) at the one-phase
point QPoint((theta,)), syllables last to first: each move R is
symmetric, so the row step v R is the column step R u, and each is
applied after check_unitary has passed it. The 2^{2n} register
is built only as the plain complex array that run returns and
evolution yields; amplitudes and p_ks read the d-block alone. Starting
from |0...0> the final amplitude of |0...0> reproduces the evaluator's
matrix element, and its squared modulus is the algorithm's acceptance
probability.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import CompiledProgram, comb, comb_elements
from .fusion import move_deviation
from .qnum import QPoint

UNITARITY_TOL = 1e-10


def check_unitary(programs, point: QPoint):
    """comb's check for programs of one n at the point: NonUnitaryBlock unless each step's moves are unitary.

    Unitarity of the moves is what keeps the register norm at 1, so it
    is checked rather than trusted: a step that moves a 2 x 2 block
    first by the rotations (fusion.move_deviation, once per (n, point)),
    then each word's lambda by its moduli. The error names 'a' for a
    rotation, else the letter whose run holds the worst row's syllable.
    """

    def check(rows, positions, lam, paired) -> None:
        if paired and (deviation := move_deviation(programs[0].n, point)) >= UNITARITY_TOL:
            raise NonUnitaryBlock(f"operator 'a' deviates from unitarity by {deviation:.3e}")
        worst = np.abs(np.abs(lam) ** 2 - 1.0).reshape(len(rows), -1).max(1)
        r = int(worst.argmax())
        if worst[r] >= UNITARITY_TOL:
            letters = programs[rows[r]].letters
            token = [op.token for op in letters for _ in op.run][positions[r]]
            raise NonUnitaryBlock(f"operator {token!r} deviates from unitarity by {worst[r]:.3e}")

    return check


def _comb_args(programs, theta: float) -> tuple:
    """comb's arguments for programs at the one-phase point: their words, syllables last to first, checked."""
    point = QPoint((theta,))
    return [p.word for p in programs], point, True, check_unitary(programs, point)


def _register(n: int, block: np.ndarray) -> np.ndarray:
    """The 2^{2n} register amplitudes with the d-block on its low indices."""
    return np.pad(block, (0, (1 << (2 * n)) - len(block)))


def evolution(program: CompiledProgram, theta: float) -> Iterator[np.ndarray]:
    """Yield the register state before and after each syllable."""
    for _, v in comb(*_comb_args([program], theta)):
        yield _register(program.n, v[0, :, 0])


def run(program: CompiledProgram, theta: float) -> np.ndarray:
    """Evolve |0...0> through the whole compiled program."""
    *_, (_, v) = comb(*_comb_args([program], theta))
    return _register(program.n, v[0, :, 0])


def amplitudes(programs, theta: float) -> np.ndarray:
    """<0...0|U|0...0> of programs of one n, read off each slice's evolved d-block."""
    return comb_elements(*_comb_args(programs, theta))[:, 0]


def p_ks(programs, theta: float) -> np.ndarray:
    """|<0...0|U|0...0>|^2 of programs of one n."""
    return np.abs(amplitudes(programs, theta)) ** 2


def p_k(program: CompiledProgram, theta: float) -> float:
    """Acceptance probability |<0...0|U|0...0>|^2, p_ks of the one program."""
    return float(p_ks([program], theta)[0])
