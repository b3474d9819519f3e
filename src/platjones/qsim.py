"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the compiled block of dimension
d = Catalan(n) sits on computational-basis indices 0..d-1 and every
letter acts as block plus identity on the rest, so only the d-block
ever changes. Programs of one n evolve as one (programs, d) block, a
slice at a time, along evaluator.schedule reversed: each step applies
each covering row's own letter S in place by the evaluator's step
(evaluator.apply_letters), as S u = u S for the symmetric S = D or
a E a^T. The 2^{2n} register is built only for a returned StateVector
(run, evolution); amplitudes and p_ks read the d-block alone.
Starting from |0...0> the final amplitude of |0...0> reproduces the
evaluator's matrix element, and its squared modulus is the
algorithm's acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import (
    EVEN,
    BlockOperator,
    CompiledProgram,
    apply_letters,
    group_slices,
    letters,
    schedule,
)
from .fusion import block_dimension, move_deviation
from .qnum import QPoint

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Full 2^{2n}-dimensional register state."""

    n: int
    amplitudes: np.ndarray

    @property
    def dimension(self) -> int:
        return 1 << (2 * self.n)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probability(self, index: int = 0) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


def check_unitary(letter: BlockOperator, point: QPoint, phases=None) -> None:
    """Raise NonUnitaryBlock unless the letter's block is unitary at the point.

    Unitarity of the block is what keeps the register norm at 1, so it
    is checked rather than trusted: an even letter's a first, by the
    recoupling blocks of its F-moves (fusion.move_deviation), once per
    (n, point), then the diagonal by the moduli of its entries, in O(d).
    phases, if given, are a schedule step's rows, and letter is the
    worst row's letter.
    """
    deviations = {"a": move_deviation(letter.n, point)} if letter.basis == EVEN else {}
    phases = letter.phases(point) if phases is None else phases
    deviations[letter.token] = np.max(np.abs(np.abs(phases) ** 2 - 1.0))
    for token, deviation in deviations.items():
        if deviation >= UNITARITY_TOL:
            raise NonUnitaryBlock(f"operator {token!r} deviates from unitarity by {deviation:.3e}")


def _evolve(programs, point: QPoint) -> Iterator[np.ndarray]:
    """Yield the (programs, d) block, updated in place, before and after each letter.

    The letters are in matrix-product order, so the schedule runs
    reversed, each step checked and acting on its rows u as S u = u S.
    """
    block = np.zeros((len(programs), block_dimension(programs[0].n)), dtype=complex)
    block[:, 0] = 1.0
    yield block
    for rows, ops in reversed(schedule(programs)):
        sign, exponent = letters(ops)
        phases = sign * np.power(point.q_half, exponent)
        check_unitary(ops[np.abs(np.abs(phases) ** 2 - 1.0).max(1).argmax()], point, phases)
        apply_letters(block, rows, ops, point, phases)
        yield block


def _register(n: int, block: np.ndarray) -> StateVector:
    """The 2^{2n} register with the d-block on its low indices."""
    return StateVector(n=n, amplitudes=np.pad(block, (0, (1 << (2 * n)) - len(block))))


def evolution(program: CompiledProgram, theta: float) -> Iterator[StateVector]:
    """Yield the register state before and after each letter (an even one is a, E, a† at once)."""
    for block in _evolve([program], QPoint(theta)):
        yield _register(program.n, block[0])


def run(program: CompiledProgram, theta: float) -> StateVector:
    """Evolve |0...0> through the whole compiled program."""
    *_, block = _evolve([program], QPoint(theta))
    return _register(program.n, block[0])


def amplitudes(programs, theta: float) -> np.ndarray:
    """<0...0|U|0...0> of programs of one n, read off each slice's evolved d-block."""
    out = []
    for part in group_slices(programs, 1):
        *_, block = _evolve(part, QPoint(theta))
        out.append(block[:, 0].copy())  # a view would keep the whole block
    return np.concatenate(out)


def p_ks(programs, theta: float) -> np.ndarray:
    """|<0...0|U|0...0>|^2 of programs of one n."""
    return np.abs(amplitudes(programs, theta)) ** 2


def p_k(program: CompiledProgram, theta: float) -> float:
    """Acceptance probability |<0...0|U|0...0>|^2, p_ks of the one program."""
    return float(p_ks([program], theta)[0])
