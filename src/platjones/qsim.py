"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the compiled block of dimension
Catalan(n) sits on computational-basis indices 0..d-1 and every
operator acts as block plus identity on the rest. Programs of one n
evolve as one (programs, 2^{2n}) block of registers, a slice at a time,
along evaluator.schedule reversed: a diagonal step multiplies each
covering d-block by its own letter's phases in place, and a and a† are
2(n - 1) layers of F-moves on the covering d-blocks (BlockOperator.act).
Starting from |0...0> the final amplitude of |0...0> reproduces the
evaluator's matrix element, and its squared modulus is the
algorithm's acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import DIAGONAL, BlockOperator, CompiledProgram, group_slices, letters, schedule
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


def check_unitary(op: BlockOperator, point: QPoint, phases=None) -> None:
    """Raise NonUnitaryBlock unless the operator's block is unitary at the point.

    Unitarity of the block is what keeps the register norm at 1, so it
    is checked rather than trusted: a diagonal block by the moduli of
    its entries, in O(d), and a or a† by the recoupling blocks of its
    F-moves (fusion.move_deviation), once per (n, point). phases, if
    given, are a schedule step's rows, and op is the worst row's operator.
    """
    if op.kind == DIAGONAL:
        phases = op.phases(point) if phases is None else phases
        deviation = np.max(np.abs(np.abs(phases) ** 2 - 1.0))
    else:
        deviation = move_deviation(op.n, point)
    if deviation >= UNITARITY_TOL:
        raise NonUnitaryBlock(
            f"operator {op.token!r} deviates from unitarity by {deviation:.3e}"
        )


def _evolve(programs, point: QPoint) -> Iterator[np.ndarray]:
    """Yield the (programs, 2^{2n}) registers, updated in place, before and after each operator.

    The operators are in matrix-product order, so the schedule runs
    reversed, each step checked and acting on its d-blocks u as M u = u M^T.
    """
    d = block_dimension(programs[0].n)
    amps = np.zeros((len(programs), 1 << (2 * programs[0].n)), dtype=complex)
    amps[:, 0] = 1.0
    yield amps
    for rows, ops in reversed(schedule(programs)):
        if ops[0].kind == DIAGONAL:
            sign, exponent = letters(ops)
            phases = sign * np.power(point.q_half, exponent)
            check_unitary(ops[np.abs(np.abs(phases) ** 2 - 1.0).max(1).argmax()], point, phases)
            amps[rows, :d] *= phases
        else:
            check_unitary(ops[0], point)
            amps[rows, :d] = ops[0].act(amps[rows, :d], point, transpose=True)
        yield amps


def evolution(program: CompiledProgram, theta: float) -> Iterator[StateVector]:
    """Yield a copy of the register state before and after each operator."""
    for amps in _evolve([program], QPoint(theta)):
        yield StateVector(n=program.n, amplitudes=amps[0].copy())


def run(program: CompiledProgram, theta: float) -> StateVector:
    """Evolve |0...0> through the whole compiled program."""
    *_, amps = _evolve([program], QPoint(theta))
    return StateVector(n=program.n, amplitudes=amps[0])


def p_ks(programs, theta: float) -> np.ndarray:
    """|<0...0|U|0...0>|^2 of programs of one n, a slice at a time."""
    out = []
    for part in group_slices(programs, lambda n: 1 << (2 * n)):
        *_, amps = _evolve(part, QPoint(theta))
        out.append(np.abs(amps[:, 0]) ** 2)
    return np.concatenate(out)


def p_k(program: CompiledProgram, theta: float) -> float:
    """Acceptance probability |<0...0|U|0...0>|^2, p_ks of the one program."""
    return float(p_ks([program], theta)[0])

