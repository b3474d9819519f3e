"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the compiled block of dimension
Catalan(n) sits on computational-basis indices 0..d-1 and every
operator acts as block plus identity on the rest. The block step is
the evaluator's BlockOperator.act: a diagonal letter is one phase per
path, and a and a† are 2(n - 1) layers of two-level F-moves, so no
d x d matrix is built except the one that checks a for unitarity.
Starting from |0...0> the final amplitude of |0...0> reproduces the
evaluator's matrix element, and its squared modulus is the
algorithm's acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import DIAGONAL, BlockOperator, CompiledProgram
from .fusion import duality_matrix, path_bases
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


def check_unitary(op: BlockOperator, point: QPoint) -> None:
    """Raise NonUnitaryBlock unless the operator's block is unitary at the point.

    Unitarity of the block is what keeps the register norm at 1, so it
    is checked rather than trusted: a diagonal block by the moduli of
    its entries, in O(d), and a or a† by the dense product a a† of
    duality_matrix (a is unitary iff a† is).
    """
    if op.kind == DIAGONAL:
        deviation = np.max(np.abs(np.abs(op.phases(point)) ** 2 - 1.0))
    else:
        a = duality_matrix(op.n, point).entries
        deviation = np.max(np.abs(a @ a.conj().T - np.eye(len(a))))
    if deviation >= UNITARITY_TOL:
        raise NonUnitaryBlock(
            f"operator {op.token!r} deviates from unitarity by {deviation:.3e}"
        )


def evolution(program: CompiledProgram, theta: float) -> Iterator[StateVector]:
    """Yield the register state before and after each operator.

    The compiled operator list is written in matrix-product order, so
    the evolution applies it right to left: the last factor hits the
    initial state first. Each operator M acts on the d-block u as
    M u = u M^T, through BlockOperator.act; a is checked for
    unitarity once per evolution, each diagonal letter once.
    """
    point = QPoint(theta)
    n = program.n
    d = block_dimension(n)
    amps = np.zeros(1 << (2 * n), dtype=complex)
    amps[0] = 1.0
    yield StateVector(n=n, amplitudes=amps)
    duality_checked = False
    for op in reversed(program.operators):
        if op.kind == DIAGONAL or not duality_checked:
            check_unitary(op, point)
            duality_checked = duality_checked or op.kind != DIAGONAL
        amps = np.concatenate([op.act(amps[:d], point, transpose=True), amps[d:]])
        yield StateVector(n=n, amplitudes=amps)


def run(program: CompiledProgram, theta: float) -> StateVector:
    """Evolve |0...0> through the whole compiled program."""
    state = None
    for state in evolution(program, theta):
        pass
    assert state is not None
    return state


def p_k(program: CompiledProgram, theta: float) -> float:
    """Acceptance probability |<0...0|U|0...0>|^2."""
    return run(program, theta).probability(0)


def block_dimension(n: int) -> int:
    return len(path_bases(n)[0])
