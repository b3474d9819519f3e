"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the compiled block of dimension
Catalan(n) sits on computational-basis indices 0..d-1 and every
operator acts as block plus identity on the rest; the duality blocks
a and a† are embedded once per evolution. Starting from
|0...0> the final amplitude of |0...0> reproduces the evaluator's
matrix element, and its squared modulus is the algorithm's acceptance
probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import DIAGONAL, BlockOperator, CompiledProgram
from .fusion import enumerate_odd_paths
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


@dataclass(frozen=True)
class EmbeddedUnitary:
    """d x d block on the lowest indices, implicit identity elsewhere."""

    n: int
    block: np.ndarray

    @property
    def dimension(self) -> int:
        return 1 << (2 * self.n)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        d = len(self.block)
        out = amplitudes.copy()
        out[:d] = self.block @ amplitudes[:d]
        return out

    def matrix(self) -> np.ndarray:
        """Dense form, for small-register inspection only."""
        full = np.eye(self.dimension, dtype=complex)
        d = len(self.block)
        full[:d, :d] = self.block
        return full


def embed(op: BlockOperator, n: int, point: QPoint) -> EmbeddedUnitary:
    """Materialize one operator at the given phase point.

    Unitarity of the block is what keeps the register norm at 1, so it
    is checked here rather than trusted: a diagonal block by the moduli
    of its entries, in O(d), and a and a† by the dense product B B†.
    """
    if op.kind == DIAGONAL:
        phases = op.phases(point)
        deviation = np.max(np.abs(np.abs(phases) ** 2 - 1.0))
        block = np.diag(phases)
    else:
        block = op.matrix(point)
        deviation = np.max(np.abs(block @ block.conj().T - np.eye(len(block))))
    if deviation >= UNITARITY_TOL:
        raise NonUnitaryBlock(
            f"operator {op.token!r} deviates from unitarity by {deviation:.3e}"
        )
    return EmbeddedUnitary(n=n, block=block)


def evolution(program: CompiledProgram, theta: float) -> Iterator[StateVector]:
    """Yield the register state before and after each operator.

    The compiled operator list is written in matrix-product order, so
    the evolution applies it right to left: the last factor hits the
    initial state first.
    """
    point = QPoint(theta)
    n = program.n
    amps = np.zeros(1 << (2 * n), dtype=complex)
    amps[0] = 1.0
    yield StateVector(n=n, amplitudes=amps)
    # a and a† recur through the program: each is embedded once
    duality = {}
    for op in reversed(program.operators):
        if op.kind == DIAGONAL:
            unitary = embed(op, n, point)
        elif op.kind in duality:
            unitary = duality[op.kind]
        else:
            unitary = duality[op.kind] = embed(op, n, point)
        amps = unitary.apply(amps)
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
    return len(enumerate_odd_paths(n))
