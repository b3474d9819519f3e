"""Statevector simulation of the plat matrix element.

The register holds 2n qubits; the compiled block of dimension
d = Catalan(n) sits on computational-basis indices 0..d-1, its paths
in comb order (fusion.pair_couplings), and every letter acts as block
plus identity on the rest, so only the d-block ever changes. Programs of one n evolve by the evaluator's loop
(evaluator.evolve, through evaluator.elements for a slice at a time)
at the one-phase point QPoint((theta,)), along the schedule reversed:
each step applies each covering row's own letter S in place, as
S u = u S for the symmetric S = D or a E a^T, after check_unitary has
passed it. The 2^{2n} register is built only as the plain complex
array that run returns and evolution yields; amplitudes and p_ks read
the d-block alone. Starting from |0...0> the final amplitude of |0...0>
reproduces the evaluator's matrix element, and its squared modulus is
the algorithm's acceptance probability.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import NonUnitaryBlock
from .evaluator import EVEN, CompiledProgram, elements, evolve
from .fusion import move_deviation
from .qnum import QPoint

UNITARITY_TOL = 1e-10


def check_unitary(ops, point: QPoint, phases) -> None:
    """Raise NonUnitaryBlock unless each letter of a schedule step is unitary at the point.

    Unitarity of the block is what keeps the register norm at 1, so it
    is checked rather than trusted: an even step's a first, by the
    recoupling blocks of its F-moves (fusion.move_deviation), once per
    (n, point), then the diagonals by the moduli of their entries,
    phases, one row per letter of ops, in O(d). The error names the
    letter of the worst row.
    """
    rows = np.abs(np.abs(phases) ** 2 - 1.0).reshape(len(ops), -1).max(1)
    deviations = {"a": move_deviation(ops[0].n, point)} if ops[0].basis == EVEN else {}
    deviations[ops[rows.argmax()].token] = rows.max()
    for token, deviation in deviations.items():
        if deviation >= UNITARITY_TOL:
            raise NonUnitaryBlock(f"operator {token!r} deviates from unitarity by {deviation:.3e}")


def _register(n: int, block: np.ndarray) -> np.ndarray:
    """The 2^{2n} register amplitudes with the d-block on its low indices."""
    return np.pad(block, (0, (1 << (2 * n)) - len(block)))


def evolution(program: CompiledProgram, theta: float) -> Iterator[np.ndarray]:
    """Yield the register state before and after each letter (an even one is a, E, a† at once)."""
    for block in evolve([program], QPoint((theta,)), True, check_unitary):
        yield _register(program.n, block[0, 0])


def run(program: CompiledProgram, theta: float) -> np.ndarray:
    """Evolve |0...0> through the whole compiled program."""
    *_, block = evolve([program], QPoint((theta,)), True, check_unitary)
    return _register(program.n, block[0, 0])


def amplitudes(programs, theta: float) -> np.ndarray:
    """<0...0|U|0...0> of programs of one n, read off each slice's evolved d-block."""
    return elements(programs, QPoint((theta,)), True, check_unitary)[:, 0]


def p_ks(programs, theta: float) -> np.ndarray:
    """|<0...0|U|0...0>|^2 of programs of one n."""
    return np.abs(amplitudes(programs, theta)) ** 2


def p_k(program: CompiledProgram, theta: float) -> float:
    """Acceptance probability |<0...0|U|0...0>|^2, p_ks of the one program."""
    return float(p_ks([program], theta)[0])
