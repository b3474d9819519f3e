"""Test-only forms of the evaluator's braiding phases and of a real evaluation point, shared by several test modules."""

import math
from dataclasses import dataclass

from platjones.evaluator import _spectrum


@dataclass(frozen=True)
class RealPoint:
    """A real q in (0, 1) with the positive root x = sqrt(q): the fields the package reads of a point.

    q_number takes it like any point. Near q = 1, where sinh(log x)
    falls below 1e-12, it raises DegenerateQ and names thetas, the
    phase 0 of q = 1.
    """

    q: float

    @property
    def q_half(self) -> float:
        return math.sqrt(self.q)

    @property
    def log_q_half(self) -> float:
        return 0.5 * math.log(self.q)

    @property
    def thetas(self) -> float:
        return 0.0


def braiding_phase(J: int, orientation: str, handedness: str, point):
    """Markov-corrected braiding eigenvalue for pair coupling J, per phase.

    Right-handed: parallel strands give (-q^{3/2}, q^{1/2}) for J=0,1;
    antiparallel give (1, -q^{-1}). Left-handed is the complex inverse.
    """
    if J not in (0, 1):
        raise ValueError(f"pair coupling must be 0 or 1, got {J}")
    spectrum = _spectrum(orientation, {"right": 1, "left": -1}[handedness])
    return spectrum[J] * point.q_half ** spectrum[2 + J]
