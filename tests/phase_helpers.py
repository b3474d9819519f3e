"""Test-only forms of the evaluator's braiding phases, shared by several test modules."""

import numpy as np

from platjones.evaluator import _spectrum, letters


def braiding_phase(J: int, orientation: str, handedness: str, point):
    """Markov-corrected braiding eigenvalue for pair coupling J, per phase.

    Right-handed: parallel strands give (-q^{3/2}, q^{1/2}) for J=0,1;
    antiparallel give (1, -q^{-1}). Left-handed is the complex inverse.
    """
    if J not in (0, 1):
        raise ValueError(f"pair coupling must be 0 or 1, got {J}")
    signs, exponents = _spectrum(orientation, {"right": 1, "left": -1}[handedness])
    return signs[J] * point.q_half ** exponents[J]


def letter_phases(op, point) -> np.ndarray:
    """A compiled letter's diagonal entries sign * x^exponent, one row per phase of the point."""
    sign, exponent = letters([op])
    return sign[0] * np.power.outer(point.q_half, exponent[0])
