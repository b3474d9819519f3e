"""Test-only form of the evaluator's braiding phases, shared by several test modules."""

from platjones.evaluator import _spectrum


def braiding_phase(J: int, orientation: str, handedness: str, point):
    """Markov-corrected braiding eigenvalue for pair coupling J, per phase.

    Right-handed: parallel strands give (-q^{3/2}, q^{1/2}) for J=0,1;
    antiparallel give (1, -q^{-1}). Left-handed is the complex inverse.
    """
    if J not in (0, 1):
        raise ValueError(f"pair coupling must be 0 or 1, got {J}")
    spectrum = _spectrum(orientation, {"right": 1, "left": -1}[handedness])
    return spectrum[J] * point.q_half ** spectrum[2 + J]

