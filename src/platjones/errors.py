"""Exception types shared across the package."""


class PlatJonesError(Exception):
    """Base class for all package errors."""


class DegenerateQ(PlatJonesError):
    """q-number denominator vanishes (theta is a multiple of 2*pi)."""


class NonAdmissibleTriple(PlatJonesError):
    """Spin triple violates the triangle rule or integrality."""


class NegativeRadicand(PlatJonesError):
    """A q-number that a recoupling value needs is not positive.

    Signals that theta is too large for the spins involved; pick a
    smaller theta (larger root order).
    """


class ResidualTooLarge(PlatJonesError):
    """Coefficient read-out rejected: rounding shift, guard band, or a window too wide to sample."""


class WordSyntaxError(PlatJonesError):
    """Braid word text fails to parse; carries 1-based position."""

    def __init__(self, msg, line=1, col=1):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class IndexOutOfRange(WordSyntaxError):
    """Generator index outside [1, 2n-1]."""


class ZeroPower(WordSyntaxError):
    """Syllable with zero power."""


class CapMismatch(PlatJonesError):
    """Top caps cannot be closed: some pair has equal directions."""


class AnnotationConflict(PlatJonesError):
    """Explicit orientation annotation contradicts propagation."""


class UnannotatedSyllable(PlatJonesError):
    """Auto-orientation syllable reached a stage requiring annotations."""


class NonUnitaryBlock(PlatJonesError):
    """A compiled operator's block fails the unitarity check."""
