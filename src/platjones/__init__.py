"""Jones polynomials of plat-closed braids via a unitary vertex-model
representation, cross-checked by an exact Kauffman-bracket oracle."""

from .braid import (
    BraidWord,
    Syllable,
    format_word,
    mirror,
    parse,
    resolve_orientations,
    writhe,
)
from .errors import (
    AnnotationConflict,
    CapMismatch,
    DegenerateQ,
    NegativeRadicand,
    NonUnitaryBlock,
    PlatJonesError,
    ResidualTooLarge,
    UnannotatedSyllable,
    WordSyntaxError,
)
from .evaluator import (
    JonesResult,
    admissible_arc,
    convention_factor,
    evaluate,
    jones,
    unlink_normalization,
)
from .laurent import LaurentPoly, laurent_eval, render_q
from .oracle import jones_exact, kauffman_bracket
from .qnum import CirclePoint, QPoint, q_number
from .qsim import p_k, run

__version__ = "0.1.0"

__all__ = [
    "AnnotationConflict",
    "BraidWord",
    "CapMismatch",
    "CirclePoint",
    "DegenerateQ",
    "JonesResult",
    "LaurentPoly",
    "NegativeRadicand",
    "NonUnitaryBlock",
    "PlatJonesError",
    "QPoint",
    "ResidualTooLarge",
    "Syllable",
    "UnannotatedSyllable",
    "WordSyntaxError",
    "admissible_arc",
    "convention_factor",
    "evaluate",
    "format_word",
    "jones",
    "jones_exact",
    "kauffman_bracket",
    "laurent_eval",
    "mirror",
    "p_k",
    "parse",
    "q_number",
    "render_q",
    "resolve_orientations",
    "run",
    "unlink_normalization",
    "writhe",
    "__version__",
]
