"""Jones polynomials of plat-closed braids via a unitary vertex-model
representation, cross-checked by an exact Kauffman-bracket oracle."""

from .braid import (
    BraidWord,
    CapReport,
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
    NonAdmissibleTriple,
    NonUnitaryBlock,
    ParityMismatch,
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
from .fusion import duality_matrix, racah
from .laurent import LaurentPoly, laurent_eval, render_q
from .oracle import PlanarDiagram, jones_exact, kauffman_bracket, plat_diagram
from .qnum import CirclePoint, QPoint, RealQPoint, q_number
from .qsim import StateVector, p_k, run

__version__ = "0.1.0"

__all__ = [
    "AnnotationConflict",
    "BraidWord",
    "CapMismatch",
    "CapReport",
    "CirclePoint",
    "DegenerateQ",
    "JonesResult",
    "LaurentPoly",
    "NegativeRadicand",
    "NonAdmissibleTriple",
    "NonUnitaryBlock",
    "ParityMismatch",
    "PlanarDiagram",
    "PlatJonesError",
    "QPoint",
    "RealQPoint",
    "ResidualTooLarge",
    "StateVector",
    "Syllable",
    "UnannotatedSyllable",
    "WordSyntaxError",
    "admissible_arc",
    "convention_factor",
    "duality_matrix",
    "evaluate",
    "format_word",
    "jones",
    "jones_exact",
    "kauffman_bracket",
    "laurent_eval",
    "mirror",
    "p_k",
    "parse",
    "plat_diagram",
    "q_number",
    "racah",
    "render_q",
    "resolve_orientations",
    "run",
    "unlink_normalization",
    "writhe",
    "__version__",
]
