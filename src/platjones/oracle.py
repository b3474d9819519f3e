"""Independent exact ground truth: Kauffman bracket of the plat closure.

The braid is swept upward from the cups as a Temperley–Lieb transfer
matrix: each crossing expands as A^eps * 1 + A^{-eps} * e_i (Kauffman,
"State models and the Jones polynomial", Topology 26, 1987), and the
states are the planar matchings of the current strand ends, each
carrying its exact integer coefficients in A as a plain dict, updated
in place; one LaurentPoly is built at the end. The caps close the
remaining loops; the unknot is normalized to 1 and every further closed
loop contributes d = -A^2 - A^{-2}. The Jones polynomial follows from
the writhe correction V = (-1)^w A^{-3w} <K> with t = A^{-4}; exponents
are returned in x_t = t^{1/2} = A^{-2} so the carrier type matches the
evaluator's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .braid import BraidWord, cap, resolve_orientations, writhe
from .laurent import LaurentPoly

BracketPoly = LaurentPoly  # exponents are powers of A

LOOP_VALUE = LaurentPoly({2: -1, -2: -1})  # d = -A^2 - A^{-2}


@dataclass(frozen=True)
class PlanarDiagram:
    """Plat closure as signed crossings between n cups and n caps.

    Strand ends are numbered 0..2n-1 from the left; the cups and the
    caps both pair ends k and k ^ 1. Each crossing stores
    (position, sign) and crosses ends position and position + 1.
    """

    n: int
    crossings: tuple[tuple[int, int], ...]
    word: BraidWord = field(repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def plat_diagram(word: BraidWord) -> PlanarDiagram:
    """List the crossings bottom to top; orientation resolution validates caps."""
    annotated, _ = resolve_orientations(word)
    crossings = tuple(
        (s.index - 1, 1 if s.power > 0 else -1)
        for s in annotated.syllables
        for _ in range(abs(s.power))
    )
    return PlanarDiagram(n=annotated.n, crossings=crossings, word=annotated)


def _add(target: dict, coeffs: dict, factor: dict) -> None:
    """target += coeffs * factor, on {A-exponent: int} dicts, in place."""
    for shift, scale in factor.items():
        for e, c in coeffs.items():
            e += shift
            target[e] = target.get(e, 0) + scale * c


@functools.cache
def _loop_power(k: int) -> dict[int, int]:
    """d^k as an {A-exponent: int} dict, built once per k; never mutated."""
    return (LOOP_VALUE ** k).coeffs()


def kauffman_bracket(diagram: PlanarDiagram) -> BracketPoly:
    """Exact bracket by a sweep over planar matchings, unknot normalized to 1.

    Each state is a matching of the current strand ends, partner[k]
    being the other end of the arc below end k, mapped to its
    {A-exponent: int} coefficients. e_i caps ends i and i + 1 (closing
    a loop if they are partners, else joining their partners) and cups
    them anew; at the top the caps (k, k ^ 1) close every remaining loop.
    """
    states = {tuple(k ^ 1 for k in range(2 * diagram.n)): {0: 1}}
    for i, eps in diagram.crossings:
        swept: dict[tuple[int, ...], dict[int, int]] = {}
        # the identity weighs A^eps, e_i A^-eps, and e_i closing a loop A^-eps d
        kept, capped, closed = {eps: 1}, {-eps: 1}, {2 - eps: -1, -2 - eps: -1}
        for partner, coeffs in states.items():
            joined = list(partner)
            loop = cap(joined, i)
            joined[i], joined[i + 1] = i + 1, i
            _add(swept.setdefault(partner, {}), coeffs, kept)
            _add(swept.setdefault(tuple(joined), {}), coeffs, closed if loop else capped)
        states = swept
    total: dict[int, int] = {}
    for partner, coeffs in states.items():
        joined = list(partner)
        loops = sum(cap(joined, k) for k in range(0, len(joined), 2))
        _add(total, coeffs, _loop_power(loops - 1))
    return LaurentPoly(total)


def writhe_correction(bracket: BracketPoly, w: int) -> LaurentPoly:
    """V = (-1)^w A^{-3w} <K>, re-expressed in x_t = t^{1/2} = A^{-2}."""
    sign = -1 if w % 2 else 1
    out = {}
    for e, coeff in bracket.coeffs().items():
        corrected = e - 3 * w
        if corrected % 2:
            raise ValueError(
                f"writhe-corrected A-exponent {corrected} is odd (writhe {w})"
            )
        out[-corrected // 2] = coeff * sign
    return LaurentPoly(out)


def jones_exact(word: BraidWord) -> LaurentPoly:
    """Exact Jones polynomial of the plat closure, exponents in t^{1/2}.

    Uses the same deterministic orientation resolution as the
    evaluator, so the writhe correction refers to the same link
    orientation.
    """
    diagram = plat_diagram(word)
    bracket = kauffman_bracket(diagram)
    return writhe_correction(bracket, writhe(diagram.word))


def bracket_span(bracket: BracketPoly) -> tuple[int, int]:
    """Smallest and largest A-exponent; (0, 0) for constants."""
    sup = bracket.support() or [0]
    return (sup[0], sup[-1])
