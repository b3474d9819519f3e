"""Independent exact ground truth: Kauffman bracket of the plat closure.

The braid is swept upward from the cups as a Temperley–Lieb transfer
matrix: each crossing expands as A^eps * 1 + A^{-eps} * e_i (Kauffman,
"State models and the Jones polynomial", Topology 26, 1987), over
states that are the planar matchings of the current strand ends. The
caps close the remaining loops; the unknot is normalized to 1 and every
further loop contributes d = -A^2 - A^{-2}. The Jones polynomial
follows from the writhe correction V = (-1)^w A^{-3w} <K> with
t = A^{-4}, in exponents of x_t = t^{1/2} = A^{-2} like the evaluator's.

Each state's integer polynomial is packed into one int (Kronecker
substitution; von zur Gathen and Gerhard, Modern Computer Algebra,
8.4): with every crossing's weights times A^3, all exponents are even
and >= 0, and the polynomial in X = A^2 is stored at X = 2^b. A crossing
keeps a state times X^{(3+eps)/2} and caps it times X^{(3-eps)/2}, or
-(X^{(5-eps)/2} + X^{(1-eps)/2}) if the cap closes a loop: shifts and
adds. The caps multiply a state of L loops by X^{n-1} d^{L-1} =
(-(X^2 + 1))^{L-1} X^{n-L}, and a signed base-2^b decode of the sum
puts X^k at A-exponent 2k - 3c - 2(n - 1), for c crossings.

The decode is exact while every coefficient is below 2^{b-1} in
modulus. The states' summed coefficient moduli start at 1 and at most
triple per crossing (a kept copy, and a capped one or a closed one of
twice the sum), so no state's coefficient exceeds 3^c. The caps'
factors have moduli summing to 2^{L-1} <= 2^{n-1}, so every coefficient
is at most 3^c 2^{n-1}, and b is the first multiple of 8 a bit past it.
A state's lowest nonzero digit then sets its lowest set bit: every 32
crossings the low digits zero in every state are shifted out, exactly,
and counted, which keeps long words' ints short (trimming at every
crossing slowed short words down).
"""

from __future__ import annotations

import functools
import operator

from .braid import BraidWord, cap, resolve_orientations, writhe
from .laurent import LaurentPoly


def kauffman_bracket(word: BraidWord, tables: dict | None = None) -> LaurentPoly:
    """Exact bracket in powers of A by a sweep over planar matchings, unknot normalized to 1.

    Strand ends are numbered 0..2n-1 from the left, and the cups and the
    caps both pair ends k and k ^ 1. A syllable g_i^p is |p| crossings
    of ends i - 1 and i with the sign of p; orientations are not read.
    A state is a matching of the current strand ends, partner[k] being
    the other end of the arc below end k, numbered in order of
    appearance. e_i caps ends i and i + 1 (closing a loop if they are
    partners, else joining their partners) and cups them anew. tables, a
    dict the caller owns, keeps each n's matchings, moves and loop counts for later calls.
    """
    n, c = word.n, word.crossing_count
    b = -(-(1 + (3**c << n - 1).bit_length()) // 8) * 8  # digit bits, a multiple of 8
    h = b // 2
    start = tuple(k ^ 1 for k in range(2 * n))
    # matchings, ids, moves[i]: id -> (id after e_i, loop), closed: id -> loops under the caps
    matchings, ids, moves, closed = ({} if tables is None else tables).setdefault(n, ([start], {start: 0}, {}, {}))
    states, trimmed = {0: 1}, 0
    crossings = ((s.index - 1, 1 if s.power > 0 else -1) for s in word.syllables for _ in range(abs(s.power)))
    for j, (i, eps) in enumerate(crossings):
        # A^3 times A^eps * 1 + A^-eps * e_i, and A^-eps d once e_i closes a loop
        kept, capped, high, low = h * (3 + eps), h * (3 - eps), h * (5 - eps), h * (1 - eps)
        swept: dict[int, int] = {}
        row = moves.setdefault(i, {})
        for m, p in states.items():
            move = row.get(m)
            if move is None:
                joined = list(matchings[m])
                loop = cap(joined, i)
                joined[i], joined[i + 1] = i + 1, i
                joined = tuple(joined)
                to = ids.setdefault(joined, len(matchings))
                if to == len(matchings):
                    matchings.append(joined)
                move = row[m] = (to, loop)
            to, loop = move
            swept[m] = swept.get(m, 0) + (p << kept)
            swept[to] = swept.get(to, 0) + (-((p << high) + (p << low)) if loop else p << capped)
        states = swept
        if j % 32 == 31:  # every state is a multiple of X^g: shift those digits out
            common = functools.reduce(operator.or_, states.values())
            g = ((common & -common).bit_length() - 1) // b if common else 0
            states = {m: p >> b * g for m, p in states.items()}
            trimmed += g
    by_loops: dict[int, int] = {}
    for m, p in states.items():
        if m not in closed:
            joined = list(matchings[m])
            closed[m] = sum(cap(joined, k) for k in range(0, 2 * n, 2))
        by_loops[closed[m]] = by_loops.get(closed[m], 0) + p
    total = sum(p * ((-(1 << 2 * b) - 1) ** (loops - 1) << b * (n - loops)) for loops, p in by_loops.items())
    return LaurentPoly({2 * (k + trimmed - n + 1) - 3 * c: v for k, v in _digits(total, b).items()})


def _digits(value: int, b: int) -> dict[int, int]:
    """The nonzero signed base-2^b digits of value, each below 2^(b-1) in modulus; b a multiple of 8.

    2^(b-1) added to every digit makes them all nonnegative, so one
    to_bytes call reads them all in time linear in the size of value.
    """
    width, half = b // 8, 1 << b - 1
    count = value.bit_length() // b + 1
    biased = value + int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = biased.to_bytes(width * count, "little")
    digits = (int.from_bytes(data[k : k + width], "little") - half for k in range(0, len(data), width))
    return {k: d for k, d in enumerate(digits) if d}


def writhe_correction(bracket: LaurentPoly, w: int) -> LaurentPoly:
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
    annotated = resolve_orientations(word)
    return writhe_correction(kauffman_bracket(annotated), writhe(annotated))


def bracket_span(bracket: LaurentPoly) -> tuple[int, int]:
    """Smallest and largest A-exponent; (0, 0) for constants."""
    sup = bracket.support() or [0]
    return (sup[0], sup[-1])
