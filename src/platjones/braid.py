"""Braid words, parsing, orientation propagation and plat capping checks.

A word on 2n strands is closed from below by n cups (pairing positions
2i-1, 2i) and from above by n caps on the same pairs. Cups assign
opposite directions to their two positions (Up at 2i-1, Down at 2i by
default, per-cup flips allowed); a cap is valid only if the two
directions arriving at the top are opposite.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from typing import Optional

from .errors import (
    AnnotationConflict,
    CapMismatch,
    IndexOutOfRange,
    UnannotatedSyllable,
    WordSyntaxError,
    ZeroPower,
)

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"
AUTO = "auto"

_LETTER_ORIENT = {"b": PARALLEL, "h": ANTIPARALLEL, "g": AUTO}


@dataclass(frozen=True, slots=True)  # no per-syllable __dict__: words are held in bulk
class Syllable:
    index: int
    power: int
    orientation: str = AUTO

    def crossings(self) -> int:
        return abs(self.power)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    syllables: tuple[Syllable, ...] = ()
    flips: Optional[tuple[bool, ...]] = None

    @property
    def n(self) -> int:
        return self.strands // 2

    def crossing_count(self) -> int:
        return sum(s.crossings() for s in self.syllables)

    def is_annotated(self) -> bool:
        return all(s.orientation != AUTO for s in self.syllables)


@dataclass(frozen=True)
class CapReport:
    flips: tuple[bool, ...]
    pair_valid: tuple[bool, ...]
    top_directions: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return all(self.pair_valid)


_TOKEN = re.compile(r"[^\s;]+|;")
_HEADER = re.compile(r"strands=(\d+)$")
_FLIPS = re.compile(r"flips=([01]+)$")
_SYLLABLE = re.compile(r"([bhg])(\d+)(?:\^(-?\d+))?$")


def _tokenize(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            yield m.group(0), lineno, m.start() + 1


def parse(text: str) -> BraidWord:
    """Parse the word grammar: strands=2n[; flips=bits]; syllables.

    Syllables are letter + index + optional ^power (default 1), with
    'b' parallel, 'h' antiparallel and 'g' auto-oriented.
    """
    toks = list(_tokenize(text))
    pos = 0

    def take(expect=None):
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1] if toks else ("", 1, 1)
            raise WordSyntaxError(
                f"unexpected end of input, expected {expect}",
                last[1],
                last[2] + len(last[0]),
            )
        t = toks[pos]
        pos += 1
        return t

    tok, line, col = take("strands=<even>")
    m = _HEADER.match(tok)
    if not m:
        raise WordSyntaxError(f"expected strands=<even>, got {tok!r}", line, col)
    strands = int(m.group(1))
    if strands < 2 or strands % 2 != 0:
        raise WordSyntaxError(f"strand count must be even and >= 2, got {strands}", line, col)

    tok, line, col = take("';'")
    if tok != ";":
        raise WordSyntaxError(f"expected ';' after header, got {tok!r}", line, col)

    flips = None
    if pos < len(toks):
        m = _FLIPS.match(toks[pos][0])
        if m:
            _, line, col = take()
            bits = m.group(1)
            if len(bits) != strands // 2:
                raise WordSyntaxError(
                    f"flips needs {strands // 2} bits, got {len(bits)}", line, col
                )
            flips = tuple(c == "1" for c in bits)
            tok, line, col = take("';'")
            if tok != ";":
                raise WordSyntaxError(f"expected ';' after flips, got {tok!r}", line, col)

    syllables = []
    while pos < len(toks):
        tok, line, col = take()
        m = _SYLLABLE.match(tok)
        if not m:
            raise WordSyntaxError(f"bad syllable {tok!r}", line, col)
        letter, idx_s, pow_s = m.groups()
        idx = int(idx_s)
        if not 1 <= idx <= strands - 1:
            raise IndexOutOfRange(
                f"generator index {idx} outside [1, {strands - 1}]", line, col
            )
        power = int(pow_s) if pow_s is not None else 1
        if power == 0:
            raise ZeroPower(f"zero power in {tok!r}", line, col)
        syllables.append(Syllable(idx, power, _LETTER_ORIENT[letter]))
    return BraidWord(strands=strands, syllables=tuple(syllables), flips=flips)


def format_word(word: BraidWord) -> str:
    letter = {PARALLEL: "b", ANTIPARALLEL: "h", AUTO: "g"}
    parts = [f"strands={word.strands}"]
    if word.flips is not None:
        parts.append(f"flips={''.join('1' if f else '0' for f in word.flips)}")
    body = " ".join(
        f"{letter[s.orientation]}{s.index}^{s.power}" for s in word.syllables
    )
    return "; ".join(parts) + ";" + (f" {body}" if body else "")


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Strand occupying each final position; odd powers transpose."""
    perm = list(range(1, word.strands + 1))
    for s in word.syllables:
        if s.power % 2 != 0:
            i = s.index - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def mirror(word: BraidWord) -> BraidWord:
    """Negate every power; annotations and flips are kept."""
    return replace(
        word,
        syllables=tuple(Syllable(s.index, -s.power, s.orientation) for s in word.syllables),
    )


def propagate_orientations(word: BraidWord, cup_flips) -> tuple[BraidWord, CapReport]:
    """Walk the word from the given cup orientation and annotate it.

    Each syllable is labeled by whether the two current directions at
    (i, i+1) agree; explicit labels that disagree with propagation raise
    AnnotationConflict. Antiparallel syllables with |power| > 1 are
    split into unit-power syllables (a crossing swaps the directions,
    so labels cannot actually alternate, but the evaluator consumes
    per-crossing choices). Raises CapMismatch unless every top pair
    ends with opposite directions.
    """
    annotated, report = _propagate(word, tuple(cup_flips))
    if not report.valid:
        bad = [i + 1 for i, ok in enumerate(report.pair_valid) if not ok]
        raise CapMismatch(f"cap pairs {bad} have equal directions")
    return annotated, report


def _propagate(word: BraidWord, flips: tuple[bool, ...]) -> tuple[BraidWord, CapReport]:
    n = word.n
    if len(flips) != n:
        raise ValueError(f"need {n} cup flips")
    up = []
    for f in flips:
        up += [not f, f]  # cup: Up at 2i-1, Down at 2i unless flipped
    out = []
    for s in word.syllables:
        i = s.index - 1
        agree = up[i] == up[i + 1]
        orient = PARALLEL if agree else ANTIPARALLEL
        if s.orientation != AUTO and s.orientation != orient:
            raise AnnotationConflict(
                f"syllable {s.index}^{s.power} marked {s.orientation}, "
                f"propagation gives {orient}"
            )
        if orient == ANTIPARALLEL and abs(s.power) > 1:
            unit = 1 if s.power > 0 else -1
            for _ in range(abs(s.power)):
                out.append(Syllable(s.index, unit, orient))
                up[i], up[i + 1] = up[i + 1], up[i]
        else:
            out.append(Syllable(s.index, s.power, orient))
            if s.power % 2 != 0:
                up[i], up[i + 1] = up[i + 1], up[i]
    pair_valid = tuple(up[2 * i] != up[2 * i + 1] for i in range(n))
    report = CapReport(
        flips=flips,
        pair_valid=pair_valid,
        top_directions=tuple("up" if d else "down" for d in up),
    )
    return replace(word, syllables=tuple(out), flips=flips), report


def resolve_orientations(word: BraidWord) -> tuple[BraidWord, CapReport]:
    """Find cup flips consistent with annotations and valid caps.

    Uses the word's own flips when present; otherwise scans all 2^n
    vectors in lexicographic order and takes the first that works, so
    auto-oriented words resolve deterministically.
    """
    if word.flips is not None:
        return propagate_orientations(word, word.flips)
    conflict_free = 0
    last_conflict = None
    for bits in itertools.product([False, True], repeat=word.n):
        try:
            annotated, report = _propagate(word, bits)
        except AnnotationConflict as e:
            last_conflict = e
            continue
        conflict_free += 1
        if report.valid:
            return annotated, report
    if conflict_free:
        raise CapMismatch(
            "no cup orientation closes the caps "
            f"({conflict_free} conflict-free flip vectors, all cap-invalid)"
        )
    raise AnnotationConflict(
        f"annotations inconsistent with every cup orientation: {last_conflict}"
    )


def consistent_flip_vectors(word: BraidWord) -> list[tuple[bool, ...]]:
    """All flip vectors that propagate without conflict and cap validly."""
    out = []
    for bits in itertools.product([False, True], repeat=word.n):
        try:
            _, report = _propagate(word, bits)
        except AnnotationConflict:
            continue
        if report.valid:
            out.append(bits)
    return out


def writhe(word: BraidWord) -> int:
    """Signed crossing count of the annotated word.

    A right-handed crossing of co-oriented strands counts +1; an
    antiparallel crossing counts with the opposite sign.
    """
    total = 0
    for s in word.syllables:
        if s.orientation == AUTO:
            raise UnannotatedSyllable(f"syllable {s.index}^{s.power} is unannotated")
        sign = 1 if s.power > 0 else -1
        if s.orientation == ANTIPARALLEL:
            sign = -sign
        total += sign * abs(s.power)
    return total
