import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platjones import braid
from platjones.braid import (
    ANTIPARALLEL,
    AUTO,
    PARALLEL,
    BraidWord,
    Syllable,
    cap,
    format_word,
    mirror,
    parse,
    propagate_orientations,
    resolve_orientations,
    state_loops,
    writhe,
)
from platjones.errors import (
    AnnotationConflict,
    CapMismatch,
    IndexOutOfRange,
    UnannotatedSyllable,
    WordSyntaxError,
    ZeroPower,
)
from platjones.evaluator import compile as compile_word
from platjones.evaluator import support_window
from platjones.oracle import kauffman_bracket


def test_parse_basic():
    w = parse("strands=4; g2^3 b1 h3^-2")
    assert w.strands == 4
    assert w.n == 2
    assert w.flips is None
    assert w.syllables == (
        Syllable(2, 3, AUTO),
        Syllable(1, 1, PARALLEL),
        Syllable(3, -2, ANTIPARALLEL),
    )
    assert w.crossing_count == 6


def test_parse_flips_header():
    w = parse("strands=6; flips=101; g1")
    assert w.flips == (True, False, True)
    assert w.n == 3


def test_parse_identity_word():
    w = parse("strands=4;")
    assert w.syllables == ()
    assert w.crossing_count == 0


def test_parse_whitespace_tolerance():
    w = parse("  strands=4;\n  g2^3\n g1^-1\n")
    assert len(w.syllables) == 2


def test_format_roundtrip():
    for text in (
        "strands=4; g2^3 b1^1 h3^-2",
        "strands=6; flips=101; g1^1",
        "strands=2;",
    ):
        w = parse(text)
        assert parse(format_word(w)) == w


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse("g2^3")  # missing header
    with pytest.raises(WordSyntaxError):
        parse("strands=3; g1")  # odd strand count
    with pytest.raises(WordSyntaxError):
        parse("strands=4; q2")  # unknown letter
    with pytest.raises(ZeroPower):
        parse("strands=4; g2^0")
    with pytest.raises(IndexOutOfRange):
        parse("strands=4; g4")
    with pytest.raises(IndexOutOfRange):
        parse("strands=4; g0")
    with pytest.raises(WordSyntaxError):
        parse("strands=4; flips=0; g1")  # flip bits must cover every cup


def test_parse_error_position():
    with pytest.raises(WordSyntaxError) as exc:
        parse("strands=4;\n g2^3 gg9")
    assert exc.value.line == 2
    assert exc.value.col == 7


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Test-only reference: the strand occupying each final position; odd powers transpose."""
    perm = list(range(1, word.strands + 1))
    for s in word.syllables:
        if s.power % 2 != 0:
            i = s.index - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def test_permutation():
    assert permutation(parse("strands=4;")) == (1, 2, 3, 4)
    assert permutation(parse("strands=4; g2^1")) == (1, 3, 2, 4)
    assert permutation(parse("strands=4; g2^2")) == (1, 2, 3, 4)
    assert permutation(parse("strands=4; g1 g2 g3")) == (2, 3, 4, 1)


def test_mirror():
    w = parse("strands=4; b2^3 h1^-2")
    m = mirror(w)
    assert [s.power for s in m.syllables] == [-3, 2]
    assert [s.orientation for s in m.syllables] == [PARALLEL, ANTIPARALLEL]
    assert mirror(m) == w


def test_resolve_auto_trefoil():
    w = parse("strands=4; g2^3")
    annotated = resolve_orientations(w)
    assert [s.orientation for s in annotated.syllables] == [PARALLEL]
    assert annotated.flips == (False, True)
    assert writhe(annotated) == 3


def _consistent_flip_vectors(word):
    """Every flip vector, in lexicographic order, that propagates without conflict and closes the caps."""
    vectors = []
    for bits in itertools.product([False, True], repeat=word.n):
        try:
            propagate_orientations(word, bits)
        except (AnnotationConflict, CapMismatch):
            continue
        vectors.append(bits)
    return vectors


def test_resolve_prefers_lexicographic_flips():
    # both (0,1) and (1,0) close the trefoil; the scan returns the first
    w = parse("strands=4; g2^3")
    vectors = _consistent_flip_vectors(w)
    assert vectors == [(False, True), (True, False)]
    assert resolve_orientations(w).flips == vectors[0]


def test_resolve_honors_explicit_flips():
    w = parse("strands=4; flips=10; g2^3")
    annotated = resolve_orientations(w)
    assert annotated.flips == (True, False)
    assert [s.orientation for s in annotated.syllables] == [PARALLEL]


@pytest.mark.parametrize("joined, split, annotated", [
    ("strands=4; h1^-2", "strands=4; h1^-1 h1^-1", [(1, -2, ANTIPARALLEL)]),
    (
        "strands=4; g2^3 h1^-3 g2^-2",
        "strands=4; g2^3 h1^-1 h1^-1 h1^-1 g2^-2",
        [(2, 3, PARALLEL), (1, -3, ANTIPARALLEL), (2, -2, ANTIPARALLEL)],
    ),
], ids=["alone", "between"])
def test_antiparallel_powers_act_as_unit_syllables(joined, split, annotated):
    # an antiparallel syllable keeps its power, and every reader of the
    # annotated word takes it as that many unit crossings
    a, b = resolve_orientations(parse(joined)), resolve_orientations(parse(split))
    assert [(s.index, s.power, s.orientation) for s in a.syllables] == annotated
    assert a.flips == b.flips
    pa, pb = compile_word(a), compile_word(b)
    assert [op._tally for op in pa.letters] == [op._tally for op in pb.letters]
    assert pa.tokens() == pb.tokens()
    # antiparallel crossings count against the raw sign
    assert writhe(a) == writhe(b)
    assert support_window(a) == support_window(b)
    assert kauffman_bracket(a) == kauffman_bracket(b)


def _state_loops_per_crossing(word, sign):
    """Test-only state_loops that caps and cups anew at every crossing of a syllable, one at a time."""
    joined = [k ^ 1 for k in range(word.strands)]
    loops = 0
    for s in word.syllables:
        if (s.power > 0) == (sign > 0):
            for _ in range(abs(s.power)):
                loops += cap(joined, s.index - 1)
                joined[s.index - 1], joined[s.index] = s.index, s.index - 1
    return loops + sum(cap(joined, k) for k in range(0, word.strands, 2))


def test_state_loops_equals_the_per_crossing_loop():
    # after a syllable's first e_i each further one closes one loop, so
    # one count per syllable gives every state's loops at any power
    rng = random.Random("state-loops")
    for _ in range(300):
        n = rng.randint(1, 5)
        syllables = [f"g{rng.randint(1, 2 * n - 1)}^{rng.choice((1, -1)) * rng.randint(1, 20)}"
                     for _ in range(rng.randint(1, 8))]
        word = parse(f"strands={2 * n}; " + " ".join(syllables))
        for sign in (1, -1):
            assert state_loops(word, sign) == _state_loops_per_crossing(word, sign)


def test_cap_mismatch():
    w = parse("strands=4; flips=00; h2^1")
    with pytest.raises(CapMismatch):
        resolve_orientations(w)


def test_annotation_conflict():
    w = parse("strands=4; flips=00; b2^1")
    with pytest.raises(AnnotationConflict):
        resolve_orientations(w)
    # without explicit flips no cup vector can satisfy both labels
    with pytest.raises(AnnotationConflict):
        resolve_orientations(parse("strands=4; h2^1 b2^1"))


@st.composite
def auto_words(draw):
    """g-only words, n <= 4, powers +-1..+-3, at most 12 crossings."""
    n = draw(st.integers(1, 4))
    syllables, budget = [], 12
    for i, k in draw(st.lists(st.tuples(st.integers(1, 2 * n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])))):
        if abs(k) > budget:
            break
        syllables.append(f"g{i}^{k}")
        budget -= abs(k)
    return f"strands={2 * n}; " + " ".join(syllables)


@given(auto_words())
@example("strands=4; g1 g2 g3")
@example("strands=4; g2^2 g1^-1 g2^1")
@example("strands=6; g3^-3 g2 g4^2")
@settings(derandomize=True, max_examples=200, deadline=None)
def test_auto_words_always_resolve(text):
    # a fully auto word can always be closed by some cup choice: orient
    # each link component, and each cup and cap, an arc, gets opposite ends
    annotated = resolve_orientations(parse(text))
    assert propagate_orientations(annotated, annotated.flips) == annotated
    assert all(s.orientation != AUTO for s in annotated.syllables)


def test_propagate_returns_the_annotated_word():
    w = parse("strands=4; g2^3 g1^-2")
    assert propagate_orientations(w, [False, True]) == BraidWord(
        4, (Syllable(2, 3, PARALLEL), Syllable(1, -2, ANTIPARALLEL)), (False, True)
    )
    # cups up-down, up-down: sigma_2 leaves both cap pairs co-oriented
    with pytest.raises(CapMismatch, match=r"^cap pairs \[1, 2\] have equal directions$"):
        propagate_orientations(parse("strands=4; g2"), (False, False))


def test_writhe_requires_annotations():
    w = parse("strands=4; g2^3")
    with pytest.raises(UnannotatedSyllable):
        writhe(w)


def test_writhe_reference_word():
    w = parse("strands=4; b2^3 h1^-2 h3^-2 b2^3")
    annotated = resolve_orientations(w)
    assert writhe(annotated) == 10


def test_word_equality_and_immutability():
    w = parse("strands=4; g2^3")
    assert w == parse("strands=4; g2^3")
    with pytest.raises(AttributeError):
        w.strands = 6


@pytest.mark.parametrize("text, error, message", [
    ("strands=4;\n g2^3 gg9", WordSyntaxError, "bad syllable 'gg9' (line 2, column 7)"),
    ("strands=4\n;\nflips=01\n", WordSyntaxError, "unexpected end of input, expected ';' (line 3, column 9)"),
    ("strands=4;\n\n  flips=0;", WordSyntaxError, "flips needs 2 bits, got 1 (line 3, column 3)"),
    ("strands=4; flips=01\n g2", WordSyntaxError, "expected ';' after flips, got 'g2' (line 2, column 2)"),
    ("\n\n", WordSyntaxError, "unexpected end of input, expected strands=<even> (line 1, column 1)"),
    (" \n  strands=5;", WordSyntaxError, "strand count must be even and >= 2, got 5 (line 2, column 3)"),
    ("strands=4\ng2", WordSyntaxError, "expected ';' after header, got 'g2' (line 2, column 1)"),
    ("strands=4;\ng5^2", IndexOutOfRange, "generator index 5 outside [1, 3] (line 2, column 1)"),
    ("strands=4;\n g1^0", ZeroPower, "zero power in 'g1^0' (line 2, column 2)"),
    ("strands=4;\n\tb2 ;  x1", WordSyntaxError, "bad syllable ';' (line 2, column 5)"),
    ("strands=4; flips=10", WordSyntaxError, "unexpected end of input, expected ';' (line 1, column 20)"),
])
def test_parse_error_texts(text, error, message):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("text, error, message", [
    ("strands=4; h2^1", CapMismatch,
     "no cup orientation closes the caps (2 conflict-free flip vectors, all cap-invalid)"),
    ("strands=4; h2^1 b2^1", AnnotationConflict, "annotations inconsistent with every cup "
     "orientation: syllable 2^1 marked parallel, propagation gives antiparallel"),
    ("strands=6; h2 b4 g3^2 h1", AnnotationConflict, "annotations inconsistent with every cup "
     "orientation: syllable 4^1 marked parallel, propagation gives antiparallel"),
    ("strands=4; flips=00; b2^1", AnnotationConflict,
     "syllable 2^1 marked parallel, propagation gives antiparallel"),
    ("strands=4; flips=00; h2^1", CapMismatch, "cap pairs [1, 2] have equal directions"),
])
def test_resolution_error_texts(text, error, message):
    with pytest.raises(error) as exc:
        resolve_orientations(parse(text))
    assert type(exc.value) is error and str(exc.value) == message


def _annotating_propagate(word, flips):
    """Test-only walk that annotates every flip vector it tries: the word and its bad cap pairs."""
    up = []
    for f in flips:
        up += [not f, f]
    out = []
    for s in word.syllables:
        i = s.index - 1
        orient = PARALLEL if up[i] == up[i + 1] else ANTIPARALLEL
        if s.orientation not in (AUTO, orient):
            raise AnnotationConflict(
                f"syllable {s.index}^{s.power} marked {s.orientation}, propagation gives {orient}"
            )
        out.append(Syllable(s.index, s.power, orient))
        if s.power % 2 != 0:
            up[i], up[i + 1] = up[i + 1], up[i]
    bad = [i + 1 for i in range(word.n) if up[2 * i] == up[2 * i + 1]]
    return dataclasses.replace(word, syllables=tuple(out), flips=tuple(flips)), bad


def _reference_resolve(word):
    """Test-only resolve_orientations over _annotating_propagate."""
    if word.flips is not None:
        annotated, bad = _annotating_propagate(word, word.flips)
        if bad:
            raise CapMismatch(f"cap pairs {bad} have equal directions")
        return annotated
    conflict_free, last_conflict = 0, None
    for bits in itertools.product([False, True], repeat=word.n):
        try:
            annotated, bad = _annotating_propagate(word, bits)
        except AnnotationConflict as e:
            last_conflict = e
            continue
        conflict_free += 1
        if not bad:
            return annotated
    if conflict_free:
        raise CapMismatch(
            "no cup orientation closes the caps "
            f"({conflict_free} conflict-free flip vectors, all cap-invalid)"
        )
    raise AnnotationConflict(f"annotations inconsistent with every cup orientation: {last_conflict}")


@st.composite
def lettered_words(draw):
    """b, h and g words, n <= 4, powers +-1..+-3, at most 12 crossings, with or without flips."""
    n = draw(st.integers(1, 4))
    syllables, budget = [], 12
    for c, i, k in draw(st.lists(st.tuples(
        st.sampled_from("bhggg"), st.integers(1, 2 * n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
    ))):
        if abs(k) > budget:
            break
        syllables.append(f"{c}{i}^{k}")
        budget -= abs(k)
    flips = draw(st.none() | st.text("01", min_size=n, max_size=n))
    header = f"strands={2 * n};" + ("" if flips is None else f" flips={flips};")
    return parse(header + " " + " ".join(syllables))


def _outcome(resolve, word):
    try:
        return resolve(word)
    except (CapMismatch, AnnotationConflict) as e:
        return type(e), str(e)


@given(lettered_words())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_resolution_and_mirror_equal_the_annotating_walk(word):
    # resolve walks directions alone and annotates only the flips that close
    # the caps: the same word, or the same error and text, as annotating each try
    got = _outcome(resolve_orientations, word)
    assert got == _outcome(_reference_resolve, word)
    for w in (word, got) if isinstance(got, BraidWord) else (word,):
        negated = tuple(dataclasses.replace(s, power=-s.power) for s in w.syllables)
        assert mirror(w) == dataclasses.replace(w, syllables=negated)


_PIECES = ["g2^1", "strands=4", "flips=01", ";", "x;y", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
           "\x85", "\u2028", "\xa0"]


@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_token_positions_equal_the_per_line_tokenizer(text):
    # parse keeps bare tokens and places one only for its error: the same
    # tokens, lines and columns as tokenizing each line of str.splitlines
    lines = enumerate(text.splitlines(), start=1)
    want = [(m.group(0), n, m.start() + 1) for n, line in lines for m in re.finditer(r"[^\s;]+|;", line)]
    assert braid._TOKEN.findall(text) == [tok for tok, _, _ in want]
    for i, (_, line, col) in enumerate(want):
        assert braid._at(text, i) == (line, col)
    last = want[-1] if want else ("", 1, 1)
    assert braid._at(text, len(want)) == (last[1], last[2] + len(last[0]))
