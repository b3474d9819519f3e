"""Exact skein oracle: the Temperley–Lieb sweep against known values and
against a brute-force 2^c state sum kept here as the reference."""

import dataclasses
import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platjones.braid import cap, mirror, parse, resolve_orientations, writhe
from platjones.errors import AnnotationConflict, CapMismatch
from platjones.laurent import LaurentPoly, laurent_eval
from platjones.oracle import (
    _digits,
    bracket_span,
    jones_exact,
    kauffman_bracket,
    writhe_correction,
)
from platjones.qnum import QPoint

UNLINK2 = LaurentPoly({-1: -1, 1: -1})  # d in t^{1/2} exponents
LOOP_VALUE = LaurentPoly({2: -1, -2: -1})  # d = -A^2 - A^{-2}


def _crossings(word):
    """(i, eps) bottom to top: g_i^p crosses 0-based ends i - 1 and i, |p| times with the sign of p."""
    return [(s.index - 1, 1 if s.power > 0 else -1) for s in word.syllables for _ in range(abs(s.power))]


def state_sum_bracket(word):
    """Every one of the 2^c smoothings, loops counted by union-find.

    Segments are the n cup arcs, then two fresh ones above each
    crossing; the identity smoothing weighs A^eps, the cup-cap one A^-eps.
    """
    n, c = word.n, word.crossing_count
    counts = Counter()
    for state in range(1 << c):
        parent = list(range(n + 2 * c))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def join(x, y):
            parent[find(x)] = find(y)

        top = [k // 2 for k in range(2 * n)]
        exp = 0
        for j, (i, eps) in enumerate(_crossings(word)):
            left, right = n + 2 * j, n + 2 * j + 1
            if state >> j & 1:
                join(top[i], top[i + 1])
                join(left, right)
                exp -= eps
            else:
                join(top[i], left)
                join(top[i + 1], right)
                exp += eps
            top[i], top[i + 1] = left, right
        for k in range(0, 2 * n, 2):
            join(top[k], top[k + 1])
        counts[exp, sum(find(x) == x for x in range(len(parent)))] += 1
    return sum(
        (
            (LOOP_VALUE ** (loops - 1) * cnt).shift(exp)
            for (exp, loops), cnt in counts.items()
        ),
        LaurentPoly.zero(),
    )


def _add(target, coeffs, factor):
    """target += coeffs * factor, on {A-exponent: int} dicts, in place."""
    for shift, scale in factor.items():
        for e, c in coeffs.items():
            e += shift
            target[e] = target.get(e, 0) + scale * c


@functools.cache
def _loop_power(k):
    return (LOOP_VALUE**k).coeffs()


def dict_sweep_bracket(word):
    """The planar-matching sweep with each state's coefficients in an
    {A-exponent: int} dict: the reference past the state sum's reach."""
    states = {tuple(k ^ 1 for k in range(2 * word.n)): {0: 1}}
    for i, eps in _crossings(word):
        swept = {}
        kept, capped, closed = {eps: 1}, {-eps: 1}, {2 - eps: -1, -2 - eps: -1}
        for partner, coeffs in states.items():
            joined = list(partner)
            loop = cap(joined, i)
            joined[i], joined[i + 1] = i + 1, i
            _add(swept.setdefault(partner, {}), coeffs, kept)
            _add(swept.setdefault(tuple(joined), {}), coeffs, closed if loop else capped)
        states = swept
    total = {}
    for partner, coeffs in states.items():
        joined = list(partner)
        loops = sum(cap(joined, k) for k in range(0, len(joined), 2))
        _add(total, coeffs, _loop_power(loops - 1))
    return LaurentPoly(total)


@st.composite
def long_words(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=0, max_value=60))
    crossings = draw(
        st.lists(st.tuples(st.integers(1, 2 * n - 1), st.sampled_from([-1, 1])), min_size=c, max_size=c)
    )
    return parse(f"strands={2 * n}; " + " ".join(f"g{i}^{k}" for i, k in crossings))


@given(long_words())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_packed_sweep_matches_dict_sweep(word):
    # past 32 crossings the packed sweep also trims the states' low digits
    assert kauffman_bracket(word) == dict_sweep_bracket(word)


def test_packed_sweep_without_crossings_is_a_loop_power():
    for n in range(1, 5):
        assert kauffman_bracket(parse(f"strands={2 * n};")) == LOOP_VALUE ** (n - 1)


@st.composite
def word_batches(draw):
    """At least 100 words of n = 1..5 in turn and at most 30 crossings, with repeats and mirrors, shuffled."""
    words = [parse(f"strands={2 * n}; " + " ".join(f"g{i}^{p}" for i, p in draw(st.lists(
        st.tuples(st.integers(1, 2 * n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])), max_size=10,
    )))) for n in [1, 2, 3, 4, 5] * 8]
    repeats = draw(st.lists(st.sampled_from(words), min_size=20, max_size=30))
    return draw(st.permutations(words + [mirror(w) for w in words] + repeats))


@given(word_batches())
@settings(derandomize=True, max_examples=10, deadline=None)
def test_shared_tables_give_each_word_its_own_bracket(batch):
    # one tables dict across a batch of mixed n, as verify passes it,
    # holds each n's sweep apart: every word reads the bracket of a call
    # with a table of its own
    tables = {}
    assert [kauffman_bracket(w, tables) for w in batch] == [kauffman_bracket(w) for w in batch]
    assert sorted(tables) == [1, 2, 3, 4, 5]


def test_packed_sweep_with_crossings_of_one_sign():
    # every crossing kept or capped the same way, past one and two trims
    for text in (
        "strands=2; g1^40", "strands=2; g1^-40", "strands=4; g2^70", "strands=4; g2^-70",
        "strands=6; g1^3 g2^5 g3^7 g4^9 g5^11 g2^3", "strands=6; g1^-3 g2^-5 g3^-7 g4^-9 g5^-11",
        "strands=8; g4^-2 g3^-2 g5^-2 g2^-2 g6^-2 g1^-2 g7^-2",
    ):
        word = parse(text)
        want = dict_sweep_bracket(word)
        assert kauffman_bracket(word) == want, text
        if word.crossing_count <= 10:
            assert want == state_sum_bracket(word), text


def test_digits_reads_signed_digits():
    rng = random.Random(5)
    assert _digits(0, 8) == {}
    for b in (8, 16, 64, 200):
        top = (1 << b - 1) - 1
        for _ in range(20):
            digits = [rng.randint(-top, top) for _ in range(rng.randint(1, 12))]
            digits += [0] * rng.randint(0, 3) + [rng.choice((-top, top, 1, -1))]
            digits = [0] * rng.randint(0, 3) + digits + [0] * rng.randint(0, 3)
            digits[rng.randrange(len(digits))] = 0
            value = sum(d << b * k for k, d in enumerate(digits))
            assert _digits(value, b) == {k: d for k, d in enumerate(digits) if d}


@st.composite
def small_words(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    syllables = draw(
        st.lists(
            st.tuples(
                st.sampled_from("bhg"),
                st.integers(min_value=1, max_value=2 * n - 1),
                st.sampled_from([-3, -2, -1, 1, 2, 3]),
            ),
            max_size=5,
        )
    )
    text = " ".join(f"{letter}{i}^{k}" for letter, i, k in syllables)
    word = parse(f"strands={2 * n}; {text}")
    assume(word.crossing_count <= 10)
    return word


@given(small_words())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_sweep_matches_state_sum(word):
    try:
        annotated = resolve_orientations(word)
    except (CapMismatch, AnnotationConflict):
        assume(False)
    assert kauffman_bracket(annotated) == state_sum_bracket(annotated)


def test_diagram_structure():
    d = parse("strands=4; g2^3")
    assert d.n == 2
    assert d.crossing_count == 3
    # 0-based position 1 crosses strand ends 1 and 2, positively
    assert _crossings(d) == [(1, 1)] * 3
    assert kauffman_bracket(d) == kauffman_bracket(parse("strands=4; g2 g2 g2")) == state_sum_bracket(d)


def test_diagram_validates_caps():
    with pytest.raises(CapMismatch):
        jones_exact(parse("strands=4; flips=00; h2^1"))


@pytest.mark.parametrize("text", [
    "strands=4; g2^3", "strands=4; g2^2", "strands=6; g2^-1 g4^2 g3^1 g1^-2 g5^3",
], ids=["trefoil", "hopf", "six-strand"])
def test_bracket_ignores_orientation(text):
    # the bracket reads only indices and signs: the unannotated word, its
    # resolution and the word under every explicit flip vector agree
    word = parse(text)
    want = kauffman_bracket(word)
    assert want == state_sum_bracket(word)
    assert kauffman_bracket(resolve_orientations(word)) == want
    for bits in itertools.product((False, True), repeat=word.n):
        flipped = dataclasses.replace(word, flips=bits)
        assert kauffman_bracket(flipped) == want
        try:
            assert kauffman_bracket(resolve_orientations(flipped)) == want
        except CapMismatch:
            pass


def test_bracket_unknot():
    d = parse("strands=2;")
    assert kauffman_bracket(d) == LaurentPoly.one()


def test_bracket_unlink_two_components():
    d = parse("strands=4;")
    assert kauffman_bracket(d) == LOOP_VALUE


def test_bracket_positive_kink():
    # one positive kink multiplies the empty bracket by -A^{-3} in this
    # traversal's smoothing labels
    d = parse("strands=2; g1^1")
    assert kauffman_bracket(d) == LaurentPoly({-3: -1})


def test_bracket_hopf():
    d = parse("strands=4; g2^2")
    assert kauffman_bracket(d) == LaurentPoly({-4: -1, 4: -1})
    assert bracket_span(kauffman_bracket(d)) == (-4, 4)


def test_jones_unknot_with_kinks():
    for text in ("strands=2; g1^1", "strands=2; g1^-1", "strands=2; g1^3"):
        assert jones_exact(parse(text)) == LaurentPoly.one()


def test_jones_trefoils():
    right = jones_exact(parse("strands=4; g2^3"))
    assert right == LaurentPoly({2: 1, 6: 1, 8: -1})
    left = jones_exact(parse("strands=4; g2^-3"))
    assert left == LaurentPoly({-8: -1, -6: 1, -2: 1})
    assert left == right.invert_variable()


def test_jones_hopf():
    got = jones_exact(parse("strands=4; g2^2"))
    assert got == LaurentPoly({-5: -1, -1: -1})


def test_jones_figure_eight_palindromic():
    got = jones_exact(parse("strands=4; g2^2 g1^-1 g2^1"))
    assert got == LaurentPoly({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
    assert got == got.invert_variable()


def test_jones_connected_sum_square_knot():
    # granny vs square: mirror halves multiply as V1 * V2
    right = jones_exact(parse("strands=4; g2^3"))
    left = jones_exact(parse("strands=4; g2^-3"))
    square = jones_exact(parse("strands=6; g2^3 g4^-3"))
    assert square == right * left
    granny = jones_exact(parse("strands=6; g2^3 g4^3"))
    assert granny == right * right


def test_jones_disjoint_union_multiplies_by_d():
    tref = jones_exact(parse("strands=4; g2^3"))
    with_unknots = jones_exact(parse("strands=8; g2^3"))
    assert with_unknots == tref * UNLINK2 * UNLINK2


def test_reidemeister_two_invariance():
    base = jones_exact(parse("strands=4;"))
    assert jones_exact(parse("strands=4; g2^1 g2^-1")) == base
    assert jones_exact(parse("strands=4; g1^1 g1^-1 g3^-1 g3^1")) == base


def test_mirror_inverts_variable():
    for text in (
        "strands=4; g2^2 g1^-1 g2^1",
        "strands=6; g2^-1 g4^2 g3^1",
        "strands=4; b2^3 h1^-2 h3^-2 b2^3",
    ):
        w = parse(text)
        assert jones_exact(mirror(w)) == jones_exact(w).invert_variable()


def test_reference_word_value():
    # 10-crossing 2-component reference link; writhe +10 under its
    # explicit annotation, span 5..25 in half-integer steps of t
    w = parse("strands=4; b2^3 h1^-2 h3^-2 b2^3")
    got = jones_exact(w)
    assert got.support()[0] == 5
    assert got.support()[-1] == 25
    annotated = resolve_orientations(w)
    assert writhe(annotated) == 10
    # component count is even, so every exponent is odd (half-integer t)
    assert all(k % 2 == 1 for k in got.support())


def test_knot_words_have_integer_exponents():
    # single-component closures land on integer powers of t
    for text in ("strands=4; g2^3", "strands=4; g2^2 g1^-1 g2^1"):
        got = jones_exact(parse(text))
        assert all(k % 2 == 0 for k in got.support())


def test_forty_crossings():
    # two components: strands 1-6 close into one loop, 7-8 into another
    w = parse(
        "strands=8; g2^3 g4^-2 g3^3 g6^2 g5^-3 g1^2 g7^-3 g2^-2 g4^3 "
        "g3^-2 g6^-3 g5^2 g4^2 g2^3 g6^-3 g3^2"
    )
    assert w.crossing_count == 40
    got = jones_exact(w)
    assert jones_exact(mirror(w)) == got.invert_variable()
    mu = 2
    assert abs(laurent_eval(got, QPoint(0.0))) == pytest.approx(2 ** (mu - 1))
    cube_root = QPoint(2 * math.pi / 3)  # q^{1/2} = t^{1/2} = e^{i pi/3}
    assert abs(laurent_eval(got, cube_root)) == pytest.approx(1.0, rel=1e-9)


def _components(word):
    """Link components of the plat closure: cups and caps joined through
    the braid permutation, where an odd power swaps two positions."""
    at = list(range(word.strands))  # at[position] = strand now there
    for s in word.syllables:
        if s.power % 2:
            at[s.index - 1], at[s.index] = at[s.index], at[s.index - 1]
    parent = list(range(word.strands))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in range(0, word.strands, 2):
        parent[find(k)] = find(k + 1)
        parent[find(at[k])] = find(at[k + 1])
    return sum(find(x) == x for x in range(word.strands))


def _norm_at_cube_root(p):
    """|V(e^{2 pi i/3})|^2 exactly: x = t^{1/2} = z = e^{i pi/3}, z^2 = z - 1,
    so V = a + b z with integers a, b and |a + b z|^2 = a^2 + ab + b^2."""
    powers = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]  # z^k, k mod 6
    a = sum(c * powers[k % 6][0] for k, c in p.coeffs().items())
    b = sum(c * powers[k % 6][1] for k, c in p.coeffs().items())
    return a * a + a * b + b * b


def test_hundred_twenty_crossings_at_n4():
    # the forty-crossing word three times over; its coefficients pass
    # 10^14, so the invariants are checked in exact integer arithmetic
    base = (
        "g2^3 g4^-2 g3^3 g6^2 g5^-3 g1^2 g7^-3 g2^-2 g4^3 "
        "g3^-2 g6^-3 g5^2 g4^2 g2^3 g6^-3 g3^2 "
    )
    w = parse("strands=8; " + base * 3)
    assert w.crossing_count == 120
    got = jones_exact(w)
    assert max(abs(c) for c in got.coeffs().values()) > 10**14
    assert jones_exact(mirror(w)) == got.invert_variable()
    mu = _components(w)
    assert mu == 2
    assert abs(sum(got.coeffs().values())) == 2 ** (mu - 1)  # |V(1)|
    assert _norm_at_cube_root(got) == 1


def test_writhe_correction_shifts_exponents():
    br = LaurentPoly({-4: -1, 4: -1})
    assert writhe_correction(br, 0) == LaurentPoly({-2: -1, 2: -1})
    assert writhe_correction(br, 2) == LaurentPoly({1: -1, 5: -1})


def test_writhe_correction_rejects_odd_exponent():
    with pytest.raises(ValueError):
        writhe_correction(LaurentPoly({1: 1}), 0)
