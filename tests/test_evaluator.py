import cmath
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platjones import evaluator
from platjones.braid import (
    PARALLEL,
    BraidWord,
    Syllable,
    parse,
    resolve_orientations,
)
from platjones.errors import (
    AnnotationConflict,
    CapMismatch,
    NegativeRadicand,
    UnannotatedSyllable,
)
from platjones.evaluator import (
    admissible_arc,
    compile as compile_word,
    convention_factor,
    evaluate,
    jones,
    phase_grid,
    support_window,
    unlink_normalization,
)
from platjones.fusion import block_dimension
from platjones.laurent import LaurentPoly, circle_samples, laurent_eval
from platjones.oracle import jones_exact
from platjones.qnum import QPoint

from paper_schedule import duality_matrix, element, letter_phases
from phase_helpers import braiding_phase


def _resolved(text):
    return resolve_orientations(parse(text))


def test_braiding_phases():
    theta = 1.3
    pt = QPoint(theta)
    q = cmath.exp(1j * theta)
    qh = cmath.exp(0.5j * theta)
    assert braiding_phase(0, "parallel", "right", pt) == pytest.approx(-q * qh)
    assert braiding_phase(1, "parallel", "right", pt) == pytest.approx(qh)
    assert braiding_phase(0, "antiparallel", "right", pt) == pytest.approx(1.0)
    assert braiding_phase(1, "antiparallel", "right", pt) == pytest.approx(-1 / q)
    for J in (0, 1):
        for orient in ("parallel", "antiparallel"):
            r = braiding_phase(J, orient, "right", pt)
            l = braiding_phase(J, orient, "left", pt)
            assert r * l == pytest.approx(1.0)
            assert abs(r) == pytest.approx(1.0)  # unit circle phases


def test_braiding_phase_rejects_auto():
    text = re.escape("orientation 'auto' is not resolved")
    with pytest.raises(UnannotatedSyllable, match=text):
        braiding_phase(0, "auto", "right", QPoint(0.5))
    # the comb reads the one spectrum table, word by word, a resolved one first
    words = [_resolved("strands=4; g1^1 g2^1"), BraidWord(4, (Syllable(1, 1),))]
    with pytest.raises(UnannotatedSyllable, match=text):
        evaluator.comb_elements(words, QPoint((0.5,)))


def test_compile_reference_patterns():
    ba = compile_word(_resolved("strands=4; b2^3 h1^-2 h3^-2 b2^3"))
    assert ba.tokens() == ["a", "f", "a†", "g", "a", "h", "a†"]
    assert ba.operator_count == 7
    bb = compile_word(
        _resolved("strands=6; b2^-1 b4 h1^-2 h3^-3 h5^-2 h2 h4^2 b1 h2")
    )
    assert bb.tokens() == [
        "a", "f", "a†", "g", "a", "h", "a†", "f1", "a", "g1", "a†",
    ]
    assert bb.operator_count == 11


def test_compile_single_runs():
    assert compile_word(_resolved("strands=4; g1^2")).tokens() == ["f"]
    assert compile_word(_resolved("strands=4; g2^3")).tokens() == ["a", "f", "a†"]
    assert compile_word(_resolved("strands=4;")).tokens() == []


def test_compile_groups_same_parity_runs():
    # g1 g3 share parity: one diagonal; the middle g2 forces a basis change
    w = _resolved("strands=6; g1^2 g3^2 g2^2 g5^2")
    assert compile_word(w).tokens() == ["f", "a", "g", "a†", "h"]


def test_compile_requires_annotations():
    with pytest.raises(UnannotatedSyllable):
        compile_word(parse("strands=4; g2^3"))


def test_reference_diagonal_content():
    # middle run of the 4-strand reference word: antiparallel units on
    # both odd pairs, so each odd path gets lambda^{-2} per pair
    theta = 0.8
    pt = QPoint(theta)
    ba = compile_word(_resolved("strands=4; b2^3 h1^-2 h3^-2 b2^3"))
    f, g, h = ba.letters
    assert f.basis == "even" and g.basis == "odd" and h.basis == "even"
    lam_anti = [braiding_phase(J, "antiparallel", "left", pt) for J in (0, 1)]
    assert letter_phases(g, pt) == pytest.approx(
        [lam_anti[0] ** 4, lam_anti[1] ** 4]
    )
    lam_par = [braiding_phase(J, "parallel", "right", pt) for J in (0, 1)]
    assert letter_phases(f, pt) == pytest.approx([lam_par[0] ** 3, lam_par[1] ** 3])
    assert letter_phases(h, pt) == pytest.approx(letter_phases(f, pt))


def test_evaluate_identity_word():
    assert evaluate(parse("strands=4;"), 0.9) == pytest.approx(1.0)
    assert evaluate(parse("strands=2;"), 0.9) == pytest.approx(1.0)


def test_evaluate_unknot_has_unit_modulus():
    for k in (1, -1, 3):
        val = evaluate(parse(f"strands=2; g1^{k}"), 0.7)
        assert abs(val) == pytest.approx(1.0)


def test_evaluate_two_by_two_formula():
    # single even crossing: <0|a diag a†|0> = a00^2 lam0 + a01^2 lam1
    theta = 1.1
    pt = QPoint(theta)
    a = duality_matrix(2, pt)
    lam = [braiding_phase(J, "parallel", "right", pt) for J in (0, 1)]
    want = a[0, 0] ** 2 * lam[0] + a[0, 1] ** 2 * lam[1]
    got = evaluate(parse("strands=4; g2^1"), theta)
    assert got == pytest.approx(want)
    # same quantity, the reduced form: modulus of a00^2 - a01^2 / q
    reduced = abs(a[0, 0] ** 2 - a[0, 1] ** 2 / pt.q)
    assert abs(got) == pytest.approx(reduced)


def test_evaluate_matches_oracle_modulus():
    rng = random.Random(23)
    for text in (
        "strands=4; g2^3",
        "strands=4; g2^2 g1^-1 g2^1",
        "strands=6; g2^-1 g4^2 g3^1",
    ):
        w = parse(text)
        exact = jones_exact(w)
        n = w.n
        lo, hi = admissible_arc(n)
        for _ in range(5):
            theta = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
            got = abs(evaluate(w, theta)) * abs(unlink_normalization(n, theta))
            want = abs(laurent_eval(exact, QPoint(theta)))
            assert got == pytest.approx(want, abs=1e-9)


def test_evaluate_checks_the_arc_at_its_first_two_by_two_block():
    # the comb path reads the rotations, and their one phase check, only
    # when a syllable has a 2 x 2 block: g3 at n = 3 has one, g1 and g5 none
    with pytest.raises(NegativeRadicand) as info:
        evaluate(parse("strands=6; g3^1"), 1.7)
    assert str(info.value) == "triangle(2/2,1/2,3/2) needs |theta| < 2*pi/4, got 1.7"
    assert abs(evaluate(parse("strands=6; g1^1 g5^-2"), 1.7)) == pytest.approx(1.0)


def _dense_operator(op, point):
    """Test-only dense d x d form of one compiled letter at one phase: D, or a E a^T."""
    if op.basis == "odd":
        return np.diag(letter_phases(op, point))
    a = duality_matrix(op.n, point)
    return a @ np.diag(letter_phases(op, point)) @ a.T


def _element_per_phase(program, thetas):
    """Test-only reference: the row vector e_0 through dense operators, one phase at a time."""
    out = []
    for theta in thetas:
        point = QPoint(float(theta))
        v = np.eye(block_dimension(program.n), dtype=complex)[0]
        for op in program.letters:
            v = v @ _dense_operator(op, point)
        out.append(v[0])
    return np.array(out)


def test_batched_element_matches_per_phase_reference():
    rng = random.Random(11)
    for n in range(2, 7):
        for _ in range(2):
            text = f"strands={2 * n}; " + " ".join(
                f"g{rng.randint(1, 2 * n - 1)}^{rng.choice([-2, -1, 1, 2, 3])}"
                for _ in range(5)
            )
            program = compile_word(_resolved(text))
            thetas = phase_grid(n, 64)
            (got,) = evaluator.comb_elements([program.word], QPoint(tuple(thetas.tolist())))
            assert got.shape == (64,)
            assert np.max(np.abs(got - _element_per_phase(program, thetas))) < 1e-13


@st.composite
def word_groups(draw):
    """Resolved words of one n <= 5, each of 0 to 6 b, h or g syllables and at most 12 crossings.

    Lengths and generators mix freely; a group may hold the empty word,
    and one word in two has only negative powers.
    """
    n = draw(st.integers(1, 5))
    group = []
    for _ in range(draw(st.integers(1, 6))):
        negative = draw(st.booleans())
        syllables = draw(st.lists(st.tuples(
            st.sampled_from("bhg"), st.integers(1, 2 * n - 1), st.sampled_from([1, 2, 3]),
        ), max_size=6))
        text = f"strands={2 * n}; " + " ".join(f"{c}{i}^{-p if negative else p}" for c, i, p in syllables)
        try:
            word = resolve_orientations(parse(text))
        except (CapMismatch, AnnotationConflict):
            continue
        if word.crossing_count <= 12:
            group.append(word)
    assume(group)
    return group


@settings(derandomize=True, max_examples=60, deadline=None)
@given(group=word_groups())
def test_elements_equals_per_program_act(group):
    # the words of one n, of any lengths and generators, run as one
    # batch: each row keeps the bits of its word run alone, forwards and
    # reversed (qsim's order), in the point's precision, and matches the
    # paper's schedule reference on the verify grid
    from platjones import qsim

    n = group[0].n
    grid = QPoint(tuple(phase_grid(n, 10).tolist()))
    for point in (grid, circle_samples((-12, 12))):
        for reverse in (False, True):
            got = evaluator.comb_elements(group, point, reverse)
            assert got.dtype == point.q_half.dtype
            for row, word in zip(got, group):
                assert np.array_equal(row, evaluator.comb_elements([word], point, reverse)[0])
    want = np.array([element(compile_word(word), grid) for word in group])
    assert np.max(np.abs(evaluator.comb_elements(group, grid) - want)) < 1e-13
    programs = [compile_word(word) for word in group]
    theta = float(phase_grid(n, 10)[5])
    assert np.array_equal(qsim.p_ks(programs, theta), [qsim.p_k(program, theta) for program in programs])


def test_elements_rejects_empty_and_mixed_groups():
    from platjones import qsim

    point = QPoint((0.3, 0.5))
    word = lambda n, *indices: BraidWord(2 * n, tuple(Syllable(i, 1, PARALLEL) for i in indices))
    with pytest.raises(ValueError, match="at least one word"):
        evaluator.comb_elements([], point)
    # g2, g1 g2 and the empty word share n = 2
    mixed = [word(2, 2), word(2, 1, 2), word(2)]
    alone = [evaluator.comb_elements([w], point)[0] for w in mixed]
    assert np.array_equal(evaluator.comb_elements(mixed, point), alone)
    assert np.array_equal(evaluator.comb_elements(mixed[2:], point), [[1.0, 1.0]])
    # g2 at n = 2 against n = 3
    mixed = [word(2, 2), word(3, 2)]
    assert evaluator.comb_elements(mixed[:1], point).shape == (1, 2)
    programs = [compile_word(w) for w in mixed]
    for batch in (lambda: evaluator.comb_elements(mixed, point), lambda: qsim.p_ks(programs, 0.3)):
        with pytest.raises(ValueError, match="all of one n"):
            batch()


def test_element_memory_is_linear_in_paths():
    # n = 7 at 45 circle phases: one (phases, paths) block of v is 0.6 MB,
    # where the dense (phases, paths, paths) stack took about 50 MB even
    # when it was built in blocks of phases
    word = _resolved("strands=14; g4^-1 g8^1 g11^1 g2^2 g6^-1")
    evaluator.comb_elements([word], circle_samples((-35, 35)))  # builds the move tables of n = 7
    point = circle_samples((-36, 36))
    tracemalloc.start()
    try:
        evaluator.comb_elements([word], point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = len(point.theta) * block_dimension(7) * np.dtype(np.clongdouble).itemsize
    assert len(point.theta) == 45
    assert peak < 8 * block


def _peak_of_batch(words, point):
    """The comb's elements of words, and the peak bytes traced while they are read."""
    tracemalloc.start()
    try:
        got = evaluator.comb_elements(words, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def test_elements_memory_is_bounded_by_slices():
    # 300 one-syllable n = 6 words: their whole (words, paths, phases)
    # block is 6.3 MB and each move makes several such arrays, while a
    # slice keeps every block under BLOCK_ENTRIES entries with the bits
    # of one word at a time
    words = [_resolved(f"strands=12; g{i}^{p}") for i in (2, 4, 6, 8, 10) for p in (-3, -2, -1, 1, 2, 3)]
    point = QPoint(tuple(phase_grid(6, 10).tolist()))
    want = evaluator.comb_elements(words, point)
    got, peak = _peak_of_batch(words * 10, point)
    assert np.array_equal(got, np.tile(want, (10, 1)))
    assert peak < 8 * evaluator.BLOCK_ENTRIES * np.dtype(complex).itemsize


def test_elements_memory_is_bounded_for_240_mixed_words_at_n6():
    # a verify corpus at n = 6: slices are sized by entries (3 words of
    # 10 phases x 132 paths), not by a count of words, however the
    # lengths and generators mix
    rng = random.Random(240)
    words = []
    while len(words) < 240:
        text = "strands=12; " + " ".join(
            f"g{rng.randint(1, 11)}^{rng.choice([-2, -1, 1, 2])}" for _ in range(rng.randint(0, 6))
        )
        words.append(_resolved(text))
    point = QPoint(tuple(phase_grid(6, 10).tolist()))
    got, peak = _peak_of_batch(words, point)
    assert np.array_equal(got[::40], evaluator.comb_elements(words[::40], point))
    assert peak < 8 * evaluator.BLOCK_ENTRIES * np.dtype(complex).itemsize


@st.composite
def annotated_words(draw, max_n=5):
    """Resolved words of b, h and g syllables with powers +-1..+-3, n <= max_n, or None."""
    n = draw(st.integers(1, max_n))
    syllables = draw(st.lists(st.tuples(
        st.sampled_from("bhg"), st.integers(1, 2 * n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
    ), min_size=1, max_size=8))
    text = f"strands={2 * n}; " + " ".join(f"{c}{i}^{p}" for c, i, p in syllables)
    try:
        return resolve_orientations(parse(text))
    except (CapMismatch, AnnotationConflict):
        return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(word=annotated_words(max_n=6))
def test_comb_element_equals_the_paper_schedule(word):
    # one 2 x 2 move per syllable against the a f a^T g schedule of the
    # tests' reference; the two share only fusion.rotations and SPECTRUM
    assume(word is not None and word.crossing_count <= 20)
    program = compile_word(word)
    grid = QPoint(tuple(phase_grid(word.n, 10).tolist()))
    assert np.max(np.abs(evaluator.comb_elements([word], grid)[0] - element(program, grid))) <= 1e-12
    circle = circle_samples(support_window(word))
    want = element(program, circle)
    assert np.max(np.abs(evaluator.comb_elements([word], circle)[0] - want)) <= 1e-8 * np.max(np.abs(want))


def test_letters_run_once_per_slice_and_diagonal_step(monkeypatch):
    # seven words in slices of three give three slices, and each step of
    # a slice computes its words' lambda once, for the words still moving;
    # the slices read the bits of the whole batch
    words = [_resolved(f"strands=6; g1^{k} g4^1 g3^-1 g5^2 g2^{j}" + " g1^1" * (k % 2))
             for k in (1, -2, 3) for j in (1, 2, -1)][:7]
    point = QPoint(tuple(phase_grid(3, 10).tolist()))
    whole = evaluator.comb_elements(words, point)
    calls = []
    monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", 3 * 10 * block_dimension(3))
    got = evaluator.comb_elements(words, point, check=lambda rows, *_: calls.append(len(rows)))
    assert np.array_equal(got, whole)
    # 4 words of 6 syllables and 3 of 5, longest first: slices of 6, 6, 6
    # then 6, 5, 5 then 5 syllables
    assert calls == [3] * 6 + [3] * 5 + [1] + [1] * 5


def test_even_step_is_symmetric_and_its_dense_form():
    # the schedule's even letter S = a E a^T equals its transpose, and so
    # does each comb move R: qsim's column order, syllables last to
    # first, reads the element of the row order, at unit-circle phases
    # and at the long-double circle samples alike. Both are relative to
    # the size of the terms, |a| |a|^T: near q = -1 the entries of a grow
    # (to 1e5 at n = 6) and S cancels most of their digits
    for n in range(2, 7):
        r = random.Random(n)
        text = f"strands={2 * n}; " + " ".join(
            f"g{r.randint(1, 2 * n - 1)}^{r.choice([-2, -1, 1, 2, 3])}" for _ in range(8)
        )
        word = _resolved(text)
        even = [op for op in compile_word(word).letters if op.basis == "even"]
        assert even
        for point in (QPoint(tuple(phase_grid(n, 10).tolist())), circle_samples((-9, 9))):
            a = duality_matrix(n, point)
            scale = np.max(np.abs(a) @ np.abs(a).swapaxes(-1, -2))
            for op in even:
                S = a * letter_phases(op, point)[:, None, :] @ a.swapaxes(-1, -2)
                assert np.max(np.abs(S - S.swapaxes(-1, -2))) < 1e-14 * scale
            forward, reverse = (evaluator.comb_elements([word], point, flag)[0] for flag in (False, True))
            assert np.max(np.abs(forward - reverse)) < 1e-13 * scale


def test_jones_trefoil_exact():
    res = jones(parse("strands=4; g2^-3"))
    assert res.polynomial == LaurentPoly({-8: 1, -6: -1, -2: -1})
    assert res.residual < 1e-6
    assert res.window == (-8, -2)
    exact = jones_exact(parse("strands=4; g2^-3"))
    assert convention_factor(res.polynomial, exact) == (-1, 0)


def test_jones_hopf_exact():
    res = jones(parse("strands=4; g2^2"))
    exact = jones_exact(parse("strands=4; g2^2"))
    assert convention_factor(res.polynomial, exact) == (1, 0)
    assert res.polynomial == LaurentPoly({-5: -1, -1: -1})


def test_jones_unknot():
    res = jones(parse("strands=2; g1^1"))
    assert res.polynomial == LaurentPoly.one()
    assert res.operator_count == 1


def test_jones_reference_word_exact_at_default_tolerance():
    # ten crossings put 63 window and 16 guard exponents in play; the
    # circle read-out rounds them at the default 1e-6 with room to spare
    w = parse("strands=4; b2^3 h1^-2 h3^-2 b2^3")
    res = jones(w)
    assert res.max_shift < 1e-10
    assert res.window == (5, 25)
    assert convention_factor(res.polynomial, jones_exact(w)) == (1, 0)


def _components(word):
    """Link components of the plat closure, from the braid permutation.

    Cups join bottom ends (2k, 2k+1); caps join the strands that the
    braid brings to top positions (2k, 2k+1). perm[i] is the strand at
    final position i; an odd power transposes two positions.
    """
    perm = list(range(1, word.strands + 1))
    for s in word.syllables:
        if s.power % 2:
            perm[s.index - 1], perm[s.index] = perm[s.index], perm[s.index - 1]
    parent = list(range(word.strands))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for k in range(word.n):
        parent[find(2 * k)] = find(2 * k + 1)
        parent[find(perm[2 * k] - 1)] = find(perm[2 * k + 1] - 1)
    return sum(find(a) == a for a in range(word.strands))


def _assert_standard_sign(word):
    """jones(word) is exactly (-1)^{mu+n} times the oracle, at the default tolerance."""
    sign = (-1) ** (_components(word) + word.n)
    exact = jones_exact(word)
    assert jones(word).polynomial == exact * sign


@st.composite
def g_words(draw, n):
    """Auto-oriented words on 2n strands whose plat closure exists."""
    syllables = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2 * n - 1),
                st.sampled_from([-3, -2, -1, 1, 2, 3]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    word = parse(f"strands={2 * n}; " + " ".join(f"g{i}^{k}" for i, k in syllables))
    try:
        resolve_orientations(word)
    except (CapMismatch, AnnotationConflict):
        assume(False)
    return word


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_jones_is_signed_oracle(n, data):
    # n <= 4 up to 20 crossings, n <= 6 up to 10
    word = data.draw(g_words(n))
    assume(word.crossing_count <= (20 if n <= 4 else 10))
    _assert_standard_sign(word)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_support_window_holds_the_oracle_support(data):
    # Kauffman's state bounds, n <= 6 and up to 60 crossings
    n = data.draw(st.integers(min_value=1, max_value=6))
    syllables = data.draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=2 * n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
        max_size=30,
    ))
    word = parse(f"strands={2 * n}; " + " ".join(f"g{i}^{k}" for i, k in syllables))
    assume(word.crossing_count <= 60)
    try:
        annotated = resolve_orientations(word)
    except (CapMismatch, AnnotationConflict):
        assume(False)
    lo, hi = support_window(annotated)
    support = jones_exact(annotated).support()
    assert lo <= support[0] and support[-1] <= hi


def test_support_window_is_tight_on_the_trefoil_and_the_unlink():
    # the trefoil's support is its window; the unlink of n components reaches -(n-1) and n-1
    trefoil = resolve_orientations(parse("strands=4; g2^-3"))
    assert support_window(trefoil) == (-8, -2)
    assert support_window(parse("strands=6;")) == (-2, 2)


def test_default_window_covers_support_past_3c():
    # their Jones support leaves (-3c, 3c) by up to n - 1
    for text in ("strands=8; g4^3", "strands=8; g2^2", "strands=12; g2^1"):
        _assert_standard_sign(parse(text))


@pytest.mark.parametrize(
    "text",
    [
        "strands=12; g3^3 g3^-2 g10^-3 g4^-1 g11^-1 g3^-1 g8^-1 g2^-1 g3^1 g6^2 "
        "g2^1 g11^-2 g2^-1",
        "strands=12; g10^1 g10^-1 g11^-1 g6^-2 g6^-2 g7^-3 g9^-1 g10^3 g4^3 g8^1 g4^1",
    ],
    ids=["c20", "c19"],
)
def test_n6_words_past_10_crossings_are_signed_oracle(text):
    # rounding shifts 6.3e-7 and 1.8e-7, the largest seen at n = 6 past
    # 10 crossings; both read above 1e-6 when they were first found
    _assert_standard_sign(parse(text))


@pytest.mark.parametrize(
    "text",
    [
        "strands=14; g6^1 g1^-1 g6^2 g13^1 g2^-1 g11^-1 g12^3 g10^-3 g8^-3 g4^1 "
        "g11^2 g9^1",
        "strands=12; g8^1 g10^-2 g2^-2 g8^-2 g11^1 g4^-3 g11^-2 g2^-1 g7^1 g6^-3 "
        "g7^1 g8^1",
        "strands=16; g12^-2 g11^3 g10^-1 g10^-2 g4^-1 g14^-1",
    ],
    ids=["n7c20", "n6c20", "n8c10"],
)
def test_long_double_reads_words_past_the_dense_stack(text):
    # the dense duality stack missed the integers of the first two by
    # 2.2e-3 and 1.4e-6 (exit 4); the F-moves read them to below 1e-10
    word = parse(text)
    result = jones(word)
    sign = (-1) ** (_components(word) + word.n)
    assert convention_factor(result.polynomial, jones_exact(word)) == (sign, 0)
    assert result.max_shift < 1e-9


def test_jones_reads_a_nine_pair_word_to_1e_12():
    # the seeded (9, 20, 0) word: the schedule's F-moves read it with a
    # rounding shift of 3.5e-11, the comb moves with 5.7e-14
    word = parse("strands=18; g5^2 g11^-1 g10^3 g10^2 g7^-2 g7^3 g14^2 g4^2 g11^-3")
    result = jones(word)
    sign = (-1) ** (_components(word) + word.n)
    assert convention_factor(result.polynomial, jones_exact(word)) == (sign, 0)
    assert result.max_shift <= 1e-12


def test_components_of_known_closures():
    assert _components(parse("strands=4; g2^3")) == 1  # trefoil
    assert _components(parse("strands=4; g2^2")) == 2  # Hopf link
    assert _components(parse("strands=6;")) == 3  # unlink


def test_admissible_arc():
    assert admissible_arc(2) == (0.0, pytest.approx(2 * math.pi / 3))
    assert admissible_arc(4) == (0.0, pytest.approx(2 * math.pi / 5))


def test_unlink_normalization():
    theta = 1.0
    d = -2.0 * math.cos(theta / 2)
    assert unlink_normalization(1, theta) == pytest.approx(1.0)
    assert unlink_normalization(3, theta) == pytest.approx(d * d)


def test_convention_factor_cases():
    p = LaurentPoly({0: 1, 2: -1})
    assert convention_factor(p, p) == (1, 0)
    assert convention_factor(p.shift(3), p) == (1, 6)
    assert convention_factor(-p.shift(-2), p) == (-1, -4)
    assert convention_factor(p, LaurentPoly({0: 1, 2: 1})) is None
    assert convention_factor(LaurentPoly.zero(), LaurentPoly.zero()) == (1, 0)


def test_comb_phases_equal_a_power_per_entry():
    # a step's lambda is sign^|p| x^(p e) per (word, J, phase) entry, with
    # the bits of np.power, unit circle and off it, forwards and reversed
    words = [_resolved(text) for text in (
        "strands=6; g1^2 g4^1 g3^-1 g5^2 g2^1", "strands=6; g2^-3 g3^1", "strands=6; g1^200 g2^-1 h5^3",
    )]
    seen = []

    def check(rows, positions, lam, paired):
        syllables = [words[row].syllables[position] for row, position in zip(rows, positions)]
        for s, row in zip(syllables, lam):
            (s0, s1), (e0, e1) = evaluator.SPECTRUM[s.orientation]
            p = abs(s.power)
            want = np.array([[s0**p], [s1**p]]) * np.power(point.q_half, [[s.power * e0], [s.power * e1]])
            assert row.dtype == want.dtype and np.array_equal(row, want)
        seen.extend(s.power for s in syllables)

    for point in (QPoint(tuple(phase_grid(3, 10).tolist())), circle_samples((-40, 40))):
        for reverse in (False, True):
            evaluator.comb_elements(words, point, reverse, check)
    assert sorted(seen) == sorted(4 * [s.power for w in words for s in w.syllables])
