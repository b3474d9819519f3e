import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from platjones import evaluator, fusion, qsim
from platjones.braid import parse, resolve_orientations
from platjones.cli import _random_words
from platjones.errors import NonUnitaryBlock
from platjones.evaluator import (
    admissible_arc,
    compile as compile_word,
    evaluate,
    phase_grid,
)
from platjones.fusion import block_dimension
from platjones.qnum import CirclePoint, QPoint
from platjones.qsim import (
    check_unitary,
    evolution,
    p_k,
    p_ks,
    run,
)

from paper_schedule import duality_matrix, element, letter_phases, recouple
from phase_helpers import RealPoint, braiding_phase


def _program(word):
    return compile_word(resolve_orientations(word))


def _check_syllable(program, point):
    """check_unitary of a step that moves the first syllable of the one program at the point, 2 x 2 blocks included."""
    s = program.word.syllables[0]
    lam = np.array([braiding_phase(J, s.orientation, "right", point) for J in (0, 1)]) ** s.power
    check_unitary([program], point)(np.array([0]), np.array([0]), lam.reshape(1, 2, -1), True)


def test_identity_word_leaves_initial_state():
    state = run(_program(parse("strands=4;")), 0.8)
    assert state.shape == (16,) and state.dtype == complex
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1
    assert p_k(_program(parse("strands=4;")), 0.8) == pytest.approx(1.0)


def test_single_duality_prepares_first_column():
    # a|0> is a's first column, and one even letter a E a^T leaves its
    # first column in the register's d-block
    # (the comb labellings of n = 2 are the odd basis paths)
    pt = QPoint(0.9)
    program = _program(parse("strands=4; g2^1"))
    (letter,) = program.letters
    _check_syllable(program, pt)
    block = duality_matrix(2, pt)
    assert np.allclose(recouple(np.eye(2, dtype=complex)[0], 2, pt, transpose=True), block[:, 0])
    out = run(program, 0.9)
    assert np.allclose(out[:2], (block @ np.diag(letter_phases(letter, pt)) @ block.T)[:, 0])
    assert np.all(out[2:] == 0)


def test_block_step_is_the_dense_block_on_the_low_indices():
    # a and a† = a^T: recouple gives u a, and with transpose a u; the
    # register's d-block after g1 g2^-2 g3 g2 at n = 2, whose comb
    # labellings are the odd basis paths, is the paper's S_1 ... S_L e_0,
    # S = D or a E a^T, the last letter applied first, and the identity
    # part is never touched
    pt = QPoint(0.7)
    a = duality_matrix(3, pt)
    u = np.random.default_rng(5).normal(size=len(a)) + 0j
    assert np.max(np.abs(recouple(u, 3, pt, transpose=True) - a @ u)) < 1e-14
    assert np.max(np.abs(recouple(u, 3, pt) - u @ a)) < 1e-14
    assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
    program = _program(parse("strands=4; g1^1 g2^-2 g3^1 g2^1"))
    a = duality_matrix(2, pt)
    want = np.eye(2, dtype=complex)[0]
    for op in program.letters[::-1]:
        S = np.diag(letter_phases(op, pt))
        want = (a @ S @ a.T if op.basis == "even" else S) @ want
    out = run(program, 0.7)
    assert np.max(np.abs(out[:2] - want)) < 1e-14 and np.all(out[2:] == 0)


def test_norm_preserved_and_no_leak():
    w = parse("strands=6; g2^-1 g4^2 g3^1 g1^-2")
    theta = 0.6
    d = block_dimension(3)
    program = _program(w)
    states = list(evolution(program, theta))
    assert len(states) == len(w.syllables) + 1
    for s in states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        # the identity part must never be touched
        assert np.all(s[d:] == 0)


def test_final_amplitude_matches_evaluator():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.choice([2, 3])
        k = rng.randint(1, 4)
        text = f"strands={2 * n}; " + " ".join(
            f"g{rng.randint(1, 2 * n - 1)}^{rng.choice([-2, -1, 1, 2])}"
            for _ in range(k)
        )
        w = parse(text)
        lo, hi = admissible_arc(n)
        theta = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        state = run(_program(w), theta)
        assert state[0] == pytest.approx(evaluate(w, theta), abs=1e-12)
        assert p_k(_program(w), theta) == pytest.approx(abs(evaluate(w, theta)) ** 2, abs=1e-12)


def test_non_unitary_block_rejected():
    # off the unit circle the braiding phases have |lambda| != 1
    w = parse("strands=4; g2^1")
    annotated = resolve_orientations(w)
    program = compile_word(annotated)
    (op,) = program.letters
    assert op.token == "f"
    with pytest.raises(NonUnitaryBlock, match=re.escape(repr(op.token))):
        _check_syllable(program, RealPoint(0.5))


def test_non_unitary_duality_rejected():
    # off the unit circle a is complex orthogonal, a a^T = 1, not unitary
    w = parse("strands=4; g2^1")
    annotated = resolve_orientations(w)
    program = compile_word(annotated)
    (op,) = program.letters
    assert op.basis == "even"
    with pytest.raises(NonUnitaryBlock, match=re.escape(repr("a"))):
        _check_syllable(program, CirclePoint((0.3,), 1.05))


def test_twenty_syllable_word_is_fast():
    rng = random.Random(3)
    text = f"strands=8; " + " ".join(
        f"g{rng.randint(1, 7)}^{rng.choice([-1, 1])}" for _ in range(20)
    )
    w = parse(text)
    start = time.perf_counter()
    state = run(_program(w), 0.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert state.shape == (256,)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_element_matches_qsim_amplitude_on_verify_phases():
    words = [w for _, w in _random_words(12, 2)]
    words += [
        parse("strands=8; g2^-1 g4^2 g3^1 g6^1 g5^-2"),
        parse("strands=8; g4^3 g1^-1 g6^-2 g7^1"),
        parse("strands=8; g6^2 g3^1 g2^1 g4^-1"),
        parse("strands=12; g2^-3 g4^-3 g6^-2 g1^-1 g2^-1"),
        parse("strands=14; g4^-1 g8^1 g11^1 g2^2 g6^-1"),
    ]
    for w in words:
        program = _program(w)
        thetas = phase_grid(w.n, 10)
        point = QPoint(tuple(thetas.tolist()))
        got = evaluator.comb_elements([program.word], point)[0]
        want = [run(program, float(t))[0] for t in thetas]
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(element(program, point) - want)) < 1e-12


def test_evolution_embeds_each_duality_once(monkeypatch):
    # every step is checked for unitarity, but the rotations' check runs
    # once per (n, point), however many steps and evolutions read it
    fusion.move_deviation.cache_clear()
    steps = []
    check = qsim.check_unitary

    def counting(programs, point):
        inner = check(programs, point)
        return lambda rows, positions, lam, paired: steps.append(paired) or inner(rows, positions, lam, paired)

    monkeypatch.setattr(qsim, "check_unitary", counting)
    # six syllables, all but g1 with a 2 x 2 block at n = 4, run last to first
    w = parse("strands=8; g2^1 g1^-1 g4^2 g3^1 g6^-1 g5^1")
    state = run(_program(w), 0.5)
    assert steps == [True, False, True, True, True, True][::-1]
    assert state[0] == pytest.approx(evaluate(w, 0.5), abs=1e-12)
    run(_program(w), 0.5)
    info = fusion.move_deviation.cache_info()
    assert (info.misses, info.hits) == (1, 9)


@pytest.mark.parametrize(
    "thetas", [(0.3, 0.5, 0.7), tuple(phase_grid(3, 5).tolist())], ids=["3", "5"]
)
def test_check_unitary_on_batched_point(thetas):
    # R R† of each recoupling block must contract over its columns at
    # each phase alone: a dense check that transposed all three axes of
    # the (phases, d, d) stack raised a bare ValueError at 3 phases and,
    # at 5 phases (as many as d at n = 3), read a unitary a as deviating
    # by 1.6
    point = QPoint(thetas)
    _check_syllable(_program(parse("strands=6; g2^1")), point)
    assert fusion.move_deviation(3, point) < 1e-13


def test_sign_flip_in_a_recoupling_block_is_rejected(monkeypatch):
    # one entry of a 2 x 2 block of the F-moves flipped: the rotations are
    # no longer unitary, which the block check must see, and a run
    # through a flipped block must stop rather than evolve
    n, point = 3, QPoint((0.5,))
    rotations = fusion.rotations

    def flipped(m, p):
        table = rotations(m, p).copy()
        if m == n:
            table[0, 0, 0] = -table[0, 0, 0]  # a = 1, J = 0, e = 0
        return table

    program = _program(parse("strands=6; g2^1 g3^1 g4^-1 g1^2"))
    fusion.move_deviation.cache_clear()
    monkeypatch.setattr(fusion, "rotations", flipped)
    try:
        with pytest.raises(NonUnitaryBlock, match=r"operator 'a' deviates from unitarity by") as info:
            _check_syllable(program, point)
        assert float(str(info.value).split()[-1]) > 0.1
        with pytest.raises(NonUnitaryBlock):
            p_k(program, 0.5)
    finally:
        fusion.move_deviation.cache_clear()
    monkeypatch.undo()
    assert abs(np.linalg.norm(run(program, 0.5)) - 1.0) < 1e-12


def test_p_k_memory_stays_below_one_dense_matrix():
    # a dense d x d complex a at n = 8 (d = 1430) is 31 MiB; the run holds
    # the 2^16-amplitude register (1 MiB), the F-moves' values and, when
    # it builds them, the comb tables of n = 8 (0.3 MiB at their peak)
    program = _program(parse("strands=16; g2^1 g4^-1 g6^2 g9^1 g8^-1 g12^1 g14^-2 g3^1 g10^1"))
    fusion.move_deviation.cache_clear()
    tracemalloc.start()
    try:
        p_k(program, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _groups(programs):
    groups = {}
    for program in programs:
        groups.setdefault(program.n, []).append(program)
    return groups


def _count_slices(monkeypatch) -> list:
    """Record the word count of each slice that the evaluator's comb starts."""
    slices = []
    comb = evaluator.comb

    def counted(*args):
        for rows, v in comb(*args):
            if not slices or slices[-1] is not rows:
                slices.append(rows)
            yield rows, v

    monkeypatch.setattr(evaluator, "comb", counted)
    return slices


def test_batched_p_k_matches_each_program(monkeypatch):
    # the words of each n of a mixed corpus, whatever their letters, in
    # one pass, then cut into slices of three d-blocks, one pass per
    # slice: the slices give the same bits, and each row its own
    # program's p_k
    programs = [_program(w) for _, w in _random_words(80, 7)]
    programs += [
        _program(parse(f"strands=8; g2^{k} g4^-1 g3^1 g6^{j}")) for k in (1, -2) for j in (1, 3)
    ]
    programs.append(_program(parse("strands=8; g3^1 g2^-1 g4^2")))
    groups = list(_groups(programs).values())
    assert sorted(g[0].n for g in groups) == [2, 3, 4]
    assert all(len({tuple(op.basis for op in p.letters) for p in g}) > 1 for g in groups)
    slices = _count_slices(monkeypatch)
    whole = {}
    for group in groups:
        theta = float(phase_grid(group[0].n, 10)[5])
        got = whole[id(group)] = p_ks(group, theta)
        assert got.shape == (len(group),)
        assert [len(rows) for rows in slices] == [len(group)]
        want = np.array([p_k(program, theta) for program in group])
        assert np.array_equal(got, want)
        slices.clear()
    for group in groups:
        monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", 3 * block_dimension(group[0].n))
        theta = float(phase_grid(group[0].n, 10)[5])
        assert np.array_equal(p_ks(group, theta), whole[id(group)])
        assert [len(rows) for rows in slices] == [3] * (len(group) // 3) + [len(group) % 3] * (len(group) % 3 > 0)
        slices.clear()


def test_p_ks_slices_by_the_fusion_block(monkeypatch):
    # a slice holds BLOCK_ENTRIES // d programs' d-blocks: 60 n = 6
    # programs (d = 132) make two passes, where whole 2^12-amplitude
    # registers made one pass per program
    rng = random.Random(6)
    programs = [_program(parse("strands=12; " + " ".join(
        f"g{rng.randint(1, 11)}^{rng.choice([-2, -1, 1, 2])}" for _ in range(3)
    ))) for _ in range(60)]
    slices = _count_slices(monkeypatch)
    theta = float(phase_grid(6, 10)[5])
    got = p_ks(programs, theta)
    assert block_dimension(6) == 132
    passes = [len(rows) for rows in slices]
    assert passes == [31, 29] and len(passes) == -(-60 // (evaluator.BLOCK_ENTRIES // 132))
    assert np.array_equal(got, [p_k(program, theta) for program in programs])


def test_evolution_snapshots_do_not_alias():
    # the register is updated in place; evolution copies it per yield
    program = _program(parse("strands=6; g2^-1 g4^2 g3^1 g1^-2"))
    states = list(evolution(program, 0.6))
    assert states[0][0] == 1.0
    assert np.count_nonzero(states[0]) == 1
    assert not np.array_equal(states[1], states[-1])
    assert np.array_equal(states[-1], run(program, 0.6))


def test_non_unitary_diagonal_in_a_group_names_its_token(monkeypatch):
    # f a g a† h four times, one with a power 2 in its g: a spectrum whose
    # power-2 phases have a modulus-2 entry stops the shared pass at that
    # step, naming the letter whose run holds the syllable, and the group
    # without that word passes
    group = [_program(parse(f"strands=4; g1^{k} g2^{j} g1^1")) for k, j in ((1, 1), (-1, 1), (1, 2), (1, -1))]
    assert len(_groups(group)) == 1
    assert [(op.basis, op.token) for op in group[2].letters] == [("odd", "f"), ("even", "g"), ("odd", "h")]
    spectrum = evaluator._spectrum

    def injected(orientation, power):
        s0, s1, e0, e1 = spectrum(orientation, power)
        return s0, 2 * s1 if power == 2 else s1, e0, e1

    monkeypatch.setattr(evaluator, "_spectrum", injected)
    with pytest.raises(NonUnitaryBlock, match=r"operator 'g' deviates from unitarity by 3\.000e\+00"):
        p_ks(group, 0.5)
    p_ks(group[:2] + group[3:], 0.5)
