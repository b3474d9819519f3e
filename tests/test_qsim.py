import random
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from platjones import evaluator, fusion, qsim
from platjones.braid import parse, resolve_orientations
from platjones.cli import _random_words
from platjones.errors import NonUnitaryBlock
from platjones.evaluator import (
    BlockOperator,
    CompiledProgram,
    admissible_arc,
    compile as compile_word,
    evaluate,
    phase_grid,
)
from platjones.fusion import duality_matrix
from platjones.qnum import CirclePoint, QPoint, RealQPoint
from platjones.qsim import (
    StateVector,
    block_dimension,
    check_unitary,
    evolution,
    p_k,
    p_ks,
    run,
)


def _program(word):
    return compile_word(resolve_orientations(word)[0])


def test_identity_word_leaves_initial_state():
    state = run(_program(parse("strands=4;")), 0.8)
    assert state.dimension == 16
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert p_k(_program(parse("strands=4;")), 0.8) == pytest.approx(1.0)


def test_single_duality_prepares_first_column():
    pt = QPoint(0.9)
    op = BlockOperator(kind="duality", n=2, token="a")
    check_unitary(op, pt)
    program = CompiledProgram(n=2, operators=(op,), word=parse("strands=4;"))
    out = run(program, 0.9).amplitudes
    block = duality_matrix(2, pt)
    assert np.allclose(out[:2], block[:, 0])
    assert np.all(out[2:] == 0)


def test_block_step_is_the_dense_block_on_the_low_indices():
    # a and a† = a^T: act gives u M, and with transpose M u, the step
    # that the register applies to its d-block
    pt = QPoint(0.7)
    a = duality_matrix(3, pt)
    u = np.random.default_rng(5).normal(size=len(a)) + 0j
    for kind, block in (("duality", a), ("duality_inverse", a.T)):
        op = BlockOperator(kind=kind, n=3, token="a")
        check_unitary(op, pt)
        assert np.max(np.abs(op.act(u, pt, transpose=True) - block @ u)) < 1e-14
        assert np.max(np.abs(op.act(u, pt) - u @ block)) < 1e-14
    assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10


def test_norm_preserved_and_no_leak():
    w = parse("strands=6; g2^-1 g4^2 g3^1 g1^-2")
    theta = 0.6
    d = block_dimension(3)
    program = _program(w)
    states = list(evolution(program, theta))
    assert len(states) == program.operator_count + 1
    for s in states:
        assert abs(s.norm() - 1.0) < 1e-12
        # the identity part must never be touched
        assert np.all(s.amplitudes[d:] == 0)


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
        assert state.amplitudes[0] == pytest.approx(evaluate(w, theta), abs=1e-12)
        assert p_k(_program(w), theta) == pytest.approx(abs(evaluate(w, theta)) ** 2, abs=1e-12)


def test_non_unitary_block_rejected():
    # off the unit circle the braiding phases have |lambda| != 1
    w = parse("strands=4; g2^1")
    annotated, _ = resolve_orientations(w)
    op = compile_word(annotated).operators[1]
    assert op.kind == "diagonal"
    with pytest.raises(NonUnitaryBlock, match=re.escape(repr(op.token))):
        check_unitary(op, RealQPoint(0.5))


def test_non_unitary_duality_rejected():
    # off the unit circle a is complex orthogonal, a a^T = 1, not unitary
    w = parse("strands=4; g2^1")
    annotated, _ = resolve_orientations(w)
    for op in compile_word(annotated).operators[::2]:
        assert op.kind != "diagonal"
        with pytest.raises(NonUnitaryBlock, match=re.escape(repr(op.token))):
            check_unitary(op, CirclePoint(0.3, 1.05))


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
    assert state.dimension == 256
    assert abs(state.norm() - 1.0) < 1e-12


def test_statevector_probability():
    sv = StateVector(n=1, amplitudes=np.array([0.6, 0.8j, 0, 0]))
    assert sv.probability(0) == pytest.approx(0.36)
    assert sv.probability(1) == pytest.approx(0.64)


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
        got = program.element(QPoint(tuple(thetas.tolist())))
        want = [run(program, float(t)).amplitudes[0] for t in thetas]
        assert np.max(np.abs(got - want)) < 1e-12


def test_evolution_embeds_each_duality_once(monkeypatch):
    # every operator is checked for unitarity, but a's block check runs
    # once per (n, point), however many evolutions read it, and the
    # dense matrix is never built
    fusion.move_deviation.cache_clear()
    kinds, builds = [], []

    def counting(op, point, *phases):
        kinds.append(op.kind)
        return check_unitary(op, point, *phases)

    def building(n, point):
        builds.append((n, point))
        return duality_matrix(n, point)

    monkeypatch.setattr(qsim, "check_unitary", counting)
    for module in (fusion, qsim):
        monkeypatch.setattr(module, "duality_matrix", building, raising=False)
    # three even runs: a and a† three times each
    w = parse("strands=8; g2^1 g1^-1 g4^2 g3^1 g6^-1 g5^1")
    state = run(_program(w), 0.5)
    assert sorted(kinds) == sorted(["duality", "duality_inverse"] * 3 + ["diagonal"] * 6)
    assert state.amplitudes[0] == pytest.approx(evaluate(w, 0.5), abs=1e-12)
    run(_program(w), 0.5)
    info = fusion.move_deviation.cache_info()
    assert (info.misses, info.hits) == (1, 11)
    assert builds == []


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
    for kind in ("duality", "duality_inverse"):
        check_unitary(BlockOperator(kind=kind, n=3, token="a"), point)
    assert fusion.move_deviation(3, point) < 1e-13


def test_sign_flip_in_a_recoupling_block_is_rejected(monkeypatch):
    # one entry of a 2 x 2 block of the move plan flipped: a is no longer
    # unitary, which the block check must see without the dense matrix,
    # and a run through a flipped a† or a must stop rather than evolve
    n, point = 3, QPoint(0.5)
    keys = fusion._move_plan(n)[0]
    outer = Counter((a, d) for _, _, a, _, _, d in keys)
    flip = next(i for i, (_, _, a, _, _, d) in enumerate(keys) if outer[a, d] == 4)
    values = fusion._racah_values

    def flipped(m, p):
        v = values(m, p).copy()
        if m == n:
            v[flip] = -v[flip]
        return v

    program = _program(parse("strands=6; g2^1 g3^1 g4^-1 g1^2"))
    fusion.move_deviation.cache_clear()
    monkeypatch.setattr(fusion, "_racah_values", flipped)
    try:
        with pytest.raises(NonUnitaryBlock, match=r"operator 'a' deviates from unitarity by") as info:
            check_unitary(BlockOperator(kind="duality", n=n, token="a"), point)
        assert float(str(info.value).split()[-1]) > 0.1
        with pytest.raises(NonUnitaryBlock):
            p_k(program, 0.5)
    finally:
        fusion.move_deviation.cache_clear()
    monkeypatch.undo()
    assert abs(run(program, 0.5).norm() - 1.0) < 1e-12


def test_p_k_memory_stays_below_one_dense_matrix():
    # a dense d x d complex a at n = 8 (d = 1430) is 31 MiB; the run holds
    # the 2^16-amplitude register (1 MiB) and the move plan's values
    program = _program(parse("strands=16; g2^1 g4^-1 g6^2 g9^1 g8^-1 g12^1 g14^-2 g3^1 g10^1"))
    fusion._move_plan(8)
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


def test_batched_p_k_matches_each_program(monkeypatch):
    # the words of each n of a mixed corpus, whatever their skeletons,
    # in one pass, then cut into slices of three registers, one pass per
    # slice: the slices give the same bits, and each row its own
    # program's p_k
    programs = [_program(w) for _, w in _random_words(80, 7)]
    programs += [
        _program(parse(f"strands=8; g2^{k} g4^-1 g3^1 g6^{j}")) for k in (1, -2) for j in (1, 3)
    ]
    programs.append(_program(parse("strands=8; g3^1 g2^-1 g4^2")))
    groups = list(_groups(programs).values())
    assert sorted(g[0].n for g in groups) == [2, 3, 4]
    assert all(len({tuple(op.kind for op in p.operators) for p in g}) > 1 for g in groups)
    passes = []
    evolve = qsim._evolve
    monkeypatch.setattr(qsim, "_evolve", lambda part, point: passes.append(len(part)) or evolve(part, point))
    whole = {}
    for group in groups:
        theta = float(phase_grid(group[0].n, 10)[5])
        got = whole[id(group)] = p_ks(group, theta)
        assert got.shape == (len(group),)
        assert passes == [len(group)]
        passes.clear()
        want = np.array([p_k(program, theta) for program in group])
        assert np.array_equal(got, want)
        passes.clear()
    for group in groups:
        monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", 3 << (2 * group[0].n))
        assert len(evaluator.group_slices(group, lambda n: 1 << (2 * n))) == -(-len(group) // 3)
        theta = float(phase_grid(group[0].n, 10)[5])
        assert np.array_equal(p_ks(group, theta), whole[id(group)])
        assert passes == [3] * (len(group) // 3) + [len(group) % 3] * (len(group) % 3 > 0)
        passes.clear()


def test_evolution_snapshots_do_not_alias():
    # the register is updated in place; evolution copies it per yield
    program = _program(parse("strands=6; g2^-1 g4^2 g3^1 g1^-2"))
    states = list(evolution(program, 0.6))
    assert states[0].amplitudes[0] == 1.0
    assert np.count_nonzero(states[0].amplitudes) == 1
    assert not np.array_equal(states[1].amplitudes, states[-1].amplitudes)
    assert np.array_equal(states[-1].amplitudes, run(program, 0.6).amplitudes)


def test_non_unitary_diagonal_in_a_group_names_its_token(monkeypatch):
    # a f a† g, then f a g a† h three times: the letters qsim reads give
    # the third word's g a modulus-2 entry, so the pass runs h (g for
    # the first word) and a† and stops at g, the step where the first
    # word has its f
    group = [_program(parse("strands=4; g2^1 g1^1"))]
    group += [_program(parse(f"strands=4; g1^{k} g2^1 g1^1")) for k in (1, 2, -1)]
    assert len(_groups(group)) == 1
    assert group[0].operators[1].token == "f"
    op = group[2].operators[2]
    assert (op.kind, op.token) == ("diagonal", "g")
    letters = qsim.letters

    def injected(ops):
        sign, exponent = letters(ops)
        for row, other in enumerate(ops):
            if other is op:
                sign[row] *= np.array([1, 2])
        return sign, exponent

    monkeypatch.setattr(qsim, "letters", injected)
    with pytest.raises(NonUnitaryBlock, match=r"operator 'g' deviates from unitarity by 3\.000e\+00"):
        p_ks(group, 0.5)
    p_ks(group[:2] + group[3:], 0.5)
