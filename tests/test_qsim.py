import random
import re
import time

import numpy as np
import pytest

from platjones import qsim
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
from platjones.qsim import StateVector, block_dimension, check_unitary, evolution, p_k, run


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
    block = duality_matrix(2, pt).entries
    assert np.allclose(out[:2], block[:, 0])
    assert np.all(out[2:] == 0)


def test_block_step_is_the_dense_block_on_the_low_indices():
    # a and a† = a^T: act gives u M, and with transpose M u, the step
    # that the register applies to its d-block
    pt = QPoint(0.7)
    a = duality_matrix(3, pt).entries
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
    kinds = []

    def counting(op, point):
        kinds.append(op.kind)
        return check_unitary(op, point)

    monkeypatch.setattr(qsim, "check_unitary", counting)
    # three even runs: a and a† three times each, a checked once for both
    w = parse("strands=8; g2^1 g1^-1 g4^2 g3^1 g6^-1 g5^1")
    state = run(_program(w), 0.5)
    assert sorted(kinds) == sorted(["duality_inverse"] + ["diagonal"] * 6)
    assert state.amplitudes[0] == pytest.approx(evaluate(w, 0.5), abs=1e-12)
