"""Acceptance criteria for the full pipeline.

Each test checks one numbered criterion at its stated tolerance and
prints a single verdict line; run with -rA (the default here) to see
the lines for passing tests too.
"""

import math
import random
import time

import numpy as np

from platjones.braid import mirror, parse, resolve_orientations
from platjones.cli import _random_words
from platjones.evaluator import (
    admissible_arc,
    compile as compile_word,
    convention_factor,
    evaluate,
    jones,
    unlink_normalization,
)
from platjones.fusion import block_dimension
from platjones.laurent import LaurentPoly, laurent_eval
from platjones.oracle import jones_exact
from platjones.qnum import QPoint
from platjones.qsim import evolution, p_k

from paper_schedule import duality_matrix, element, letter_phases, pair_couplings
from phase_helpers import braiding_phase
from vertex_reference import (
    braid_limit_check,
    far_commutation_residual,
    sigma_spectrum,
    yang_baxter_residual,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _program(word):
    return compile_word(resolve_orientations(word))


def test_criterion_01_sigma_spectrum():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.05, 2 * math.pi - 0.05)
        got = sigma_spectrum(QPoint(theta))
        q = complex(math.cos(theta), math.sin(theta))
        want = sorted([1, 1, 1, -q], key=lambda z: (z.real, z.imag))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(1, "sigma spectrum {1,1,1,-q}", ok,
             f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_yang_baxter():
    rng = random.Random(102)
    start = time.perf_counter()
    worst_yb = 0.0
    worst_fc = 0.0
    for _ in range(50):
        u = rng.uniform(-2, 2)
        v = rng.uniform(-2, 2)
        mu = rng.uniform(-2, 2)
        worst_yb = max(worst_yb, yang_baxter_residual(u, v, mu))
        worst_fc = max(worst_fc, far_commutation_residual(u, v, mu))
    elapsed = time.perf_counter() - start
    ok = worst_yb < 1e-10 and worst_fc < 1e-12 and elapsed < 5.0
    _verdict(2, "Yang-Baxter and far commutation", ok,
             f"YB {worst_yb:.2e}, far {worst_fc:.2e}, {elapsed:.2f}s")


def test_criterion_03_braid_limit():
    mu = 1.0
    devs = [braid_limit_check(u, mu) for u in (5.0, 10.0, 15.0, 20.0)]
    monotone = all(devs[i + 1] < devs[i] for i in range(3))
    ok = devs[-1] < 1e-6 and monotone
    _verdict(3, "rescaled R(u->inf) matches sigma", ok,
             "devs " + ", ".join(f"{d:.1e}" for d in devs))


def _ballot_count(steps: int) -> int:
    """Walks of +-1 steps staying >= 0 and returning to 0."""
    heights = {0: 1}
    for _ in range(steps):
        nxt: dict = {}
        for h, ways in heights.items():
            for h2 in (h - 1, h + 1):
                if h2 >= 0:
                    nxt[h2] = nxt.get(h2, 0) + ways
        heights = nxt
    return heights.get(0, 0)


def test_criterion_04_block_dimensions():
    got = [len(pair_couplings(n)[0]) for n in (2, 3, 4)]
    ballot = [_ballot_count(2 * n) for n in (2, 3, 4)]
    catalan = [math.comb(2 * n, n) // (n + 1) for n in (2, 3, 4)]
    shapes = [duality_matrix(n, QPoint(0.4)).shape for n in (2, 3, 4)]
    ok = (got == [2, 5, 14] == ballot == catalan
          and shapes == [(2, 2), (5, 5), (14, 14)])
    _verdict(4, "block dimensions 2, 5, 14", ok, f"got {got}")


def test_criterion_05_duality_orthogonality():
    rng = random.Random(105)
    worst = 0.0
    worst_imag = 0.0
    for n in (2, 3, 4):
        lo, hi = admissible_arc(n)
        for _ in range(20):
            theta = rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo))
            a = duality_matrix(n, QPoint(theta))
            worst = max(worst, float(np.max(np.abs(a @ a.T - np.eye(len(a))))))
            worst_imag = max(worst_imag, float(np.max(np.abs(np.imag(a)))))
    ok = worst < 1e-10 and worst_imag < 1e-13
    _verdict(5, "duality orthogonality and reality", ok,
             f"|aa^T - I| {worst:.2e}, |Im| {worst_imag:.2e}")


def test_criterion_06_compilation_fidelity():
    word = parse("strands=4; b2^3 h1^-2 h3^-2 b2^3")
    annotated = resolve_orientations(word)
    program = compile_word(annotated)
    tokens_ok = program.tokens() == ["a", "f", "a†", "g", "a", "h", "a†"]
    pt = QPoint(0.7)
    f, g, h = program.letters
    lam_par = [braiding_phase(J, "parallel", "right", pt) for J in (0, 1)]
    f_want = np.array([lam_par[0] ** 3, lam_par[1] ** 3])
    lam_anti = [braiding_phase(J, "antiparallel", "right", pt) for J in (0, 1)]
    # odd paths on four strands force J1 = J3, so the two antiparallel
    # inverse squares combine to lambda^{-4} per path
    g_want = np.array([lam_anti[0] ** -4, lam_anti[1] ** -4])
    f_ok = np.allclose(letter_phases(f, pt), f_want) and np.allclose(letter_phases(h, pt), f_want)
    g_ok = np.allclose(letter_phases(g, pt), g_want)
    ok = tokens_ok and f_ok and g_ok
    _verdict(6, "reference word compiles to a f a† g a h a†", ok,
             f"tokens {program.tokens()}")


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    words = _random_words(50, seed=107)
    worst = 0.0
    for _, word in words:
        n = word.n
        exact = jones_exact(word)
        # a Jones root can land on a sample phase; floor the relative
        # scale by the coefficient mass so exact zeros stay comparable
        floor = 1e-9 * max(1.0, float(sum(abs(v) for v in exact.coeffs().values())))
        lo, hi = admissible_arc(n)
        for j in range(10):
            theta = lo + (hi - lo) * (0.05 + 0.9 * j / 9)
            got = abs(evaluate(word, theta)) * abs(unlink_normalization(n, theta))
            want = abs(laurent_eval(exact, QPoint(theta)))
            worst = max(worst, abs(got - want) / max(want, floor))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict(7, "evaluator modulus matches exact oracle on 50 random words",
             ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_exact_reconstruction():
    trefoil = jones(parse("strands=4; g2^-3"))
    tref_exact = jones_exact(parse("strands=4; g2^-3"))
    tref_want = LaurentPoly({-8: -1, -6: 1, -2: 1})  # -t^-4 + t^-3 + t^-1
    hopf = jones(parse("strands=4; g2^2"))
    hopf_exact = jones_exact(parse("strands=4; g2^2"))
    tref_factor = convention_factor(trefoil.polynomial, tref_exact)
    hopf_factor = convention_factor(hopf.polynomial, hopf_exact)
    ok = (
        tref_exact == tref_want
        and tref_factor is not None
        and hopf_factor is not None
        and trefoil.residual < 1e-6
        and hopf.residual < 1e-6
    )
    _verdict(8, "trefoil and Hopf reconstruct exactly up to c*q^{s/4}", ok,
             f"factors {tref_factor}, {hopf_factor}, "
             f"residuals {trefoil.residual:.1e}, {hopf.residual:.1e}")


def test_criterion_09_mirror_and_achirality():
    rng = random.Random(109)
    words = _random_words(50, seed=109)
    worst_mirror = 0.0
    for _, word in words:
        lo, hi = admissible_arc(word.n)
        theta = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        dev = abs(
            evaluate(mirror(word), theta) - evaluate(word, theta).conjugate()
        )
        worst_mirror = max(worst_mirror, dev)
    fig8 = parse("strands=4; g2^2 g1^-1 g2^1")
    palindromic = jones_exact(fig8) == jones_exact(fig8).invert_variable()
    worst_imag = 0.0
    for r in (5, 7, 9):
        theta = 2 * math.pi / r
        worst_imag = max(worst_imag, abs(evaluate(fig8, theta).imag))
    ok = worst_mirror < 1e-10 and palindromic and worst_imag < 1e-9
    _verdict(9, "mirror conjugation and figure-eight reality", ok,
             f"mirror {worst_mirror:.2e}, |Im| {worst_imag:.2e}")


def test_criterion_10_quantum_consistency():
    rng = random.Random(110)
    words = _random_words(25, seed=110)
    worst_prob = 0.0
    for rep in range(100):
        _, word = words[rep % len(words)]
        lo, hi = admissible_arc(word.n)
        theta = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        # against the paper's a f a† g schedule, the tests' reference
        program = _program(word)
        want = abs(element(program, QPoint((theta,)))[0]) ** 2
        worst_prob = max(worst_prob, abs(p_k(program, theta) - want))
    # norm drift and leak along one evolution
    word = parse("strands=6; g2^-1 g4^2 g3^1 g1^-2 g5^1")
    d = block_dimension(3)
    worst_norm = 0.0
    leak_free = True
    for state in evolution(_program(word), 0.55):
        worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
        leak_free = leak_free and bool(np.all(state[d:] == 0))
    rng8 = random.Random(8)
    big = parse(
        "strands=8; " + " ".join(
            f"g{rng8.randint(1, 7)}^{rng8.choice([-1, 1])}" for _ in range(20)
        )
    )
    start = time.perf_counter()
    p_k(_program(big), 0.5)
    elapsed = time.perf_counter() - start
    ok = (
        worst_prob < 1e-12
        and worst_norm < 1e-12
        and leak_free
        and elapsed < 1.0
    )
    _verdict(10, "simulator probability, norm, leak and speed", ok,
             f"|p-|A|^2| {worst_prob:.2e}, norm {worst_norm:.2e}, "
             f"{elapsed:.2f}s")


def test_criterion_11_operator_count_bound():
    rng = random.Random(111)
    worst_ratio = 0.0
    ok = True
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        length = rng.randint(1, 12)
        text = f"strands={2 * n}; " + " ".join(
            f"g{rng.randint(1, 2 * n - 1)}^{rng.choice([-3, -2, -1, 1, 2, 3])}"
            for _ in range(length)
        )
        word = parse(text)
        annotated = resolve_orientations(word)
        count = compile_word(annotated).operator_count
        ok = ok and count <= 2 * length + 1
        worst_ratio = max(worst_ratio, count / length)
    _verdict(11, "operator count <= 2L + 1 on 1000 random words", ok,
             f"max ops/length {worst_ratio:.2f}")
