"""Fusion paths, Racah coefficients and the duality change of basis."""

import math
import random
import re

import numpy as np
import pytest

from platjones import fusion, qnum
from platjones.errors import NegativeRadicand, NonAdmissibleTriple
from platjones.evaluator import admissible_arc, phase_grid
from platjones.fusion import (
    EvenPath,
    OddPath,
    duality_matrix,
    enumerate_even_paths,
    enumerate_odd_paths,
    racah,
)
from platjones.laurent import circle_samples
from platjones.qnum import CirclePoint, QPoint, RealQPoint, q_number


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _recursive_odd_paths(n):
    """The odd paths by the earlier depth-first recursion, sorted as it sorted them."""
    out = []

    def rec(i, J, l):
        if i == n:
            if l[-1] == 0:
                out.append(OddPath(tuple(J), tuple(l)))
            return
        for Ji in (0, 1):
            if i == 0:
                rec(1, [Ji], [Ji])
            else:
                for li in fusion._fuse_range(2 * l[-1], 2 * Ji):
                    rec(i + 1, J + [Ji], l + [li // 2])

    rec(0, [], [])
    return sorted(out)


def _recursive_even_paths(n):
    """The even paths by the earlier depth-first recursion; empty for n = 1."""
    out = []

    def rec(i, J, inter):
        if i == n - 1:
            if inter[-1] == 1:
                out.append(EvenPath(tuple(J), tuple(inter)))
            return
        cur = inter[-1] if inter else 1
        for Ji in (0, 1):
            for ri in fusion._fuse_range(cur, 2 * Ji):
                rec(i + 1, J + [Ji], inter + [ri])

    if n > 1:
        rec(0, [], [])
    return sorted(out)


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_builder_equals_the_recursive_enumeration(n):
    # same paths in the same order: elements, qsim and the move plan index by position
    assert fusion.path_bases(n) == (tuple(_recursive_odd_paths(n)), tuple(_recursive_even_paths(n)))


@pytest.mark.parametrize("n", [0, -1])
def test_enumerators_reject_n_below_one(n):
    for enumerate_paths in (enumerate_odd_paths, enumerate_even_paths):
        with pytest.raises(ValueError, match="n must be >= 1"):
            enumerate_paths(n)


def test_path_counts_are_catalan():
    for n in range(1, 10):
        assert len(enumerate_odd_paths(n)) == catalan(n) == fusion.block_dimension(n)
    for n in range(2, 10):
        assert len(enumerate_even_paths(n)) == catalan(n)
    assert enumerate_even_paths(1) == []


def test_zero_path_is_first():
    # elements and qsim read index 0 as |0...0>
    for n in range(1, 10):
        first = enumerate_odd_paths(n)[0]
        assert first == OddPath(J=(0,) * n, l=(0,) * n)


def test_odd_paths_n2():
    assert enumerate_odd_paths(2) == [
        OddPath(J=(0, 0), l=(0, 0)),
        OddPath(J=(1, 1), l=(1, 0)),
    ]


def test_even_paths_close_on_half():
    for n in (2, 3, 4):
        for p in enumerate_even_paths(n):
            assert p.two_r[-1] == 1


def test_racah_anchor_value():
    # the (0,0) entry of the spin-1/2 recoupling is -1/[2]
    for theta in (0.4, 0.9, 1.5):
        pt = QPoint(theta)
        got = racah(0, 0, 1, 1, 1, 1, pt)
        assert got == pytest.approx(-1.0 / q_number(4, pt), rel=1e-12)


def test_racah_rejects_bad_triads():
    with pytest.raises(NonAdmissibleTriple):
        racah(1, 0, 1, 1, 1, 1, QPoint(0.5))


def test_racah_rejects_strands_other_than_spin_half():
    # every triad is admissible, but s2 = 3/2 is no spin-1/2 strand
    with pytest.raises(ValueError, match="spin-1/2"):
        racah(2, 2, 1, 3, 1, 1, QPoint(0.3))


def test_racah_against_classical_6j():
    # q = 1 reduces to sqrt((2j+1)(2l+1)) * {1/2 1/2 j; 1/2 1/2 l}
    sympy = pytest.importorskip("sympy")
    from sympy import Rational, sqrt
    from sympy.physics.wigner import wigner_6j

    pt = RealQPoint(1.0)
    half = Rational(1, 2)
    for two_j in (0, 2):
        for two_l in (0, 2):
            want = sqrt((two_j + 1) * (two_l + 1)) * wigner_6j(
                half, half, Rational(two_j, 2), half, half, Rational(two_l, 2)
            )
            got = racah(two_j, two_l, 1, 1, 1, 1, pt)
            assert got == pytest.approx(float(want), abs=1e-12)


def test_duality_matrix_n2_matches_racah():
    theta = 1.1
    pt = QPoint(theta)
    a = duality_matrix(2, pt)
    for i, two_j in enumerate((0, 2)):
        for k, two_l in enumerate((0, 2)):
            assert a[i, k] == pytest.approx(
                racah(two_j, two_l, 1, 1, 1, 1, pt), rel=1e-12
            )


def test_duality_matrix_classical():
    a = duality_matrix(2, RealQPoint(1.0))
    want = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(a, want, atol=1e-13)


def test_duality_dimensions():
    for n, d in ((2, 2), (3, 5), (4, 14)):
        m = duality_matrix(n, QPoint(0.5))
        assert m.shape == (d, d)
        assert len(m) == d


def test_duality_matrix_n3_pinned():
    # the plat element is blind to a sign flip of any path basis vector,
    # so only recorded entries can see one in this public matrix
    want = np.array([
        [0.266299874183212, -0.442022907995974, -0.442022907995974,
         0.733700125816787, 0.0],
        [-0.442022907995974, -0.266299874183212, 0.733700125816787,
         0.442022907995974, 0.0],
        [-0.442022907995974, -0.266299874183212, -0.266299874183212,
         -0.160434270955569, 0.798151205931400],
        [-0.442022907995974, 0.733700125816787, -0.266299874183212,
         0.442022907995974, 0.0],
        [0.585603640212689, 0.352801117066291, 0.352801117066291,
         0.212547565718711, 0.602457178951544],
    ])
    got = duality_matrix(3, QPoint(0.5))
    assert np.max(np.abs(got - want)) < 1e-12


def _racah_reference(two_j, two_l, s1, s2, s3, s4, theta):
    """Test-only scalar racah at q = e^{i theta}, one math.sin per q-number."""

    def fact(k):
        out = 1.0
        for i in range(1, k + 1):
            out *= math.sin(i * theta / 2) / math.sin(theta / 2)
        return out

    def tri(a, b, c):
        return math.sqrt(
            fact((-a + b + c) // 2) * fact((a - b + c) // 2) * fact((a + b - c) // 2)
            / fact((a + b + c) // 2 + 1)
        )

    alphas = (s1 + s2 + two_j, s3 + s4 + two_j, s1 + s4 + two_l, s2 + s3 + two_l)
    betas = (s1 + s2 + s3 + s4, s1 + s3 + two_j + two_l, s2 + s4 + two_j + two_l)
    total = 0.0
    for m in range(max(alphas) // 2, min(betas) // 2 + 1):
        den = 1.0
        for a in alphas:
            den *= fact(m - a // 2)
        for b in betas:
            den *= fact(b // 2 - m)
        total += (-1) ** m * fact(m + 1) / den
    norm = math.sin((two_j + 1) * theta / 2) * math.sin((two_l + 1) * theta / 2)
    return (
        (-1) ** (betas[0] // 2)
        * math.sqrt(norm) / math.sin(theta / 2)
        * tri(s1, s2, two_j) * tri(s3, s4, two_j) * tri(s1, s4, two_l) * tri(s2, s3, two_l)
        * total
    )


def test_batched_racah_matches_scalar_reference():
    # the general quantum 6j formula, test-local, checks the closed form
    for n in range(2, 11):
        thetas = phase_grid(n, 16)
        for key in fusion._move_plan(n)[0]:
            got = racah(*key, QPoint(tuple(thetas.tolist())))
            want = [_racah_reference(*key, t) for t in thetas]
            assert got.shape == (16,)
            assert np.max(np.abs(got - want)) < 1e-14


def test_one_by_one_blocks_read_exactly_one():
    # keys whose outer labels differ, or are both 0, are alone in their block
    for n in range(2, 11):
        keys = fusion._move_plan(n)[0]
        alone = [k for k, (_, _, a, _, _, d) in enumerate(keys) if d != a or a == 0]
        assert alone
        for point in (QPoint(tuple(phase_grid(n, 10).tolist())), CirclePoint(0.3, 1.05),
                      RealQPoint(1.0)):
            assert (fusion._racah_values.__wrapped__(n, point)[alone] == 1.0).all()


def test_batch_past_the_arc_names_the_phase():
    for n in (2, 3, 5):
        grid = phase_grid(n, 8).tolist()
        bad = admissible_arc(n)[1] + 0.03
        point = QPoint(tuple(grid[:3] + [bad] + grid[3:]))
        with pytest.raises(NegativeRadicand, match=re.escape(repr(bad))):
            duality_matrix(n, point)


def test_duality_build_calls_racah_once_per_distinct_key(monkeypatch):
    seen = []

    def counting(*args):
        seen.append(args)
        return racah(*args)

    monkeypatch.setattr(fusion, "racah", counting)
    keys, forward, backward = fusion._move_plan(6)
    assert len(keys) == len(set(keys)) == 31
    # bypass the cache; one batched evaluation serves every key at every
    # phase, with no racah call per key, and every key feeds some move
    values = fusion._racah_values.__wrapped__(6, QPoint((0.1, 0.2, 0.3)))
    assert values.shape == (31, 3) and seen == []
    for steps in (forward, backward):
        used = [np.concatenate([first[1], second[2]]) for first, second in steps]
        assert set(np.concatenate(used)) == set(range(31))


def test_racah_values_equal_racah_per_key():
    # one batched evaluation over one shared q-number table gives the
    # same values, bit for bit, as each racah building a table of its own
    for n in range(2, 8):
        keys = fusion._move_plan(n)[0]
        circle = circle_samples((-3 * n, 3 * n))
        grid = QPoint(tuple(phase_grid(n, 10).tolist()))
        for point in (circle, grid):
            got = fusion._racah_values.__wrapped__(n, point)
            assert np.array_equal(got, np.array([racah(*k, point) for k in keys]))


def test_racah_values_build_one_q_number_table(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return q_number(*args)

    monkeypatch.setattr(qnum, "q_number", counting)
    for n in (2, 6):
        calls.clear()
        fusion._racah_values.__wrapped__(n, circle_samples((-20, 20)))
        assert len(calls) == 1


def _dense_reference(n, point):
    """Test-only duality matrix, one (paths, paths) array per phase.

    Each pair of an odd and an even path meets in one comb labelling
    (l_0, r_0, l_1, ..., r_{n-2}, l_{n-1}), admissible when every r_k
    differs from l_k and l_{k+1} by 1/2, and the entry is the product of
    the racah values of the odd path's moves, racah(r_k, J_{k+1}, l_k,
    1/2, 1/2, l_{k+1}), and of the even path's, racah(l_k, J'_k, r_{k-1},
    1/2, 1/2, r_k) with r_{-1} = 1/2; each distinct key is one racah call.
    """
    odd, even = fusion.path_bases(n)
    l = 2 * np.array([p.l for p in odd])[:, None, :]
    J = 2 * np.array([p.J for p in odd])[:, None, 1:]
    r = np.array([p.two_r for p in even])[None, :, :]
    J_even = 2 * np.array([p.J for p in even])[None, :, :]
    before = np.concatenate([np.ones_like(r[..., :1]), r[..., :-1]], -1)
    admissible = ((np.abs(l[..., :-1] - r) == 1) & (np.abs(r - l[..., 1:]) == 1)).all(-1)
    base = 2 * n + 2
    code = lambda e, f, a, d: ((e * base + f) * base + a) * base + d
    codes = np.concatenate(
        [code(r, J, l[..., :-1], l[..., 1:]), code(l[..., :-1], J_even, before, r)], -1
    )
    distinct, index = np.unique(codes[admissible], return_inverse=True)
    digits = [distinct // base**p % base for p in (3, 2, 1, 0)]
    values = np.array([racah(e, f, a, 1, 1, d, point) for e, f, a, d in zip(*digits)])
    for phase in range(values.shape[-1]):
        a = np.zeros(admissible.shape, dtype=values.dtype)
        a[admissible] = values[index.reshape(-1, 2 * n - 2), phase].prod(-1)
        yield a


def test_f_moves_match_dense_racah_products():
    rng = np.random.default_rng(3)
    for n in range(2, 8):
        d = len(fusion.path_bases(n)[0])
        grid = QPoint(tuple(phase_grid(n, 10).tolist()))
        for point, tol in ((grid, 1e-14), (circle_samples((-9, 9)), 5e-17)):
            reference = list(_dense_reference(n, point))
            v = rng.standard_normal((len(reference), d)) * np.exp(1j * rng.uniform(0, 7, d))
            for transpose in (False, True):
                got = fusion.recouple(v, n, point, transpose=transpose)
                want = np.array([u @ (a.T if transpose else a) for u, a in zip(v, reference)])
                assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))
            if n <= 6:
                a = duality_matrix(n, point)
                assert np.max(np.abs(a - np.array(reference))) < tol * np.max(np.abs(a))


def test_duality_orthogonality():
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        lo, hi = admissible_arc(n)
        for _ in range(6):
            theta = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
            a = duality_matrix(n, QPoint(theta))
            assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
            assert np.isrealobj(a)


def test_duality_rejects_too_large_theta():
    lo, hi = admissible_arc(3)
    with pytest.raises(NegativeRadicand):
        duality_matrix(3, QPoint(hi + 0.05))


def test_duality_at_the_edge_of_the_arc():
    # one phase check at the triad of the largest sum decides every
    # failure: the last phase below the bound builds a finite orthogonal
    # matrix with no warning, and the bound and one ulp past it raise,
    # naming that phase
    for n in range(2, 8):
        bound = admissible_arc(n)[1]
        a = duality_matrix(n, QPoint(float(np.nextafter(bound, 0.0))))
        assert np.isfinite(a).all()
        assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
        for theta in (bound, float(np.nextafter(bound, 4.0))):
            with pytest.raises(NegativeRadicand, match=re.escape(repr(theta))):
                duality_matrix(n, QPoint(theta))


def test_q_numbers_stay_positive_just_below_each_bound():
    # |theta| < 2 pi / K is all the phase check asks of a table reaching [K]
    for K in range(2, 20):
        thetas = [2.0 * math.pi / K]
        for _ in range(64):
            thetas.append(float(np.nextafter(thetas[-1], 0.0)))
        numbers = qnum.q_table(K, QPoint(tuple(thetas[1:])))
        assert numbers[1:].min() > 0.0


def test_circle_point_at_unit_radius_matches_arc():
    # the complex path (no sign checks, a root per label) at rho = 1
    # reproduces the real unit-circle values
    for n in (2, 3, 4, 5):
        thetas = tuple(phase_grid(n, 7).tolist())
        arc, circle = QPoint(thetas), CirclePoint(thetas, 1.0)
        args = 2 * np.arange(n + 2)
        assert np.max(np.abs(q_number(args, circle) - q_number(args, arc))) < 1e-12
        got = duality_matrix(n, circle)
        assert np.iscomplexobj(got)
        assert np.max(np.abs(got - duality_matrix(n, arc))) < 1e-12


def test_duality_off_the_unit_circle_is_complex_orthogonal():
    point = CirclePoint((0.3, 1.7, 4.0), 1.05)
    for n in range(2, 7):
        a = duality_matrix(n, point)
        assert np.max(np.abs(a @ np.swapaxes(a, -1, -2) - np.eye(a.shape[-1]))) < 1e-10


def test_move_deviation_sees_a_unitary_on_the_arc():
    for n in range(2, 8):
        for point in (QPoint(0.5), QPoint(tuple(phase_grid(n, 10).tolist()))):
            assert fusion.move_deviation(n, point) < 1e-13


def test_move_deviation_sees_a_not_unitary_off_the_circle():
    # off the unit circle a is complex orthogonal but not unitary, and so
    # is at least one of its recoupling blocks
    for n in range(2, 8):
        assert fusion.move_deviation(n, CirclePoint(0.3, 1.05)) >= 1e-3


def test_duality_needs_even_basis():
    with pytest.raises(ValueError):
        duality_matrix(1, QPoint(0.5))


def _braid_blocks(n, pt):
    """Elementary braid blocks: odd generators are diagonal on odd paths,
    even generators conjugate by the duality matrix."""
    from platjones.evaluator import braiding_phase

    odd = enumerate_odd_paths(n)
    even = enumerate_even_paths(n)
    a = duality_matrix(n, pt).astype(complex)
    blocks = {}
    for i in range(1, 2 * n):
        if i % 2 == 1:
            pair = (i - 1) // 2
            d = np.diag([
                braiding_phase(p.J[pair], "parallel", "right", pt) for p in odd
            ])
            blocks[i] = d
        else:
            pair = i // 2 - 1
            d = np.diag([
                braiding_phase(p.J[pair], "parallel", "right", pt) for p in even
            ])
            blocks[i] = a @ d @ a.T
    return blocks


def test_braid_relations_in_fusion_basis():
    # adjacent generators must braid; distant ones must commute
    for n in (2, 3, 4):
        lo, hi = admissible_arc(n)
        pt = QPoint(lo + 0.4 * (hi - lo))
        blocks = _braid_blocks(n, pt)
        for i in range(1, 2 * n - 1):
            b1, b2 = blocks[i], blocks[i + 1]
            assert np.max(np.abs(b1 @ b2 @ b1 - b2 @ b1 @ b2)) < 1e-10
        for i in range(1, 2 * n):
            for j in range(i + 2, 2 * n):
                bi, bj = blocks[i], blocks[j]
                assert np.max(np.abs(bi @ bj - bj @ bi)) < 1e-10
