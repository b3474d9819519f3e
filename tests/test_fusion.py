"""Fusion paths, Racah coefficients and the duality change of basis."""

import math
import random

import numpy as np
import pytest

from platjones import fusion
from platjones.errors import NegativeRadicand, NonAdmissibleTriple
from platjones.evaluator import admissible_arc
from platjones.fusion import (
    OddPath,
    duality_matrix,
    enumerate_even_paths,
    enumerate_odd_paths,
    racah,
)
from platjones.qnum import QPoint, RealQPoint, q_number


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_path_counts_are_catalan():
    for n in range(1, 7):
        assert len(enumerate_odd_paths(n)) == catalan(n)
    for n in range(2, 7):
        assert len(enumerate_even_paths(n)) == catalan(n)
    assert enumerate_even_paths(1) == []


def test_zero_path_is_first():
    for n in (2, 3, 4):
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
    a = duality_matrix(2, pt).entries
    for i, two_j in enumerate((0, 2)):
        for k, two_l in enumerate((0, 2)):
            assert a[i, k] == pytest.approx(
                racah(two_j, two_l, 1, 1, 1, 1, pt), rel=1e-12
            )


def test_duality_matrix_classical():
    a = duality_matrix(2, RealQPoint(1.0)).entries
    want = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(a, want, atol=1e-13)


def test_duality_dimensions():
    for n, d in ((2, 2), (3, 5), (4, 14)):
        m = duality_matrix(n, QPoint(0.5))
        assert m.entries.shape == (d, d)
        assert m.dimension == d


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
    got = duality_matrix(3, QPoint(0.5)).entries
    assert np.max(np.abs(got - want)) < 1e-12


def test_duality_build_calls_racah_once_per_distinct_key(monkeypatch):
    seen = []

    def counting(*args):
        seen.append(args)
        return racah(*args)

    monkeypatch.setattr(fusion, "racah", counting)
    fusion._duality_entries.__wrapped__(6, QPoint(0.3))  # bypass the cache
    assert len(seen) == len(set(seen)) == 31


def test_duality_orthogonality():
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        lo, hi = admissible_arc(n)
        for _ in range(6):
            theta = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
            a = duality_matrix(n, QPoint(theta)).entries
            assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
            assert np.isrealobj(a)


def test_duality_rejects_too_large_theta():
    lo, hi = admissible_arc(3)
    with pytest.raises(NegativeRadicand):
        duality_matrix(3, QPoint(hi + 0.05))


def test_duality_needs_even_basis():
    with pytest.raises(ValueError):
        duality_matrix(1, QPoint(0.5))


def _braid_blocks(n, pt):
    """Elementary braid blocks: odd generators are diagonal on odd paths,
    even generators conjugate by the duality matrix."""
    from platjones.evaluator import braiding_phase

    odd = enumerate_odd_paths(n)
    even = enumerate_even_paths(n)
    a = duality_matrix(n, pt).entries.astype(complex)
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
