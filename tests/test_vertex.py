import cmath
import math
import random

import numpy as np
import pytest

from platjones.qnum import QPoint
from platjones.vertex import sigma_matrix

from phase_helpers import RealPoint
from vertex_reference import (
    braid_limit_check,
    coupled_eigenvectors,
    far_commutation_residual,
    r_matrix,
    sigma_spectrum,
    x_operator,
    yang_baxter_residual,
)

UP, DOWN = 0.5, -0.5
PAIRS = ((UP, UP), (UP, DOWN), (DOWN, UP), (DOWN, DOWN))
# a matrix index of each spin pair (m1, m2): (+,+), (+,-), (-,+), (-,-)
PP, PM, MP, MM = range(4)


def test_r_matrix_entries():
    u, mu = 0.7, 1.3
    r = r_matrix(u, mu)
    assert isinstance(r, np.ndarray) and r.shape == (4, 4) and not r.flags.writeable
    assert r[PP, PP] == pytest.approx(math.sinh(mu - u))
    assert r[MM, MM] == pytest.approx(math.sinh(mu - u))
    assert r[PM, PM] == pytest.approx(-math.sinh(u))
    assert r[MP, MP] == pytest.approx(-math.sinh(u))
    # spin exchange carries the exponential asymmetry
    assert r[PM, MP] == pytest.approx(math.exp(-u) * math.sinh(mu))
    assert r[MP, PM] == pytest.approx(math.exp(u) * math.sinh(mu))
    assert r[PP, PM] == 0.0


def test_r_conserves_total_spin():
    r = r_matrix(0.4, 0.9)
    # rows/cols ordered (++, +-, -+, --): blocks off the spin sectors vanish
    for i in (0, 3):
        for j in (1, 2):
            assert r[i, j] == 0.0
            assert r[j, i] == 0.0
    assert r[0, 3] == 0.0 and r[3, 0] == 0.0


def test_yang_baxter_residuals():
    rng = random.Random(11)
    for _ in range(10):
        u = rng.uniform(-2, 2)
        v = rng.uniform(-2, 2)
        mu = rng.uniform(-2, 2)
        assert yang_baxter_residual(u, v, mu) < 1e-10
        assert far_commutation_residual(u, v, mu) < 1e-12


def test_x_operator_identity_sites():
    # X_1 on three strands must act trivially on strand 3
    x = x_operator(0.5, 1.1, 1, 3)
    local = x_operator(0.5, 1.1, 1, 2)
    assert np.allclose(x, np.kron(local, np.eye(2)))


def _x_operator_by_entries(u, mu, i, strands):
    """Test-only reference: X_i(u) as a sum of one kron per nonzero R entry."""
    R = r_matrix(u, mu)
    out = np.zeros((2 ** strands, 2 ** strands))
    eye_l = np.eye(2 ** (i - 1))
    eye_r = np.eye(2 ** (strands - i - 1))
    for mi, (m1, m2) in enumerate(PAIRS):
        for ni, (n1, n2) in enumerate(PAIRS):
            if R[mi, ni] == 0.0:
                continue
            local = np.zeros((4, 4))
            # row = ket (n2, n1) on sites (i, i+1), column = bra (m1, m2)
            local[2 * (n2 < 0) + (n1 < 0), 2 * (m1 < 0) + (m2 < 0)] = R[mi, ni]
            out += np.kron(eye_l, np.kron(local, eye_r))
    return out


def test_x_operator_equals_the_per_entry_kron_sum():
    # one kron of the swapped local R: every entry equal to the 16-term
    # sum (its zeros may carry a sign the sum's 0.0 + -0.0 drops)
    rng = random.Random(5)
    for strands in (2, 3, 4):
        for i in range(1, strands):
            for _ in range(4):
                u, mu = rng.uniform(-2, 2), rng.uniform(-2, 2)
                want = _x_operator_by_entries(u, mu, i, strands)
                assert np.array_equal(x_operator(u, mu, i, strands), want)


def test_x_operator_index_bounds():
    with pytest.raises(ValueError):
        x_operator(0.1, 1.0, 0, 3)
    with pytest.raises(ValueError):
        x_operator(0.1, 1.0, 3, 3)


def test_braid_limit_monotone():
    mu = 1.0
    devs = [braid_limit_check(u, mu) for u in (5.0, 10.0, 15.0, 20.0)]
    assert devs[-1] < 1e-6
    assert all(devs[i + 1] < devs[i] for i in range(3))


def test_sigma_entries():
    theta = 1.2
    s = sigma_matrix(QPoint(theta))
    assert isinstance(s, np.ndarray) and s.shape == (4, 4) and not s.flags.writeable
    q = cmath.exp(1j * theta)
    qh = cmath.exp(0.5j * theta)
    assert s[PP, PP] == pytest.approx(1.0)
    assert s[PM, MP] == pytest.approx(-qh)
    assert s[MP, PM] == pytest.approx(-qh)
    assert s[MP, MP] == pytest.approx(1 - q)
    assert s[PM, PM] == 0.0


def test_sigma_spectrum():
    for theta in (0.3, 1.0, 2.5, 4.4):
        q = cmath.exp(1j * theta)
        got = sigma_spectrum(QPoint(theta))
        want = sorted([1, 1, 1, -q], key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_sigma_hecke_relation():
    # (sigma - 1)(sigma + q) = 0
    theta = 0.9
    s = sigma_matrix(QPoint(theta))
    q = cmath.exp(1j * theta)
    eye = np.eye(4)
    assert np.max(np.abs((s - eye) @ (s + q * eye))) < 1e-12


def test_sigma_braid_relation_on_three_strands():
    theta = 1.7
    s = sigma_matrix(QPoint(theta))
    s1 = np.kron(s, np.eye(2))
    s2 = np.kron(np.eye(2), s)
    assert np.max(np.abs(s1 @ s2 @ s1 - s2 @ s1 @ s2)) < 1e-12


def test_coupled_eigenvectors():
    pt = RealPoint(0.37)
    v = coupled_eigenvectors(pt)
    assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-12
    s = sigma_matrix(pt).real
    lam = np.diag([1.0, 1.0, -pt.q, 1.0])
    assert np.max(np.abs(s @ v - v @ lam)) < 1e-12
    # the -q eigenvector is the q-deformed singlet
    singlet = np.array([0.0, 1.0, pt.q_half, 0.0]) / math.sqrt(1 + pt.q)
    assert np.allclose(v[:, 2], singlet)
