import math

import numpy as np
import pytest

from platjones.errors import DegenerateQ
from platjones.qnum import QPoint, q_number

from paper_schedule import duality_matrix
from phase_helpers import RealPoint


def test_q_number_basics():
    pt = QPoint(0.7)
    assert q_number(2, pt) == pytest.approx(1.0)
    assert q_number(4, pt) == pytest.approx(2.0 * math.cos(0.35))
    assert q_number(0, pt) == pytest.approx(0.0)


def test_q_number_sine_ratio():
    theta = 1.1
    pt = QPoint(theta)
    for two_x in range(0, 9):
        want = math.sin(two_x * theta / 4.0) / math.sin(theta / 2.0)
        assert q_number(two_x, pt) == pytest.approx(want, abs=1e-14)


def test_q_number_real_point_matches_formula():
    pt = RealPoint(0.3)
    rh = math.sqrt(0.3)
    got = q_number(4, pt)
    assert got == pytest.approx((rh**2 - rh**-2) / (rh - 1 / rh))


def test_q_number_near_real_one_is_the_sinh_ratio():
    # sinh(L) is small there, above the degenerate bound 1e-12, and the
    # ratio keeps its digits: the classical dimensions x and the classical
    # duality matrix
    got = q_number([4, 3, 2], RealPoint(1 - 1e-10))
    assert got.tolist() == pytest.approx([2.0, 1.5, 1.0], abs=1e-12)
    near = duality_matrix(2, RealPoint(1 - 1e-10))
    classical = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(near, classical, rtol=0, atol=1e-12)


def test_q_number_rejects_negative_argument():
    with pytest.raises(ValueError):
        q_number(-2, QPoint(0.5))


def test_degenerate_theta():
    with pytest.raises(DegenerateQ):
        q_number(2, QPoint(0.0))
    with pytest.raises(DegenerateQ):
        q_number(2, QPoint(2.0 * math.pi))
