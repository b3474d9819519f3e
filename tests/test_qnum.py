import math

import pytest

from platjones.errors import DegenerateQ
from platjones.qnum import QPoint, RealQPoint, is_admissible, q_number


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


def test_q_number_classical_limit():
    # q = 1 must give the plain dimension count x
    pt = RealQPoint(1.0)
    for two_x in range(0, 12):
        assert q_number(two_x, pt) == two_x / 2.0


def test_q_number_real_point_matches_formula():
    pt = RealQPoint(0.3)
    rh = math.sqrt(0.3)
    got = q_number(4, pt)
    assert got == pytest.approx((rh**2 - rh**-2) / (rh - 1 / rh))


def test_q_number_rejects_negative_argument():
    with pytest.raises(ValueError):
        q_number(-2, QPoint(0.5))


def test_degenerate_theta():
    with pytest.raises(DegenerateQ):
        q_number(2, QPoint(0.0))
    with pytest.raises(DegenerateQ):
        q_number(2, QPoint(2.0 * math.pi))


def test_real_point_domain():
    with pytest.raises(ValueError):
        RealQPoint(0.0)
    with pytest.raises(ValueError):
        RealQPoint(1.5)
    assert RealQPoint(1.0).q_half == 1.0


def test_admissibility():
    assert is_admissible(1, 1, 2)
    assert is_admissible(1, 1, 0)
    assert not is_admissible(1, 1, 1)  # half-integer total
    assert not is_admissible(1, 1, 4)  # triangle violated
    assert is_admissible(2, 2, 2)
