"""Exact Laurent arithmetic and the unit-circle fitting pipeline."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platjones.errors import IllConditioned, ResidualTooLarge
from platjones.laurent import (
    LaurentPoly,
    find_support_window,
    laurent_eval,
    laurent_fit,
    render_q,
)
from platjones.qnum import QPoint

coeffs = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), coeffs, max_size=6
).map(LaurentPoly)


def test_normalization_drops_zeros():
    p = LaurentPoly({2: 0, 3: 1})
    assert p.support() == [3]
    assert LaurentPoly({5: 0}).is_zero()
    assert LaurentPoly.zero() == LaurentPoly({})


def test_monomial_and_one():
    assert LaurentPoly.monomial(0) == LaurentPoly.one()
    assert LaurentPoly.monomial(-3, 2).coeff(-3) == 2


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(polys, polys)
@settings(max_examples=40)
def test_eval_is_ring_morphism(a, b):
    pt = QPoint(0.83)
    lhs = laurent_eval(a * b, pt)
    rhs = laurent_eval(a, pt) * laurent_eval(b, pt)
    assert abs(lhs - rhs) < 1e-9
    assert abs(laurent_eval(a + b, pt) - laurent_eval(a, pt) - laurent_eval(b, pt)) < 1e-9


@given(polys, st.integers(min_value=-5, max_value=5))
def test_shift_matches_monomial_product(a, k):
    assert a.shift(k) == a * LaurentPoly.monomial(k)


@given(polys)
def test_invert_variable_involution(a):
    assert a.invert_variable().invert_variable() == a


def test_pow():
    x = LaurentPoly.monomial(1)
    assert (x + LaurentPoly.one()) ** 2 == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert x**0 == LaurentPoly.one()


def test_fraction_coefficients():
    p = LaurentPoly({0: Fraction(1, 2)})
    assert (p + p) == LaurentPoly.one()
    assert not p.is_integral()
    assert LaurentPoly({1: 2}).is_integral()


def test_render():
    p = LaurentPoly({-8: -1, -6: 1, -2: 1})
    assert render_q(p) == "-q^-4 + q^-3 + q^-1"
    assert render_q(p, "t") == "-t^-4 + t^-3 + t^-1"
    assert render_q(LaurentPoly.zero()) == "0"
    assert render_q(LaurentPoly({-1: -1, 1: -1})) == "-q^{-1/2} - q^{1/2}"
    assert render_q(LaurentPoly({0: 3, 2: -2})) == "3 - 2*q"


def _samples(p, thetas):
    return [(t, laurent_eval(p, QPoint(t))) for t in thetas]


def test_fit_roundtrip_wide_window():
    p = LaurentPoly({-20: 3, -7: -2, 0: 1, 5: 1, 20: -4})
    thetas = [0.05 + 6.2 * j / 95 for j in range(96)]
    fit = laurent_fit(_samples(p, thetas), (-20, 20))
    assert fit.poly == p
    assert fit.residual < 1e-8
    assert fit.max_shift < 1e-8


def test_fit_recovers_fractions():
    p = LaurentPoly({-2: Fraction(1, 2), 3: Fraction(-3, 4)})
    thetas = [0.1 + 5.9 * j / 40 for j in range(41)]
    fit = laurent_fit(_samples(p, thetas), (-4, 4))
    assert fit.poly == p


def test_fit_rejects_irrational_coefficient():
    # sqrt(2) is not a /64 rational; the rounding shift must trip
    p_vals = [(t, math.sqrt(2) * cmath.exp(0.5j * t * 3)) for t in
              [0.1 + 5.9 * j / 40 for j in range(41)]]
    with pytest.raises(ResidualTooLarge):
        laurent_fit(p_vals, (-4, 4))


def test_fit_rejects_non_laurent_samples():
    vals = [(t, cmath.exp(0.3 * t) + 0j) for t in
            [0.1 + 5.9 * j / 40 for j in range(41)]]
    with pytest.raises(ResidualTooLarge):
        laurent_fit(vals, (-4, 4))


def test_fit_needs_enough_samples():
    p = LaurentPoly({0: 1, 1: 1})
    with pytest.raises(IllConditioned):
        laurent_fit(_samples(p, [0.3, 0.4]), (-4, 4))


def test_support_window_scan():
    p = LaurentPoly({2: 1, 5: -2})
    thetas = [0.1 + 6.0 * j / 63 for j in range(64)]
    window = find_support_window(_samples(p, thetas), (-10, 10))
    assert window == (2, 5)


def test_support_window_zero_signal():
    thetas = [0.1 + 6.0 * j / 63 for j in range(64)]
    samples = [(t, 0.0 + 0.0j) for t in thetas]
    assert find_support_window(samples, (-10, 10)) == (0, 0)


def test_support_window_exhausted():
    vals = [(t, cmath.exp(0.4 * t) + 0j) for t in
            [0.1 + 6.0 * j / 63 for j in range(64)]]
    with pytest.raises(ResidualTooLarge, match=r"\[-3, 3\] explains the 64 samples"):
        find_support_window(vals, (-3, 3))
