"""Exact Laurent arithmetic and the read-out of coefficients from circle samples."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platjones import laurent
from platjones.errors import ResidualTooLarge
from platjones.laurent import (
    GUARD,
    RHO,
    LaurentPoly,
    circle_samples,
    inverse_dft,
    laurent_eval,
    read_coefficients,
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
@settings(max_examples=60, derandomize=True)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(polys, polys)
@settings(max_examples=40, derandomize=True)
def test_eval_is_ring_morphism(a, b):
    pt = QPoint(0.83)
    lhs = laurent_eval(a * b, pt)
    rhs = laurent_eval(a, pt) * laurent_eval(b, pt)
    assert abs(lhs - rhs) < 1e-9
    assert abs(laurent_eval(a + b, pt) - laurent_eval(a, pt) - laurent_eval(b, pt)) < 1e-9


@given(polys, st.integers(min_value=-5, max_value=5))
@settings(derandomize=True)
def test_shift_matches_monomial_product(a, k):
    assert a.shift(k) == a * LaurentPoly.monomial(k)


@given(polys)
@settings(derandomize=True)
def test_invert_variable_involution(a):
    assert a.invert_variable().invert_variable() == a


def test_pow():
    x = LaurentPoly.monomial(1)
    assert (x + LaurentPoly.one()) ** 2 == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert x**0 == LaurentPoly.one()


def test_fraction_coefficients():
    # coefficients are integers: a fraction or a float is rejected
    for bad in (Fraction(1, 2), 0.5, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPoly({0: bad})
    p = LaurentPoly({1: np.int64(2), 2: -1})
    assert p.coeffs() == {1: 2, 2: -1}
    assert all(type(v) is int for v in p.coeffs().values())


def test_render():
    p = LaurentPoly({-8: -1, -6: 1, -2: 1})
    assert render_q(p) == "-q^-4 + q^-3 + q^-1"
    assert render_q(p, "t") == "-t^-4 + t^-3 + t^-1"
    assert render_q(LaurentPoly.zero()) == "0"
    assert render_q(LaurentPoly({-1: -1, 1: -1})) == "-q^{-1/2} - q^{1/2}"
    assert render_q(LaurentPoly({0: 3, 2: -2})) == "3 - 2*q"


def _read(values_of, window, tolerance=1e-6):
    """read_coefficients on values_of(x) at x = circle_samples(window), or
    on the values of a LaurentPoly there."""
    point = circle_samples(window)
    if isinstance(values_of, LaurentPoly):
        values = laurent_eval(values_of, point)
    else:
        values = values_of(point.q_half)
    return read_coefficients(values, window, tolerance)


def test_circle_samples_are_the_upper_half_circle():
    # the window [-3, 4] is 8 wide, so M = 8 + 2 GUARD = 24
    x = circle_samples((-3, 4)).q_half
    assert len(x) == 13
    assert np.allclose(np.abs(x), RHO, rtol=1e-15)
    assert np.allclose(x, RHO * np.exp(2j * math.pi * np.arange(13) / 24))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_inverse_dft_matches_irfft(dtype):
    # the direct sum against numpy's inverse real FFT, for odd and even M
    # and for t below 0 and past M; round-off stays under M eps of the
    # largest output, in the samples' own precision
    rng = np.random.default_rng(0)
    eps = np.finfo(np.real(np.zeros(1, dtype)).dtype).eps
    for m in [*range(17, 250, 3), 250]:
        half = rng.standard_normal((2, m // 2 + 1))
        values = (half[0] + 1j * half[1]).astype(dtype)
        want = np.fft.irfft(np.conj(values), n=m)
        ts = np.arange(-m, 2 * m)
        got = inverse_dft(values, m, ts)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want[ts % m])) <= m * eps * np.max(np.abs(want)), m


def test_inverse_dft_memory_is_linear_in_m():
    # the product runs over chunks of outputs: no M x M table at M = 1619
    m = 1619
    half = np.random.default_rng(1).standard_normal((2, m // 2 + 1))
    values = half[0] + 1j * half[1]
    tracemalloc.start()
    try:
        inverse_dft(values, m, np.arange(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


ONE_PRODUCT = """
import numpy as np
from platjones.laurent import inverse_dft

def one_product(values, m, ts):
    j = np.arange(len(values))
    weights = np.where((j == 0) | (2 * j == m), 1, 2)
    pi = np.arccos(np.asarray(-1, dtype=np.real(values).dtype))
    roots = np.exp(2j * pi / m * np.arange(m))
    return ((weights * np.conj(values)) @ roots[np.outer(j, ts) % m]).real / m

rng = np.random.default_rng(2)
for dtype in (np.complex128, np.clongdouble):
    for m in (41, 65, 127, 128, 129, 257, 1619):
        half = rng.standard_normal((2, m // 2 + 1))
        values = (half[0] + 1j * half[1]).astype(dtype)
        ts = np.arange(m) - m // 3
        assert np.array_equal(inverse_dft(values, m, ts), one_product(values, m, ts)), (dtype, m)
"""


def test_inverse_dft_chunks_equal_one_product():
    # bit for bit, with one BLAS thread: a threaded BLAS splits the sums
    # of a product that wide, and so of the one product, its own way
    src = str(Path(laurent.__file__).resolve().parent.parent)
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run([sys.executable, "-B", "-c", textwrap.dedent(ONE_PRODUCT)],
                          env={**os.environ, **threads, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_fit_roundtrip_wide_window():
    # odd and even M: 41 + 16 = 57, 42 + 16 = 58 and 81 + 16 = 97
    p = LaurentPoly({-20: 3, -7: -2, 0: 1, 5: 1, 20: -4})
    for window in ((-20, 20), (-20, 21), (-40, 40)):
        got, shift = _read(p, window)
        assert got == p
        assert shift < 1e-12


def test_fit_rejects_irrational_coefficient():
    # sqrt(2) x^3 has no integer coefficient; the rounding shift must trip
    with pytest.raises(ResidualTooLarge, match=r"rounding shifted a coefficient by 4\.142e-01"):
        _read(lambda x: math.sqrt(2) * x**3, (-4, 4))


def test_fit_rejects_non_laurent_samples():
    # e^x has coefficients 1/k! at every k >= 0
    with pytest.raises(ResidualTooLarge, match="rounding shifted"):
        _read(np.exp, (-4, 4))


def test_fit_needs_enough_samples():
    # M is the window width plus the guard band, and that is enough
    p = LaurentPoly({0: 1, 1: 1})
    assert len(circle_samples((-4, 4)).theta) == (9 + 2 * GUARD) // 2 + 1
    assert _read(p, (-4, 4))[0] == p
    with pytest.raises(ValueError, match="empty"):
        circle_samples((4, -4))
    with pytest.raises(ValueError, match="empty"):
        read_coefficients(np.zeros(9), (4, -4), 1e-6)


def test_support_window_scan():
    # a narrow support inside a wide window: every other coefficient,
    # guard band included, reads as zero to round-off
    p = LaurentPoly({2: 1, 5: -2})
    got, shift = _read(lambda x: x**2 - 2 * x**5, (-10, 10))
    assert got == p
    assert got.support() == [2, 5]
    assert shift < 1e-13


def test_support_window_zero_signal():
    got, shift = _read(lambda x: 0 * x, (-10, 10))
    assert got.is_zero()
    assert shift == 0.0


def test_support_window_exhausted():
    # x^6 lies in the guard band of the window [-3, 3]; the error names
    # the coefficient, rho, M = 7 + 16 and the window
    with pytest.raises(
        ResidualTooLarge,
        match=r"guard coefficient 1\.000e\+00 at x\^6 is nonzero "
        r"\(rho 1\.05, M 23, window \[-3, 3\]\)",
    ):
        _read(lambda x: x**6 + x, (-3, 3))
