"""Exact Laurent polynomials in x = q^{1/2}, and their read-out from samples.

Coefficients are Python ints and arithmetic never touches floating
point. Exponents are integers in x, i.e. half-integers in q; rendering
converts to q-exponents. A polynomial with integer coefficients is read
off its values at M equispaced points of the circle |x| = RHO just
outside the unit circle: an inverse DFT of the samples, written out as
one product with a table of the M-th roots of unity, is the Cauchy
integral for the coefficients (Bornemann, Found. Comput. Math. 11,
2011), which are then rounded. M is fixed by the exponent window: its
width plus a guard band of GUARD exponents on each side.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping

import numpy as np

from .errors import ResidualTooLarge
from .qnum import CirclePoint

RHO = 1.05  # |x| of the sampling circle
GUARD = 8  # exponents read past each end of the window, to catch aliasing
DFT_CHUNK = 64  # outputs of inverse_dft per product
# M past which no read-out can pass: round-off grows as RHO^{M/2} (a shift of 0.49 by
# M = 817 on g2^p words); below it RHO^{-k} stays far inside float range at every k read
MAX_SAMPLES = 1 << 12


class LaurentPoly:
    """Immutable Laurent polynomial in x = q^{1/2} over the integers."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                try:
                    v = operator.index(v)
                except TypeError:
                    raise ValueError(
                        f"coefficient {v!r} of x^{k} is not an integer"
                    ) from None
                if v:
                    c[int(k)] = v
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return LaurentPoly(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({k: v * other for k, v in self._c.items()})
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                c[k] = c.get(k, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def invert_variable(self) -> "LaurentPoly":
        """Substitute x -> x^{-1} (equivalently q -> q^{-1})."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def __str__(self) -> str:
        return render_q(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"


def render_q(p: LaurentPoly, symbol: str = "q") -> str:
    """Canonical text form, ascending exponents in the symbol.

    Exponents are powers of symbol^{1/2}: even ones print as integer
    powers, odd ones as symbol^{k/2}.
    """
    if p.is_zero():
        return "0"
    parts = []
    for k in p.support():
        v = p.coeff(k)
        mag = abs(v)
        if k == 0:
            body = str(mag)
        else:
            if k % 2 == 0:
                e = k // 2
                power = symbol if e == 1 else f"{symbol}^{e}"
            else:
                power = f"{symbol}^{{{k}/2}}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


def laurent_eval(p: LaurentPoly, point) -> complex:
    """Evaluate at the point's q^{1/2}: sum of c_k (q^{1/2})^k, per phase."""
    xh = point.q_half
    return sum(complex(p.coeff(k)) * xh ** k for k in p.support())


def _sample_count(window: tuple[int, int]) -> int:
    """M for a window: its width plus GUARD exponents past each end.

    A larger M only widens the guard band, where c_k = RHO^{-k} b_k
    multiplies the round-off of b by up to RHO^{M/2}; past MAX_SAMPLES, ResidualTooLarge.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"degree window [{lo}, {hi}] is empty")
    m = hi - lo + 1 + 2 * GUARD
    if m > MAX_SAMPLES:
        raise ResidualTooLarge(f"window [{lo}, {hi}] needs M {m} > {MAX_SAMPLES} samples (rho {RHO})")
    return m


def circle_samples(window: tuple[int, int]) -> CirclePoint:
    """x_j = RHO e^{2 pi i j/M} for j = 0..M//2, the upper half of M points.

    M = _sample_count(window). A polynomial with real coefficients takes
    conjugate values at conjugate points, so these determine all M
    samples.
    """
    m = _sample_count(window)
    return CirclePoint(tuple((4.0 * math.pi / m * np.arange(m // 2 + 1)).tolist()), RHO)


def inverse_dft(values: np.ndarray, m: int, ts: np.ndarray) -> np.ndarray:
    """b_t = Re sum_j w_j conj(v_j) e^{2 pi i jt/M} / M over values v_j, j = 0..M//2.

    As in an inverse real FFT, w_j = 1 at j = 0 and M/2 and 2 between. A
    product with the M roots of unity, a table in the values' precision
    gathered at (j t) mod M, for DFT_CHUNK outputs t at a time, so memory
    stays O(M) and each b_t sums over j as in one whole product.
    """
    j = np.arange(len(values))
    weighted = np.where((j == 0) | (2 * j == m), 1, 2) * np.conj(values)
    pi = np.arccos(np.asarray(-1, dtype=np.real(values).dtype))
    roots = np.exp(2j * pi / m * np.arange(m))
    # a last chunk of one output would take another BLAS path than one product
    edges = [*range(0, max(len(ts) - 1, 1), DFT_CHUNK), len(ts)]
    parts = [(weighted @ roots[np.outer(j, ts[a:b]) % m]).real for a, b in zip(edges, edges[1:])]
    return np.concatenate(parts) / m


def read_coefficients(
    values: np.ndarray, window: tuple[int, int], tolerance: float
) -> tuple[LaurentPoly, float]:
    """Integer Laurent coefficients from values at circle_samples(window).

    c_k = RHO^{-k} b_{k mod M} with b the inverse DFT of all M samples
    (inverse_dft), read for the window and GUARD exponents past each
    end (the guard band). The coefficients are rounded to integers.
    Rejects with ResidualTooLarge when rounding moves one by more than
    the tolerance, or when a guard coefficient rounds to nonzero (the
    support leaves the window; coefficients past the M read ones would
    alias silently). Returns the polynomial and the largest rounding
    shift.
    """
    lo, hi = window
    m = _sample_count(window)
    ks = np.arange(m) + lo - GUARD
    coeffs = inverse_dft(values, m, ks) * RHO ** -ks.astype(float)
    rounded = np.rint(coeffs)
    shift = float(np.max(np.abs(coeffs - rounded)))
    settings = f"rho {RHO}, M {m}, window [{lo}, {hi}]"
    if shift > tolerance:
        raise ResidualTooLarge(
            f"rounding shifted a coefficient by {shift:.3e} > {tolerance:.3e}"
            f" ({settings})"
        )
    guard = np.flatnonzero(((ks < lo) | (ks > hi)) & (rounded != 0))
    if guard.size:
        worst = guard[np.argmax(np.abs(coeffs[guard]))]
        raise ResidualTooLarge(
            f"guard coefficient {coeffs[worst]:.3e} at x^{ks[worst]} is nonzero "
            f"({settings}); the support leaves the window"
        )
    poly = LaurentPoly({int(k): int(c) for k, c in zip(ks, rounded) if c})
    return poly, shift
