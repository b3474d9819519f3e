"""Exact Laurent polynomials in x = q^{1/2}, and reconstruction from samples.

Coefficients are Fractions and arithmetic never touches floating point.
Exponents are integers in x, i.e. half-integers in q; rendering converts
to q-exponents. Reconstruction solves a least-squares problem on
unit-circle samples; because the target coefficients are real, the
system is solved over the reals (stacking real and imaginary parts),
which conditions dramatically better on a short arc than the complex
normal equations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import IllConditioned, ResidualTooLarge


class LaurentPoly:
    """Immutable Laurent polynomial in x = q^{1/2} over the rationals."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                f = v if isinstance(v, Fraction) else Fraction(v)
                if f != 0:
                    c[int(k)] = f
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

    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._c)

    def coeff(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self._c.values())

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
            c[k] = c.get(k, Fraction(0)) + v
        return LaurentPoly(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({k: v * other for k, v in self._c.items()})
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                c[k] = c.get(k, Fraction(0)) + v1 * v2
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


def _design(thetas: np.ndarray, lo: int, hi: int) -> np.ndarray:
    ks = np.arange(lo, hi + 1)
    return np.exp(0.5j * np.outer(thetas, ks))


def _stacked_solve(A: np.ndarray, vals: np.ndarray):
    """Real least squares for complex samples with real unknowns."""
    As = np.vstack([A.real, A.imag])
    vs = np.concatenate([vals.real, vals.imag])
    coeffs, _, rank, sv = np.linalg.lstsq(As, vs, rcond=None)
    resid = float(np.max(np.abs(A @ coeffs - vals))) if len(vals) else 0.0
    return coeffs, rank, resid


@dataclass(frozen=True)
class FitResult:
    poly: LaurentPoly
    residual: float
    max_shift: float
    window: tuple[int, int]


def laurent_fit(
    samples: Iterable[tuple[float, complex]],
    degree_window: tuple[int, int],
    tolerance: float = 1e-6,
    max_denominator: int = 64,
) -> FitResult:
    """Fit a real-coefficient Laurent polynomial to unit-circle samples.

    Least squares over the window, then each coefficient is rounded to
    the nearest rational with denominator <= max_denominator. The fit is
    rejected if rounding shifts any coefficient by more than the
    tolerance, or if the post-rounding residual exceeds it.
    """
    pts = list(samples)
    lo, hi = int(degree_window[0]), int(degree_window[1])
    if lo > hi:
        raise ValueError("degree window is empty")
    width = hi - lo + 1
    settings = f"window [{lo}, {hi}], {len(pts)} samples"
    if len(pts) < width:
        raise IllConditioned(f"{len(pts)} samples for {width} coefficients ({settings})")
    thetas = np.array([t for t, _ in pts], dtype=float)
    vals = np.array([v for _, v in pts], dtype=complex)
    A = _design(thetas, lo, hi)
    coeffs, rank, _ = _stacked_solve(A, vals)
    if rank < width:
        raise IllConditioned(f"design matrix rank {rank} < {width} ({settings})")
    rounded = [Fraction(float(c)).limit_denominator(max_denominator) for c in coeffs]
    max_shift = max(
        (abs(float(r) - float(c)) for r, c in zip(rounded, coeffs)), default=0.0
    )
    if max_shift > tolerance:
        raise ResidualTooLarge(
            f"rounding shifted a coefficient by {max_shift:.3e} > {tolerance:.3e}"
            f" ({settings}; window too wide for reliable rounding, or no"
            " rational answer)",
            residual=max_shift,
        )
    exact = np.array([float(r) for r in rounded])
    residual = float(np.max(np.abs(A @ exact - vals))) if pts else 0.0
    if residual > tolerance:
        raise ResidualTooLarge(
            f"post-rounding residual {residual:.3e} > {tolerance:.3e} ({settings})",
            residual=residual,
        )
    poly = LaurentPoly({k: r for k, r in zip(range(lo, hi + 1), rounded)})
    return FitResult(poly=poly, residual=residual, max_shift=max_shift, window=(lo, hi))


def find_support_window(
    samples: Iterable[tuple[float, complex]],
    degree_window: tuple[int, int],
    stage_tolerance: float = 1e-7,
) -> tuple[int, int]:
    """Smallest contiguous exponent window that explains the samples.

    Scans windows [s, s+w] inside degree_window by increasing width and
    accepts the first whose relative least-squares residual is tiny.
    Conditioning depends on window width only, so trimming to the true
    support is what makes the final fit roundable.
    """
    pts = list(samples)
    lo, hi = int(degree_window[0]), int(degree_window[1])
    thetas = np.array([t for t, _ in pts], dtype=float)
    vals = np.array([v for _, v in pts], dtype=complex)
    scale = max(float(np.max(np.abs(vals))) if pts else 0.0, 1.0)
    if pts and float(np.max(np.abs(vals))) < stage_tolerance:
        return (0, 0)
    A_full = _design(thetas, lo, hi)
    for w in range(0, hi - lo + 1):
        if len(pts) < w + 1:
            break
        for s in range(lo, hi - w + 1):
            sl = A_full[:, s - lo : s - lo + w + 1]
            _, rank, resid = _stacked_solve(sl, vals)
            if rank == w + 1 and resid / scale < stage_tolerance:
                return (s, s + w)
    raise ResidualTooLarge(
        "no exponent window inside "
        f"[{lo}, {hi}] explains the {len(pts)} samples (relative residual floor "
        f"{stage_tolerance:.1e}); the window may be undersized or the "
        "normalization inconsistent"
    )
