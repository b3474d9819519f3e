"""q-arithmetic: q-numbers, q-factorials and triangle coefficients.

q is always given by its phase, q = e^{i theta}, or as a positive real
in (0, 1]. Fixing the phase fixes the branch of q^{1/2} = e^{i theta/2}
once. Spin labels are passed doubled (twice the spin) so triangle
arithmetic stays integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateQ, NegativeRadicand, NonAdmissibleTriple


@dataclass(frozen=True)
class QPoint:
    """Unit-circle evaluation point q = e^{i theta}."""

    theta: float

    @property
    def q(self) -> complex:
        return cmath.exp(1j * self.theta)

    @property
    def q_half(self) -> complex:
        return cmath.exp(0.5j * self.theta)


@dataclass(frozen=True)
class RealQPoint:
    """Real evaluation point, q in (0, 1], positive roots."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError("real q must lie in (0, 1]")

    @property
    def q_half(self) -> float:
        return math.sqrt(self.q)


def q_number(two_x: int, point) -> float:
    """[x] for doubled argument two_x = 2x.

    [x] = (q^{x/2} - q^{-x/2}) / (q^{1/2} - q^{-1/2}); real for both
    supported point kinds. At unit-circle q this is
    sin(x*theta/2)/sin(theta/2).
    """
    if two_x < 0:
        raise ValueError("q_number argument must be nonnegative")
    if isinstance(point, RealQPoint):
        if point.q == 1.0:
            return two_x / 2.0
        rh = point.q_half
        x = two_x / 2.0
        return (rh ** x - rh ** (-x)) / (rh - 1.0 / rh)
    den = math.sin(point.theta / 2.0)
    if abs(den) < 1e-12:
        raise DegenerateQ(f"sin(theta/2) vanishes at theta={point.theta!r}")
    return math.sin(two_x * point.theta / 4.0) / den


def q_factorial(x: int, point) -> float:
    """[x]! = [1][2]...[x]; [0]! = 1."""
    if x < 0:
        raise ValueError("q_factorial argument must be nonnegative")
    out = 1.0
    for k in range(1, x + 1):
        out *= q_number(2 * k, point)
    return out


def is_admissible(two_a: int, two_b: int, two_c: int) -> bool:
    """Triangle rule with integral total, doubled labels."""
    return (
        abs(two_a - two_b) <= two_c <= two_a + two_b
        and (two_a + two_b + two_c) % 2 == 0
    )


def triangle(two_a: int, two_b: int, two_c: int, point) -> float:
    """Triangle coefficient Delta(a,b,c), doubled arguments.

    sqrt([-a+b+c]! [a-b+c]! [a+b-c]! / [a+b+c+1]!). The radicand must be
    strictly positive; it goes negative when theta is too large for the
    spins involved.
    """
    if not is_admissible(two_a, two_b, two_c):
        raise NonAdmissibleTriple(f"({two_a}/2, {two_b}/2, {two_c}/2)")
    if isinstance(point, QPoint):
        # rad > 0 iff every q-number [k] up to the largest factorial
        # argument K is positive, i.e. |theta| < 2 pi / K; checking the
        # bound directly avoids float noise at the q-number zeros
        largest = (two_a + two_b + two_c) // 2 + 1
        limit = 2.0 * math.pi / largest
        if abs(point.theta) >= limit:
            raise NegativeRadicand(
                f"triangle({two_a}/2,{two_b}/2,{two_c}/2) needs "
                f"|theta| < 2*pi/{largest}, got {point.theta!r}"
            )
    num = (
        q_factorial((-two_a + two_b + two_c) // 2, point)
        * q_factorial((two_a - two_b + two_c) // 2, point)
        * q_factorial((two_a + two_b - two_c) // 2, point)
    )
    den = q_factorial((two_a + two_b + two_c) // 2 + 1, point)
    if den == 0.0:
        # a q-number in the denominator vanished (theta at or past the
        # degeneracy for these spins), e.g. [2] = 0 at theta = pi
        raise NegativeRadicand(
            f"triangle({two_a}/2,{two_b}/2,{two_c}/2) denominator vanishes; "
            "theta too large"
        )
    rad = num / den
    if rad <= 0.0:
        raise NegativeRadicand(
            f"triangle({two_a}/2,{two_b}/2,{two_c}/2) radicand {rad!r}; theta too large"
        )
    return math.sqrt(rad)
