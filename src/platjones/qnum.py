"""q-arithmetic: q-numbers, q-factorials and triangle coefficients.

A point fixes x = q^{1/2}. On the unit circle q = e^{i theta} and
x = e^{i theta/2}, which fixes the branch of q^{1/2} once; there every
value here is real. A circle point puts x = rho e^{i theta/2} off the
unit circle, where the values are complex; a real point takes q in
(0, 1] and x = sqrt(q). A point may carry a tuple of phases: every
function here then returns one value per phase, computed as numpy
arrays, and a range check fails if it fails at any phase, naming the
first such theta. The q-numbers [k] and q-factorials [k]! for k = 0..K
form one table (q_table); a caller that needs many triangles at one
point builds it once and passes it to each. Spin labels are passed
doubled (twice the spin) so triangle arithmetic stays integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQ, NegativeRadicand, NonAdmissibleTriple


@dataclass(frozen=True)
class QPoint:
    """Unit-circle evaluation point q = e^{i theta}.

    theta is one phase or a tuple of phases (a batch); a tuple keeps the
    point hashable, so caches can key on it.
    """

    theta: float | tuple[float, ...]

    @property
    def thetas(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)

    @property
    def log_q_half(self):
        return 0.5j * self.thetas

    @property
    def q(self):
        return np.exp(1j * self.thetas)

    @property
    def q_half(self):
        return np.exp(0.5j * self.thetas)


@dataclass(frozen=True)
class CirclePoint(QPoint):
    """A QPoint's phases moved off the unit circle: x = q^{1/2} = rho e^{i theta/2}.

    Off the unit circle no q-number vanishes, so every value exists and
    none is checked for sign; all of them are complex long doubles. Near
    q = -1 the duality entries grow like a power of 1/(rho - 1) that
    rises with n, and the plat element cancels most of their digits: in
    float64 a 12-strand, 10-crossing word missed its integers by 4e-6,
    and the extra digits of long double make that 3e-10.
    """

    rho: float

    @property
    def log_q_half(self):
        long_theta = np.asarray(self.theta, dtype=np.longdouble)
        return np.log(np.longdouble(self.rho)) + 0.5j * long_theta

    @property
    def q(self):
        return np.exp(2 * self.log_q_half)

    @property
    def q_half(self):
        return np.exp(self.log_q_half)


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

    @property
    def log_q_half(self) -> float:
        return 0.5 * math.log(self.q)


def first_at(values, bad) -> float:
    """The first of values (one per phase) at which the boolean array bad holds."""
    return float(np.broadcast_to(values, np.shape(bad))[bad][0])


def q_number(two_x, point):
    """[x] for doubled argument two_x = 2x, one value per phase.

    [x] = (X^x - X^{-x}) / (X - X^{-1}) with X = q^{1/2}, computed as
    sinh(x L) / sinh(L) from L = log X; at unit-circle q this is
    sin(x*theta/2)/sin(theta/2). An array of arguments gives one row
    per argument.
    """
    two_x = np.asarray(two_x, dtype=float)
    if two_x.min() < 0:
        raise ValueError("q_number argument must be nonnegative")
    if isinstance(point, RealQPoint) and point.q == 1.0:
        return two_x / 2.0  # classical limit
    log_x = point.log_q_half
    den = np.sinh(log_x)
    small = np.abs(den) < 1e-12
    if small.any():
        raise DegenerateQ(
            f"sin(theta/2) vanishes at theta={first_at(point.thetas, small)!r}"
        )
    value = np.sinh(np.multiply.outer(two_x / 2.0, log_x)) / den
    return value if isinstance(point, CirclePoint) else value.real


def q_table(kmax: int, point) -> tuple[np.ndarray, np.ndarray]:
    """([k], [k]!) for k = 0..kmax, one row per k, from one q_number call.

    [k]! is the running product of [1]..[k]. Each row depends only on k
    and the point, so a longer table holds a shorter one as its prefix.
    """
    numbers = q_number(2 * np.arange(kmax + 1), point)
    fact = numbers.copy()
    fact[0] = 1.0
    return numbers, np.cumprod(fact, axis=0)


def q_factorial(x: int, point):
    """[x]! = [1][2]...[x]; [0]! = 1."""
    if x < 0:
        raise ValueError("q_factorial argument must be nonnegative")
    return q_table(x, point)[1][x]


def is_admissible(two_a: int, two_b: int, two_c: int) -> bool:
    """Triangle rule with integral total, doubled labels."""
    return (
        abs(two_a - two_b) <= two_c <= two_a + two_b
        and (two_a + two_b + two_c) % 2 == 0
    )


def check_arc(two_a: int, two_b: int, two_c: int, point) -> None:
    """On the unit circle, the phase bound of Delta(a,b,c), doubled arguments.

    There its radicand is positive iff every [k] up to the largest
    factorial argument K = a+b+c+1 is, i.e. |theta| < 2 pi / K; checking
    the bound avoids float noise at the q-number zeros. Other points
    have no bound.
    """
    if type(point) is not QPoint:
        return
    largest = (two_a + two_b + two_c) // 2 + 1
    size = np.abs(point.thetas)
    limit = 2.0 * math.pi / largest
    if size.max() >= limit:
        raise NegativeRadicand(
            f"triangle({two_a}/2,{two_b}/2,{two_c}/2) needs |theta| < 2*pi/{largest}, "
            f"got {first_at(point.thetas, size >= limit)!r}"
        )


def triangle(two_a: int, two_b: int, two_c: int, point, table=None):
    """Triangle coefficient Delta(a,b,c), doubled arguments.

    sqrt([-a+b+c]! [a-b+c]! [a+b-c]! / [a+b+c+1]!), with the factorials
    read from table, a q_table of the point reaching a+b+c+1; without
    one it builds its own. On the unit circle the radicand must be
    strictly positive; it goes negative when theta is too large for the
    spins involved. At a circle point it is complex and this takes the
    principal root: every triangle gets a root of its own, so the
    branch cancels from the plat element.
    """
    if not is_admissible(two_a, two_b, two_c):
        raise NonAdmissibleTriple(f"({two_a}/2, {two_b}/2, {two_c}/2)")
    check_arc(two_a, two_b, two_c, point)
    name = f"triangle({two_a}/2,{two_b}/2,{two_c}/2)"
    largest = (two_a + two_b + two_c) // 2 + 1
    fact = (q_table(largest, point) if table is None else table)[1]
    num = (
        fact[(-two_a + two_b + two_c) // 2]
        * fact[(two_a - two_b + two_c) // 2]
        * fact[(two_a + two_b - two_c) // 2]
    )
    den = fact[largest]
    if np.abs(den).min() == 0.0:
        # a q-number in the denominator vanished (theta at or past the
        # degeneracy for these spins), e.g. [2] = 0 at theta = pi
        raise NegativeRadicand(
            f"{name} denominator vanishes at "
            f"theta={first_at(point.thetas, den == 0.0)!r}; theta too large"
        )
    rad = num / den
    if np.isrealobj(rad) and rad.min() <= 0.0:
        bad = rad <= 0.0
        raise NegativeRadicand(
            f"{name} radicand {first_at(rad, bad)!r} at "
            f"theta={first_at(point.thetas, bad)!r}; theta too large"
        )
    return np.sqrt(rad)
