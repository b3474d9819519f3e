"""q-arithmetic: q-numbers, evaluation points and the arc's phase bound.

A point fixes x = q^{1/2}. On the unit circle q = e^{i theta} and
x = e^{i theta/2}, which fixes the branch of q^{1/2} once; there every
value here is real. A circle point puts x = rho e^{i theta/2} off the
unit circle, where the values are complex; a real point takes q in
(0, 1] and x = sqrt(q). A point may carry a tuple of phases: every
function here then returns one value per phase, computed as numpy
arrays, and a range check fails if it fails at any phase, naming the
first such theta. The q-numbers [k] for k = 0..K form one table
(q_table): fusion reads every recoupling value of a point from one.
Spin labels are passed doubled (twice the spin) so triad arithmetic
stays integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQ, NegativeRadicand


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
    # a real point's den vanishes only at q = 1, returned above; near it the ratio is accurate
    if small.any() and not isinstance(point, RealQPoint):
        raise DegenerateQ(
            f"sin(theta/2) vanishes at theta={first_at(point.thetas, small)!r}"
        )
    value = np.sinh(np.multiply.outer(two_x / 2.0, log_x)) / den
    return value if isinstance(point, CirclePoint) else value.real


def q_table(kmax: int, point) -> np.ndarray:
    """[k] for k = 0..kmax, one row per k, from one q_number call.

    Each row depends only on k and the point, so a longer table holds a
    shorter one as its prefix, bit for bit: one table reaching the
    largest index of a batch gives the same values as a table per item.
    """
    return q_number(2 * np.arange(kmax + 1), point)


def is_admissible(two_a, two_b, two_c):
    """Triangle rule with integral total, doubled labels; elementwise on arrays."""
    return (
        (abs(two_a - two_b) <= two_c)
        & (two_c <= two_a + two_b)
        & ((two_a + two_b + two_c) % 2 == 0)
    )


def check_arc(two_a: int, two_b: int, two_c: int, point) -> None:
    """On the unit circle, the phase bound of the triad (a, b, c), doubled arguments.

    Every q-number [k] up to K = (a+b+c)/2 + 1 is positive iff
    |theta| < 2 pi / K, so a batch of recoupling values reading no [k]
    past the K of its largest triad is checked once, by the bound rather
    than by the sign of values near their zeros. Other points have no
    bound.
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
