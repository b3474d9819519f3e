"""q-arithmetic: q-numbers, evaluation points and the arc's phase bound.

A point fixes x = q^{1/2}. On the unit circle q = e^{i theta} and
x = e^{i theta/2}, which fixes the branch of q^{1/2} once; there every
value here is real. A circle point puts x = rho e^{i theta/2} off the
unit circle, where the values are complex. A point may carry a tuple
of phases: every function here then returns one value per phase,
computed as numpy arrays, and a range check fails if it fails at any
phase, naming the first such theta. The q-numbers [k] for k = 0..K
form one table (q_table): fusion reads every recoupling value of a
point from one.
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
    none is checked for sign; all of them are complex long doubles. The
    read-out's round-off grows with the crossings: on the seeded words
    with n = 3..6 at rho = 1.05, float64 reads 5 of 12 at 80 crossings
    and 2 of 12 at 100, where long double reads 12 and 5; at 60 the
    worst rounding shift is 5.9e-8 in float64 and 1.2e-10 in long double.
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
    log_x = point.log_q_half
    den = np.sinh(log_x)
    small = np.abs(den) < 1e-12
    if small.any():
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


def admissible_arc(n: int) -> tuple[float, float]:
    """Open phase interval where every q-number the rotations of 2n strands read stays positive.

    They read [k] with k <= n+1, and every [k] up to K is positive iff
    |theta| < 2 pi / K, so theta must stay below 2 pi / (n+1).
    """
    return (0.0, 2.0 * math.pi / (n + 1))


def check_arc(n: int, point) -> None:
    """On the unit circle, NegativeRadicand unless every phase lies inside admissible_arc(n) in modulus.

    The bound is that of the largest triad the rotations read,
    ((n-1)/2, 1/2, n/2), so one check covers the whole table, by the
    bound rather than by the sign of values near their zeros. Other
    points have no bound.
    """
    if type(point) is not QPoint:
        return
    size = np.abs(point.thetas)
    limit = admissible_arc(n)[1]
    if size.max() >= limit:
        raise NegativeRadicand(
            f"triangle({n - 1}/2,1/2,{n}/2) needs |theta| < 2*pi/{n + 1}, "
            f"got {first_at(point.thetas, size >= limit)!r}"
        )
