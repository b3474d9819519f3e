"""The braid-limit sigma matrix of the six-vertex R-matrix.

Pair indices run over (m1, m2) with m = +1/2 or -1/2, ordered
(+,+), (+,-), (-,+), (-,-). Matrix rows are the lower (m) pair and
columns the upper (n) pair. All entries with m1+m2 != n1+n2 are exactly
zero (charge conservation).
"""

from __future__ import annotations

import numpy as np


def _sigma_entries(q, q_half) -> np.ndarray:
    e = np.zeros((4, 4), dtype=complex)
    e[0, 0] = e[3, 3] = 1.0
    e[1, 2] = e[2, 1] = -q_half
    e[2, 2] = 1.0 - q
    return e


def sigma_matrix(point) -> np.ndarray:
    """Braid-limit matrix, read-only: corners 1, middle [[0, -q^{1/2}], [-q^{1/2}, 1-q]]."""
    e = _sigma_entries(point.q, point.q_half)
    e.setflags(write=False)
    return e
