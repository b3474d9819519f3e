"""The six-vertex R-matrix and its Yang-Baxter and braid-limit checks: the acceptance tests' vertex model.

Pair indices run over (m1, m2) with m = +1/2 or -1/2, ordered
(+,+), (+,-), (-,+), (-,-), as in platjones.vertex. Matrix rows are
the lower (m) pair and columns the upper (n) pair. All entries with
m1+m2 != n1+n2 are exactly zero (charge conservation).
"""

import math

import numpy as np

from platjones.vertex import _sigma_entries, sigma_matrix

SWAP = [0, 2, 1, 3]  # pair order of (n2, n1) for each (n1, n2)


def r_matrix(u: float, mu: float) -> np.ndarray:
    """Six-vertex R-matrix at spectral parameter u and anisotropy mu, read-only."""
    e = np.zeros((4, 4))
    e[0, 0] = e[3, 3] = math.sinh(mu - u)
    e[1, 1] = e[2, 2] = -math.sinh(u)
    e[1, 2] = math.exp(-u) * math.sinh(mu)
    e[2, 1] = math.exp(u) * math.sinh(mu)
    e.setflags(write=False)
    return e


def x_operator(u: float, mu: float, i: int, strands: int) -> np.ndarray:
    """Yang-Baxter operator X_i(u) on the 2^strands spin space.

    Site i carries |n2><m1| and site i+1 carries |n1><m2|, weighted by
    the R entry for (m1 m2) -> (n1 n2): the local factor's row is the
    ket (n2, n1), its column the bra (m1, m2). Strands are 1-based.
    """
    if not 1 <= i < strands:
        raise ValueError(f"site {i} out of range for {strands} strands")
    local = r_matrix(u, mu)[:, SWAP].T
    return np.kron(np.eye(2 ** (i - 1)), np.kron(local, np.eye(2 ** (strands - i - 1))))


def yang_baxter_residual(u: float, v: float, mu: float) -> float:
    """Max-norm defect of X1(u) X2(u+v) X1(v) = X2(v) X1(u+v) X2(u)."""
    x = lambda w, i: x_operator(w, mu, i, 3)
    lhs = x(u, 1) @ x(u + v, 2) @ x(v, 1)
    rhs = x(v, 2) @ x(u + v, 1) @ x(u, 2)
    return float(np.max(np.abs(lhs - rhs)))


def far_commutation_residual(u: float, v: float, mu: float) -> float:
    """Max-norm of [X1(u), X3(v)] on four strands; disjoint supports."""
    x1 = x_operator(u, mu, 1, 4)
    x3 = x_operator(v, mu, 3, 4)
    return float(np.max(np.abs(x1 @ x3 - x3 @ x1)))


def braid_limit_check(u_large: float, mu: float) -> float:
    """Deviation of the rescaled R(u) from the sigma matrix.

    R is divided by -e^{u-mu}/2, the dominant growth of sinh(mu-u) with
    the sign fixed so corner entries tend to +1. The limit definition
    transposes one index pair; with the printed tables the match is
    column-wise, sigma[m, (n1,n2)] = lim Rscaled[m, (n2,n1)], and forces
    the branch q^{1/2} = -e^{mu} for q = e^{2mu}.
    """
    scale = -math.exp(u_large - mu) / 2.0
    scaled = r_matrix(u_large, mu) / scale
    target = _sigma_entries(math.exp(2 * mu), -math.exp(mu)).real
    return float(np.max(np.abs(scaled[:, SWAP] - target)))


def sigma_spectrum(point) -> list[complex]:
    """Eigenvalues of sigma, deterministically ordered; {1, 1, 1, -q}."""
    vals = np.linalg.eigvals(sigma_matrix(point))
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def coupled_eigenvectors(point) -> np.ndarray:
    """Orthonormal eigenbasis of sigma at a real point (phase_helpers.RealPoint), columns ordered (1, 1, -q, 1).

    Column 2 is the q-deformed singlet (0, 1, q^{1/2}, 0)/sqrt(1+q) with
    eigenvalue -q; column 1 is the orthogonal middle-block vector with
    eigenvalue 1; the corner states are untouched by sigma.
    """
    q = point.q
    rh = point.q_half
    norm = math.sqrt(1.0 + q)
    v = np.zeros((4, 4))
    v[0, 0] = 1.0
    v[1, 1] = rh / norm
    v[2, 1] = -1.0 / norm
    v[1, 2] = 1.0 / norm
    v[2, 2] = rh / norm
    v[3, 3] = 1.0
    return v
