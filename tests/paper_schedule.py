"""The paper's a f a† g schedule: the tests' reference for the comb moves that the program runs.

Both fusion bases number their paths by the comb labellings
(fusion._comb). A path stores at each of its pair positions i the spin
J = 0 iff m_{i-1} = m_{i+1} and m_i = |m_{i-1} - 1| (pair_couplings);
the odd basis pairs strands (2i-1, 2i), the even one (2i, 2i+1). A
compiled letter is diagonal in its run's basis (letter_phases), an
even one acting as a E a^T for the duality matrix a = C_odd C_even^T,
the F-moves at positions 3, 5, ..., 2n - 1, then 2n - 2, ..., 2
(recouple), and element reads <0|S_1 ... S_L|0> one letter at a time.
racah_entry reads the recoupling value of one 6j key off the rotations.
"""

import functools

import numpy as np

from platjones import fusion
from platjones.evaluator import _spectrum
from platjones.fusion import block_dimension, comb_move, rotations


@functools.cache
def pair_couplings(n):
    """(paths, pairs) read-only int8 arrays of the pair couplings J of the odd and the even basis, in comb order."""
    m = fusion._comb(n)[0]
    J = (m[:, :-2] != m[:, 2:]) | (m[:, 1:-1] != abs(m[:, :-2] - 1))
    couplings = tuple(np.ascontiguousarray(J[:, first::2], dtype=np.int8) for first in (0, 1))
    for array in couplings:
        array.setflags(write=False)
    return couplings


def recouple(v, n, point, transpose=False):
    """v @ a, or v @ a^T with transpose: v's rows (last axis paths, the one before it phases) through the F-moves."""
    F = np.moveaxis(rotations(n, point), (0, 1, 2), (-3, -2, -1))
    shape = np.broadcast_shapes(v.shape, F.shape[:-3] + v.shape[-1:])
    v = np.broadcast_to(v, shape).astype(np.result_type(v, F), order="C")
    positions = [*range(3, 2 * n, 2), *range(2 * n - 2, 1, -2)]
    for i in positions[::-1] if transpose else positions:
        low, high, block, _ = comb_move(n, i)
        if len(low):
            lo, hi, f = v[..., low], v[..., high], F[..., block, :, :]
            v[..., low] = lo * f[..., 0, 0] + hi * f[..., 1, 0]
            v[..., high] = lo * f[..., 0, 1] + hi * f[..., 1, 1]
    return v


def duality_matrix(n, point):
    """a: rows odd paths, columns even paths, one leading axis over the phases of a batched point."""
    if n < 2:
        raise ValueError("duality needs n >= 2 (no even basis on 2 strands)")
    d = block_dimension(n)
    identity = np.eye(d).reshape((d,) + (1,) * np.ndim(point.log_q_half) + (d,))
    return np.moveaxis(recouple(identity, n, point), 0, -2)


def letter_phases(op, point):
    """A compiled letter's diagonal sign * x^exponent, (phases, paths), its integers summed one syllable at a time."""
    couplings = pair_couplings(op.n)[op.basis != "odd"]
    sign = np.ones(len(couplings), dtype=int)
    exponent = np.zeros(len(couplings), dtype=int)
    for s in op.run:
        J = couplings[:, (s.index - 1) // 2]
        s0, s1, e0, e1 = _spectrum(s.orientation, s.power)
        sign *= np.where(J, s1, s0)
        exponent += np.where(J, e1, e0)
    return sign * np.power.outer(point.q_half, exponent)


def element(program, point):
    """<0|S_1 ... S_L|0> of a compiled program along the schedule, per phase of the point."""
    v = np.zeros((len(point.theta), block_dimension(program.n)), dtype=point.q_half.dtype)
    v[:, 0] = 1.0
    for op in program.letters:
        if op.basis == "even":
            v = recouple(v, program.n, point)
        v = v * letter_phases(op, point)
        if op.basis == "even":
            v = recouple(v, program.n, point, transpose=True)
    return v[:, 0]


def racah_entry(key, point):
    """The recoupling value of the key (e, 2J, a, 1/2, 1/2, d), doubled, per phase of the point.

    1 on a 1 x 1 block (d != a or a = 0), else the entry [a - 1, J, e > a]
    of rotations(a + 1, point), behind that table's phase check.
    """
    e, two_j, a, _, _, d = key
    if d != a or a == 0:
        return np.ones(np.shape(point.q_half))
    return rotations(a + 1, point)[-1, two_j // 2, int(e > a)]
