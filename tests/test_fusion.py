"""Fusion paths, Racah coefficients and the duality change of basis."""

import functools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from platjones import fusion, qnum
from platjones.errors import NegativeRadicand, NonAdmissibleTriple
from platjones.evaluator import admissible_arc, phase_grid
from platjones.fusion import duality_matrix, racah
from platjones.laurent import circle_samples
from platjones.qnum import CirclePoint, QPoint, RealQPoint, q_number

from phase_helpers import braiding_phase


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _fuse_range(two_a, two_b):
    return range(abs(two_a - two_b), two_a + two_b + 1, 2)


def _recursive_odd_paths(n):
    """The odd paths (J, doubled l) by the earlier depth-first recursion, sorted as it sorted them."""
    out = []

    def rec(i, J, l):
        if i == n:
            if l[-1] == 0:
                out.append((tuple(J), tuple(l)))
            return
        for Ji in (0, 1):
            if i == 0:
                rec(1, [Ji], [2 * Ji])
            else:
                for li in _fuse_range(l[-1], 2 * Ji):
                    rec(i + 1, J + [Ji], l + [li])

    rec(0, [], [])
    return sorted(out)


def _recursive_even_paths(n):
    """The even paths (J, doubled r) by the earlier depth-first recursion; empty for n = 1."""
    out = []

    def rec(i, J, inter):
        if i == n - 1:
            if inter[-1] == 1:
                out.append((tuple(J), tuple(inter)))
            return
        cur = inter[-1] if inter else 1
        for Ji in (0, 1):
            for ri in _fuse_range(cur, 2 * Ji):
                rec(i + 1, J + [Ji], inter + [ri])

    if n > 1:
        rec(0, [], [])
    return sorted(out)


def _recursive_arrays(n):
    """(J, doubled labels) int arrays, (paths, pairs) each, of the recursive odd paths, then of the even ones."""
    return tuple(
        tuple(np.array([path[k] for path in paths], dtype=int).reshape(len(paths), -1) for k in (0, 1))
        for paths in (_recursive_odd_paths(n), _recursive_even_paths(n))
    )


def _comb_paths(n):
    """Each basis's (J, doubled labels) per comb labelling, in comb order; no even paths at n = 1.

    The odd basis keeps the labels m_2, m_4, ..., m_2n, the even one m_3, m_5, ..., m_{2n-1}.
    """
    m = fusion._comb(n)[0].tolist()
    odd, even = (J.tolist() for J in fusion.pair_couplings(n))
    return (
        [(tuple(J), tuple(labels[2::2])) for J, labels in zip(odd, m)],
        [(tuple(J), tuple(labels[3:-1:2])) for J, labels in zip(even, m)] if n > 1 else [],
    )


@functools.cache
def _comb_index(n):
    """Test-only: the comb index of each recursive odd path, then of each even one, by their labels.

    A path fixes every other label; at each coupling J between labels a
    and d it reaches m = (a + d) / 2 if a != d, else a - 1 + 2J (1 at a = 0).
    """
    rows = {tuple(m): p for p, m in enumerate(fusion._comb(n)[0].tolist())}

    def reach(J, m):
        for i, j in zip(range(m.index(None), 2 * n, 2), J):
            a, d = m[i - 1], m[i + 1]
            m[i] = (a + d) // 2 if a != d else abs(a - 1 + 2 * j)
        return rows[tuple(m)]

    odd = [reach(J, [0, *(x for label in l for x in (None, label))]) for J, l in _recursive_odd_paths(n)]
    even = [reach(J, [0, 1, *(x for label in r for x in (None, label)), 0]) for J, r in _recursive_even_paths(n)]
    return np.array(odd, dtype=np.intp), np.array(even, dtype=np.intp)


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_builder_equals_the_recursive_enumeration(n):
    # every path of either basis sits at the comb labelling it reaches:
    # the comb's (J, labels) rows, sorted, are the recursion's paths
    for got, want in zip(_comb_paths(n), (_recursive_odd_paths(n), _recursive_even_paths(n))):
        assert sorted(got) == want


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_couplings_are_the_paths_couplings(n):
    # the (paths, pairs) arrays that letters gathers from: each recursive
    # path's couplings at its own comb index, and every index taken once
    want = [_recursive_odd_paths(n), _recursive_even_paths(n)]
    for got, paths, index in zip(fusion.pair_couplings(n), want, _comb_index(n)):
        assert got.dtype == np.int8 and not got.flags.writeable
        assert sorted(index.tolist()) == list(range(len(paths)))
        assert got[index].tolist() == [list(J) for J, _ in paths]


@functools.cache
def _dict_move_plan(n):
    """Test-only move plan by the earlier builder: tuple states numbered in dicts, one at a time.

    Each move sweeps the states of one side in order, and numbers its
    targets and racah keys by first appearance; the last odd move
    renumbers its targets in the even side's comb order.
    """
    odd, even = _recursive_odd_paths(n), _recursive_even_paths(n)
    keys = {}
    number = lambda table, item: table.setdefault(item, len(table))

    def sweep(states):
        moves = []
        for k in range(n - 1):
            index, entries = {}, []
            for source, (fixed, labels) in enumerate(states):
                a, d = fixed[k], fixed[k + 1]
                for e in _fuse_range(a, 1):
                    if not qnum.is_admissible(e, 1, d):
                        continue
                    target = (fixed, labels[:k] + (e,) + labels[k + 1 :])
                    key = (e, labels[k], a, 1, 1, d)
                    entries.append((source, number(index, target), number(keys, key)))
            states = list(index)
            moves.append(entries)
        return states, moves

    doubled = lambda labels: tuple(2 * x for x in labels)
    odd_combs, odd_moves = sweep([(l, doubled(J[1:])) for J, l in odd])
    even_combs, even_moves = sweep([((1,) + r, doubled(J)) for J, r in even])
    comb = {(l, r[1:]): i for i, (r, l) in enumerate(even_combs)}
    order = [comb[l[:-1], r] for l, r in odd_combs]
    odd_moves[-1] = [(s, order[t], k) for s, t, k in odd_moves[-1]]

    def step(entries, transpose):
        first, second = {}, []
        for source, target, key in entries:
            col, other = (source, target) if transpose else (target, source)
            if col in first:
                second.append((col, other, key))
            else:
                first[col] = (other, key)
        first = np.array([first[col] for col in range(len(odd))], dtype=np.intp).T
        return tuple(first), tuple(np.array(second, dtype=np.intp).reshape(-1, 3).T)

    forward = [step(m, False) for m in odd_moves] + [step(m, True) for m in even_moves[::-1]]
    backward = [step(m, False) for m in even_moves] + [step(m, True) for m in odd_moves[::-1]]
    return tuple(keys), tuple(forward), tuple(backward)


def _rotation_keys(n):
    """The racah key (e, 2J, a, 1, 1, a), doubled, of each entry [a - 1, J, c] of rotations(n, point), in order."""
    return [(e, 2 * J, a, 1, 1, a) for a in range(1, n) for J in (0, 1) for e in (a - 1, a + 1)]


def _reference_recouple(v, n, point, transpose=False):
    """Test-only recouple through the dict builder's steps: a gather-multiply, then a multiply-add."""
    keys, forward, backward = _dict_move_plan(n)
    values = np.array([racah(*key, point) for key in keys]).T
    for (index, key), (rows, second, second_key) in backward if transpose else forward:
        w = v[..., index] * values[..., key]
        w[..., rows] += v[..., second] * values[..., second_key]
        v = w
    return v


@pytest.mark.parametrize("n", range(2, 10))
def test_move_plan_equals_the_dict_builder(n):
    # the in-place 2 x 2 rotations on the comb labellings give the bits,
    # dtype included, of every state the dict builder's steps write, both
    # ways, its paths taken to their comb indices, on real and complex
    # rows and on the (d, 1, d) identity that duality_matrix broadcasts
    # over the phases; the rotations are one read-only (n - 1, 2, 2) table per phase
    odd, even = _comb_index(n)
    rng = np.random.default_rng(n)
    d = fusion.block_dimension(n)
    grid = QPoint(tuple(phase_grid(n, 10).tolist()))
    for point in (grid, circle_samples((-3 * n, 3 * n)), QPoint(0.4)):
        table = fusion.rotations(n, point)
        assert table.shape[:3] == (n - 1, 2, 2) and not table.flags.writeable
        v = rng.standard_normal((2,) + table.shape[3:] + (d,))
        rows = [v, v * np.exp(1j * rng.uniform(0, 7, d))]
        if n <= 6 and point is grid:
            rows.append(np.eye(d).reshape(d, 1, d))
        for u in rows:
            for transpose in (False, True):
                source, target = (even, odd) if transpose else (odd, even)
                got = fusion.recouple(u, n, point, transpose)
                reference = _reference_recouple(u[..., source], n, point, transpose)
                want = np.empty_like(reference)
                want[..., target] = reference
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)


def _cold_tables(monkeypatch, n):
    """The comb labellings, pair_couplings and comb_move at every position of n, built cold under tracemalloc.

    Returns the couplings, the moves, and the bytes kept and at the peak.
    """
    monkeypatch.setattr(fusion, "_comb", functools.cache(fusion._comb.__wrapped__))
    tracemalloc.start()
    try:
        couplings = fusion.pair_couplings.__wrapped__(n)
        moves = [fusion.comb_move.__wrapped__(n, i) for i in range(1, 2 * n)]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return couplings, moves, kept, peak


def test_cold_move_plan_memory(monkeypatch):
    # n = 9, d = 4862: the comb labellings, the couplings and the moves
    # of every position peak near 0.5 MiB while they are built, about what
    # they keep: the step codes grow a column at a time
    *_, peak = _cold_tables(monkeypatch, 9)
    assert peak < 0.75 * 2**20


def test_bases_and_move_plan_memory_at_n11(monkeypatch):
    # n = 11, d = 58786: the comb labellings and their codes, the int8
    # couplings of both bases, and per position the int32 paths and
    # partners and the int8 blocks and J of comb_move, 6.6 MiB in all,
    # built at a peak of 6.9 MiB
    couplings, moves, kept, peak = _cold_tables(monkeypatch, 11)
    assert [array.dtype for array in couplings] == [np.int8] * 2
    assert [[array.dtype for array in move] for move in moves] == [[np.int32] * 2 + [np.int8] * 2] * 21
    assert kept < 8 * 2**20 and peak < 8 * 2**20


def test_plan_keys_reach_the_arcs_bound():
    # the phase check of rotations reads the largest triad of the keys of
    # its entries, from 2 x 2 blocks only: its K = n + 1 is admissible_arc's
    # bound, which passes the last phase below it and rejects the bound
    for n in range(2, 13):
        e, J, a, s2, s3, d = np.array(_rotation_keys(n)).T
        largest = np.stack([a + s2 + e, s3 + d + e, a + d + J, s2 + s3 + J]).max() // 2 + 1
        bound = admissible_arc(n)[1]
        assert largest == n + 1 and 2 * math.pi / largest == bound
        fusion.rotations.__wrapped__(n, QPoint(float(np.nextafter(bound, 0.0))))
        with pytest.raises(NegativeRadicand, match=re.escape(f"|theta| < 2*pi/{n + 1}, got {bound!r}")):
            fusion.rotations.__wrapped__(n, QPoint(bound))


@pytest.mark.parametrize("n", [0, -1])
def test_enumerators_reject_n_below_one(n):
    for build in (fusion._comb, fusion.pair_couplings, fusion.block_dimension):
        with pytest.raises(ValueError, match="n must be >= 1"):
            build(n)


def test_path_counts_are_catalan():
    for n in range(1, 10):
        assert len(fusion.pair_couplings(n)[0]) == catalan(n) == fusion.block_dimension(n)
    for n in range(2, 10):
        assert len(fusion.pair_couplings(n)[1]) == catalan(n)
    assert fusion.pair_couplings(1)[1].size == 0


def test_zero_path_is_first():
    # elements and qsim read index 0 as |0...0>
    for n in range(1, 10):
        assert _comb_paths(n)[0][0] == ((0,) * n, (0,) * n)


def test_odd_paths_n2():
    assert _comb_paths(2)[0] == [((0, 0), (0, 0)), ((1, 1), (2, 0))]


def test_even_paths_close_on_half():
    for n in (2, 3, 4):
        assert all(labels[-1] == 1 for _, labels in _comb_paths(n)[1])


def test_racah_anchor_value():
    # the (0,0) entry of the spin-1/2 recoupling is -1/[2]
    for theta in (0.4, 0.9, 1.5):
        pt = QPoint(theta)
        got = racah(0, 0, 1, 1, 1, 1, pt)
        assert got == pytest.approx(-1.0 / q_number(4, pt), rel=1e-12)


def test_racah_between_its_arc_and_the_tables_is_silent():
    # the key (a - 1, 0, a, 1, 1, a) reads [2], [a] and [a + 1], positive for
    # theta < 2 pi/(a + 1), while the table it is cut from roots a negative
    # [a + 2]; under the suite's filterwarnings = error a warning fails here
    assert racah(0, 0, 1, 1, 1, 1, QPoint(2.5)) == pytest.approx(-1.5856788468850516, rel=1e-14)
    for a in (2, 3, 5):
        pt = QPoint(math.pi * (1 / (a + 2) + 1 / (a + 1)))
        want = -math.sqrt(q_number(2 * a, pt) / q_number(2 * a + 2, pt)) / math.sqrt(q_number(4, pt))
        assert racah(a - 1, 0, a, 1, 1, a, pt) == pytest.approx(want, rel=1e-12)


def test_racah_rejects_bad_triads():
    with pytest.raises(NonAdmissibleTriple):
        racah(1, 0, 1, 1, 1, 1, QPoint(0.5))
    # the first bad triad of the key (e, 2J, a, s2, s3, d) is named, in the order
    # (a, 1/2, e), (1/2, d, e), (a, d, J), (1/2, 1/2, J), though the later ones fail too,
    # and before the strands' spins are checked
    named = {
        (3, 2, 0, 1, 1, 0): "(0/2, 1/2, 3/2)",
        (1, 0, 0, 1, 1, 4): "(1/2, 4/2, 1/2)",
        (2, 1, 3, 1, 1, 3): "(3/2, 3/2, 1/2)",
        (1, 4, 2, 1, 1, 2): "(1/2, 1/2, 4/2)",
        (1, 0, 0, 3, 1, 4): "(0/2, 3/2, 1/2)",
    }
    for key, triad in named.items():
        with pytest.raises(NonAdmissibleTriple, match=re.escape(triad)):
            racah(*key, QPoint(0.5))


def test_racah_rejects_strands_other_than_spin_half():
    # every triad is admissible, but s2 = 3/2 is no spin-1/2 strand
    with pytest.raises(ValueError, match="spin-1/2"):
        racah(2, 2, 1, 3, 1, 1, QPoint(0.3))


def test_racah_against_classical_6j():
    # q = 1 reduces to sqrt((2j+1)(2l+1)) * {1/2 1/2 j; 1/2 1/2 l}
    sympy = pytest.importorskip("sympy")
    from sympy import Rational, sqrt
    from sympy.physics.wigner import wigner_6j

    pt = RealQPoint(1.0)
    half = Rational(1, 2)
    for two_j in (0, 2):
        for two_l in (0, 2):
            want = sqrt((two_j + 1) * (two_l + 1)) * wigner_6j(
                half, half, Rational(two_j, 2), half, half, Rational(two_l, 2)
            )
            got = racah(two_j, two_l, 1, 1, 1, 1, pt)
            assert got == pytest.approx(float(want), abs=1e-12)


def test_duality_matrix_n2_matches_racah():
    theta = 1.1
    pt = QPoint(theta)
    a = duality_matrix(2, pt)
    for i, two_j in enumerate((0, 2)):
        for k, two_l in enumerate((0, 2)):
            assert a[i, k] == pytest.approx(
                racah(two_j, two_l, 1, 1, 1, 1, pt), rel=1e-12
            )


def test_duality_matrix_classical():
    a = duality_matrix(2, RealQPoint(1.0))
    want = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(a, want, atol=1e-13)


def test_duality_dimensions():
    for n, d in ((2, 2), (3, 5), (4, 14)):
        m = duality_matrix(n, QPoint(0.5))
        assert m.shape == (d, d)
        assert len(m) == d


def test_duality_matrix_n3_pinned():
    # the plat element is blind to a sign flip of any path basis vector,
    # so only recorded entries can see one in this public matrix
    want = np.array([
        [0.266299874183212, -0.442022907995974, -0.442022907995974,
         0.733700125816787, 0.0],
        [-0.442022907995974, -0.266299874183212, 0.733700125816787,
         0.442022907995974, 0.0],
        [-0.442022907995974, 0.733700125816787, -0.266299874183212,
         0.442022907995974, 0.0],
        [-0.442022907995974, -0.266299874183212, -0.266299874183212,
         -0.160434270955569, 0.798151205931400],
        [0.585603640212689, 0.352801117066291, 0.352801117066291,
         0.212547565718711, 0.602457178951544],
    ])
    got = duality_matrix(3, QPoint(0.5))
    assert np.max(np.abs(got - want)) < 1e-12


def _racah_reference(two_j, two_l, s1, s2, s3, s4, theta):
    """Test-only scalar racah at q = e^{i theta}, one math.sin per q-number."""

    def fact(k):
        out = 1.0
        for i in range(1, k + 1):
            out *= math.sin(i * theta / 2) / math.sin(theta / 2)
        return out

    def tri(a, b, c):
        return math.sqrt(
            fact((-a + b + c) // 2) * fact((a - b + c) // 2) * fact((a + b - c) // 2)
            / fact((a + b + c) // 2 + 1)
        )

    alphas = (s1 + s2 + two_j, s3 + s4 + two_j, s1 + s4 + two_l, s2 + s3 + two_l)
    betas = (s1 + s2 + s3 + s4, s1 + s3 + two_j + two_l, s2 + s4 + two_j + two_l)
    total = 0.0
    for m in range(max(alphas) // 2, min(betas) // 2 + 1):
        den = 1.0
        for a in alphas:
            den *= fact(m - a // 2)
        for b in betas:
            den *= fact(b // 2 - m)
        total += (-1) ** m * fact(m + 1) / den
    norm = math.sin((two_j + 1) * theta / 2) * math.sin((two_l + 1) * theta / 2)
    return (
        (-1) ** (betas[0] // 2)
        * math.sqrt(norm) / math.sin(theta / 2)
        * tri(s1, s2, two_j) * tri(s3, s4, two_j) * tri(s1, s4, two_l) * tri(s2, s3, two_l)
        * total
    )


def _one_by_one_keys(n):
    """The keys (e, 2J, a, 1, 1, d) of the moves' 1 x 1 blocks, a != d or a = d = 0, from the recursive paths.

    There the one admissible e is (a + d) / 2, or 1 at a = d = 0.
    """
    (odd_J, odd_l), (even_J, even_r) = _recursive_arrays(n)
    sides = (odd_J[:, 1:], odd_l), (even_J, np.hstack([np.ones_like(even_r[:, :1]), even_r]))
    keys = set()
    for J, fixed in sides:
        for k in range(n - 1):
            a, d, j = fixed[:, k], fixed[:, k + 1], J[:, k]
            alone = (a != d) | (a == 0)
            e = (a + d) // 2 + (a == d)
            ones = np.ones_like(a)
            keys |= set(map(tuple, np.stack([e, 2 * j, a, ones, ones, d], 1)[alone].tolist()))
    return sorted(keys)


def test_batched_racah_matches_scalar_reference():
    # the general quantum 6j formula, test-local, checks the closed form
    # on the plan's 2 x 2 keys and on the value 1 of the 1 x 1 keys
    for n in range(2, 11):
        thetas = phase_grid(n, 16)
        for key in _rotation_keys(n) + _one_by_one_keys(n):
            got = racah(*key, QPoint(tuple(thetas.tolist())))
            want = [_racah_reference(*key, t) for t in thetas]
            assert got.shape == (16,)
            assert np.max(np.abs(got - want)) < 1e-14


def test_one_by_one_blocks_read_exactly_one():
    # the moves skip their 1 x 1 blocks: racah reads exactly 1 at every
    # key of the dict builder whose outer labels differ, or are both 0
    # (listed from the bases past n = 9, where the dict builder is slow)
    for n in range(2, 11):
        alone = _one_by_one_keys(n)
        assert alone
        if n < 10:
            assert alone == sorted(k for k in _dict_move_plan(n)[0] if k[2] != k[5] or k[2] == 0)
        for point in (QPoint(tuple(phase_grid(n, 10).tolist())), CirclePoint(0.3, 1.05),
                      RealQPoint(1.0)):
            assert all((racah(*key, point) == 1.0).all() for key in alone)


def test_batch_past_the_arc_names_the_phase():
    for n in (2, 3, 5):
        grid = phase_grid(n, 8).tolist()
        bad = admissible_arc(n)[1] + 0.03
        point = QPoint(tuple(grid[:3] + [bad] + grid[3:]))
        with pytest.raises(NegativeRadicand, match=re.escape(repr(bad))):
            duality_matrix(n, point)


def test_duality_build_calls_racah_once_per_distinct_key(monkeypatch):
    seen = []

    def counting(*args):
        seen.append(args)
        return racah(*args)

    monkeypatch.setattr(fusion, "racah", counting)
    keys = _rotation_keys(6)
    assert len(keys) == len(set(keys)) == 20
    # bypass the cache; one batched evaluation serves every entry at every
    # phase, with no racah call per key, and every row feeds some move:
    # recouple reads the 2 x 2 rotation of each block of positions 2..2n-1
    table = fusion.rotations.__wrapped__(6, QPoint((0.1, 0.2, 0.3)))
    assert table.shape == (5, 2, 2, 3) and seen == []
    blocks = np.concatenate([fusion.comb_move(6, i)[2] for i in range(2, 12)])
    assert set(blocks.tolist()) == set(range(5))


def test_rotations_equal_racah_per_key():
    # one batched evaluation over one shared q-number table gives the
    # same values, bit for bit, as each racah building a table of its own
    for n in range(2, 8):
        circle = circle_samples((-3 * n, 3 * n))
        grid = QPoint(tuple(phase_grid(n, 10).tolist()))
        for point in (circle, grid):
            got = fusion.rotations.__wrapped__(n, point)
            want = np.array([racah(*k, point) for k in _rotation_keys(n)])
            assert got.dtype == want.dtype
            assert np.array_equal(got.reshape(want.shape), want)


def test_rotations_build_one_q_number_table(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return q_number(*args)

    monkeypatch.setattr(qnum, "q_number", counting)
    for n in (2, 6):
        calls.clear()
        fusion.rotations.__wrapped__(n, circle_samples((-20, 20)))
        assert len(calls) == 1


def _dense_reference(n, point):
    """Test-only duality matrix, one (paths, paths) array per phase.

    Each pair of an odd and an even path meets in one comb labelling
    (l_0, r_0, l_1, ..., r_{n-2}, l_{n-1}), admissible when every r_k
    differs from l_k and l_{k+1} by 1/2, and the entry is the product of
    the racah values of the odd path's moves, racah(r_k, J_{k+1}, l_k,
    1/2, 1/2, l_{k+1}), and of the even path's, racah(l_k, J'_k, r_{k-1},
    1/2, 1/2, r_k) with r_{-1} = 1/2; each distinct key is one racah call.
    Rows and columns are taken from the recursion's order to comb order.
    """
    (odd_J, odd_l), (even_J, even_r) = _recursive_arrays(n)
    rows, columns = np.ix_(*_comb_index(n))
    l = odd_l[:, None, :]
    J = 2 * odd_J[:, None, 1:]
    r = even_r[None, :, :]
    J_even = 2 * even_J[None, :, :]
    before = np.concatenate([np.ones_like(r[..., :1]), r[..., :-1]], -1)
    admissible = ((np.abs(l[..., :-1] - r) == 1) & (np.abs(r - l[..., 1:]) == 1)).all(-1)
    base = 2 * n + 2
    code = lambda e, f, a, d: ((e * base + f) * base + a) * base + d
    codes = np.concatenate(
        [code(r, J, l[..., :-1], l[..., 1:]), code(l[..., :-1], J_even, before, r)], -1
    )
    distinct, index = np.unique(codes[admissible], return_inverse=True)
    digits = [distinct // base**p % base for p in (3, 2, 1, 0)]
    values = np.array([racah(e, f, a, 1, 1, d, point) for e, f, a, d in zip(*digits)])
    for phase in range(values.shape[-1]):
        a = np.zeros(admissible.shape, dtype=values.dtype)
        a[admissible] = values[index.reshape(-1, 2 * n - 2), phase].prod(-1)
        comb = np.empty_like(a)
        comb[rows, columns] = a
        yield comb


def test_f_moves_match_dense_racah_products():
    rng = np.random.default_rng(3)
    for n in range(2, 8):
        d = fusion.block_dimension(n)
        grid = QPoint(tuple(phase_grid(n, 10).tolist()))
        for point, tol in ((grid, 1e-14), (circle_samples((-9, 9)), 5e-17)):
            reference = list(_dense_reference(n, point))
            v = rng.standard_normal((len(reference), d)) * np.exp(1j * rng.uniform(0, 7, d))
            for transpose in (False, True):
                got = fusion.recouple(v, n, point, transpose=transpose)
                want = np.array([u @ (a.T if transpose else a) for u, a in zip(v, reference)])
                assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))
            if n <= 6:
                a = duality_matrix(n, point)
                assert np.max(np.abs(a - np.array(reference))) < tol * np.max(np.abs(a))


def test_duality_orthogonality():
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        lo, hi = admissible_arc(n)
        for _ in range(6):
            theta = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
            a = duality_matrix(n, QPoint(theta))
            assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
            assert np.isrealobj(a)


def test_duality_rejects_too_large_theta():
    lo, hi = admissible_arc(3)
    with pytest.raises(NegativeRadicand):
        duality_matrix(3, QPoint(hi + 0.05))


def test_duality_at_the_edge_of_the_arc():
    # one phase check at the triad of the largest sum decides every
    # failure: the last phase below the bound builds a finite orthogonal
    # matrix with no warning, and the bound and one ulp past it raise,
    # naming that phase
    for n in range(2, 8):
        bound = admissible_arc(n)[1]
        a = duality_matrix(n, QPoint(float(np.nextafter(bound, 0.0))))
        assert np.isfinite(a).all()
        assert np.max(np.abs(a @ a.T - np.eye(len(a)))) < 1e-10
        for theta in (bound, float(np.nextafter(bound, 4.0))):
            with pytest.raises(NegativeRadicand, match=re.escape(repr(theta))):
                duality_matrix(n, QPoint(theta))


def test_q_numbers_stay_positive_just_below_each_bound():
    # |theta| < 2 pi / K is all the phase check asks of a table reaching [K]
    for K in range(2, 20):
        thetas = [2.0 * math.pi / K]
        for _ in range(64):
            thetas.append(float(np.nextafter(thetas[-1], 0.0)))
        numbers = qnum.q_table(K, QPoint(tuple(thetas[1:])))
        assert numbers[1:].min() > 0.0


def test_circle_point_at_unit_radius_matches_arc():
    # the complex path (no sign checks, a root per label) at rho = 1
    # reproduces the real unit-circle values
    for n in (2, 3, 4, 5):
        thetas = tuple(phase_grid(n, 7).tolist())
        arc, circle = QPoint(thetas), CirclePoint(thetas, 1.0)
        args = 2 * np.arange(n + 2)
        assert np.max(np.abs(q_number(args, circle) - q_number(args, arc))) < 1e-12
        got = duality_matrix(n, circle)
        assert np.iscomplexobj(got)
        assert np.max(np.abs(got - duality_matrix(n, arc))) < 1e-12


def test_duality_off_the_unit_circle_is_complex_orthogonal():
    point = CirclePoint((0.3, 1.7, 4.0), 1.05)
    for n in range(2, 7):
        a = duality_matrix(n, point)
        assert np.max(np.abs(a @ np.swapaxes(a, -1, -2) - np.eye(a.shape[-1]))) < 1e-10


def test_move_deviation_sees_a_unitary_on_the_arc():
    for n in range(2, 8):
        for point in (QPoint(0.5), QPoint(tuple(phase_grid(n, 10).tolist()))):
            assert fusion.move_deviation(n, point) < 1e-13


def test_move_deviation_sees_a_not_unitary_off_the_circle():
    # off the unit circle a is complex orthogonal but not unitary, and so
    # is at least one of its recoupling blocks
    for n in range(2, 8):
        assert fusion.move_deviation(n, CirclePoint(0.3, 1.05)) >= 1e-3


def test_duality_needs_even_basis():
    with pytest.raises(ValueError):
        duality_matrix(1, QPoint(0.5))


def _braid_blocks(n, pt):
    """Elementary braid blocks: odd generators are diagonal on odd paths,
    even generators conjugate by the duality matrix."""
    odd, even = (J.tolist() for J in fusion.pair_couplings(n))
    a = duality_matrix(n, pt).astype(complex)
    blocks = {}
    for i in range(1, 2 * n):
        if i % 2 == 1:
            pair = (i - 1) // 2
            d = np.diag([
                braiding_phase(J[pair], "parallel", "right", pt) for J in odd
            ])
            blocks[i] = d
        else:
            pair = i // 2 - 1
            d = np.diag([
                braiding_phase(J[pair], "parallel", "right", pt) for J in even
            ])
            blocks[i] = a @ d @ a.T
    return blocks


def test_braid_relations_in_fusion_basis():
    # adjacent generators must braid; distant ones must commute
    for n in (2, 3, 4):
        lo, hi = admissible_arc(n)
        pt = QPoint(lo + 0.4 * (hi - lo))
        blocks = _braid_blocks(n, pt)
        for i in range(1, 2 * n - 1):
            b1, b2 = blocks[i], blocks[i + 1]
            assert np.max(np.abs(b1 @ b2 @ b1 - b2 @ b1 @ b2)) < 1e-10
        for i in range(1, 2 * n):
            for j in range(i + 2, 2 * n):
                bi, bj = blocks[i], blocks[j]
                assert np.max(np.abs(bi @ bj - bj @ bi)) < 1e-10
