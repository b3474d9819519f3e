"""Seeded braid words and the facts the benchmark checks outputs against.

Nothing here imports platjones. Link components, the Kauffman bracket
and the Jones-polynomial identities are computed from the word text
alone, so a fault in the program cannot hide in its own reference.

Polynomials are dicts {exponent: int}. Jones polynomials use the
program's variable x = t^{1/2}; brackets use A, with t = A^{-4}.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter

_HEADER = re.compile(r"strands=(\d+);")
_SYLLABLE = re.compile(r"[bhg](\d+)\^(-?\d+)")


def random_word(rng, n: int, crossings: int) -> str:
    """A `g`-lettered word on 2n strands with exactly `crossings` crossings."""
    syllables = []
    left = crossings
    while left:
        power = rng.randint(1, min(3, left))
        left -= power
        index = rng.randint(1, 2 * n - 1)
        syllables.append(f"g{index}^{power * rng.choice((-1, 1))}")
    return f"strands={2 * n}; " + " ".join(syllables)


def parse(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, [(generator index, power), ...]); every power must be explicit."""
    n = int(_HEADER.match(text).group(1)) // 2
    return n, [(int(i), int(p)) for i, p in _SYLLABLE.findall(text)]


def components(text: str) -> int:
    """Link components mu of the plat closure.

    Strand ends are the 2n bottom positions. Cups join bottom positions
    (2k-1, 2k); caps join whichever strands the braid permutation brings
    to top positions (2k-1, 2k); an odd power swaps two positions.
    """
    n, syllables = parse(text)
    at = list(range(2 * n))  # at[position] = strand now there
    for i, p in syllables:
        if p % 2:
            at[i - 1], at[i] = at[i], at[i - 1]
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in range(n):
        parent[find(2 * k)] = find(2 * k + 1)
        parent[find(at[2 * k])] = find(at[2 * k + 1])
    return sum(1 for x in range(2 * n) if find(x) == x)


def bracket(text: str) -> dict[int, int]:
    """Kauffman bracket <D> of the plat closure, unknot normalised to 1.

    State sum over all 2^c smoothings (Kauffman, Topology 26, 1987),
    with sigma_i = A + A^{-1} e_i: the vertical smoothing of a positive
    crossing weighs A, the cup-cap smoothing A^{-1}; each loop past the
    first weighs d = -A^2 - A^{-2}.
    """
    n, syllables = parse(text)
    at = [k // 2 for k in range(2 * n)]  # segment at each position
    segments = n
    crossings = []
    for i, p in syllables:
        sign = 1 if p > 0 else -1
        for _ in range(abs(p)):
            crossings.append((at[i - 1], at[i], segments, segments + 1, sign))
            at[i - 1], at[i] = segments, segments + 1
            segments += 2
    caps = [(at[2 * k], at[2 * k + 1]) for k in range(n)]
    states = Counter()
    for state in range(1 << len(crossings)):
        parent = list(range(segments))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        exponent = 0
        for j, (l, r, lo, ro, sign) in enumerate(crossings):
            if state >> j & 1:
                parent[find(l)] = find(r)
                parent[find(lo)] = find(ro)
                exponent -= sign
            else:
                parent[find(l)] = find(lo)
                parent[find(r)] = find(ro)
                exponent += sign
        for a, b in caps:
            parent[find(a)] = find(b)
        loops = sum(1 for x in range(segments) if find(x) == x)
        states[exponent, loops] += 1
    total = Counter()
    for (exponent, loops), count in states.items():
        term = {exponent: count}
        for _ in range(loops - 1):
            nxt = Counter()
            for e, c in term.items():
                nxt[e + 2] -= c
                nxt[e - 2] -= c
            term = nxt
        total.update(term)
    return {e: c for e, c in total.items() if c}


def span(poly: dict[int, int]) -> int:
    return max(poly) - min(poly) if poly else 0


def same_up_to_unit(p: dict[int, int], q: dict[int, int]) -> bool:
    """p == +-x^s * q for some integer s."""
    if not p or not q:
        return p == q
    s = min(p) - min(q)
    return any(
        p == {e + s: sign * c for e, c in q.items()} for sign in (1, -1)
    )


def in_bracket_variable(jones: dict[int, int]) -> dict[int, int]:
    """Rewrite a polynomial in x = t^{1/2} = A^{-2} as one in A."""
    return {-2 * e: c for e, c in jones.items()}


def identity_errors(jones: dict[int, int], mu: int) -> list[str]:
    """Violated facts that hold for the Jones polynomial of any mu-component link.

    Integer coefficients; |V(1)| = 2^(mu-1); |V(e^{2 pi i/3})| = 1;
    |V(i)| in {0, 2^((mu-1)/2)} (Jones 1985; Lickorish-Millett 1986).
    Taken in modulus, so a +-x^s convention factor does not matter.
    """
    if not jones:
        return ["polynomial is zero"]
    if not all(type(c) is int for c in jones.values()):
        return [f"non-integer coefficients {jones}"]
    errors = []
    if abs(sum(jones.values())) != 2 ** (mu - 1):
        errors.append(f"|V(1)| = {abs(sum(jones.values()))}, mu = {mu}")
    tol = 1e-9 * sum(abs(c) for c in jones.values())

    def modulus(x: complex) -> float:
        return abs(sum(c * x**e for e, c in jones.items()))

    v3 = modulus(cmath.exp(1j * math.pi / 3))
    if abs(v3 - 1.0) > tol:
        errors.append(f"|V(e^(2 pi i/3))| = {v3!r}")
    vi = modulus(cmath.exp(1j * math.pi / 4))
    if min(vi, abs(vi - 2 ** ((mu - 1) / 2))) > tol:
        errors.append(f"|V(i)| = {vi!r}, mu = {mu}")
    return errors
