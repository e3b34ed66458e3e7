"""Univariate polynomial arithmetic and factorization over F_p.

Polynomials are tuples of ints in [0, p), constant term first, trimmed.
Factorization runs squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting by Cantor-Zassenhaus with random polynomials
seeded by the input, so repeated calls split the same way.  The factor list
is returned in a canonical sorted order.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import InvariantViolation
from .order import poly_degree as degree, poly_mul_z, poly_trim

Poly = tuple


def normalize(cs: Sequence[int], p: int) -> Poly:
    return poly_trim(c % p for c in cs)


def add(a: Poly, b: Poly, p: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def sub(a: Poly, b: Poly, p: int) -> Poly:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    return normalize(poly_mul_z(a, b), p)


def monic(a: Poly, p: int) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return normalize((x * inv for x in a), p)


def div_mod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise InvariantViolation("division by zero polynomial")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return (), poly_trim(rem)
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = (rem[k] * inv) % p
        if c:
            quo[k - db] = c
            for j in range(db + 1):
                rem[k - db + j] = (rem[k - db + j] - c * b[j]) % p
    return poly_trim(quo), poly_trim(rem)


def mod(a: Poly, b: Poly, p: int) -> Poly:
    return div_mod(a, b, p)[1]


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def pow_mod(base: Poly, e: int, modulus: Poly, p: int) -> Poly:
    out: Poly = (1,)
    base = mod(base, modulus, p)
    while e:
        if e & 1:
            out = mod(mul(out, base, p), modulus, p)
        base = mod(mul(base, base, p), modulus, p)
        e >>= 1
    return out


def derivative(a: Poly, p: int) -> Poly:
    return poly_trim((i * c) % p for i, c in enumerate(a) if i > 0)


def _pth_root(a: Poly, p: int) -> Poly:
    """p-th root of a polynomial in F_p[x^p] (Frobenius is identity on F_p)."""
    return poly_trim(a[i] for i in range(0, len(a), p))


def squarefree_parts(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Yun-style decomposition in characteristic p: [(g, m)] with f = prod g^m.

    Each g is monic squarefree, the multiplicities are distinct, and parts
    whose multiplicity is divisible by p come out of the recursive p-th-root
    branch.
    """
    f = monic(f, p)
    out: dict[int, Poly] = {}
    d = derivative(f, p)
    if not d:
        return [(g, m * p) for g, m in squarefree_parts(_pth_root(f, p), p)]
    c = gcd(f, d, p)
    w = div_mod(f, c, p)[0]
    i = 1
    while degree(w) > 0:
        y = gcd(w, c, p)
        z = div_mod(w, y, p)[0]
        if degree(z) > 0:
            out[i] = mul(out[i], z, p) if i in out else z
        w = y
        c = div_mod(c, y, p)[0]
        i += 1
    if degree(c) > 0:
        for g, m in squarefree_parts(_pth_root(c, p), p):
            mp = m * p
            out[mp] = mul(out[mp], g, p) if mp in out else g
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])


def distinct_degree(g: Poly, p: int) -> list[tuple[Poly, int]]:
    """Split monic squarefree g into products of equal-degree irreducibles."""
    out = []
    h: Poly = (0, 1)  # x
    k = 0
    while degree(g) >= 2 * (k + 1):
        k += 1
        h = pow_mod(h, p, g, p)
        d = gcd(sub(h, (0, 1), p), g, p)
        if degree(d) > 0:
            out.append((d, k))
            g = div_mod(g, d, p)[0]
            h = mod(h, g, p)
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def _edf_random(h: Poly, k: int, p: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus equal-degree splitting."""
    if degree(h) == k:
        return [h]
    n = degree(h)
    while True:
        # a random r of degree < n: a binomial x + a alone can fail to split
        # h for every a in F_p (x^12 - x^6 + 1 mod 7 never splits that way)
        r = poly_trim(rng.randrange(p) for _ in range(n))
        if p == 2:
            # trace-map splitting
            t: Poly = ()
            acc = r
            for _ in range(k):
                t = add(t, acc, p)
                acc = mod(mul(acc, acc, p), h, p)
            d = gcd(t, h, p)
        else:
            # r powered to (p^k - 1) / 2
            s = pow_mod(r, (p ** k - 1) // 2, h, p)
            d = gcd(sub(s, (1,), p), h, p)
        if 0 < degree(d) < degree(h):
            rest = div_mod(h, d, p)[0]
            return _edf_random(d, k, p, rng) + _edf_random(rest, k, p, rng)


def factor(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Factor monic f over F_p into [(irreducible, multiplicity)].

    Sorted by (degree, coefficient tuple constant-term first) so repeated
    calls and different machines agree on the ordering.
    """
    f = normalize(f, p)
    if degree(f) < 1 or f[-1] != 1:
        raise InvariantViolation(f"need a monic polynomial, got {f} mod {p}")
    found: dict[Poly, int] = {}
    for part, m in squarefree_parts(f, p):
        for prod, k in distinct_degree(part, p):
            rng = random.Random(f"edf:{p}:{prod}")
            for g in _edf_random(prod, k, p, rng):
                found[g] = found.get(g, 0) + m
    return sorted(found.items(), key=lambda t: (degree(t[0]), t[0]))
