"""Exact arithmetic in a monogenic order Z[theta].

An order is given by a monic irreducible ``f`` in Z[x]; elements are integer
coordinate vectors in the power basis ``1, theta, ..., theta^(d-1)``.  All
arithmetic is arbitrary-precision integer arithmetic — nothing here touches
floats, so every result is exact.

Polynomials throughout the package are tuples of ints, constant term first.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb, gcd, isqrt, log
from typing import Iterable, Sequence

from .errors import (
    DegreeMismatch,
    DegreeZero,
    InvariantViolation,
    IrreducibilityUndecided,
    NotMonic,
    ParseError,
    Reducible,
)

Poly = tuple  # tuple[int, ...], constant coefficient first


# ---------------------------------------------------------------------------
# integer polynomial helpers
# ---------------------------------------------------------------------------

def poly_trim(coeffs: Iterable[int]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(a: Poly) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(a) - 1


def poly_mul_z(a: Sequence[int], b: Sequence[int]) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod_monic(a: Sequence[int], g: Sequence[int]) -> tuple[Poly, Poly]:
    """Divide by a *monic* g over Z; quotient and remainder are integral."""
    if not g or g[-1] != 1:
        raise InvariantViolation(f"divisor {tuple(g)} is not monic")
    rem = list(a)
    dg = len(g) - 1
    if dg == 0:
        return poly_trim(rem), ()
    quo = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            quo[k - dg] = c
            for j in range(dg + 1):
                rem[k - dg + j] -= c * g[j]
    return poly_trim(quo), poly_trim(rem)


# ---------------------------------------------------------------------------
# text formats: "c0,c1,...,cd" or "x^2+1"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""([+-]?)\s*(?:
        (\d+)\s*\*?\s*[xX]\s*(?:\^\s*(\d+))?   # c*x^k, c*x
        | [xX]\s*(?:\^\s*(\d+))?               # x^k, x
        | (\d+)                                # bare constant
    )\s*""",
    re.VERBOSE,
)


# the highest degree parse_poly accepts: a random dense polynomial of degree
# 128 passes make_order in under a second, and cyclo-demo reaches it
POLY_DEGREE_MAX = 128


def parse_poly(text: str) -> Poly:
    """Parse either a comma coefficient list or a symbolic polynomial in x.

    ``"1,0,1"`` and ``"x^2+1"`` both give (1, 0, 1).  Negative coefficients
    are accepted in both forms.  No term may have a degree above
    POLY_DEGREE_MAX.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    if "," in s:
        parts = s.split(",")
        if len(parts) > POLY_DEGREE_MAX + 1:
            raise ParseError(f"degree {len(parts) - 1} is above the cap of "
                             f"{POLY_DEGREE_MAX}")
        try:
            coeffs = tuple(int(part.strip()) for part in parts)
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}") from exc
        return coeffs
    # symbolic form: consume term by term
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ParseError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign_s, cx, kx, k_only, const = m.groups()
        if not first and sign_s == "":
            raise ParseError(f"missing +/- between terms in {text!r}")
        sign = -1 if sign_s == "-" else 1
        try:  # a term is a constant, c*x^k or x^k, and x^k defaults to k = 1
            k = 0 if const is not None else int(kx or k_only or 1)
            c = int(const or cx or 1)
        except ValueError as exc:  # beyond Python's int-string digit limit
            raise ParseError(
                "an integer in the polynomial has too many digits") from exc
        if k > POLY_DEGREE_MAX:
            raise ParseError(f"degree {k} is above the cap of "
                             f"{POLY_DEGREE_MAX}")
        terms[k] = terms.get(k, 0) + sign * c
        pos = m.end()
        first = False
    deg = max(terms)
    return tuple(terms.get(k, 0) for k in range(deg + 1))


def poly_str(coeffs: Sequence[int], var: str = "x") -> str:
    """Human-readable form, highest degree first (``x^2 - x - 1``)."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# irreducibility over Q (monic, integer coefficients)
# ---------------------------------------------------------------------------

def _factor_bounds(f: Sequence[int], k: int) -> list[int]:
    """Per-coefficient bounds for a monic degree-k factor of monic f.

    Mignotte-style: |g_j| <= C(k-1, j) * ||f||_2 + C(k-1, j-1).
    """
    norm_sq = sum(c * c for c in f)
    l2 = isqrt(norm_sq)
    if l2 * l2 < norm_sq:
        l2 += 1
    return [comb(k - 1, j) * l2 + (comb(k - 1, j - 1) if j >= 1 else 0)
            for j in range(k)]


# the primes the Eisenstein test, the degree sieve and the search try, in
# order
_SMALL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % q for q in range(2, isqrt(p) + 1)))

# the sieve stops once this many primes in a row have left the set of
# possible factor degrees unchanged (a prime at which f is not squarefree
# counts as one), so a non-squarefree f cannot keep it running
SIEVE_PATIENCE = 8

# candidate factors the exact search may try (about 8 us each in CPython)
# before it gives up with IrreducibilityUndecided
SEARCH_BUDGET = 200_000


def _taylor_shift(f: Sequence[int], c: int) -> list[int]:
    """Coefficients of f(x + c)."""
    a = list(f)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _shifted_eisenstein(f: Poly) -> bool:
    """True when f(x + c) is Eisenstein at a small prime, for c in 0, 1, -1.

    This proves the 2-power cyclotomic polynomials irreducible (Eisenstein
    at 2 after x -> x + 1); they split modulo every prime, so the degree
    sieve can never prove them.
    """
    for c in (0, 1, -1):
        g = _taylor_shift(f, c)
        content = gcd(*g[:-1])
        if content in (0, 1):
            continue
        for p in _SMALL_PRIMES:
            if content % p == 0 and g[0] % (p * p):
                return True
    return False


def _degree_sieve(f: Poly) -> set[int]:
    """The degrees k <= d/2 a factor of f over Z may have, by patterns mod p.

    Modulo a prime p at which f is squarefree, a factor of f over Z is a
    product of some of the irreducible factors of f mod p, so its degree is
    a sum of some of their degrees; distinct-degree factorization gives
    those degrees without splitting further.  The degrees that are such a
    sum at every prime tried survive (Musser 1978; Cohen, §3.5), trying
    primes until none survives or SIEVE_PATIENCE primes in a row changed
    nothing.  An empty set proves f irreducible; a degree that survives
    need not occur.
    """
    from . import modpoly

    d = len(f) - 1
    alive = (1 << (d // 2 + 1)) - 2  # bit k set: degree k is still possible
    stale = 0
    for p in _SMALL_PRIMES:
        if not alive or stale >= SIEVE_PATIENCE:
            break
        stale += 1
        fp = modpoly.normalize(f, p)
        if modpoly.degree(modpoly.gcd(fp, modpoly.derivative(fp, p), p)) > 0:
            continue
        sums = 1  # bit s set: s is a sum of some of the factor degrees
        for g, k in modpoly.distinct_degree(fp, p):
            for _ in range(modpoly.degree(g) // k):
                sums |= sums << k
        if alive & sums != alive:
            alive &= sums
            stale = 0
    return {k for k in range(1, d // 2 + 1) if alive >> k & 1}


def _divisor_count(factors: Sequence[tuple[Poly, int]], k: int) -> int:
    """Number of monic degree-k divisors of prod g^m mod p (g irreducible)."""
    ways = [1] + [0] * k
    for g, m in factors:
        dg = len(g) - 1
        ways = [sum(ways[s - a * dg] for a in range(m + 1) if a * dg <= s)
                for s in range(k + 1)]
    return ways[k]


def _monic_divisors(factors: Sequence[tuple[Poly, int]], k: int,
                    p: int) -> list[Poly]:
    """The monic degree-k divisors of prod g^m mod p (g irreducible)."""
    from . import modpoly

    out: list[Poly] = [(1,)]
    for g, m in factors:
        nxt = []
        for h in out:
            for _ in range(m + 1):
                if len(h) - 1 > k:
                    break
                nxt.append(h)
                h = modpoly.mul(h, g, p)
        out = nxt
    return [h for h in out if len(h) - 1 == k]


def _search_factors(f: Poly, degrees: set[int]) -> None:
    """Raise Reducible if f has a monic factor of a degree in ``degrees``.

    A factor g of degree k reduces mod p to a monic degree-k divisor of
    f mod p, and its coefficients lie inside the Mignotte bounds.  So g is
    among the CRT lifts of those divisors at primes whose product exceeds
    twice the bounds; the primes are taken fewest divisors per bit first.
    Each lift inside the bounds is tried by exact division, degrees in
    increasing order.  The reported root r is the least by (|r|, sign of
    r), and a higher-degree factor the least by (|g_0|, sign of g_0, g_1,
    ...): what a search over all candidates inside the bounds, in that
    order, meets first.  More than SEARCH_BUDGET lifts raise
    IrreducibilityUndecided.
    """
    from . import modpoly

    factored: list = []  # f mod the first len(factored) small primes
    work = 0
    for k in sorted(degrees):
        bounds = _factor_bounds(f, k)
        need = 2 * max(bounds)
        # primes up to a product of need^2, so there are some to choose from
        counted, product = [], 1
        for i, p in enumerate(_SMALL_PRIMES):
            if product > need * need:
                break
            if i == len(factored):
                factored.append(modpoly.factor(f, p))
            counted.append((_divisor_count(factored[i], k), p, factored[i]))
            product *= p
        counted.sort(
            key=lambda t: (log(t[0]) / log(t[1]) if t[0] else -1, -t[1]))
        if counted[0][0] == 0:
            continue  # no degree-k divisor at some prime
        modulus, candidates, chosen = 1, 1, []
        for count, p, fac in counted:
            if modulus > need:
                break
            modulus *= p
            candidates *= count
            chosen.append((p, fac))
        work += candidates
        if modulus <= need or work > SEARCH_BUDGET:
            raise IrreducibilityUndecided(
                f"could not decide whether {poly_str(f)} is irreducible: "
                f"factors of degree {sorted(degrees)} survive the sieve and "
                f"the search for one of degree {k} is beyond its budget of "
                f"{SEARCH_BUDGET} candidates")
        # g_j = sum of e_p * (g_j mod p), e_p = 1 mod p and 0 mod the others
        idems = [modulus // p * pow(modulus // p, -1, p) for p, _ in chosen]
        found = []
        for combo in itertools.product(
                *(_monic_divisors(fac, k, p) for p, fac in chosen)):
            g = [(sum(e * h[j] for e, h in zip(idems, combo))
                  + modulus // 2) % modulus - modulus // 2 for j in range(k)]
            if all(abs(c) <= b for c, b in zip(g, bounds)) \
                    and not poly_divmod_monic(f, g + [1])[1]:
                found.append(tuple(g) + (1,))
        if k == 1 and found:
            root = min((-g[0] for g in found), key=lambda r: (abs(r), r < 0))
            raise Reducible(f"{poly_str(f)} has root {root}")
        if found:
            g = min(found, key=lambda g: (abs(g[0]), g[0] < 0, g[1:]))
            raise Reducible(f"{poly_str(f)} = ({poly_str(g)}) * (...)")


def _check_irreducible(f: Poly) -> None:
    """Raise Reducible if monic f splits over Q (hence over Z, by Gauss).

    Degree 1 is always irreducible, and a vanishing constant term means
    x | f.  Then f is proved irreducible when a shift f(x + c) is
    Eisenstein, or when the degree sieve rules out every factor degree.
    The degrees that survive are searched exactly, within SEARCH_BUDGET
    candidates; past it the search raises IrreducibilityUndecided.
    """
    if len(f) == 2:
        return
    if f[0] == 0:
        raise Reducible(f"x divides {poly_str(f)}")
    if _shifted_eisenstein(f):
        return
    degrees = _degree_sieve(f)
    if degrees:
        _search_factors(f, degrees)


# ---------------------------------------------------------------------------
# the order itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderElement:
    """Element of an order: coordinates in the power basis, length d."""

    coeffs: tuple


@dataclass(frozen=True)
class NumberFieldOrder:
    """The order Z[theta] where theta is a root of the stored monic poly."""

    poly: tuple

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    # -- element construction ------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> OrderElement:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) > self.degree:
            raise DegreeMismatch(
                f"{len(cs)} coefficients for a degree-{self.degree} order")
        return OrderElement(cs + (0,) * (self.degree - len(cs)))

    def element_from_poly(self, coeffs: Sequence[int]) -> OrderElement:
        """Reduce an arbitrary-degree integer polynomial in theta."""
        _, rem = poly_divmod_monic(coeffs, self.poly)
        return self.element(rem)

    def from_int(self, n: int) -> OrderElement:
        return self.element((n,))

    @property
    def one(self) -> OrderElement:
        return self.from_int(1)

    @property
    def theta(self) -> OrderElement:
        if self.degree == 1:
            # theta = -c0 is an integer here
            return self.from_int(-self.poly[0])
        return self.element((0, 1))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, a: OrderElement) -> tuple:
        if len(a.coeffs) != self.degree:
            raise DegreeMismatch(
                f"element has {len(a.coeffs)} coefficients, order degree is "
                f"{self.degree}")
        return a.coeffs

    def add(self, a: OrderElement, b: OrderElement) -> OrderElement:
        ca, cb = self._coerce(a), self._coerce(b)
        return OrderElement(tuple(x + y for x, y in zip(ca, cb)))

    def mul(self, a: OrderElement, b: OrderElement) -> OrderElement:
        prod = poly_mul_z(self._coerce(a), self._coerce(b))
        return self.element_from_poly(prod)

    def norm(self, a: OrderElement) -> int:
        """Absolute norm |N(a)| = |Res(f, a(x))|, via the multiplication matrix.

        The matrix of multiplication by ``a`` in the power basis has
        determinant equal to the resultant of the defining polynomial and
        ``a(x)`` (both are the product of a over the conjugates of theta);
        the determinant is computed exactly with Bareiss elimination.
        """
        rows = []
        cur = a
        for _ in range(self.degree):
            rows.append(list(self._coerce(cur)))
            cur = self.mul(cur, self.theta)
        return abs(_bareiss_det(rows))

    def __str__(self) -> str:
        return f"Z[x]/({poly_str(self.poly)})"


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def make_order(poly: Sequence[int] | str) -> NumberFieldOrder:
    """Build Z[x]/(f) after validating that f is monic irreducible of degree >= 1."""
    coeffs = parse_poly(poly) if isinstance(poly, str) else tuple(int(c) for c in poly)
    trimmed = poly_trim(coeffs)
    if poly_degree(trimmed) < 1:
        raise DegreeZero(f"defining polynomial {list(coeffs)} has degree < 1")
    if trimmed[-1] != 1:
        raise NotMonic(
            f"leading coefficient is {trimmed[-1]}, must be 1")
    _check_irreducible(trimmed)
    return NumberFieldOrder(trimmed)
