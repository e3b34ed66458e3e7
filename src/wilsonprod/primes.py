"""Prime ideals of Z[theta] over rational primes, and ideal factorization.

A rational prime p splits in a p-maximal order according to the factorization
of the defining polynomial mod p (Dedekind-Kummer): each irreducible factor
g with multiplicity e gives the prime P = (p, g(theta)) with ramification
index e and residue degree deg g.  Maximality at p is checked first with
Dedekind's criterion; everything downstream refuses to continue on a
non-maximal order rather than return answers that may be wrong.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import lattice, modpoly
from .errors import (
    InvariantViolation,
    NoSuchPrimeIndex,
    NonMaximalOrder,
    NormTooLarge,
    NotPrime,
    ParseError,
    PrimeTooLarge,
    ZeroElement,
    magnitude,
)
from .order import NumberFieldOrder, OrderElement, poly_mul_z, poly_str

DEFAULT_NORM_CAP = 10 ** 12

# the largest norm parse_ideal accepts, in bits: forming the norm p^(f*m) of
# an ideal of 2^20 bits takes milliseconds, of 2^27 bits about a second
IDEAL_NORM_BITS_MAX = 1 << 20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the smallest strong pseudoprime to every base of _MR_BASES,
# 1287836182261 * 2575672364521: below it those bases decide primality
PRIME_MAX = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, for n < PRIME_MAX.  At or above it a
    multiple of a base is still not prime; any other n raises
    PrimeTooLarge, as the fixed bases prove nothing there."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= PRIME_MAX:
        raise PrimeTooLarge(f"{magnitude(n)} is not below {PRIME_MAX}, the "
                            f"bound of the primality test")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int) -> dict[int, int]:
    """Factor n >= 1 by trial division (callers cap n first)."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# prime ideal data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeIdealData:
    """P = (p, g(theta)): ramification index e, residue degree f.

    ``index`` is the position of P in the canonical ordering of the primes
    above p (factors sorted by degree, then coefficient tuple), so that
    (p, index) is a stable name for P.

    The hash of the fields is taken once, when P is made: P keys the
    OrderContext caches, and a lookup hashes its key every time.
    """

    p: int
    gen_poly: tuple
    e: int
    f: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.p, self.gen_poly, self.e, self.f, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def residue_size(self) -> int:
        return self.p ** self.f

    def label(self) -> str:
        return f"{self.p}" if self.index == 0 else f"{self.p}@{self.index}"

    def to_json(self) -> dict:
        return {
            "prime": self.p,
            "gen": list(self.gen_poly),
            "e": self.e,
            "f": self.f,
        }

    def __str__(self) -> str:
        return f"({self.p}, {poly_str(self.gen_poly)})"


def dedekind_maximal(o: NumberFieldOrder, p: int,
                     factors: list | None = None) -> bool:
    """Dedekind's criterion: is Z[theta] maximal at p?

    With fbar = prod gbar_i^{e_i} mod p, lift the radical g* = prod g_i and
    the cofactor h* = fbar / g*; then T = (g* h* - f) / p is integral and
    Z[theta] is p-maximal iff gcd(Tbar, g*, h*) = 1 in F_p[x].  ``factors``
    is modpoly.factor of f mod p, from a caller that has checked p and
    factored f already; without it, both are done here.
    """
    fbar = modpoly.normalize(o.poly, p)
    if factors is None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        factors = modpoly.factor(fbar, p)
    g_rad = (1,)
    for g, _ in factors:
        g_rad = modpoly.mul(g_rad, g, p)
    h_star = modpoly.div_mod(fbar, g_rad, p)[0]
    # g* and h* have coefficients in [0, p), so they are their own lifts
    prod = poly_mul_z(g_rad, h_star)
    t = []
    for i in range(max(len(prod), len(o.poly))):
        a = prod[i] if i < len(prod) else 0
        b = o.poly[i] if i < len(o.poly) else 0
        q, r = divmod(a - b, p)
        if r:
            raise InvariantViolation(
                f"g*h* is not congruent to {poly_str(o.poly)} mod {p}")
        t.append(q)
    tbar = modpoly.normalize(t, p)
    d = modpoly.gcd(modpoly.gcd(tbar, g_rad, p), h_star, p)
    return modpoly.degree(d) == 0


def factor_prime(o: NumberFieldOrder, p: int) -> tuple[PrimeIdealData, ...]:
    """All primes of Z[theta] above p, in canonical order.

    Requires p prime and the order p-maximal; the ramification indices and
    residue degrees always satisfy sum(e*f) = degree.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    factors = modpoly.factor(modpoly.normalize(o.poly, p), p)
    if not dedekind_maximal(o, p, factors):
        raise NonMaximalOrder(
            f"Z[x]/({poly_str(o.poly)}) is not maximal at {p}")
    out = []
    for idx, (g, e) in enumerate(factors):
        out.append(PrimeIdealData(p=p, gen_poly=g, e=e,
                                  f=modpoly.degree(g), index=idx))
    if sum(pd.e * pd.f for pd in out) != o.degree:
        raise InvariantViolation(
            f"sum of e*f over the primes above {p} differs from the degree "
            f"{o.degree}")
    return tuple(out)


def _power_lattice(o: NumberFieldOrder, pd: PrimeIdealData, k: int,
                   x: OrderElement) -> list[list[int]]:
    """Basis of P^k = p^ceil(k/e)*o + x*o, its index p^(f*k) checked: x
    lies in P^k and is a unit at the other primes above p, and x or
    p^ceil(k/e) has valuation exactly k."""
    basis = lattice.ideal_power_lattice(o, pd.p ** -(-k // pd.e), x)
    if lattice.lattice_det(basis) != pd.p ** (pd.f * k):
        raise InvariantViolation(f"the index of {pd}^{k} is not p^(fk)")
    return basis


def valuation(o: NumberFieldOrder, pd: PrimeIdealData,
              a: OrderElement) -> int | float:
    """v_P(a): the largest k with a in P^k; +infinity for a = 0.

    Decided by lattice membership in P^k = p^ceil(k/e)*o + pi^k*o for the
    uniformizer pi, with pi^k built up step by step; for a != 0 the loop
    ends, as v_P(a) is finite.
    """
    if not any(a.coeffs):
        return math.inf
    pi = pi_k = uniformizer(o, pd)
    v = 0
    while lattice.contains(_power_lattice(o, pd, v + 1, pi_k), a.coeffs):
        v += 1
        pi_k = o.mul(pi_k, pi)
    return v


def uniformizer(o: NumberFieldOrder, pd: PrimeIdealData) -> OrderElement:
    """An element of P of valuation exactly 1, a unit at the other primes
    above p: g(theta) or g(theta)+p, as g is prime to their generators mod p.

    When e >= 2 it is g(theta), with no lattice.  Write f = prod g_i^e_i -
    p*T with lifts g_i (dedekind_maximal); at theta the other g_i are units
    at P, so e*v_P(g(theta)) = e + v_P(T(theta)), and v_P(g(theta)) >= 2
    forces T(theta) in P, that is gbar | Tbar, which p-maximality
    (Dedekind's criterion) forbids when e >= 2.  When
    e = 1, P^2 = p^2*o + g(theta)^2*o whatever v_P(g(theta)) >= 1 is, and
    one membership test there decides: g(theta) outside it, else
    g(theta)+p, of valuation v_P(p) = 1.
    """
    g = o.element_from_poly(pd.gen_poly)
    if pd.e == 1 and lattice.contains(
            _power_lattice(o, pd, 2, o.mul(g, g)), g.coeffs):
        return o.add(g, o.from_int(pd.p))
    return g


# ---------------------------------------------------------------------------
# factored ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredIdeal:
    """A nonzero ideal as a product of distinct prime powers (may be empty)."""

    factors: tuple  # tuple[tuple[PrimeIdealData, int], ...]

    def __post_init__(self):
        seen = set()
        for pd, m in self.factors:
            if m < 1:
                raise InvariantViolation(f"exponents must be >= 1, got {m}")
            key = (pd.p, pd.index)
            if key in seen:
                raise InvariantViolation(
                    f"prime factors must be distinct, {pd} is repeated")
            seen.add(key)

    @property
    def absolute_norm(self) -> int:
        out = 1
        for pd, m in self.factors:
            out *= pd.p ** (pd.f * m)
        return out

    def label(self) -> str:
        """Round-trippable text form, e.g. ``2^3`` or ``5^1@1; 13^2``."""
        if not self.factors:
            return "(1)"
        return "; ".join(f"{pd.p}^{m}" + (f"@{pd.index}" if pd.index else "")
                         for pd, m in self.factors)

    def __str__(self) -> str:
        return self.label()


def factor_element(o: NumberFieldOrder, a: OrderElement,
                   norm_cap: int = DEFAULT_NORM_CAP) -> FactoredIdeal:
    """Factor the principal ideal (a) into prime powers.

    The rational primes involved are exactly those dividing N(a); each
    exponent is a valuation.  The reconstruction identity
    prod p^(m*f) = |N(a)| is checked before returning.
    """
    n = o.norm(a)
    if n == 0:
        raise ZeroElement("cannot factor the zero ideal")
    if n > norm_cap:
        raise NormTooLarge(
            f"|N(a)| = {magnitude(n)} exceeds the cap {norm_cap}")
    out = []
    for p in sorted(trial_factor(n)):
        for pd in factor_prime(o, p):
            m = valuation(o, pd, a)
            if m:
                out.append((pd, m))
    result = FactoredIdeal(tuple(out))
    if result.absolute_norm != n:
        raise InvariantViolation(
            f"factors of norm {result.absolute_norm} do not reconstruct "
            f"|N(a)| = {n}")
    return result


_IDEAL_TERM_RE = re.compile(r"^(\d+)\^(\d+)(?:@(\d+))?$")


def parse_ideal(o: NumberFieldOrder, text: str) -> FactoredIdeal:
    """Parse ``"p^m"`` terms joined by ``;`` into a factored ideal.

    ``p^m@i`` selects the i-th prime above p in canonical order (default 0);
    repeated mentions of the same prime are merged by adding exponents.  An
    ideal whose norm has more than IDEAL_NORM_BITS_MAX bits is refused.
    """
    if not text.strip():
        raise ParseError("empty ideal")
    exps: dict[tuple[int, int], int] = {}
    data: dict[tuple[int, int], PrimeIdealData] = {}
    above_p: dict[int, tuple] = {}  # factor_prime, once per distinct p
    for raw in text.split(";"):
        term = raw.strip().replace(" ", "")
        m = _IDEAL_TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad ideal term {raw.strip()!r}, want p^m or p^m@i")
        try:
            p, exp, idx = (int(g or 0) for g in m.groups())
        except ValueError as exc:  # beyond Python's int-string digit limit
            raise ParseError(
                "an integer in the ideal has too many digits") from exc
        above = above_p.get(p)
        if above is None and not is_prime(p):
            raise ParseError(f"{p} is not prime")
        if exp < 1:
            raise ParseError(f"exponent must be >= 1 in {raw.strip()!r}")
        if above is None:
            above = above_p[p] = factor_prime(o, p)
        if idx >= len(above):
            raise NoSuchPrimeIndex(
                f"only {len(above)} prime(s) above {p}, index {idx} "
                f"does not exist")
        key = (p, idx)
        exps[key] = exps.get(key, 0) + exp
        data[key] = above[idx]
    factors = tuple((data[k], exps[k]) for k in sorted(exps))
    # clamped, as each unit of an exponent adds a bit, to keep a float sum
    if sum(pd.f * min(m, IDEAL_NORM_BITS_MAX + 1) * math.log2(pd.p)
           for pd, m in factors) > IDEAL_NORM_BITS_MAX:
        raise ParseError(f"the norm of the ideal has more than "
                         f"{IDEAL_NORM_BITS_MAX} bits")
    return FactoredIdeal(factors)
