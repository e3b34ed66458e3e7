"""Closed-form classification of the product of all units in o/a.

The product of all elements of a finite abelian group is trivial unless the
group has exactly one element of order 2, in which case the product equals
that element.  For unit groups of residue rings the relevant dimension
d2 = dim_F2 of the 2-torsion is computable from the local invariants
(p, e, f, n) alone, and in the three cases where d2 = 1 the order-2 element
has an explicit form: -1, 1+pi, or 1+pi^2 for a uniformizer pi.  This module
implements those rules, evaluates the symbolic answers to concrete residue
classes (embedding through the Chinese remainder decomposition for composite
moduli), and provides the classical rules for Z as an independent code path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import InvariantViolation, NotUniqueTorsion
from .order import NumberFieldOrder, OrderElement
# uniformizer lives in primes, next to valuation, and is part of this
# module's interface as well
from .primes import (
    FactoredIdeal,
    PrimeIdealData,
    factor_prime,
    is_prime,
    trial_factor,
    uniformizer,
)
from .residue import (
    DEFAULT_CAP,
    Census,
    OrderContext,
    ResidueElement,
    ResidueRing,
    build_residue_ring,
)


class ProductClass(Enum):
    """The four possible values of the product of all units."""

    ONE = "one"
    MINUS_ONE = "minus_one"
    ONE_PLUS_PI = "one_plus_pi"
    ONE_PLUS_PI_SQ = "one_plus_pi_sq"

    def symbol(self) -> str:
        return {"one": "1", "minus_one": "-1", "one_plus_pi": "1+pi",
                "one_plus_pi_sq": "1+pi^2"}[self.value]


# ---------------------------------------------------------------------------
# Abstract abelian groups: the sum of all elements.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group given as a product of cyclic groups."""

    cyclic_orders: tuple

    def __post_init__(self):
        if not all(n >= 2 for n in self.cyclic_orders):
            raise InvariantViolation(
                f"cyclic factors must have order at least 2, got "
                f"{self.cyclic_orders}")

    @property
    def d2(self) -> int:
        return sum(1 for n in self.cyclic_orders if n % 2 == 0)


def group_sum(spec: AbelianGroupSpec) -> tuple:
    """Sum of all elements: zero unless exactly one cyclic order is even,
    in which case it is the unique order-2 element (n/2 in that slot)."""
    evens = [i for i, n in enumerate(spec.cyclic_orders) if n % 2 == 0]
    out = [0] * len(spec.cyclic_orders)
    if len(evens) == 1:
        out[evens[0]] = spec.cyclic_orders[evens[0]] // 2
    return tuple(out)


# ---------------------------------------------------------------------------
# Local rules at one prime power P^n.
# ---------------------------------------------------------------------------

def d2_local(p: int, e: int, f: int, n: int) -> int:
    """2-torsion dimension of (o/P^n)^x from the local invariants.

    Odd residue characteristic gives d2 = 1 (the residue field's cyclic
    group of even order; the rest is a p-group).  For p = 2, x^2 = 1 means
    (x-1)(x+1) in P^n with x-1 and x+1 differing by 2, of valuation e; the
    valuation count gives d2 = f*floor(n/2) while n <= 2e, and the stable
    value 1 + e*f beyond it.
    """
    if not (e >= 1 and f >= 1 and n >= 1):
        raise InvariantViolation(
            f"local invariants must be positive, got e={e}, f={f}, n={n}")
    if p != 2:
        return 1
    if n <= 2 * e:
        return f * (n // 2)
    return 1 + e * f


def d2_of_ideal(a: FactoredIdeal) -> int:
    """Global d2, additive over the prime-power factors of a."""
    return sum(d2_local(pd.p, pd.e, pd.f, m) for pd, m in a.factors)


def order2_local(p: int, e: int, f: int, n: int) -> ProductClass:
    """Symbol of the unique order-2 element of (o/P^n)^x, when unique."""
    if d2_local(p, e, f, n) != 1:
        raise NotUniqueTorsion(
            f"(p={p}, e={e}, f={f}, n={n}) does not have a unique order-2 "
            "element")
    if p != 2:
        return ProductClass.MINUS_ONE
    if n == 2:  # f = 1 forced by d2 = 1
        return ProductClass.ONE_PLUS_PI
    return ProductClass.ONE_PLUS_PI_SQ  # n = 3, f = 1, e > 1


# ---------------------------------------------------------------------------
# Global classification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WilsonProduct:
    """Classified product of all units of o/a.

    ``prime`` is the prime ideal the uniformizer lives at (the 1+pi cases
    only); ``witness`` is the evaluated residue class when the ring was
    within the enumeration cap, else None.
    """

    kind: ProductClass
    prime: PrimeIdealData | None
    witness: ResidueElement | None

    def to_json(self) -> dict:
        return {
            "class": self.kind.value,
            "prime": self.prime.to_json() if self.prime else None,
            "witness": list(self.witness.coeffs) if self.witness else None,
        }


def _contributing_factor(a: FactoredIdeal):
    """The factor whose local d2 is 1 (there is one when the global d2 is 1)."""
    return next((pd, m) for pd, m in a.factors
                if d2_local(pd.p, pd.e, pd.f, m) == 1)


def _power(x: ResidueElement, k: int) -> ResidueElement:
    """x^k in x's ring by square-and-multiply, for k >= 0."""
    out = x.ring.one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def witness_element(o: NumberFieldOrder, a: FactoredIdeal,
                    kind: ProductClass, prime: PrimeIdealData | None,
                    ring: ResidueRing, *,
                    pi: OrderElement | None = None) -> ResidueElement:
    """Evaluate the symbolic answer to a residue class of o/a.

    For the 1+pi forms over a composite modulus, the symbol is local to one
    prime power P^m, so the global representative must be congruent to
    1+pi^j there and to 1 at every other factor.  (Taking 1+pi globally is
    wrong whenever pi is a unit at one of the other factors.)  The
    representative is 1 + pi^j * u^k: u is the product over the other
    factors Q^n of x_Q^n, with x_Q in Q and not in P (the rational prime
    below Q, or g_Q(theta) when Q lies above p, since g_Q is prime to g_P
    mod p), so u lies in every Q^n and is a unit mod P^m, and
    k = q^(m-1)(q-1), the number of units of o/P^m for q = |o/P|, makes
    u^k = 1 mod P^m.  The uniformizer defaults to the ring context's.
    """
    if kind is ProductClass.ONE:
        return ring.one
    if kind is ProductClass.MINUS_ONE:
        # every other factor is an even prime with exponent 1, and -1 = 1
        # in those residue fields, so the global -1 already embeds the symbol
        return ring.reduce([-1] + [0] * (o.degree - 1))
    pd = prime
    m = next(m for q, m in a.factors if q == pd)
    if pi is None:
        pi = ring.context.uniformizer(pd)
    loc = pi if kind is ProductClass.ONE_PLUS_PI else o.mul(pi, pi)
    if len(a.factors) == 1:
        return ring.reduce(o.add(o.one, loc))
    u = ring.one
    for q, n in a.factors:
        if q != pd:
            x_q = o.element_from_poly(q.gen_poly) if q.p == pd.p \
                else o.from_int(q.p)
            u = u * _power(ring.reduce(x_q), n)
    k = pd.residue_size ** (m - 1) * (pd.residue_size - 1)
    t = ring.reduce(loc) * _power(u, k)
    return ring.reduce(o.add(o.one, o.element(t.coeffs)))


def classify_global(o: NumberFieldOrder, a: FactoredIdeal, *,
                    cap: int = DEFAULT_CAP,
                    ring: ResidueRing | None = None) -> WilsonProduct:
    """Closed-form product of all units of o/a, with an evaluated witness.

    Pure arithmetic on the factor invariants decides the class; the witness
    residue class is evaluated whenever |o/a| fits under ``cap`` (a provided
    ``ring`` is trusted and used directly; else the ring is built in a fresh
    context).
    """
    kind = ProductClass.ONE
    prime = None
    if d2_of_ideal(a) == 1:
        pd, m = _contributing_factor(a)
        kind = order2_local(pd.p, pd.e, pd.f, m)
        if kind is not ProductClass.MINUS_ONE:
            prime = pd
    if ring is None:
        if a.absolute_norm > cap:
            return WilsonProduct(kind, prime, None)
        ring = build_residue_ring(o, a, cap=cap)
    witness = witness_element(o, a, kind, prime, ring)
    return WilsonProduct(kind, prime, witness)


# ---------------------------------------------------------------------------
# The classical case o = Z, as an independent code path.
# ---------------------------------------------------------------------------

def classify_gauss(A: int) -> int:
    """-1 if the product of all units of Z/A is -1, else +1; by form of A.

    The -1 cases are exactly A = 4, A = p^m, and A = 2*p^m for odd primes p.
    A = 2 returns +1 (the product is the empty-ish 1; -1 = 1 there anyway).
    """
    if A < 2:
        raise ValueError("A must be at least 2")
    odd = A // 2 if A % 4 == 2 else A
    return -1 if A == 4 or (odd % 2 and len(trial_factor(odd)) == 1) else 1


def gauss_product(A: int) -> int:
    """Brute-force product over (Z/A)^x, as a plain integer loop."""
    prod = 1
    for x in range(1, A):
        if math.gcd(x, A) == 1:
            prod = prod * x % A
    return prod


# ---------------------------------------------------------------------------
# Oracle verification: one ideal, then sweeps over many.
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    """Closed form vs. brute force for one modulus."""

    ideal: FactoredIdeal
    predicted: WilsonProduct
    actual: ResidueElement
    census: Census | None
    ring: ResidueRing

    @property
    def match(self) -> bool:
        return (self.predicted.witness is not None
                and self.predicted.witness.coeffs == self.actual.coeffs)

    def to_json(self) -> dict:
        out = {
            "ideal": self.ideal.label(),
            "predicted": self.predicted.to_json(),
            "product": list(self.actual.coeffs),
            "match": self.match,
        }
        if self.census is not None:
            out["census"] = {
                "d2": self.census.d2,
                "order2_count": self.census.count,
                "solutions": [list(s.coeffs) for s in self.census.elements],
            }
        return out


def verify_ideal(o: NumberFieldOrder, a: FactoredIdeal, *,
                 cap: int = DEFAULT_CAP, ctx: OrderContext | None = None,
                 with_census: bool = True) -> VerifyResult:
    """Compare the classified product against honest enumeration; the ring
    is built in ``ctx``, or in a fresh context."""
    ring = build_residue_ring(o, a, cap=cap, ctx=ctx)
    predicted = classify_global(o, a, cap=cap, ring=ring)
    # one walk over the units gives the product, and the census with it
    census = ring.order2_census() if with_census else None
    actual = census.product if census is not None else ring.unit_product()
    return VerifyResult(a, predicted, actual, census, ring)


def sweep_ideals(o: NumberFieldOrder, max_norm: int, *,
                 prime_bound: int = 13,
                 exp_cap: int = 8) -> Iterator[FactoredIdeal]:
    """All nonunit ideals supported on primes above p <= prime_bound, with
    every exponent <= exp_cap and norm <= max_norm, in a fixed order."""
    pds = []
    for p in range(2, prime_bound + 1):
        if is_prime(p):
            pds.extend(factor_prime(o, p))

    def rec(i: int, chosen: list, norm: int) -> Iterator[FactoredIdeal]:
        if i == len(pds):
            if chosen:
                yield FactoredIdeal(tuple(chosen))
            return
        yield from rec(i + 1, chosen, norm)
        q = pds[i].residue_size
        nm = norm
        for m in range(1, exp_cap + 1):
            nm *= q
            if nm > max_norm:
                break
            yield from rec(i + 1, chosen + [(pds[i], m)], nm)

    yield from rec(0, [], 1)


@dataclass
class SweepSummary:
    """Aggregate outcome of verifying every ideal in a sweep."""

    cases: int
    matches: int
    class_counts: dict
    mismatches: list

    @property
    def ok(self) -> bool:
        return self.matches == self.cases

    def to_json(self) -> dict:
        return {
            "cases": self.cases,
            "matches": self.matches,
            "ok": self.ok,
            "classes": dict(self.class_counts),
            "mismatches": self.mismatches,
        }


def sweep_field(o: NumberFieldOrder, max_norm: int, *,
                prime_bound: int = 13, exp_cap: int = 8,
                cap: int = DEFAULT_CAP) -> SweepSummary:
    """Verify every sweep ideal of the order; collect mismatches with their
    censuses (the main regression instrument of the package).  The rings
    share one context, which ends with the sweep."""
    ctx = OrderContext(o)
    counts: Counter = Counter()
    mismatches = []
    cases = matches = 0
    for a in sweep_ideals(o, min(max_norm, cap),
                          prime_bound=prime_bound, exp_cap=exp_cap):
        res = verify_ideal(o, a, cap=cap, ctx=ctx, with_census=False)
        cases += 1
        counts[res.predicted.kind.value] += 1
        if res.match:
            matches += 1
        else:
            census = res.ring.order2_census()
            mismatches.append({
                "ideal": a.label(),
                "predicted": res.predicted.to_json(),
                "product": list(res.actual.coeffs),
                "census": {
                    "d2": census.d2,
                    "solutions": [list(s.coeffs) for s in census.elements],
                },
            })
    return SweepSummary(cases, matches, dict(counts), mismatches)
