"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL: ...`` line (visible
with ``pytest -s``) and asserts the criterion, including its runtime budget
where one is stated.  Criterion 4 is the heavyweight: it brute-verifies the
classified product on every sweep ideal of four quadratic/quartic orders,
roughly ten thousand residue rings.
"""

import itertools
import random
import time
from collections import Counter

from wilsonprod.order import make_order
from wilsonprod.primes import FactoredIdeal, factor_prime, parse_ideal
from wilsonprod.residue import DEFAULT_CAP, OrderContext, build_residue_ring
from wilsonprod.wilson import (
    AbelianGroupSpec,
    ProductClass,
    classify_gauss,
    classify_global,
    d2_local,
    gauss_product,
    group_sum,
    sweep_field,
    sweep_ideals,
    uniformizer,
    verify_ideal,
)

from conftest import group_sum_enumerated

# The four orders the number-field criteria run over.  At 2 they realize the
# ramified (e=2), inert (f=2), and totally ramified (e=4) local shapes.
CATALOG = {
    "gaussian": (1, 0, 1),      # x^2 + 1       e=2 f=1 at 2
    "sqrt2": (-2, 0, 1),        # x^2 - 2       e=2 f=1 at 2
    "eisenstein": (1, 1, 1),    # x^2 + x + 1   2 inert, f=2
    "zeta8": (1, 0, 0, 0, 1),   # x^4 + 1       e=4 f=1 at 2
}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def closure_of(ring, gens):
    """Coefficient tuples of the subgroup generated by ``gens``."""
    seen = {ring.one.coeffs}
    frontier = [ring.one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.coeffs not in seen:
                    seen.add(y.coeffs)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_criterion_1_gauss_sweep():
    """Product over (Z/A)^x is -1 exactly for A in {4, p^m, 2p^m}, A <= 2000."""
    t0 = time.perf_counter()
    minus = {4}
    for p in range(3, 2001, 2):
        if all(p % q for q in range(3, p, 2)):
            q = p
            while q <= 2000:
                minus.add(q)
                if 2 * q <= 2000:
                    minus.add(2 * q)
                q *= p
    bad = []
    for big_a in range(2, 2001):
        want = (big_a - 1) % big_a if big_a in minus else 1
        if gauss_product(big_a) != want:
            bad.append(("brute", big_a))
        if classify_gauss(big_a) != (-1 if big_a in minus else 1):
            bad.append(("closed-form", big_a))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    report(1, ok,
           f"A in [2, 2000]: brute product and closed form agree, "
           f"{len(minus)} minus-one moduli ({dt:.2f}s / 10s)"
           + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_2_rational_prime_power_table():
    """d2 of (Z/p^n)^x: 1 for odd p; 0, 1, 2 for p=2 and n=1, 2, >2."""
    t0 = time.perf_counter()
    o = make_order((0, 1))
    checked = 0
    bad = []
    for p in (2, 3, 5, 7, 11):
        n = 1
        while p ** n <= DEFAULT_CAP:
            d2 = build_residue_ring(o, parse_ideal(o, f"{p}^{n}")) \
                .order2_census().d2
            want = 1 if p != 2 else (0 if n == 1 else 1 if n == 2 else 2)
            if d2 != want:
                bad.append((p, n, d2, want))
            checked += 1
            n += 1
    dt = time.perf_counter() - t0
    ok = not bad and dt < 5.0
    report(2, ok,
           f"two-torsion table verified at {checked} prime powers p^n "
           f"<= 2^20, p in {{2,3,5,7,11}} ({dt:.2f}s / 5s)"
           + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_3_even_prime_power_d2_catalog():
    """Census d2 of (o/P^n)^x matches the local rules at 2, all four orders."""
    t0 = time.perf_counter()
    checked = hasse = 0
    bad = []
    for name, poly in CATALOG.items():
        o = make_order(poly)
        (pd,) = factor_prime(o, 2)
        ctx = OrderContext(o)
        n = 1
        while pd.residue_size ** n <= DEFAULT_CAP:
            ring = build_residue_ring(o, FactoredIdeal(((pd, n),)), ctx=ctx)
            d2 = ring.order2_census().d2
            claim = d2_local(2, pd.e, pd.f, n)
            if d2 != claim:
                bad.append((name, n, d2, claim))
            if n > 2 * pd.e:
                hasse += 1
                if claim != 1 + pd.e * pd.f:
                    bad.append((name, n, "stable-range", claim))
            checked += 1
            n += 1
    dt = time.perf_counter() - t0
    ok = not bad and hasse > 0 and dt < 60.0
    report(3, ok,
           f"{checked} prime-power rings at 2 across 4 orders, census == "
           f"closed form ({hasse} in the stable range n > 2e) "
           f"({dt:.2f}s / 60s)" + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_4_sweep_oracle_equivalence():
    """Classified witness == enumerated unit product on every sweep ideal."""
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for name, poly in CATALOG.items():
        t_field = time.perf_counter()
        o = make_order(poly)
        summary = sweep_field(o, DEFAULT_CAP, prime_bound=13, exp_cap=8)
        nfac = Counter(
            len(a.factors)
            for a in sweep_ideals(o, DEFAULT_CAP, prime_bound=13, exp_cap=8))
        if not (summary.ok and nfac[2] > 0 and nfac[3] > 0):
            all_ok = False
        details.append(
            f"{name} {summary.matches}/{summary.cases}"
            f" ({nfac[2]}x2, {nfac[3]}x3 factors,"
            f" {time.perf_counter() - t_field:.1f}s)")
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 300.0
    report(4, ok, "; ".join(details) + f" ({dt:.1f}s / 300s)")


def test_criterion_5_cyclotomic_two_power_pattern():
    """o/P^n over Q(zeta_{2^t}): products run 1, 1+pi, 1+pi^2, 1, 1, ..."""
    t0 = time.perf_counter()
    rows = 0
    bad = []
    pattern = {1: ProductClass.ONE, 2: ProductClass.ONE_PLUS_PI,
               3: ProductClass.ONE_PLUS_PI_SQ}
    for t, n_max in ((2, 8), (3, 5)):
        m = 1 << (t - 1)
        o = make_order((1,) + (0,) * (m - 1) + (1,))
        (pd,) = factor_prime(o, 2)
        assert pd.e == m and pd.f == 1
        ctx = OrderContext(o)
        for n in range(1, n_max + 1):
            res = verify_ideal(o, parse_ideal(o, f"2^{n}"), ctx=ctx,
                               with_census=False)
            want = pattern.get(n, ProductClass.ONE)
            if res.predicted.kind is not want or not res.match:
                bad.append((t, n, res.predicted.kind.value, res.match))
            rows += 1
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    report(5, ok,
           f"{rows} rings over the 4th and 8th cyclotomic orders follow the "
           f"1, 1+pi, 1+pi^2, 1, ... pattern ({dt:.2f}s / 30s)"
           + (f"; failures {bad}" if bad else ""))


def test_criterion_6_coincidence_identities():
    """1+pi = -1 in Z/4; 1+pi^2 = -1 in Z[sqrt2]/P^3; -1 = 1 iff 2|p, n<=e."""
    t0 = time.perf_counter()
    bad = []

    o = make_order((0, 1))
    a = parse_ideal(o, "2^2")
    ring = build_residue_ring(o, a)
    res = classify_global(o, a, ring=ring)
    if not (res.kind is ProductClass.ONE_PLUS_PI
            and res.witness.coeffs == ring.reduce([-1]).coeffs):
        bad.append(("Z/4", res.kind.value, res.witness.coeffs))

    o = make_order((-2, 0, 1))
    a = parse_ideal(o, "2^3")
    ring = build_residue_ring(o, a)
    res = classify_global(o, a, ring=ring)
    if not (res.kind is ProductClass.ONE_PLUS_PI_SQ
            and res.witness.coeffs == ring.reduce([-1, 0]).coeffs):
        bad.append(("Z[sqrt2]/P^3", res.kind.value, res.witness.coeffs))

    pairs = 0
    for name, poly in CATALOG.items():
        o = make_order(poly)
        for p in (2, 3):
            for pd in factor_prime(o, p):
                for n in range(1, pd.e + 3):
                    if pd.residue_size ** n > 1 << 16:
                        break
                    r = build_residue_ring(o, FactoredIdeal(((pd, n),)))
                    minus_one = r.reduce([-1] + [0] * (o.degree - 1))
                    if (minus_one == r.one) != (p == 2 and n <= pd.e):
                        bad.append(("-1==1", name, p, pd.index, n))
                    pairs += 1
    dt = time.perf_counter() - t0
    ok = not bad
    report(6, ok,
           f"both coincidences hold and -1 == 1 exactly at even P^n with "
           f"n <= e ({pairs} rings checked, {dt:.2f}s)"
           + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_7_group_sum_property():
    """Closed-form sum over a random abelian group == enumerated sum, x500."""
    t0 = time.perf_counter()
    rng = random.Random(90021)
    bad = []
    for _ in range(500):
        k = rng.randint(1, 4)
        spec = AbelianGroupSpec(tuple(rng.randint(2, 16) for _ in range(k)))
        if group_sum(spec) != group_sum_enumerated(spec):
            bad.append(spec.cyclic_orders)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    report(7, ok,
           f"500 random cyclic-factor shapes (<= 4 factors, orders <= 16) "
           f"({dt:.2f}s / 10s)" + (f"; failures {bad[:5]}" if bad else ""))


def test_criterion_8_structural_checks():
    """Degree bookkeeping, unit counts, census sizes, filtration structure."""
    t0 = time.perf_counter()
    bad = []

    for name, poly in CATALOG.items():
        o = make_order(poly)
        for p in (2, 3, 5, 7, 11, 13):
            if sum(pd.e * pd.f for pd in factor_prime(o, p)) != o.degree:
                bad.append(("sum-ef", name, p))

        for label in ("2^1", "2^2", "2^3", "3^1", "3^2", "2^2; 3^1"):
            a = parse_ideal(o, label)
            r = build_residue_ring(o, a)
            formula = 1
            for pd, m in a.factors:
                q = pd.residue_size
                formula *= q ** (m - 1) * (q - 1)
            if len(r.units()) != formula or r.unit_count != formula:
                bad.append(("unit-count", name, label))
            c = r.order2_census()
            if c.count != 2 ** c.d2 - 1 or len(c.elements) != 2 ** c.d2:
                bad.append(("census-size", name, label))
            if any((x * x).coeffs != r.one.coeffs for x in c.elements):
                bad.append(("census-squares", name, label))

    filtered = 0
    for name, poly in CATALOG.items():
        o = make_order(poly)
        (pd,) = factor_prime(o, 2)
        if not (pd.e > 1 and pd.f == 1):
            continue
        filtered += 1
        pi = uniformizer(o, pd)
        one_plus_pi = [1 + pi.coeffs[0]] + list(pi.coeffs[1:])

        r3 = build_residue_ring(o, FactoredIdeal(((pd, 3),)))
        gen = closure_of(r3, [r3.reduce(one_plus_pi)])
        u1 = {u.coeffs for u in r3.principal_units(1)}
        if gen != u1:
            bad.append(("U1/U3-generator", name))

        r4 = build_residue_ring(o, FactoredIdeal(((pd, 4),)))
        h = r4.principal_units(1)
        if len(h) != 8 or any((x * x * x * x).coeffs != r4.one.coeffs
                              for x in h):
            bad.append(("U1/U4-noncyclic", name))
    dt = time.perf_counter() - t0
    ok = not bad and filtered == 3
    report(8, ok,
           f"sum e*f = degree, unit counts, 2^k - 1 censuses, and the "
           f"U1-filtration facts in {filtered} ramified-at-2 orders "
           f"({dt:.2f}s)" + (f"; failures {bad[:5]}" if bad else ""))
