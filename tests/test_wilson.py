"""Closed-form classification vs. hand-worked cases and the enumeration oracle."""

import gc
import random
import tracemalloc
import weakref

import pytest

from wilsonprod import lattice, make_order
from wilsonprod.errors import NotUniqueTorsion
from wilsonprod.order import OrderElement
from wilsonprod.primes import (
    FactoredIdeal,
    factor_element,
    factor_prime,
    parse_ideal,
    valuation,
)
from wilsonprod.residue import OrderContext, build_residue_ring
from wilsonprod.wilson import (
    AbelianGroupSpec,
    ProductClass,
    classify_gauss,
    classify_global,
    d2_local,
    d2_of_ideal,
    gauss_product,
    group_sum,
    order2_local,
    sweep_field,
    sweep_ideals,
    uniformizer,
    verify_ideal,
    witness_element,
)

from conftest import group_sum_enumerated, is_unit


# -- abstract abelian groups ---------------------------------------------------

def test_group_sum_examples():
    assert group_sum(AbelianGroupSpec((5,))) == (0,)
    assert group_sum(AbelianGroupSpec((4,))) == (2,)
    assert group_sum(AbelianGroupSpec((2, 2))) == (0, 0)
    assert group_sum(AbelianGroupSpec((3, 8, 5))) == (0, 4, 0)


def test_group_sum_matches_enumeration():
    rng = random.Random(1815)  # a good year for arithmetic
    for _ in range(60):
        k = rng.randint(1, 4)
        spec = AbelianGroupSpec(tuple(rng.randint(2, 16) for _ in range(k)))
        assert group_sum(spec) == group_sum_enumerated(spec)


def test_group_d2_counts_even_orders():
    assert AbelianGroupSpec((3, 8, 5)).d2 == 1
    assert AbelianGroupSpec((2, 4, 6)).d2 == 3
    assert AbelianGroupSpec((3, 9)).d2 == 0


# -- local d2 rules ------------------------------------------------------------

def test_d2_local_odd_primes():
    assert d2_local(3, 1, 1, 5) == 1
    assert d2_local(7, 2, 3, 1) == 1


def test_d2_local_at_two():
    assert d2_local(2, 2, 1, 1) == 0
    assert d2_local(2, 1, 2, 2) == 2  # n = 2 gives f
    assert d2_local(2, 4, 1, 2) == 1
    assert d2_local(2, 2, 1, 3) == 1  # depth 3, f = 1, e > 1
    assert d2_local(2, 1, 1, 3) == 2  # rational 2-adic
    assert d2_local(2, 1, 1, 9) == 2
    assert d2_local(2, 2, 1, 5) == 3  # n > 2e: 1 + ef
    assert d2_local(2, 1, 2, 4) == 3  # n > 2e: 1 + ef
    assert d2_local(2, 4, 1, 9) == 5


def test_d2_local_undetermined_band():
    # n <= 2e: f * floor(n/2), the band the rules used to leave as "> 1"
    assert d2_local(2, 4, 1, 4) == 2
    assert d2_local(2, 2, 2, 3) == 2
    assert d2_local(2, 8, 1, 7) == 3


# -- the symbolic order-2 element ----------------------------------------------

def test_order2_local_symbols():
    assert order2_local(7, 1, 1, 3) is ProductClass.MINUS_ONE
    assert order2_local(2, 1, 1, 2) is ProductClass.ONE_PLUS_PI
    assert order2_local(2, 2, 1, 2) is ProductClass.ONE_PLUS_PI
    assert order2_local(2, 2, 1, 3) is ProductClass.ONE_PLUS_PI_SQ


def test_order2_local_rejects_nonunique():
    for args in [(2, 1, 1, 1), (2, 1, 1, 3), (2, 2, 2, 2), (2, 4, 1, 4)]:
        with pytest.raises(NotUniqueTorsion):
            order2_local(*args)


# -- uniformizers --------------------------------------------------------------

def test_uniformizer_examples(catalog):
    o = catalog["rational"]
    pd = factor_prime(o, 2)[0]
    assert uniformizer(o, pd).coeffs == (2,)  # g(theta) = theta = 0, shifted

    zi = catalog["gaussian"]
    pd = factor_prime(zi, 2)[0]
    assert uniformizer(zi, pd).coeffs == (1, 1)  # 1 + i

    z8 = catalog["zeta8"]
    pd = factor_prime(z8, 2)[0]
    assert uniformizer(z8, pd).coeffs == (1, 1, 0, 0)


def test_uniformizer_valuation_is_one(catalog):
    # one membership test in P^2 picks what the valuations of g(theta) and
    # g(theta)+p pick, at every sweep prime
    orders = [*catalog.values(), make_order("x^3-2"), make_order("x^6+x^3+1")]
    for o in orders:
        for p in (2, 3, 5, 7, 11, 13):
            for pd in factor_prime(o, p):
                pi = uniformizer(o, pd)
                assert valuation(o, pd, pi) == 1
                g = o.element_from_poly(pd.gen_poly)
                first = next(x for x in (g, o.add(g, o.from_int(p)))
                             if valuation(o, pd, x) == 1)
                assert pi.coeffs == first.coeffs, pd


# -- global classification -----------------------------------------------------

def test_classify_four(catalog):
    o = catalog["rational"]
    res = classify_global(o, factor_element(o, o.from_int(4)))
    assert res.kind is ProductClass.ONE_PLUS_PI
    assert res.witness.coeffs == (3,)  # 1 + 2 = 3 = -1 mod 4
    assert res.prime.p == 2


def test_classify_sqrt2_cube(catalog):
    o = catalog["sqrt2"]
    res = classify_global(o, parse_ideal(o, "2^3"))
    assert res.kind is ProductClass.ONE_PLUS_PI_SQ
    ring = build_residue_ring(o, parse_ideal(o, "2^3"))
    assert res.witness.coeffs == ring.reduce([-1, 0]).coeffs


def test_classify_twelve(catalog):
    o = catalog["rational"]
    res = classify_global(o, factor_element(o, o.from_int(12)))
    assert res.kind is ProductClass.ONE
    assert res.witness.coeffs == (1,)


def test_classify_odd_prime(catalog):
    o = catalog["rational"]
    res = classify_global(o, factor_element(o, o.from_int(7)))
    assert res.kind is ProductClass.MINUS_ONE
    assert res.witness.coeffs == (6,)
    assert res.prime is None


def test_classify_unit_ideal(catalog):
    o = catalog["gaussian"]
    res = classify_global(o, FactoredIdeal(()))
    assert res.kind is ProductClass.ONE
    assert res.witness.coeffs == (0, 0)  # the trivial ring collapses 1 to 0


def test_classify_minus_one_with_even_cofactor(catalog):
    # 2 * 3^2: one odd prime power, even part exponent 1 -> still -1
    o = catalog["rational"]
    res = classify_global(o, factor_element(o, o.from_int(18)))
    assert res.kind is ProductClass.MINUS_ONE
    assert res.witness.coeffs == (17,)


def test_classify_beyond_cap_leaves_witness_symbolic(catalog):
    o = catalog["rational"]
    res = classify_global(o, parse_ideal(o, "3^13"))  # norm 3^13 > 2^20
    assert res.kind is ProductClass.MINUS_ONE
    assert res.witness is None
    res = classify_global(o, parse_ideal(o, "2^21"))
    assert res.kind is ProductClass.ONE
    assert res.witness is None


def test_classify_composite_crt_embedding():
    # 2 splits in Z[x]/(x^2+x+2); over P0^2 * P1 the symbol 1+pi lives at
    # P0 only, and the naive global 1+pi is not even a unit here
    o = make_order("x^2+x+2")
    a = parse_ideal(o, "2^2@0; 2^1@1")
    ring = build_residue_ring(o, a)
    res = classify_global(o, a, ring=ring)
    assert res.kind is ProductClass.ONE_PLUS_PI
    assert res.witness.coeffs == (3, 0)
    assert ring.unit_product().coeffs == (3, 0)
    pi = uniformizer(o, res.prime)
    naive = ring.reduce(o.add(o.one, pi))
    assert not is_unit(ring, naive)  # why the embedding is necessary


def test_verify_ideal_reports(catalog):
    o = catalog["gaussian"]
    res = verify_ideal(o, parse_ideal(o, "2^2"))
    assert res.match
    assert res.predicted.kind is ProductClass.ONE_PLUS_PI
    assert res.actual.coeffs == (0, 1)
    assert res.census.d2 == 1
    js = res.to_json()
    assert js["match"] is True
    assert js["predicted"]["class"] == "one_plus_pi"
    assert js["product"] == [0, 1]
    assert js["census"]["d2"] == 1


def test_dropped_ring_is_freed_without_the_cyclic_gc(catalog):
    o = catalog["zeta8"]
    gc.disable()
    try:
        res = verify_ideal(o, parse_ideal(o, "2^3; 3^1"))
        ref = weakref.ref(res.ring)
        del res
        assert ref() is None
    finally:
        gc.enable()


def test_verify_keeps_nothing_the_size_of_the_ring(catalog):
    # 531,441 elements and 472,392 units: a unit array alone is 15 MB
    o = catalog["zeta8"]
    a = parse_ideal(o, "3^6@1")
    tracemalloc.start()
    try:
        res = verify_ideal(o, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.match and res.ring.unit_count == 472392
    assert peak < 20 * 2 ** 20, peak


def test_wilson_product_json_shape(catalog):
    o = catalog["gaussian"]
    res = classify_global(o, parse_ideal(o, "2^2"))
    js = res.to_json()
    assert set(js) == {"class", "prime", "witness"}
    assert js["class"] == "one_plus_pi"
    assert js["prime"]["prime"] == 2
    assert js["witness"] == [0, 1]


# -- uniformizer independence ---------------------------------------------------

def alternate_uniformizers(o, pd):
    """A few valuation-1 elements different from the default choice."""
    base = uniformizer(o, pd)
    p = o.from_int(pd.p)
    candidates = [
        o.add(base, p),
        o.add(base, o.mul(p, p)),
        o.mul(base, o.from_int(3)),
        o.add(base, o.mul(base, base)),
    ]
    return [c for c in candidates
            if c.coeffs != base.coeffs and valuation(o, pd, c) == 1]


def test_witness_independent_of_uniformizer(catalog):
    cases = [
        (catalog["gaussian"], "2^2"),
        (catalog["gaussian"], "2^3"),
        (catalog["sqrt2"], "2^3"),
        (catalog["zeta8"], "2^2"),
        (catalog["zeta8"], "2^3"),
        (make_order("x^2+x+2"), "2^2@0; 2^1@1"),
    ]
    for o, text in cases:
        a = parse_ideal(o, text)
        ring = build_residue_ring(o, a)
        res = classify_global(o, a, ring=ring)
        alts = alternate_uniformizers(o, res.prime)
        assert alts, f"no alternate uniformizer found for {res.prime}"
        for alt in alts:
            w = witness_element(o, a, res.kind, res.prime, ring, pi=alt)
            assert w.coeffs == res.witness.coeffs, \
                f"witness changed with uniformizer {alt.coeffs} at {res.prime}"


# -- the witness at a composite modulus -----------------------------------------

# orders with more than one prime above 2: the local shapes (e, f) at 2 are
# (1,1)+(2,1) for x^3-x-2, (2,1)+(2,1) for x^4+2x^3+x^2-4x-2,
# (2,1)+(1,1)+(1,2) for x^5-4x^4+2x^3-3x^2-4x-2 and (1,1)+(1,1) for x^2+x+2
SPLIT_ORDERS = ("x^3-x-2", "x^4+2x^3+x^2-4x-2", "x^5-4x^4+2x^3-3x^2-4x-2",
                "x^2+x+2")
# (1,1)+(3,1), (1,2)+(2,1) and (3,1)+(3,1) at 2
MORE_SPLIT_ORDERS = ("x^4+3x^3-4x^2+2x+2", "x^4+3x^3-3x^2-2x+2",
                     "x^6+3x^5+x^4-3x^3+4x^2+2x-2")


@pytest.mark.parametrize("poly", SPLIT_ORDERS)
def test_composite_witness_is_one_plus_pi_at_its_factor_and_one_elsewhere(
        poly):
    # every factor and both 1+pi forms, whatever the ideal's own class
    o = make_order(poly)
    ctx = OrderContext(o)
    seen = 0
    for a in sweep_ideals(o, 2 ** 10, prime_bound=3, exp_cap=4):
        if len(a.factors) < 2:
            continue
        ring = build_residue_ring(o, a, ctx=ctx)
        for pd, m in a.factors:
            pi = ctx.uniformizer(pd)
            for kind, loc in ((ProductClass.ONE_PLUS_PI, pi),
                              (ProductClass.ONE_PLUS_PI_SQ, o.mul(pi, pi))):
                w = witness_element(o, a, kind, pd, ring).coeffs
                want = o.add(o.one, loc).coeffs
                assert lattice.contains(
                    ctx.basis(((pd, m),)),
                    [x - y for x, y in zip(w, want)]), (a.label(), pd, kind)
                for q, n in a.factors:
                    if q != pd:
                        assert lattice.contains(
                            ctx.basis(((q, n),)),
                            [x - y for x, y in zip(w, o.one.coeffs)]), \
                            (a.label(), pd, kind, q)
                seen += 1
    assert seen > 0


def test_composite_one_plus_pi_matches_enumeration():
    composite = set()
    for poly in SPLIT_ORDERS + MORE_SPLIT_ORDERS:
        o = make_order(poly)
        ctx = OrderContext(o)
        for a in sweep_ideals(o, 2 ** 12, prime_bound=2):
            res = verify_ideal(o, a, ctx=ctx, with_census=False)
            assert res.match, (poly, a.label())
            if len(a.factors) > 1:
                composite.add(res.predicted.kind)
    assert {ProductClass.ONE_PLUS_PI, ProductClass.ONE_PLUS_PI_SQ} <= composite


# -- classifier vs. census on a small sample ------------------------------------

def test_d2_local_matches_census_sample(catalog):
    # the catalog plus e = 3 (x^3-2), e = f = 2 (x^4-x^2+1), e = 8 (x^8+1),
    # f = 3 (x^3+x+1) and e = 6, f = 6 (x^6+x^3+1)
    orders = list(catalog.values()) + [
        make_order(poly) for poly in ("x^3-2", "x^4-x^2+1", "x^8+1",
                                      "x^3+x+1", "x^6+x^3+1")]
    for o in orders:
        for p in (2, 3):
            for pd in factor_prime(o, p):
                n = 1
                while pd.residue_size ** n <= 4096:
                    ring = build_residue_ring(o, FactoredIdeal(((pd, n),)))
                    assert ring.order2_census().d2 == \
                        d2_local(pd.p, pd.e, pd.f, n), str(ring)
                    n += 1


def test_d2_of_ideal_additive(catalog):
    o = catalog["gaussian"]
    a = parse_ideal(o, "2^2; 3^1; 5^1@0")
    # factors contribute f=1 (n=2 at 2), 1 (odd), 1 (odd)
    assert d2_of_ideal(a) == 3
    assert d2_of_ideal(FactoredIdeal(())) == 0


# -- the classical integer case --------------------------------------------------

def test_classify_gauss_forms():
    assert classify_gauss(2) == 1
    assert classify_gauss(4) == -1
    assert classify_gauss(8) == 1
    assert classify_gauss(9) == -1
    assert classify_gauss(12) == 1
    assert classify_gauss(18) == -1  # 2 * 3^2
    assert classify_gauss(25) == -1
    assert classify_gauss(50) == -1  # 2 * 5^2
    assert classify_gauss(100) == 1
    assert classify_gauss(2048) == 1
    assert classify_gauss(343) == -1  # 7^3
    with pytest.raises(ValueError):
        classify_gauss(1)


def test_classify_gauss_matches_brute_force():
    for A in range(2, 300):
        want_minus = gauss_product(A) == A - 1 and A > 2
        assert (classify_gauss(A) == -1) == want_minus, f"A={A}"


def test_classify_gauss_matches_general_machinery(catalog):
    o = catalog["rational"]
    for A in range(2, 120):
        res = classify_global(o, factor_element(o, o.from_int(A)))
        sign = -1 if res.witness.coeffs == ((A - 1) % A,) and A > 2 else 1
        assert sign == classify_gauss(A), f"A={A}"


# -- sweeps ----------------------------------------------------------------------

def smooth_numbers(bound, primes=(2, 3, 5, 7, 11, 13), exp_cap=8):
    out = [1]
    for p in primes:
        nxt = []
        for n in out:
            m = 0
            v = n
            while v <= bound and m <= exp_cap:
                nxt.append(v)
                v *= p
                m += 1
        out = nxt
    return sorted(n for n in out if n > 1)


def test_sweep_ideals_over_z(catalog):
    o = catalog["rational"]
    norms = sorted(a.absolute_norm for a in sweep_ideals(o, 100))
    assert norms == smooth_numbers(100)


def test_sweep_ideals_deterministic(catalog):
    o = catalog["gaussian"]
    first = [a.label() for a in sweep_ideals(o, 500)]
    second = [a.label() for a in sweep_ideals(o, 500)]
    assert first == second
    assert len(first) == len(set(first))


def test_sweep_ideals_respects_bounds(catalog):
    o = catalog["gaussian"]
    for a in sweep_ideals(o, 400, exp_cap=3):
        assert 1 < a.absolute_norm <= 400
        assert all(m <= 3 for _, m in a.factors)


def test_sweep_ideals_trivial_bound(catalog):
    assert list(sweep_ideals(catalog["gaussian"], 1)) == []


def test_sweep_field_z_reproduces_gauss(catalog):
    o = catalog["rational"]
    summary = sweep_field(o, 2000)
    assert summary.ok
    assert summary.cases == len(smooth_numbers(2000))
    minus = sum(1 for A in smooth_numbers(2000) if classify_gauss(A) == -1)
    got_minus = summary.class_counts.get("minus_one", 0) + \
        summary.class_counts.get("one_plus_pi", 0)  # A = 4 is the 1+pi case
    assert got_minus == minus


@pytest.mark.parametrize("poly", ["x^3+x+1", "x^6+x^3+1"])
def test_sweep_field_cubic_and_sextic(poly):
    summary = sweep_field(make_order(poly), 4096)
    assert summary.ok
    assert summary.cases > 0 and summary.mismatches == []


def test_sweep_field_leaves_no_cache_behind():
    # the sweep's context ends with the sweep: nothing is stored on the
    # order, and no context outlives the call
    def live_contexts():
        gc.collect()
        return sum(isinstance(x, OrderContext) for x in gc.get_objects())

    o = make_order("x^4+1")
    before = dict(vars(o)), live_contexts()
    assert sweep_field(o, 1024).ok
    assert (dict(vars(o)), live_contexts()) == before


def test_sweep_field_gaussian_small(catalog):
    summary = sweep_field(catalog["gaussian"], 4096)
    assert summary.ok
    assert summary.mismatches == []
    js = summary.to_json()
    assert js["cases"] == summary.cases
    assert js["ok"] is True
