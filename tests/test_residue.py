"""Residue rings and their unit groups, checked against hand-worked cases."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wilsonprod import lattice, make_order, residue
from wilsonprod.errors import (
    CompositeModulus,
    InvariantViolation,
    JOutOfRange,
    RingTooLarge,
)
from wilsonprod.primes import (
    FactoredIdeal,
    factor_element,
    factor_prime,
    parse_ideal,
)
from wilsonprod.residue import OrderContext, build_residue_ring
from wilsonprod.wilson import (
    ProductClass,
    classify_global,
    sweep_field,
    sweep_ideals,
    verify_ideal,
)

from conftest import CATALOG_POLYS, is_unit, lattice_product, power_lattice


def ring_mod_int(o, a_int, cap=1 << 20):
    return build_residue_ring(o, factor_element(o, o.from_int(a_int)), cap=cap)


def prime_power_ring(o, p, n, index=0, cap=1 << 20):
    pd = factor_prime(o, p)[index]
    return build_residue_ring(o, FactoredIdeal(((pd, n),)), cap=cap)


# -- construction ------------------------------------------------------------

def test_integers_mod_7(catalog):
    ring = ring_mod_int(catalog["rational"], 7)
    assert ring.size == 7
    assert ring.diag == (7,)
    assert ring.unit_count == 6
    assert ring.one.coeffs == (1,)


def test_gaussian_mod_prime_square(catalog):
    # P = (1+i), P^2 = (2): the lattice is 2Z^2
    ring = prime_power_ring(catalog["gaussian"], 2, 2)
    assert ring.size == 4
    assert ring.basis == [[2, 0], [0, 2]]
    assert ring.unit_count == 2


def test_gaussian_mod_prime_cube(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 3)
    assert ring.size == 8
    assert ring.basis == [[2, 2], [0, 4]]
    assert ring.unit_count == 4


def test_inert_prime_gives_field(catalog):
    ring = prime_power_ring(catalog["eisenstein"], 2, 1)
    assert ring.size == 4  # residue field F_4
    assert ring.unit_count == 3


def test_unit_ideal_ring(catalog):
    ring = build_residue_ring(catalog["gaussian"], FactoredIdeal(()))
    assert ring.size == 1
    assert ring.unit_count == 1
    assert ring.unit_product() == ring.one
    assert ring.order2_census().d2 == 0


def test_ring_too_large(catalog):
    with pytest.raises(RingTooLarge):
        prime_power_ring(catalog["gaussian"], 2, 7, cap=100)


def test_composite_lattice_norm(catalog):
    o = catalog["golden"]
    a = parse_ideal(o, "2^2; 3^1")
    ring = build_residue_ring(o, a)
    assert ring.size == 16 * 9  # f = 2 at both primes


def test_composite_basis_is_reduced(catalog):
    # a ring of the criterion-4 sweep whose basis used to hold
    # -60350980075620, which wrapped around in the int64 census
    o = catalog["zeta8"]
    ring = build_residue_ring(o, parse_ideal(o, "2^1; 5^1@1; 11^1; 13^1"))
    assert ring.basis == [[1, 0, 177, 910], [0, 1, 195, 1022],
                          [0, 0, 715, 715], [0, 0, 0, 1430]]
    assert ring.order2_census().d2 == 3


def test_unreduced_basis_is_refused(catalog, monkeypatch):
    # the context checks each basis it makes, so no ring is built on one
    # with an entry outside [0, pivot)
    o = catalog["gaussian"]
    a = parse_ideal(o, "2^3")
    assert build_residue_ring(o, a).basis == [[2, 2], [0, 4]]
    monkeypatch.setattr(lattice, "ideal_power_lattice",
                        lambda *args: [[2, -2], [0, 4]])
    with pytest.raises(InvariantViolation, match="not in reduced"):
        build_residue_ring(o, a)


@pytest.mark.parametrize("maker,label,basis", [
    ("ideal_power_lattice", "2^3", [[2, 0], [0, 2]]),
    ("comaximal_product", "2^3; 5^1", [[1, 0], [0, 8]]),
])
def test_basis_of_wrong_index_is_refused(catalog, monkeypatch, maker, label,
                                         basis):
    o = catalog["gaussian"]
    monkeypatch.setattr(lattice, maker, lambda *args: basis)
    with pytest.raises(InvariantViolation, match="not in reduced .* index"):
        build_residue_ring(o, parse_ideal(o, label))


def test_each_basis_is_checked_once(monkeypatch):
    # every basis a sweep's context makes is the basis of one of its rings
    checked = []
    is_reduced = lattice.is_reduced
    monkeypatch.setattr(lattice, "is_reduced",
                        lambda b: checked.append(b) or is_reduced(b))
    o = make_order("x^3-2")
    summary = sweep_field(o, 1 << 10)
    assert summary.ok and len(checked) == summary.cases > 100


def test_two_builds_of_one_ring_are_equal(catalog):
    o = catalog["gaussian"]
    a = parse_ideal(o, "5^1")
    assert verify_ideal(o, a).actual == verify_ideal(o, a).actual
    ring = build_residue_ring(o, a)
    assert ring == build_residue_ring(o, a)
    assert hash(ring) == hash(build_residue_ring(o, a))
    assert ring != build_residue_ring(o, parse_ideal(o, "5^1@1"))


def test_a_ring_that_cannot_defer_takes_no_tensor(monkeypatch):
    # the narrow level holds only to defer_mod's bound: the int32 ring of
    # test_non_deferred_reduction must enumerate without it, and a ring of
    # the same order that defers takes it
    def fail(*args):
        raise AssertionError("tensor taken")

    monkeypatch.setattr(residue.OrderContext, "tensor", fail)
    monkeypatch.setattr(residue, "_np_tensor_mul", fail)
    o = make_order("x^8+123456789x^3+1")
    res = verify_ideal(o, parse_ideal(o, "5^1; 113^1"))
    assert not res.ring._defer_mod
    assert res.match and res.census.d2 == 2
    ring = build_residue_ring(o, parse_ideal(o, "7^1"))
    with pytest.raises(AssertionError, match="tensor taken"):
        ring.unit_product()


def test_non_deferred_reduction():
    # the fold rows of the first f have large residues mod the exponent of
    # o/a (565 and 842,837, each |o/a| itself), which leaves too little
    # room in the ring's lane to defer the coefficient reduction past the
    # fold, so _np_mul reduces before the fold as well; one ring in each
    # lane.  The dense octics, at exponents near 10^6, defer in neither
    # lane: without that reduction they could not be enumerated at all
    for poly, label, lane, d2 in (
            ("x^8+123456789x^3+1", "5^1; 113^1", np.int32, 2),
            ("x^8+123456789x^3+1", "41^1@1; 61^1@1; 337^1@2", np.int64, 3),
            ("x^8-9x^7+9x^6+x^4-7x^3-x^2-5x-4", "1000037^1", np.int64, 1),
            ("x^8-8x^7-4x^6-2x^5+6x^4-8x^3-4x^2-2x-4", "1000003^1",
             np.int64, 1)):
        o = make_order(poly)
        res = verify_ideal(o, parse_ideal(o, label))
        assert res.ring._kernels.dtype is lane, label
        assert res.ring._np_ok and not res.ring._defer_mod, label
        assert res.match and res.census.d2 == d2, label


def test_one_kernel_setting_per_exponent(monkeypatch):
    # the rings of one exponent and the tables of each prime run in one
    # setting, made once per context; a setting beyond every lane is kept
    # as None, not remade
    made = []
    lane = residue._lane
    monkeypatch.setattr(residue, "_lane",
                        lambda d, e: made.append(e) or lane(d, e))
    o = make_order("x^2+1")
    ctx = OrderContext(o)
    for label in ("5^1; 13^1", "5^1; 13^1@1", "5^1", "5^1; 13^1"):
        ring = build_residue_ring(o, parse_ideal(o, label), ctx=ctx)
        assert verify_ideal(o, ring.modulus, ctx=ctx).match, label
        assert ring._kernels is ctx.kernels(ring.exponent), label
    assert ctx.kernels(1 << 40) is None and ctx.kernels(1 << 40) is None
    assert sorted(made) == [5, 13, 65, 1 << 40]


# -- units and products: frozen small cases ----------------------------------

def test_units_mod_8(catalog):
    ring = ring_mod_int(catalog["rational"], 8)
    assert sorted(u.coeffs for u in ring.units()) == [(1,), (3,), (5,), (7,)]
    assert ring.unit_product() == ring.one  # 1*3*5*7 = 105 = 1 mod 8


def test_product_mod_7(catalog):
    ring = ring_mod_int(catalog["rational"], 7)
    assert ring.unit_product().coeffs == (6,)


def test_gaussian_prime_square_units(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 2)
    assert sorted(u.coeffs for u in ring.units()) == [(0, 1), (1, 0)]
    assert ring.unit_product().coeffs == (0, 1)  # the class of i


def test_gaussian_prime_cube_product(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 3)
    assert sorted(u.coeffs for u in ring.units()) == \
        [(0, 1), (0, 3), (1, 0), (1, 2)]
    assert ring.unit_product().coeffs == (1, 2)  # 1 + 2i


def test_sqrt2_prime_cube_product(catalog):
    ring = prime_power_ring(catalog["sqrt2"], 2, 3)
    assert ring.basis == [[4, 0], [0, 2]]
    assert ring.unit_product().coeffs == (3, 0)
    # ... which happens to be the class of -1 here
    assert ring.reduce([-1, 0]).coeffs == (3, 0)


def test_split_composite_product():
    # 2 splits in Z[x]/(x^2+x+2); modulus P0^2 * P1 has exactly two units
    o = make_order("x^2+x+2")
    ring = build_residue_ring(o, parse_ideal(o, "2^2@0; 2^1@1"))
    assert ring.basis == [[4, 0], [0, 2]]
    assert sorted(u.coeffs for u in ring.units()) == [(1, 0), (3, 0)]
    assert ring.unit_product().coeffs == (3, 0)


# -- censuses ----------------------------------------------------------------

def test_census_mod_8(catalog):
    census = ring_mod_int(catalog["rational"], 8).order2_census()
    assert census.d2 == 2
    assert census.count == 3
    assert sorted(s.coeffs for s in census.elements) == \
        [(1,), (3,), (5,), (7,)]


def test_census_mod_7(catalog):
    census = ring_mod_int(catalog["rational"], 7).order2_census()
    assert census.d2 == 1
    assert sorted(s.coeffs for s in census.elements) == [(1,), (6,)]


def test_census_mod_2(catalog):
    census = ring_mod_int(catalog["rational"], 2).order2_census()
    assert census.d2 == 0
    assert census.count == 0


def test_census_gaussian_cube(catalog):
    census = prime_power_ring(catalog["gaussian"], 2, 3).order2_census()
    assert census.d2 == 1
    assert sorted(s.coeffs for s in census.elements) == [(1, 0), (1, 2)]


CENSUS_RINGS = [
    ("x^4+1", "2^5"),             # e = 4
    ("x^2+1", "3^2"),             # f = 2
    ("x^2+1", "5^1; 7^1"),        # diag (7, 35): a_1 has pivot 1 on axis 0
    ("x^2-2", "2^5; 7^1@1"),      # diag (8, 28)
    ("x", "2^3; 3^2; 5^1; 7^1"),  # four steps, one a factor
    ("x^2+1", "2^12"),
    ("x^2+1", "2^7; 5^2"),
    ("x^2+1", "5^5"),
    ("x^2+1", "2^1; 3^1"),
    ("x^6+x^3+1", "13^1"),        # one step over all of o/P, f = 3
    ("x^4+6x^3-5x^2-2x-5", "2^5"),  # (e, f) = (2, 2)
    ("x^6+3x^5+6x^4-3x^3-2x^2-5x+1", "2^3; 3^1"),
]


@pytest.mark.parametrize("poly,label", CENSUS_RINGS)
def test_census_matches_scalar_roots(poly, label):
    # the lifted census is every class whose square is 1 by the scalar ring
    # arithmetic, in box order, whatever the chain of its steps
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    roots = [x for x in ring.elements() if ring.mul(x, x) == ring.one]
    census = ring.order2_census()
    assert census.elements == roots
    assert len(roots) == 1 << census.d2 == census.count + 1


def test_census_walks_the_box_once(monkeypatch):
    # the walk for the product is the census's only pass over the box
    walks = []
    units_array = residue.ResidueRing._units_array
    monkeypatch.setattr(residue.ResidueRing, "_units_array",
                        lambda ring: walks.append(ring) or units_array(ring))
    o = make_order("x^2+1")
    ring = build_residue_ring(o, parse_ideal(o, "2^7; 5^2"))
    assert ring.order2_census().d2 == 4
    assert walks == [ring]


@pytest.mark.parametrize("lane", [np.int32, np.int64])
@pytest.mark.parametrize("d,live", [
    (2, (1,)), (3, (0, 2)), (3, (0, 1)), (3, (1,)), (4, (2, 3)),
    (4, (0, 2)), (4, (1, 2, 3)),
])
def test_np_mul_on_live_rows_matches_every_row(lane, d, live):
    # a second operand that is 0 outside its live rows: convolving only
    # those rows, with the others zeroed, gives the full product, also in
    # a work buffer of garbage and aliased onto the first operand
    rng = np.random.default_rng(10 * d + len(live))
    n, k = 97, 53
    red = rng.integers(-(n // 2), n // 2 + 1, size=(d - 1, d))
    a = rng.integers(0, n, size=(d, k)).astype(lane)
    b = np.zeros((d, k), dtype=lane)
    b[list(live)] = rng.integers(0, n, size=(len(live), k))
    for defer in (True, False):
        args = (residue._fold_terms(red), n, d, defer)
        want = residue._np_mul(a, b, *args)
        work = rng.integers(-2 ** 30, 2 ** 30, size=(3 * d - 1) * k,
                            dtype=lane)
        got = residue._np_mul(a, b, *args, work=work, live_rows=live)
        assert np.array_equal(got, want), defer
        got = a.copy()
        residue._np_mul(got, b, *args, out=got, work=work, live_rows=live)
        assert np.array_equal(got, want), defer
        sq = residue._np_mul(b, b, *args, work=work, live_rows=live)
        assert np.array_equal(sq, residue._np_mul(b, b, *args)), defer


def test_live_rows_are_the_axes_of_pivot_above_one():
    o = make_order("x^2+1")
    ring = build_residue_ring(o, parse_ideal(o, "2^3; 5^1"))
    assert (ring.diag, ring._live_rows) == ((2, 20), (0, 1))
    o = make_order("x^4+1")
    ring = build_residue_ring(o, parse_ideal(o, "2^2"))
    assert (ring.diag, ring._live_rows) == ((1, 1, 2, 2), (2, 3))
    ring = build_residue_ring(o, FactoredIdeal(()))
    assert ring._live_rows == (0,)  # o/o, whose one class is 0


# -- the shared context and the comaximal product ------------------------------

JOIN_ORDERS = {poly: make_order(poly) for poly in ("x^2+1", "x^3-2", "x^4+1")}


@given(st.sampled_from(sorted(JOIN_ORDERS)),
       st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=2,
                max_size=2, unique=True),
       st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_comaximal_product_matches_lattice_product(poly, primes, i, j, m, n):
    # coprime norms: the stacked HNF of N2*L1 and N1*L2 is the product basis
    o = JOIN_ORDERS[poly]
    (p, q) = primes
    pds, qds = factor_prime(o, p), factor_prime(o, q)
    pd, qd = pds[i % len(pds)], qds[j % len(qds)]
    l1, l2 = power_lattice(o, pd, m), power_lattice(o, qd, n)
    assert lattice.comaximal_product(o, l1, l2) == lattice_product(o, l1, l2)


def test_comaximal_product_refuses_shared_indices():
    # ideals above one prime are one two-generator lattice, never a join
    o = JOIN_ORDERS["x^2+1"]
    p5, q5 = factor_prime(o, 5)
    with pytest.raises(InvariantViolation, match="not coprime"):
        lattice.comaximal_product(o, power_lattice(o, p5, 1),
                                  power_lattice(o, q5, 2))
    with pytest.raises(InvariantViolation, match="not coprime"):
        lattice.comaximal_product(o, power_lattice(o, p5, 1),
                                  [[10, 0], [0, 1]])


def test_same_prime_factors_need_not_be_adjacent():
    # the context groups the factors by rational prime, not by position
    o = JOIN_ORDERS["x^2+1"]
    (p2,), (p5, q5), (p13, q13) = (factor_prime(o, p) for p in (2, 5, 13))
    for factors, exponent in ((((p5, 1), (p13, 1), (q5, 2)), 5 ** 2 * 13),
                              (((p13, 2), (p2, 3), (p5, 1), (q13, 1)),
                               2 ** 2 * 5 * 13 ** 2),
                              (((q5, 1), (p2, 1), (p5, 2)), 2 * 5 ** 2)):
        want = functools.reduce(
            lambda x, y: lattice_product(o, x, y),
            [power_lattice(o, pd, m) for pd, m in factors])
        ctx = OrderContext(o)
        assert ctx.basis(factors) == want, factors
        assert ctx.basis(tuple(sorted(
            factors, key=lambda f: (f[0].p, f[0].index)))) == want, factors
        assert ctx.exponent(factors) == exponent, factors


# the four orders with several primes above 2 of test_wilson.py, and the
# atlas orders of shapes (e, f) = (2, 2), (3, 2), (8, 1) and (1, 8) at 2
SHARED_CONTEXT_ORDERS = (
    "x^4+1", "x^3-2", "x^3-x-2", "x^4+2x^3+x^2-4x-2",
    "x^5-4x^4+2x^3-3x^2-4x-2", "x^2+x+2", "x^4+6x^3-5x^2-2x-5",
    "x^6+3x^5+6x^4-3x^3-2x^2-5x+1", "x^8-6x^7-4x^6+2x^5-6x^4+2x^3-6x^2-6x-2",
    "x^8-4x^7-2x^6+3x^5+2x^4+5x^3-5x^2-2x-1")


@pytest.mark.parametrize("poly", SHARED_CONTEXT_ORDERS)
def test_shared_context_matches_fresh_rings(poly):
    # prefix-built bases from one context against fresh contexts and the
    # factor-by-factor lattice product of the (m+1)*d-generator powers
    o = make_order(poly)
    shared = OrderContext(o)
    composites = cases = same_prime = 0
    for a in sweep_ideals(o, 4096):
        ring = build_residue_ring(o, a, ctx=shared)
        fresh = build_residue_ring(o, a)
        reference = functools.reduce(
            lambda x, y: lattice_product(o, x, y),
            [power_lattice(o, pd, m) for pd, m in a.factors])
        assert ring.basis == fresh.basis == reference, a.label()
        assert ring.diag == fresh.diag
        assert ring.unit_product().coeffs == fresh.unit_product().coeffs
        cases += 1
        composites += len(a.factors) > 1
        same_prime += len({pd.p for pd, _ in a.factors}) < len(a.factors)
    assert 2 * composites > cases and same_prime > 20


def test_context_of_another_order_is_refused(catalog):
    ctx = OrderContext(catalog["gaussian"])
    o = catalog["sqrt2"]
    with pytest.raises(InvariantViolation):
        build_residue_ring(o, parse_ideal(o, "2^2"), ctx=ctx)


# -- arithmetic sanity -------------------------------------------------------

def test_scalar_ops(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 3)
    i = ring.reduce([0, 1])
    assert (i * i).coeffs == ring.reduce([-1, 0]).coeffs
    assert (i * i) * (i * i) == ring.one
    assert is_unit(ring, i)
    assert not is_unit(ring, ring.reduce([1, 1]))  # 1+i generates P


def test_elements_listing(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 2)
    els = ring.elements()
    assert len(els) == 4
    assert [e.coeffs for e in els] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# -- principal unit filtrations ----------------------------------------------

def test_principal_units_mod_8(catalog):
    ring = ring_mod_int(catalog["rational"], 8)
    assert sorted(u.coeffs for u in ring.principal_units(1)) == \
        [(1,), (3,), (5,), (7,)]
    assert sorted(u.coeffs for u in ring.principal_units(2)) == [(1,), (5,)]
    assert sorted(u.coeffs for u in ring.principal_units(3)) == [(1,)]


def test_principal_units_need_prime_power(catalog):
    with pytest.raises(CompositeModulus):
        ring_mod_int(catalog["rational"], 12).principal_units(1)


def test_principal_units_range(catalog):
    ring = ring_mod_int(catalog["rational"], 8)
    with pytest.raises(JOutOfRange):
        ring.principal_units(0)
    with pytest.raises(JOutOfRange):
        ring.principal_units(4)


def test_principal_units_ramified(catalog):
    # e = 2, f = 1: the residue field is F_2, so U_1 is the whole unit group
    ring = prime_power_ring(catalog["gaussian"], 2, 3)
    assert len(ring.principal_units(1)) == ring.unit_count
    assert sorted(u.coeffs for u in ring.principal_units(2)) == \
        [(1, 0), (1, 2)]


# -- the structural law the whole package is about ---------------------------

def small_test_ideals(o):
    """A cross-section of prime-power and composite ideals of small norm."""
    out = []
    for p in (2, 3):
        pds = factor_prime(o, p)
        pd = pds[0]
        for n in (1, 2, 3):
            if pd.residue_size ** n <= 4096:
                out.append(FactoredIdeal(((pd, n),)))
        if len(pds) > 1:
            out.append(FactoredIdeal(((pds[0], 2), (pds[1], 1))))
    p2, p3 = factor_prime(o, 2)[0], factor_prime(o, 3)[0]
    if p2.residue_size ** 2 * p3.residue_size <= 4096:
        out.append(FactoredIdeal(((p2, 2), (p3, 1))))
    return out


def test_product_matches_census_prediction(catalog):
    # the product of all units is 1 unless exactly one element has order 2,
    # in which case it is that element (Wilson's theorem, generalized)
    checked = 0
    for o in catalog.values():
        for a in small_test_ideals(o):
            ring = build_residue_ring(o, a)
            census = ring.order2_census()
            expected = ring.one
            if census.d2 == 1:
                expected = next(s for s in census.elements if s != ring.one)
            assert ring.unit_product() == expected, \
                f"{ring} product disagrees with its census"
            checked += 1
    assert checked > 30


def test_census_d2_adds_over_crt_factors(catalog):
    for name in ("rational", "gaussian", "golden"):
        o = catalog[name]
        a = parse_ideal(o, "2^2; 3^1")
        ring = build_residue_ring(o, a)
        parts = [build_residue_ring(o, FactoredIdeal((f,)))
                 for f in a.factors]
        assert ring.order2_census().d2 == \
            sum(part.order2_census().d2 for part in parts)
        assert ring.size == 1 * \
            __import__("math").prod(part.size for part in parts)


def test_minus_one_trivial_iff_deep_ramification(catalog):
    # -1 = 1 in o/P^n exactly when the ideal divides (2) to full depth:
    # p = 2 and n <= e
    for o in catalog.values():
        for p in (2, 3):
            for pd in factor_prime(o, p):
                for n in (1, 2, 3):
                    if pd.residue_size ** n > 4096:
                        continue
                    ring = build_residue_ring(o, FactoredIdeal(((pd, n),)))
                    triv = ring.reduce([-1] + [0] * (o.degree - 1)) == ring.one
                    assert triv == (p == 2 and n <= pd.e)


def test_unit_group_orders_multiply(catalog):
    rng = random.Random(20260819)
    for name in ("gaussian", "eisenstein", "golden"):
        o = catalog[name]
        ring = prime_power_ring(o, 2, 2)
        for _ in range(10):
            u = ring.units()[rng.randrange(ring.unit_count)]
            power = ring.one
            for _ in range(ring.unit_count):
                power = power * u
            assert power == ring.one


# -- the kernels vs. the scalar ring API --------------------------------------

def test_python_fallback_agrees(catalog):
    # the kernels against a pure-Python reference built only from the
    # scalar ring API (elements, mul) and the is_unit oracle; prime powers,
    # composites whose size is not a power of two (the general modulus path
    # of the kernels) and quartic rings; unit counts
    # that are not powers of two leave an odd column at some tree level;
    # the large-coefficient ring has fold rows far beyond |o/a|
    cases = ((catalog["rational"], "2^3"), (catalog["gaussian"], "2^3"),
             (catalog["golden"], "2^3"), (catalog["golden"], "2^2; 3^1"),
             (catalog["rational"], "2^2; 3^1; 7^1"),
             (catalog["zeta8"], "2^3"), (catalog["zeta8"], "2^3; 3^1"),
             (catalog["zeta8"], "2^2; 5^1@1; 3^1@1"),
             (make_order("x^2+3377699720527872x+1"), "5^3; 3^2"))
    for o, label in cases:
        ring = build_residue_ring(o, parse_ideal(o, label))
        units = [x for x in ring.elements() if is_unit(ring, x)]
        product = ring.one
        for x in units:
            product = ring.mul(product, x)
        roots = [x for x in units if ring.mul(x, x) == ring.one]

        assert ring.units() == units, label
        assert ring.unit_product() == product, label
        census = ring.order2_census()
        assert census.elements == roots, label
        assert census.d2 == len(roots).bit_length() - 1


@pytest.mark.parametrize("poly,label,chunk", [
    ("x", "3^11", residue.CHUNK),        # 177,147 positions: two full blocks
                                         # and a ragged one
    ("x^4+1", "2^8; 3^1", 300),          # 2,304 positions in eight blocks
    ("x^2+x+1", "2^4; 7^1@1", 1 << 16),  # 1,792 positions: one block
])
def test_chunked_enumeration_matches_one_pass(monkeypatch, poly, label,
                                              chunk):
    monkeypatch.setattr(residue, "CHUNK", chunk)
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    cols = ring._unit_rows().T
    whole = residue._np_tree_product(
        cols, ring._kernels.terms, ring.exponent, o.degree, ring._defer_mod)
    assert ring.unit_product() == ring.reduce([int(c) for c in whole])
    census = ring.order2_census()
    assert census.product == ring.unit_product()
    monkeypatch.setattr(residue, "CHUNK", 1 << 40)
    one_pass = build_residue_ring(o, ring.modulus).order2_census()
    assert (census.count, census.d2) == (one_pass.count, one_pass.d2)
    assert [x.coeffs for x in census.elements] == \
        [x.coeffs for x in one_pass.elements]


@pytest.mark.parametrize("poly,label,chunk,span", [
    ("x", "2^2; 3^1", 5, 2),         # blocks of 1, 2 and 1 units
    ("x^2+1", "2^3; 3^1", 7, 2),     # 72 positions in 11 blocks of 1-4
    ("x^2+1", "2^3; 3^1", 7, 1),     # units, one column at a time
    ("x^3-2", "2^2; 5^1", 11, 3),    # blocks of 1 and 7 units, degree 3
    ("x^2+x+1", "2^2; 7^1@1", 9, 4),  # 112 positions, 13 blocks
    ("x^2-2", "2^3; 3^1", 5, 2),     # box (12, 6): block 0 has no unit
])
def test_block_boundaries_match_scalar_reference(monkeypatch, poly, label,
                                                 chunk, span):
    # blocks of box positions hold varying numbers of units: the running
    # product must take in every column of every block, however many the
    # blocks before it had, and the census must keep box order across
    # blocks
    monkeypatch.setattr(residue, "CHUNK", chunk)
    monkeypatch.setattr(residue, "SPAN", span)
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    mask = ring._units_array()
    counts = [np.count_nonzero(mask[s:s + chunk])
              for s in range(0, len(mask), chunk)]
    assert counts[0] < max(counts[1:]) and ring.size % chunk, counts
    units = [x for x in ring.elements() if is_unit(ring, x)]
    product = ring.one
    for x in units:
        product = ring.mul(product, x)
    roots = [x for x in units if ring.mul(x, x) == ring.one]

    assert ring.unit_product() == product
    census = ring.order2_census()
    assert census.product == product
    assert census.elements == roots
    assert ring.units() == units


@st.composite
def reduced_lattices(draw):
    """A reduced HNF basis (entries above each pivot in [0, pivot)), with
    either leading unit pivots or every pivot above 1."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lead = draw(st.integers(1, d - 1)) if d > 1 else 0
        diag = [1] * lead + [draw(st.integers(2, 12))
                             for _ in range(d - lead)]
    else:
        diag = [draw(st.integers(2, 12)) for _ in range(d)]
    basis = [[0] * d for _ in range(d)]
    for i in range(d):
        basis[i][i] = diag[i]
        for j in range(i + 1, d):
            basis[i][j] = draw(st.integers(0, diag[j] - 1))
    return basis


@given(reduced_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_census_kernel_matches_lattice_membership(basis, rnd):
    # the early-exit test against the scalar one; half the vectors are
    # the target plus a lattice vector, so some survive every pivot
    d = len(basis)
    n = lattice.lattice_det(basis)
    one = lattice.reduce_mod(basis, [1] + [0] * (d - 1))
    vecs = []
    for _ in range(64):
        if rnd.random() < 0.5:
            v = list(one)
            for row in basis:
                c = rnd.randrange(n)
                v = [x + c * b for x, b in zip(v, row)]
            v = [x % n for x in v]
        else:
            v = [rnd.randrange(n) for _ in range(d)]
        vecs.append(v)
    cols = np.array(vecs, dtype=np.int64).T.copy()
    got = residue._np_reduce(cols, basis, n, one).tolist()
    want = [i for i, v in enumerate(vecs)
            if lattice.contains(basis, [x - t for x, t in zip(v, one)])]
    assert got == want
    assert cols.T.tolist() == vecs  # the input is left as it was


def test_enumeration_beyond_int64_bound_is_refused(catalog, monkeypatch):
    # 5 splits in Z[i], so the exponent of o/P^13 is its norm 5^13 and
    # (2d+4)*e^2 = 8*5^26 is beyond 2^62
    o = catalog["gaussian"]
    ring = build_residue_ring(o, parse_ideal(o, "5^13"), cap=1 << 40)
    assert ring.exponent == ring.size == 5 ** 13 and not ring._np_ok

    def no_mask(*args):
        raise AssertionError("a mask of the box was made")

    monkeypatch.setattr(residue, "_np_unit_mask", no_mask)
    monkeypatch.setattr(residue, "_np_periodic", no_mask)
    with pytest.raises(RingTooLarge):
        ring.unit_product()
    with pytest.raises(RingTooLarge):
        ring.order2_census()
    with pytest.raises(RingTooLarge):
        ring.units()


def test_classify_beyond_int64_bound_has_a_witness(catalog):
    # the exponent of this ring is 5^13, as in the test above
    o = catalog["gaussian"]
    res = classify_global(o, parse_ideal(o, "5^13; 5^1@1"), cap=1 << 40)
    assert not res.witness.ring._np_ok
    assert res.kind is ProductClass.ONE
    assert res.witness == res.witness.ring.one


def test_dump_shape(catalog):
    ring = ring_mod_int(catalog["rational"], 4)
    dump = ring.to_dump_json(ring.order2_census())
    assert dump["size"] == 4
    assert dump["unit_count"] == 2
    assert dump["units"] == [[1], [3]]
    assert dump["census"]["d2"] == 1
    assert dump["census"]["solutions"] == [[1], [3]]


# -- the scratch pool --------------------------------------------------------

def _garbage(rng, *shape):
    return rng.integers(-2 ** 40, 2 ** 40, size=shape)


def _structure_tensor(red, dtype):
    # column i*d+j holds theta^(i+j): a power below d, or the fold row
    d = red.shape[1]
    out = np.zeros((d, d * d), dtype=dtype)
    for i, j in itertools.product(range(d), repeat=2):
        if i + j < d:
            out[i + j, i * d + j] = 1
        else:
            out[:, i * d + j] = red[i + j - d]
    return out


@pytest.mark.parametrize("n", [1024, 999])
@pytest.mark.parametrize("d", range(1, 7))
def test_kernels_into_scratch_match_fresh_arrays(d, n):
    # each kernel writing into buffers of the pool, its output aliasing its
    # first operand as the fold has it, against its fresh-array form; work
    # buffers start out as garbage, as pool slots do
    rng = np.random.default_rng(100 * d + n % 7)
    k = 37
    half = n // 2
    red = rng.integers(-half, half + 1, size=(d - 1, d))
    a = rng.integers(0, n, size=(d, k))
    b = rng.integers(0, n, size=(d, k))
    for defer in (True, False):
        args = (residue._fold_terms(red), n, d, defer)
        want = residue._np_mul(a, b, *args)
        got = a.copy()
        residue._np_mul(got, b, *args, out=got,
                        work=_garbage(rng, (3 * d - 1) * k))
        assert np.array_equal(got, want), defer
        # the census square is left in its work buffer
        sq = residue._np_mul(b, b, *args, work=_garbage(rng, 3 * d * k))
        assert np.array_equal(sq, residue._np_mul(b, b, *args)), defer

        # the tree needs work for half the columns, as the walk gives it
        want = residue._np_tree_product(a.copy(), *args)
        got = a.copy()
        col = residue._np_tree_product(
            got, *args, work=_garbage(rng, (3 * d - 1) * (k // 2)))
        assert np.array_equal(col, want), defer

    # the narrow level, its output aliasing either operand, as _np_mul with
    # defer_mod gives it
    args = (residue._fold_terms(red), n, d, True)
    tensor = _structure_tensor(red, np.int64)
    want = residue._np_mul(a, b, *args)
    got = a.copy()
    assert residue._np_tensor_mul(got, b, tensor, n, got) is got
    assert np.array_equal(got, want)
    got = b.copy()
    residue._np_tensor_mul(a, got, tensor, n, got)
    assert np.array_equal(got, want)
    # the tree at the widest narrow first level and the first wide one
    wide = residue.NARROW // (d * d) + 1
    for h in (1, wide - 1, wide):
        units = rng.integers(0, n, size=(d, 2 * h))
        want = residue._np_tree_product(units.copy(), *args)
        got = units.copy()
        col = residue._np_tree_product(got, *args, work=_garbage(
            rng, (3 * d - 1) * h), tensor=tensor)
        assert np.array_equal(col, want), h

    x = rng.integers(-n * n, n * n, size=(d, k))
    want = residue._np_mod(x, n)
    assert np.array_equal(residue._np_mod(x, n, out=_garbage(rng, d, k)),
                          want)
    assert np.array_equal(
        residue._np_mod(x, n, out=x, work=_garbage(rng, d + 1, k)), want)
    assert want.min() >= 0 and want.max() < n

    x = rng.integers(0, n * n, size=k)
    q, r = residue._np_divmod(x, n)
    got = residue._np_divmod(x, n, out=(_garbage(rng, k), _garbage(rng, k)))
    assert np.array_equal(got[0], q) and np.array_equal(got[1], r)
    assert np.array_equal(q * n + r, x)

    # axes of length 1 are left as zero rows in the pool's buffer too
    diag = tuple(int(h) for h in rng.choice([1, 2, 3, 5, 6], size=d))
    idx = rng.integers(0, math.prod(diag), size=k)
    want = np.array(np.unravel_index(idx, diag))
    assert np.array_equal(residue._np_coords(idx.copy(), diag), want)
    got = residue._np_coords(idx.copy(), diag, out=_garbage(rng, d, k))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("diag,periods", [
    ((35, 7), [(5, 5), (7, 7)]),       # an axis of 7 with period 5
    ((9, 1, 27), [(3, 3)]),
    ((4, 6, 10), [(2, 2, 2), (3, 3, 3), (4, 5, 5)]),
    ((13,), [(13,)]),                  # no tiling
    # four axes, about 1M positions, as at the cap; 5 divides no axis
    ((12, 12, 84, 84), [(2, 2, 2, 2), (3, 3, 3, 3), (7, 7, 7, 7)]),
    ((12, 12, 84, 84), [(5, 5, 5, 5)]),
    ((3, 12, 5, 84), [(3, 4, 5, 7), (2, 2, 2, 2)]),
])
def test_unit_mask_into_scratch_matches_periodic_tables(diag, periods):
    rng = np.random.default_rng(len(diag))
    tables = [rng.random(p) < 0.7 for p in periods]
    shape = tuple(h for h in diag if h > 1)
    want = np.ones(shape, dtype=bool)
    for m in tables:
        want &= m[np.ix_(*(np.arange(h) % s
                           for h, s in zip(shape, m.shape)))]
    want = want.reshape(-1)
    size = math.prod(diag)
    out = np.ones(size, dtype=bool)
    tile = rng.random(size) < 0.5
    assert np.array_equal(residue._np_unit_mask(diag, tables, out, tile),
                          want)
    assert np.array_equal(out, want)  # the mask is out itself


@pytest.mark.parametrize("keep", [residue.KEEP, 0])
def test_blocks_kept_past_the_next_block(monkeypatch, keep):
    # 78,125 positions, two blocks: units(), principal_units() and the
    # dump keep blocks past the next one, which the pool overwrites; the
    # digests are of these outputs before the pool, and the one-block
    # enumeration must give them too.  The second block is too small for
    # the pool to keep, so with keep = 0 the pool serves both blocks.
    monkeypatch.setattr(residue, "KEEP", keep)
    o = make_order("x^2+1")
    a = parse_ideal(o, "5^7")
    ring = build_residue_ring(o, a)
    assert ring.size > residue.CHUNK
    units = [list(u.coeffs) for u in ring.units()]
    principal = [[list(u.coeffs) for u in ring.principal_units(j)]
                 for j in range(1, 8)]
    dump = ring.to_dump_json(ring.order2_census())
    assert [len(p) for p in principal] == [5 ** (7 - j) for j in range(1, 8)]
    digest = {k: hashlib.sha256(json.dumps(v).encode()).hexdigest()[:16]
              for k, v in (("units", units), ("principal", principal),
                           ("dump", dump))}
    assert digest == {"units": "d79badad051554d7",
                      "principal": "eee918ac6d33111e",
                      "dump": "c98b578f9cbe0fc2"}
    one_block = build_residue_ring(o, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue, "CHUNK", 1 << 40)
        assert [list(u.coeffs) for u in one_block.units()] == units
        assert one_block.to_dump_json(one_block.order2_census()) == dump


def test_a_second_walk_allocates_no_block(monkeypatch):
    # x^4+1 at 3^6@1: 531,441 positions in nine blocks; the first walk of
    # a fresh pool fills it, the second finds every buffer there
    monkeypatch.setattr(residue._THREAD, "bufs", {}, raising=False)
    o = make_order("x^4+1")
    a = parse_ideal(o, "3^6@1")
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            res = verify_ideal(o, a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.match and res.census.d2 == 1
    assert peaks[0] < 8.2 * 2 ** 20, peaks
    assert peaks[1] < 2 ** 20, peaks


# -- the two lanes ------------------------------------------------------------

LANES = residue._LANES


def _only(lane):
    """The lanes with ``lane`` alone, which forces a ring into it."""
    return tuple(entry for entry in LANES if entry[0] is lane)


def _walk_outputs(o, label, lane, full):
    """What a ring forced into ``lane`` enumerates: its product, census and
    units, its principal units (every j when ``full``, else the first and
    last) and, when ``full``, its dump."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue, "_LANES", _only(lane))
        ring = build_residue_ring(o, parse_ideal(o, label))
        assert ring._np_ok and ring._kernels.dtype is lane
        census = ring.order2_census()
        out = {"product": ring.unit_product().coeffs,
               "census": (census.count, census.d2, census.product.coeffs,
                          [x.coeffs for x in census.elements]),
               "units": [x.coeffs for x in ring.units()] if full
               else hashlib.sha256(
                   ring._unit_rows().astype(np.int64).tobytes()).digest()}
        if len(ring.modulus.factors) == 1:
            n = ring.modulus.factors[0][1]
            out["principal"] = [[x.coeffs for x in ring.principal_units(j)]
                                for j in (range(1, n + 1) if full
                                          else sorted({1, n}))]
        if full:
            out["dump"] = ring.to_dump_json(census)
        return out


LANE_ORDERS = {name: make_order(poly) for name, poly in CATALOG_POLYS.items()}
SMALL_IDEALS = sorted((name, a.label()) for name, o in LANE_ORDERS.items()
                      for a in sweep_ideals(o, (1 << 14) - 1))


@given(st.sampled_from(SMALL_IDEALS))
@settings(max_examples=40, deadline=None)
def test_both_lanes_enumerate_alike(case):
    name, label = case
    o = LANE_ORDERS[name]
    ring = build_residue_ring(o, parse_ideal(o, label))
    assume(ring._kernels.dtype is np.int32)
    assert _walk_outputs(o, label, np.int32, True) == \
        _walk_outputs(o, label, np.int64, True)


# the verify rings of the benchmark's cli-requests workload that run in
# int32, one of each family of equal cost
CLI_INT32_RINGS = (
    ("x^6+x^3+1", "13^1"), ("x^4+1", "7^3@1"), ("x^4+1", "3^5"),
    ("x^4+1", "3^6@1"), ("x^4+1", "5^4"), ("x^4+1", "13^2"),
    ("x^4+1", "2^2; 3^1@1; 13^1; 13^1@1"), ("x^4+1", "2^1; 5^1; 11^1; 13^1"),
    ("x^4+1", "2^2; 3^1@1; 13^2@1"), ("x^4+1", "2^8; 3^2@1; 7^1@1"),
    ("x^4+1", "2^8; 3^1; 3^1@1; 7^1"), ("x^2+1", "7^3"), ("x^2+1", "3^6"),
    ("x^2+1", "2^7; 5^2; 5^2@1; 13^1@1"), ("x^2+1", "5^3; 7^1; 13^1; 13^1@1"),
    ("x^2-2", "5^4"), ("x^2-2", "3^6"), ("x^2-2", "3^5"),
    ("x^2-2", "5^1; 7^1; 7^2@1; 11^1"), ("x^2-2", "2^2; 3^1; 13^2"),
    ("x^2-2", "2^1; 3^1; 7^2; 7^1@1; 13^1"), ("x^2+x+1", "2^8"),
    ("x^2+x+1", "5^4"), ("x^2+x+1", "2^2; 3^3; 7^2; 7^2@1"),
    ("x^2+x+1", "5^1; 7^2; 7^1@1; 11^1"),
)


@pytest.mark.parametrize("poly,label", CLI_INT32_RINGS)
def test_both_lanes_enumerate_cli_rings_alike(poly, label):
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    assert ring._kernels.dtype is np.int32
    assert _walk_outputs(o, label, np.int32, False) == \
        _walk_outputs(o, label, np.int64, False)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("lane", range(len(residue._LANES)))
def test_narrow_level_holds_at_the_lane_bound(d, lane):
    # the largest exponent each lane admits at degree d and the widest fold
    # rows with which defer_mod still holds there: the narrow level must
    # give what _np_mul gives on Python ints, with no wraparound
    dtype, safe = residue._LANES[lane]
    e = math.isqrt((safe - 1) // (2 * d + 4))
    assert residue._lane(d, e)[0] is dtype
    rng = np.random.default_rng(d)
    k = 64
    a = rng.integers(0, e, size=(d, k))
    b = rng.integers(0, e, size=(d, k))
    a[:, :8] = b[:, :8] = e - 1
    # fold row 0 meets the most pairs i+j; each column sums to the largest
    # |fold| that defer_mod admits
    wide = (safe - 1) // (d * e * e) - 1
    for sign in (1, -1):
        red = np.zeros((d - 1, d), dtype=np.int64)
        red[:1] = sign * wide
        terms = residue._fold_terms(red)
        assert d * e * e * (1 + wide * (d > 1)) < safe
        want = residue._np_mul(a.astype(object), b.astype(object), terms, e,
                               d, True)
        tensor = _structure_tensor(red, dtype)
        got = a.astype(dtype)
        residue._np_tensor_mul(got, b.astype(dtype), tensor, e, got)
        assert got.dtype == dtype
        assert np.array_equal(got, want.astype(dtype)), sign
        want = residue._np_tree_product(a.astype(object), terms, e, d, True)
        got = residue._np_tree_product(a.astype(dtype), terms, e, d, True,
                                       tensor=tensor)
        assert np.array_equal(got, want.astype(dtype)), sign


@pytest.mark.parametrize("d", range(1, 9))
def test_int32_kernels_hold_at_the_lane_bound(d):
    # the largest exponent the int32 lane admits at degree d, the widest
    # fold rows symmetric residues give and operands up to e-1: the int32
    # kernels must give what the int64 ones give, with no wraparound
    e = math.isqrt(((1 << 30) - 1) // (2 * d + 4))
    assert residue._lane(d, e)[0] is np.int32
    assert residue._lane(d, e + 1)[0] is np.int64
    # _lane reads only d and e: a flat index of any box a walk may take
    # must fit the int32 lane too
    assert residue.WALK_MAX < residue._LANES[0][1] == 1 << 30
    rng = np.random.default_rng(d)
    k = 257
    a = rng.integers(0, e, size=(d, k))
    a[:, :8] = e - 1
    b = rng.integers(0, e, size=(d, k))
    wide = rng.choice([-(e // 2), e // 2], size=(d - 1, d))
    # narrow rows (one entry of 1 per column) leave room to defer
    narrow = np.eye(d - 1, d, dtype=np.int64)
    for red, defer in ((wide, False), (narrow, True)):
        args = (residue._fold_terms(red), e, d, defer)
        for f in (lambda x, y: residue._np_mul(x, y, *args),
                  lambda x, y: residue._np_tree_product(x.copy(), *args)):
            want = f(a, b)
            got = f(a.astype(np.int32), b.astype(np.int32))
            assert got.dtype == np.int32
            assert np.array_equal(got, want), (red[0, :3], defer)
    basis = [[e if i == j else int(rng.integers(0, e)) if j > i else 0
              for j in range(d)] for i in range(d)]
    target = [int(t) for t in rng.integers(0, e, size=d)]
    cols = a.copy()
    cols[:, 8:16] = np.array(target)[:, None]
    want = residue._np_reduce(cols, basis, e, target)
    assert len(want) >= 8
    assert np.array_equal(
        residue._np_reduce(cols.astype(np.int32), basis, e, target), want)


@pytest.mark.parametrize("poly,max_norm", [
    ("x", 1 << 12), ("x^2+1", 1 << 10), ("x^2+x+1", 1 << 10),
    ("x^3-2", 1 << 9), ("x^4+1", 1 << 10),
])
def test_exponent_is_the_least_integer_that_kills_the_ring(poly, max_norm):
    o = make_order(poly)
    ctx = OrderContext(o)
    d = o.degree
    for a in sweep_ideals(o, max_norm):
        factors = tuple(a.factors)
        basis = ctx.basis(factors)

        def kills(s):
            return all(lattice.contains(basis, [s * (i == j)
                                                for j in range(d)])
                       for i in range(d))

        least = next(s for s in range(1, a.absolute_norm + 1) if kills(s))
        assert ctx.exponent(factors) == least, a.label()
        ring = build_residue_ring(o, a, ctx=ctx)
        assert ring.exponent == least
        assert all(least % h == 0 for h in ring.diag)


@pytest.mark.parametrize("poly,p,wrong_e,check", [
    # ramified: 2^3 is not the least power of 2 in P^3
    pytest.param("x^2+1", 2, 1, "not the exponent", id="2-1"),
    # split, forged upward: 5*o + pi^3*o is P, of index 5, not 5^3
    pytest.param("x^2+1", 5, 3, "not in reduced .* index", id="5-3"),
    # e = 4 forged down to 2: 2^2 is not the least power of 2 in P^3
    pytest.param("x^4+1", 2, 2, "not the exponent", id="x^4+1-2-2"),
])
def test_wrong_exponent_is_refused(poly, p, wrong_e, check):
    # the basis of P^3 is built from p^ceil(3/e): a forged e that makes it
    # too small gives a lattice of the wrong index, and one that makes it
    # too large still gives P^3, whose exponent the context checks as it
    # makes the basis, so no ring is built on either
    o = make_order(poly)
    pd = dataclasses.replace(factor_prime(o, p)[0], e=wrong_e)
    a = FactoredIdeal(((pd, 3),))
    with pytest.raises(InvariantViolation, match=check):
        OrderContext(o).basis(tuple(a.factors))
    with pytest.raises(InvariantViolation, match=check):
        build_residue_ring(o, a)


@pytest.mark.parametrize("first,second", [(np.int64, np.int32),
                                          (np.int32, np.int64)])
def test_a_walk_in_the_other_lane_allocates_no_block(monkeypatch, first,
                                                     second):
    # the lanes share the pool's slots: a walk finds its buffers after a
    # walk as large in the other lane
    monkeypatch.setattr(residue._THREAD, "bufs", {}, raising=False)
    o = make_order("x^4+1")
    a = parse_ideal(o, "3^6@1")
    peaks = []
    for lane in (first, second):
        monkeypatch.setattr(residue, "_LANES", _only(lane))
        tracemalloc.start()
        try:
            res = verify_ideal(o, a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.ring._kernels.dtype is lane
        assert res.match and res.census.d2 == 1
    assert peaks[1] < 2 ** 20, peaks
