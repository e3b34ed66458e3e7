"""Residue rings and their unit groups, checked against hand-worked cases."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import CATALOG_POLYS


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


def test_non_deferred_reduction():
    # the fold rows of this f have large residues mod |o/a| = 937,024, which
    # leaves too little int64 room to defer the coefficient reduction past
    # the fold, so _np_mul reduces before the fold as well
    o = make_order("x^8+123456789x^3+1")
    res = verify_ideal(o, parse_ideal(o, "2^2; 11^4@1"))
    assert res.ring._np_ok and not res.ring._defer_mod
    assert res.match and res.census.d2 == 4


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
    l1 = lattice.ideal_power_lattice(o, pd.p, pd.gen_poly, m)
    l2 = lattice.ideal_power_lattice(o, qd.p, qd.gen_poly, n)
    assert lattice.comaximal_product(o, l1, l2) == \
        lattice.lattice_product(o, l1, l2)


@pytest.mark.parametrize("poly", ["x^4+1", "x^3-2"])
def test_shared_context_matches_fresh_rings(poly):
    # prefix-built bases from one context against fresh contexts and the
    # factor-by-factor lattice product
    o = make_order(poly)
    shared = OrderContext(o)
    composites = 0
    for a in sweep_ideals(o, 4096):
        ring = build_residue_ring(o, a, ctx=shared)
        fresh = build_residue_ring(o, a)
        reference = functools.reduce(
            lambda x, y: lattice.lattice_product(o, x, y),
            [lattice.ideal_power_lattice(o, pd.p, pd.gen_poly, m)
             for pd, m in a.factors])
        assert ring.basis == fresh.basis == reference, a.label()
        assert ring.diag == fresh.diag
        assert ring.unit_product().coeffs == fresh.unit_product().coeffs
        composites += len(a.factors) > 1
    assert composites > 50


def test_context_of_another_order_is_refused(catalog):
    ctx = OrderContext(catalog["gaussian"])
    o = catalog["sqrt2"]
    with pytest.raises(InvariantViolation):
        build_residue_ring(o, parse_ideal(o, "2^2"), ctx=ctx)


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


SIEVE_RINGS = [
    # (poly, label, whether the census sieves its candidates)
    ("x^4+1", "2^5", False),       # e = 4: the root table is the unit table
    ("x^2+1", "3^2", True),        # f = 2: 2 of the 8 unit classes mod P
    ("x^2+1", "5^1; 7^1", True),   # diag (7, 35): the axis of 7 is longer
                                   # than 5 and not a multiple of it
    ("x^2-2", "2^5; 7^1@1", True),  # diag (8, 28): an axis of 8 for 7
    ("x", "2^3; 3^2; 5^1; 7^1", True),
]


@pytest.mark.parametrize("poly,label,_", SIEVE_RINGS)
def test_root_tables_match_scalar_squares(poly, label, _):
    # a class of the small box is marked iff x^2 - 1 lies in P, by the
    # scalar ring arithmetic; the tables are cached per (P, small box)
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    for pd, _ in ring.modulus.factors:
        table = ring.context.root_table(pd, ring.diag)
        small = [min(h, pd.p) for h in ring.diag]
        prime = ring.context.basis(((pd, 1),))
        want = []
        for x in ring.elements():
            if all(c < h for c, h in zip(x.coeffs, small)):
                sq = ring.mul(x, x).coeffs
                want.append(lattice.contains(
                    prime, [sq[0] - 1] + list(sq[1:])))
        assert table.reshape(-1).tolist() == want, pd.label()
        assert ring.context.root_table(pd, ring.diag) is table
        units = ring.context.unit_table(pd, ring.diag)
        assert (units | ~table).all()  # every root is a unit
        assert (table is units) == (pd.p ** pd.f == 2 or
                                    (pd.p, pd.f) == (3, 1)), pd.label()


@pytest.mark.parametrize("poly,label,sieved", SIEVE_RINGS)
def test_sieved_census_matches_scalar_roots(poly, label, sieved):
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    units = [x for x in ring.elements() if ring.is_unit(x)]
    roots = [x for x in units if ring.mul(x, x) == ring.one]
    census = ring.order2_census()
    assert census.elements == roots  # in box order
    assert census.d2 == len(roots).bit_length() - 1
    sieve = ring._root_mask()
    assert (sieve is not None) == sieved
    if sieved:  # the candidates hold every root, and only units
        cand = [x for x, keep in zip(ring.elements(), sieve) if keep]
        assert set(roots) <= set(cand) <= set(units)
        assert len(cand) < len(units)


@pytest.mark.parametrize("poly,label", [
    ("x^2+1", "2^1; 3^1"),    # tables of 4 and 9 classes for a box of 18
    ("x^6+x^3+1", "13^1"),    # a table of 13 classes for a box of 13
])
def test_census_of_a_small_box_squares_every_unit(poly, label):
    # no sieve where the tables would not be small beside the box
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    assert ring._root_mask() is None
    units = [x for x in ring.elements() if ring.is_unit(x)]
    assert ring.order2_census().elements == \
        [x for x in units if ring.mul(x, x) == ring.one]


# -- arithmetic sanity -------------------------------------------------------

def test_scalar_ops(catalog):
    ring = prime_power_ring(catalog["gaussian"], 2, 3)
    i = ring.reduce([0, 1])
    assert (i * i).coeffs == ring.reduce([-1, 0]).coeffs
    assert (i * i) * (i * i) == ring.one
    assert ring.is_unit(i)
    assert not ring.is_unit(ring.reduce([1, 1]))  # 1+i generates P


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


# -- int64 kernels vs. the scalar ring API -----------------------------------

def test_python_fallback_agrees(catalog):
    # the int64 kernels against a pure-Python reference built only from the
    # scalar ring API (elements, is_unit, mul); prime powers, composites whose size is not a power of two (the
    # general modulus path of the kernels) and quartic rings; unit counts
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
        units = [x for x in ring.elements() if ring.is_unit(x)]
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
    ("x^2+x+1", "2^4; 7^1@1", 1 << 16),  # 1,792 positions: one block, one
                                         # tree
])
def test_chunked_enumeration_matches_one_pass(monkeypatch, poly, label,
                                              chunk):
    monkeypatch.setattr(residue, "CHUNK", chunk)
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    cols = ring._unit_rows().T
    whole = residue._np_tree_product(
        cols, ring._np_red_rows(), ring.size, o.degree, ring._defer_mod)
    assert ring.unit_product() == ring.reduce([int(c) for c in whole])
    census = ring.order2_census()
    assert census.product == ring.unit_product()
    monkeypatch.setattr(residue, "CHUNK", 1 << 40)
    one_pass = build_residue_ring(o, ring.modulus).order2_census()
    assert (census.count, census.d2) == (one_pass.count, one_pass.d2)
    assert [x.coeffs for x in census.elements] == \
        [x.coeffs for x in one_pass.elements]


@pytest.mark.parametrize("poly,label,chunk,fold", [
    ("x", "2^2; 3^1", 5, 2),         # blocks of 1, 2 and 1 units
    ("x^2+1", "2^3; 3^1", 7, 2),     # 72 positions in 11 blocks of 1-4
    ("x^2+1", "2^3; 3^1", 7, 1),     # units, a full tree in each
    ("x^3-2", "2^2; 5^1", 11, 3),    # blocks of 1 and 7 units, degree 3
    ("x^2+x+1", "2^2; 7^1@1", 9, 4),  # 112 positions, 13 blocks
])
def test_block_boundaries_match_scalar_reference(monkeypatch, poly, label,
                                                 chunk, fold):
    # blocks of box positions hold varying numbers of units: the running
    # product must take in every column of every block, however many the
    # first block had, and the census must keep box order across blocks
    monkeypatch.setattr(residue, "CHUNK", chunk)
    monkeypatch.setattr(residue, "FOLD", fold)
    o = make_order(poly)
    ring = build_residue_ring(o, parse_ideal(o, label))
    counts = [b.shape[1] for b in ring._units_array()]
    assert counts[0] < max(counts[1:]) and ring.size % chunk, counts
    units = [x for x in ring.elements() if ring.is_unit(x)]
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


def test_enumeration_beyond_int64_bound_is_refused(catalog):
    o = catalog["gaussian"]
    ring = build_residue_ring(o, parse_ideal(o, "2^31"), cap=1 << 40)
    with pytest.raises(RingTooLarge):
        ring.unit_product()
    with pytest.raises(RingTooLarge):  # before any mask of the box is made
        ring.order2_census()


def test_classify_beyond_int64_bound_has_a_witness(catalog):
    o = catalog["gaussian"]
    res = classify_global(o, parse_ideal(o, "2^31"), cap=1 << 40)
    assert res.kind is ProductClass.ONE
    assert res.witness == res.witness.ring.one


def test_dump_shape(catalog):
    dump = ring_mod_int(catalog["rational"], 4).to_dump_json()
    assert dump["size"] == 4
    assert dump["unit_count"] == 2
    assert dump["units"] == [[1], [3]]
    assert dump["census"]["d2"] == 1
    assert dump["census"]["solutions"] == [[1], [3]]
