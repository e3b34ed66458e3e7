"""Arithmetic in Z[theta]: construction guards, ring axioms, norms.

Frozen norm values below were derived two independent ways before being
asserted here: the resultant path (what `norm` implements) and the index
|o/(a)| obtained from the HNF of the principal-ideal lattice, counted by
explicit enumeration of residue classes in `test_norm_is_lattice_index`.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilsonprod import lattice, order
from wilsonprod.errors import (
    DegreeMismatch,
    DegreeZero,
    IrreducibilityUndecided,
    NotMonic,
    ParseError,
    Reducible,
)
from wilsonprod.order import make_order, parse_poly, poly_mul_z, poly_str

from conftest import principal_lattice


class TestParsePoly:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,0,1", (1, 0, 1)),
            ("x^2+1", (1, 0, 1)),
            ("x^2 + 1", (1, 0, 1)),
            ("-2,0,1", (-2, 0, 1)),
            ("x^2-2", (-2, 0, 1)),
            ("x^2-x-1", (-1, -1, 1)),
            ("x^4+1", (1, 0, 0, 0, 1)),
            ("x", (0, 1)),
            ("2x^3 - 7x + 5", (5, -7, 0, 2)),
            ("3*x^2+2*x+1", (1, 2, 3)),
            ("-x^2+x", (0, 1, -1)),
        ],
    )
    def test_formats(self, text, expected):
        assert parse_poly(text) == expected

    @pytest.mark.parametrize("text", ["", "x^", "1,,2", "x+y", "++x", "x 1"])
    def test_garbage(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)

    def test_roundtrip_str(self):
        assert poly_str((-1, -1, 1)) == "x^2 - x - 1"
        assert poly_str((1, 0, 1)) == "x^2 + 1"
        assert parse_poly(poly_str((5, -7, 0, 2))) == (5, -7, 0, 2)


class TestMakeOrder:
    def test_accepts_catalog(self):
        for poly in [(0, 1), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (1, 0, 0, 0, 1)]:
            assert make_order(poly).poly == poly

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            make_order((1, 0, 2))
        with pytest.raises(NotMonic):
            make_order((1, 0, -1))  # leading -1 is not monic either

    def test_degree_zero(self):
        with pytest.raises(DegreeZero):
            make_order("5")
        with pytest.raises(DegreeZero):
            make_order((7,))

    @pytest.mark.parametrize(
        "poly",
        [
            (-1, 0, 1),        # x^2-1 = (x-1)(x+1)
            (0, 0, 1),         # x^2
            (4, 0, 0, 0, 1),   # x^4+4 = (x^2-2x+2)(x^2+2x+2), no rational root
            (1, 2, 1),         # (x+1)^2
            (-6, 1, 1),        # (x+3)(x-2)
            (0, 1, 0, 1),      # x(x^2+1)
        ],
    )
    def test_reducible(self, poly):
        with pytest.raises(Reducible):
            make_order(poly)

    def test_irreducible_quartics(self):
        # no rational roots and no quadratic factors; exercises the search
        make_order((1, 0, 0, 0, 1))
        make_order((2, 0, 0, 0, 1))  # x^4+2, Eisenstein at 2
        make_order((1, 1, 1, 1, 1))  # 5th cyclotomic


monic_polys = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.integers(-20, 20), min_size=d, max_size=d)
    .map(lambda cs: tuple(cs) + (1,)))


class TestIrreducibility:
    @given(monic_polys, monic_polys)
    @settings(max_examples=60, deadline=None)
    def test_products_are_reducible(self, g, h):
        f = poly_mul_z(g, h)
        assert order._degree_sieve(f)
        with pytest.raises(Reducible):
            make_order(f)

    @pytest.mark.parametrize(
        "poly", ["x^6+x+100", "x^6+x+1000", "x^8+x+30", "x^8+x+300"])
    def test_sieve_is_fast(self, poly):
        start = time.perf_counter()
        make_order(poly)
        assert time.perf_counter() - start < 1.0
        assert order._degree_sieve(parse_poly(poly)) == set()

    @pytest.mark.parametrize("poly", ["x^8+1", "x^16+1", "x^4+4x+2"])
    def test_shifted_eisenstein(self, poly):
        # 2-power cyclotomics split mod every prime: only Eisenstein at 2
        # after x -> x+1 proves them; x^4+4x+2 is Eisenstein unshifted
        assert order._shifted_eisenstein(parse_poly(poly))
        make_order(poly)

    def test_swinnerton_dyer_ends(self):
        # the minimal polynomial of sqrt2 + sqrt3 + sqrt5: irreducible,
        # split into factors of degree <= 2 mod every prime, not Eisenstein
        start = time.perf_counter()
        try:
            make_order("x^8-40x^6+352x^4-960x^2+576")
        except IrreducibilityUndecided:
            pass
        assert time.perf_counter() - start < 5.0


class TestArithmetic:
    def test_mul_examples(self, zi):
        i = zi.element((0, 1))
        assert zi.mul(i, i) == zi.from_int(-1)
        assert zi.mul(zi.one, i) == i
        s = make_order((-2, 0, 1))
        r = s.element((0, 1))
        assert s.mul(r, r) == s.from_int(2)

    def test_add_sub(self, zi):
        a, b = zi.element((1, 2)), zi.element((3, -1))
        assert zi.add(a, b) == zi.element((4, 1))
        assert zi.add(a, zi.mul(b, zi.from_int(-1))) == zi.element((-2, 3))
        assert zi.add(a, zi.mul(a, zi.from_int(-1))) == zi.from_int(0)

    def test_degree_mismatch(self, zi, catalog):
        z8 = catalog["zeta8"]
        with pytest.raises(DegreeMismatch):
            zi.add(zi.one, z8.one)
        with pytest.raises(DegreeMismatch):
            zi.element((1, 2, 3))

    def test_degree_one_is_integer_arithmetic(self):
        o = make_order((0, 1))
        rng = random.Random(11)
        for _ in range(50):
            m, n = rng.randint(-99, 99), rng.randint(-99, 99)
            assert o.mul(o.from_int(m), o.from_int(n)) == o.from_int(m * n)
            assert o.norm(o.from_int(m)) == abs(m)

    def test_element_from_poly_reduces(self, zi):
        # theta^2 + 1 = 0 in Z[i]
        assert zi.element_from_poly((1, 0, 1)) == zi.from_int(0)
        assert zi.element_from_poly((0, 0, 0, 1)) == zi.element((0, -1))


class TestNorm:
    def test_frozen_values(self, zi):
        # N(1+i) = 2 and N(2) = 4: resultant computation, cross-checked by
        # the lattice index in test_norm_is_lattice_index
        assert zi.norm(zi.element((1, 1))) == 2
        assert zi.norm(zi.from_int(2)) == 4
        assert zi.norm(zi.one) == 1
        assert zi.norm(zi.from_int(0)) == 0

    def test_norm_is_lattice_index(self, catalog):
        """|N(a)| equals |o/(a)|, counted by enumerating residue classes."""
        rng = random.Random(5)
        for o in catalog.values():
            d = o.degree
            for _ in range(8):
                a = o.element([rng.randint(-4, 4) for _ in range(d)])
                n = o.norm(a)
                if n == 0 or n ** d > 400_000:
                    continue
                basis = principal_lattice(o, a)
                # every class has a representative with coordinates in [0, n)
                reps = set()
                vec = [0] * d
                while True:
                    reps.add(lattice.reduce_mod(basis, vec))
                    k = 0
                    while k < d:
                        vec[k] += 1
                        if vec[k] < n:
                            break
                        vec[k] = 0
                        k += 1
                    if k == d:
                        break
                assert len(reps) == n

    @given(
        coeffs_a=st.lists(st.integers(-10, 10), min_size=2, max_size=2),
        coeffs_b=st.lists(st.integers(-10, 10), min_size=2, max_size=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_norm_multiplicative_gaussian(self, coeffs_a, coeffs_b):
        o = make_order((1, 0, 1))
        a, b = o.element(coeffs_a), o.element(coeffs_b)
        assert o.norm(o.mul(a, b)) == o.norm(a) * o.norm(b)

    def test_norm_multiplicative_catalog(self, catalog):
        rng = random.Random(17)
        for o in catalog.values():
            d = o.degree
            for _ in range(25):
                a = o.element([rng.randint(-10, 10) for _ in range(d)])
                b = o.element([rng.randint(-10, 10) for _ in range(d)])
                assert o.norm(o.mul(a, b)) == o.norm(a) * o.norm(b)


class TestRingAxioms:
    def test_random_identities(self, catalog):
        rng = random.Random(23)
        for o in catalog.values():
            d = o.degree
            for _ in range(20):
                a = o.element([rng.randint(-8, 8) for _ in range(d)])
                b = o.element([rng.randint(-8, 8) for _ in range(d)])
                c = o.element([rng.randint(-8, 8) for _ in range(d)])
                assert o.mul(a, b) == o.mul(b, a)
                assert o.mul(o.mul(a, b), c) == o.mul(a, o.mul(b, c))
                assert o.mul(a, o.add(b, c)) == o.add(o.mul(a, b), o.mul(a, c))
                assert o.mul(a, o.one) == a


class TestHermiteNormalForm:
    @given(
        rows=st.lists(st.lists(st.integers(-60, 60), min_size=3, max_size=3),
                      min_size=3, max_size=5),
        ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                               st.integers(-5, 5)), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_lattices_reduce_canonically(self, rows, ops):
        """Every entry above a pivot lands in [0, pivot), and unimodular row
        operations on the generators give the same basis."""
        try:
            basis = lattice.rows_hnf(rows, 3)
        except ValueError:
            return  # not full rank
        assert lattice.is_reduced(basis)
        mixed = [list(r) for r in rows]
        for i, j, k in ops:
            i, j = i % len(mixed), j % len(mixed)
            if i != j:
                mixed[i] = [a + k * b for a, b in zip(mixed[i], mixed[j])]
        assert lattice.rows_hnf(mixed, 3) == basis

    def test_descending_reduction_case(self):
        # reducing column 1 after column 2 leaves row 0's last entry at
        # -1, outside [0, 4); in ascending order it ends at 3
        basis = lattice.rows_hnf([[1, 3, 0], [0, 2, 1], [0, 0, 4]], 3)
        assert basis == [[1, 1, 3], [0, 2, 1], [0, 0, 4]]
        assert lattice.is_reduced(basis)
