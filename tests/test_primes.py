"""Prime splitting, maximality, valuations, and ideal parsing.

Expected splittings were derived by expanding the claimed factor products
back mod p (done again inline here), and the maximality verdicts are the
classical facts for these fields: Z[i] and Z[sqrt 2] are maximal everywhere,
Z[sqrt -3] fails exactly at 2.
"""

import math
import random

import pytest

from wilsonprod import modpoly
from wilsonprod.errors import (
    NoSuchPrimeIndex,
    NonMaximalOrder,
    NormTooLarge,
    NotPrime,
    ParseError,
    PrimeTooLarge,
    ZeroElement,
)
from wilsonprod.order import make_order
from wilsonprod.primes import (
    PRIME_MAX,
    dedekind_maximal,
    factor_element,
    factor_prime,
    is_prime,
    parse_ideal,
    trial_factor,
    valuation,
)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 100003, 10 ** 12 + 39}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 9, 91, 100001, 10 ** 12 + 1):
        assert not is_prime(n)


def test_strong_pseudoprimes():
    # the smallest strong pseudoprime to the bases 2..37
    assert not is_prime(399165290221 * 798330580441)
    # and to 2..41, where the test stops
    assert PRIME_MAX == 1287836182261 * 2575672364521
    with pytest.raises(PrimeTooLarge):
        is_prime(PRIME_MAX)
    assert not is_prime(PRIME_MAX - 1)
    # a multiple of a base is decided at any size
    assert not is_prime(10 ** 30)
    assert not is_prime(41 * PRIME_MAX)
    with pytest.raises(PrimeTooLarge):
        is_prime(43 * PRIME_MAX)


def test_parse_ideal_factors_each_prime_once(zi, monkeypatch):
    calls = []
    factor = modpoly.factor
    monkeypatch.setattr(modpoly, "factor",
                        lambda f, p: calls.append(p) or factor(f, p))
    a = parse_ideal(zi, "2^7; 5^2; 5^2@1; 13^1@1")
    assert sorted(calls) == [2, 5, 13]
    assert a.label() == "2^7; 5^2; 5^2@1; 13^1@1"


def test_trial_factor():
    assert trial_factor(720) == {2: 4, 3: 2, 5: 1}
    assert trial_factor(1) == {}
    assert trial_factor(10 ** 12 + 39) == {10 ** 12 + 39: 1}


class TestDedekind:
    def test_gaussian_maximal_at_2(self, zi):
        assert dedekind_maximal(zi, 2)

    def test_sqrt_minus3_fails_at_2(self):
        o = make_order((3, 0, 1))  # Z[sqrt(-3)], index 2 in the maximal order
        assert not dedekind_maximal(o, 2)
        assert dedekind_maximal(o, 3)  # ...but fine at 3

    def test_sqrt2_maximal(self):
        o = make_order((-2, 0, 1))
        for p in (2, 3, 5, 7):
            assert dedekind_maximal(o, p)

    def test_not_prime(self, zi):
        with pytest.raises(NotPrime):
            dedekind_maximal(zi, 4)
        with pytest.raises(NotPrime):
            factor_prime(zi, 1)


class TestFactorPrime:
    def test_gaussian_ramified(self, zi):
        (pd,) = factor_prime(zi, 2)
        assert (pd.p, pd.gen_poly, pd.e, pd.f, pd.index) == (2, (1, 1), 2, 1, 0)
        assert pd.even

    def test_gaussian_split(self, zi):
        p0, p1 = factor_prime(zi, 5)
        assert p0.gen_poly == (2, 1) and p1.gen_poly == (3, 1)
        assert p0.index == 0 and p1.index == 1
        assert {p.e for p in (p0, p1)} == {1} and {p.f for p in (p0, p1)} == {1}

    def test_gaussian_inert(self, zi):
        (pd,) = factor_prime(zi, 3)
        assert pd.gen_poly == (1, 0, 1) and pd.e == 1 and pd.f == 2

    def test_non_maximal_raises(self):
        o = make_order((3, 0, 1))
        with pytest.raises(NonMaximalOrder):
            factor_prime(o, 2)

    def test_degree_sum_invariant(self, catalog):
        for o in catalog.values():
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                pds = factor_prime(o, p)
                assert sum(pd.e * pd.f for pd in pds) == o.degree
                # the generators multiply back to the defining polynomial
                prod = (1,)
                for pd in pds:
                    for _ in range(pd.e):
                        prod = modpoly.mul(prod, pd.gen_poly, p)
                assert prod == modpoly.normalize(o.poly, p)

    def test_deterministic(self, zi):
        assert factor_prime(zi, 13) == factor_prime(zi, 13)


class TestValuation:
    def test_examples(self, zi):
        (p2,) = factor_prime(zi, 2)
        assert valuation(zi, p2, zi.from_int(2)) == 2
        assert valuation(zi, p2, zi.element((1, 1))) == 1
        assert valuation(zi, p2, zi.one) == 0
        assert valuation(zi, p2, zi.zero) == math.inf

    def test_uniformizer_of_p_is_e(self, catalog):
        for o in catalog.values():
            for p in (2, 3, 5):
                for pd in factor_prime(o, p):
                    assert valuation(o, pd, o.from_int(p)) == pd.e

    def test_additive(self, zi):
        rng = random.Random(7)
        prime_data = [pd for p in (2, 5) for pd in factor_prime(zi, p)]
        for _ in range(30):
            a = zi.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            b = zi.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if zi.norm(a) == 0 or zi.norm(b) == 0:
                continue
            for pd in prime_data:
                assert valuation(zi, pd, zi.mul(a, b)) == (
                    valuation(zi, pd, a) + valuation(zi, pd, b))


class TestFactorElement:
    def test_one_plus_i(self, zi):
        fi = factor_element(zi, zi.element((1, 1)))
        ((pd, m),) = fi.factors
        assert pd.p == 2 and m == 1
        assert fi.absolute_norm == 2

    def test_two(self, zi):
        fi = factor_element(zi, zi.from_int(2))
        ((pd, m),) = fi.factors
        assert pd.p == 2 and m == 2

    def test_unit_gives_unit_ideal(self, zi):
        fi = factor_element(zi, zi.from_int(1))
        assert fi.is_unit_ideal and fi.absolute_norm == 1

    def test_zero_raises(self, zi):
        with pytest.raises(ZeroElement):
            factor_element(zi, zi.zero)

    def test_norm_cap(self, zi):
        with pytest.raises(NormTooLarge):
            factor_element(zi, zi.from_int(10 ** 7), norm_cap=10 ** 6)

    def test_reconstruction_random(self, catalog):
        rng = random.Random(43)
        for name in ("rational", "gaussian", "sqrt2", "golden"):
            o = catalog[name]
            for _ in range(15):
                a = o.element([rng.randint(-6, 6) for _ in range(o.degree)])
                if o.norm(a) == 0:
                    continue
                fi = factor_element(o, a)
                assert fi.absolute_norm == o.norm(a)


class TestParseIdeal:
    def test_single(self, zi):
        fi = parse_ideal(zi, "2^3")
        ((pd, m),) = fi.factors
        assert pd.p == 2 and m == 3
        assert fi.label() == "2^3"

    def test_indexed(self, zi):
        fi = parse_ideal(zi, "5^1@1")
        ((pd, m),) = fi.factors
        assert pd.gen_poly == (3, 1) and m == 1
        assert fi.label() == "5^1@1"

    def test_composite_sorted(self, zi):
        fi = parse_ideal(zi, "5^2; 2^1")
        assert [pd.p for pd, _ in fi.factors] == [2, 5]
        assert fi.absolute_norm == 2 * 25

    def test_merge_duplicates(self, zi):
        fi = parse_ideal(zi, "2^1; 2^2")
        ((_, m),) = fi.factors
        assert m == 3

    def test_not_prime_is_parse_error(self, zi):
        with pytest.raises(ParseError):
            parse_ideal(zi, "4^1")

    def test_exponent_zero(self, zi):
        with pytest.raises(ParseError):
            parse_ideal(zi, "2^0")

    @pytest.mark.parametrize("text", ["", "2", "2^", "^2", "2^1@", "junk"])
    def test_garbage(self, zi, text):
        with pytest.raises(ParseError):
            parse_ideal(zi, text)

    def test_no_such_index(self, zi):
        with pytest.raises(NoSuchPrimeIndex):
            parse_ideal(zi, "5^1@2")

    def test_roundtrip_label(self, zi):
        for text in ("2^2", "5^1@1", "2^1; 5^2; 13^1@1"):
            fi = parse_ideal(zi, text)
            assert parse_ideal(zi, fi.label()) == fi
