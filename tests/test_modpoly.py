"""F_p[x] factorization: known splittings plus reassembly round-trips."""

import random

import pytest

from wilsonprod import modpoly


@pytest.mark.parametrize(
    "f,p,expected",
    [
        # x^2+1 mod 2 = (x+1)^2
        ((1, 0, 1), 2, [((1, 1), 2)]),
        # x^2+1 mod 5 = (x+2)(x+3)
        ((1, 0, 1), 5, [((2, 1), 1), ((3, 1), 1)]),
        # x^2+1 mod 3 irreducible
        ((1, 0, 1), 3, [((1, 0, 1), 1)]),
        # x^4+1 mod 2 = (x+1)^4
        ((1, 0, 0, 0, 1), 2, [((1, 1), 4)]),
        # x^2-2 mod 2 = x^2
        ((-2, 0, 1), 2, [((0, 1), 2)]),
        # x^2+x+1 mod 2 irreducible (2 inert)
        ((1, 1, 1), 2, [((1, 1, 1), 1)]),
        # x mod p stays x
        ((0, 1), 7, [((0, 1), 1)]),
        # x^2-x-1 mod 5 = (x+2)^2
        ((-1, -1, 1), 5, [((2, 1), 2)]),
    ],
)
def test_known_factorizations(f, p, expected):
    assert modpoly.factor(f, p) == expected


def test_reassembly_random():
    rng = random.Random(31)
    for p in (2, 3, 5, 13):
        for _ in range(40):
            deg = rng.randint(1, 7)
            f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            factors = modpoly.factor(f, p)
            prod = (1,)
            for g, m in factors:
                assert g[-1] == 1, "factors must be monic"
                for _ in range(m):
                    prod = modpoly.mul(prod, g, p)
            assert prod == modpoly.normalize(f, p)
            # verify irreducibility of low-degree factors by divisor search
            for g, _ in factors:
                if modpoly.degree(g) in (2, 3):
                    for idx in range(p):
                        assert modpoly.mod(g, (idx, 1), p), (
                            f"{g} has root {idx} mod {p}")


def test_pth_power_squarefree_branch():
    # f = (x^2+1)^2 mod 2 has zero derivative; p-th root logic must fire
    f = modpoly.mul((1, 0, 1), (1, 0, 1), 2)
    assert modpoly.factor(f, 2) == [((1, 1), 4)]


def test_large_field_edf_uses_cz():
    # x^2+1 is inert mod 100003 (100003 % 4 = 3)
    p = 100003
    assert modpoly.factor((1, 0, 1), p) == [((1, 0, 1), 1)]
    # 100019 % 4 = 3 as well; pick a split prime: 100049 % 4 = 1
    p = 100049
    factors = modpoly.factor((1, 0, 1), p)
    assert len(factors) == 2 and all(m == 1 for _, m in factors)
    (g1, _), (g2, _) = factors
    r1, r2 = (-g1[0]) % p, (-g2[0]) % p
    assert (r1 * r1) % p == p - 1 and (r1 + r2) % p == 0


def test_cz_splits_where_binomials_cannot():
    # the 36th cyclotomic polynomial is two sextics mod 7 (7 has order 6
    # mod 36); no (x + a)^((7^6 - 1) / 2) separates them
    f = (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)
    factors = modpoly.factor(f, 7)
    assert [(modpoly.degree(g), m) for g, m in factors] == [(6, 1), (6, 1)]
    assert modpoly.mul(factors[0][0], factors[1][0], 7) == \
        modpoly.normalize(f, 7)


def test_determinism():
    for _ in range(3):
        assert modpoly.factor((1, 0, 1), 5) == [((2, 1), 1), ((3, 1), 1)]
