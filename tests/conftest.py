"""Shared fixtures: the catalog of orders exercised throughout the suite,
and the brute-force oracle of wilson.group_sum."""

import itertools

import pytest

from wilsonprod.order import make_order

# name -> defining polynomial (constant first).  All are maximal orders:
#   rational    Z                    (degree 1)
#   gaussian    Z[i]                 2 ramified, e=2 f=1
#   sqrt2       Z[sqrt 2]            2 ramified, e=2 f=1
#   eisenstein  Z[w], w^2+w+1=0      2 inert,    e=1 f=2
#   golden      Z[phi], phi^2=phi+1  2 inert,    e=1 f=2
#   zeta8       Z[z], z^8=1 prim.    2 totally ramified, e=4 f=1
CATALOG_POLYS = {
    "rational": (0, 1),
    "gaussian": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "eisenstein": (1, 1, 1),
    "golden": (-1, -1, 1),
    "zeta8": (1, 0, 0, 0, 1),
}


@pytest.fixture(scope="session")
def catalog():
    return {name: make_order(poly) for name, poly in CATALOG_POLYS.items()}


@pytest.fixture(scope="session")
def zi(catalog):
    return catalog["gaussian"]


def group_sum_enumerated(spec):
    """Brute-force sum over every element of the group; the oracle for
    group_sum."""
    totals = [0] * len(spec.cyclic_orders)
    for el in itertools.product(*(range(n) for n in spec.cyclic_orders)):
        for i, c in enumerate(el):
            totals[i] += c
    return tuple(t % n for t, n in zip(totals, spec.cyclic_orders))
