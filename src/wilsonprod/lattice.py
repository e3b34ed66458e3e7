"""Integer lattices of full rank in Z^d, as Hermite-normal-form row bases.

A lattice is stored as a list of d rows; the matrix is upper triangular with
positive diagonal and, in each column, the entries above the pivot reduced
into [0, pivot).  With that shape the canonical representatives of Z^d
modulo the lattice are exactly the boxes prod_i [0, H[i][i]), canonical
reduction is a single forward-substitution pass, and a vector is in the
lattice when it reduces to zero.  rows_hnf is the one routine that brings
generators to that shape.  An ideal above one rational prime is the
lattice of two generators (ideal_power_lattice), and ideals above distinct
primes join by comaximal_product.  Everything is plain Python integer
arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvariantViolation
from .order import NumberFieldOrder, OrderElement


def rows_hnf(rows: Sequence[Sequence[int]], d: int) -> list[list[int]]:
    """Hermite normal form of the lattice generated by ``rows``, the one HNF
    routine of the package.

    Row-reduces a copy of the rows column by column to one pivot row per
    column.  Pivots are positive, and every entry above a pivot is reduced
    into [0, pivot), in ascending pivot order, since reducing column i only
    touches columns >= i of the rows above it.  Rows that become zero are
    dropped from the search.  Requires full rank d (always true for the
    ideal lattices this package builds); raises ValueError otherwise.
    """
    live = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    for col in range(d):
        while True:
            nz = [r for r in live if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            if piv[col] < 0:
                for j in range(col, d):
                    piv[j] = -piv[j]
            for r in nz[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(col, d):
                        r[j] -= q * piv[j]
        piv = next((r for r in live if r[col]), None)
        if piv is None:
            raise ValueError("generators do not span a full-rank lattice")
        if piv[col] < 0:
            for j in range(col, d):
                piv[j] = -piv[j]
        out.append(piv)
        live = [r for r in live if r is not piv and any(r)]
    for pc in range(1, d):
        row = out[pc]
        for k in range(pc):
            q = out[k][pc] // row[pc]
            if q:
                for j in range(pc, d):
                    out[k][j] -= q * row[j]
    return out


def is_reduced(basis: Sequence[Sequence[int]]) -> bool:
    """Is ``basis`` in the HNF shape of this module?

    Upper triangular, positive pivots, and every entry above a pivot in
    [0, pivot).
    """
    d = len(basis)
    return all(basis[i][i] > 0
               and all(basis[i][j] == 0 for j in range(i))
               and all(0 <= basis[k][i] < basis[i][i] for k in range(i))
               for i in range(d))


def lattice_det(basis: Sequence[Sequence[int]]) -> int:
    out = 1
    for i, row in enumerate(basis):
        out *= row[i]
    return out


def reduce_mod(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple:
    """Canonical representative of ``vec`` in the box prod [0, H[i][i])."""
    v = list(vec)
    d = len(v)
    for i in range(d):
        q, r = divmod(v[i], basis[i][i])
        v[i] = r
        if q:
            for j in range(i + 1, d):
                v[j] -= q * basis[i][j]
    return tuple(v)


def contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Is ``vec`` in the lattice?  Its canonical representative is zero."""
    return not any(reduce_mod(basis, vec))


def comaximal_product(
    o: NumberFieldOrder,
    a_basis: Sequence[Sequence[int]],
    b_basis: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Basis of the product of two ideals of coprime indices, which is their
    intersection.

    With indices N1 and N2 coprime, L1 ∩ L2 = N2·L1 + N1·L2 (write
    x = u·N1·x + v·N2·x with u·N1 + v·N2 = 1), so the HNF of the 2d stacked
    rows gives the basis with no order multiplication (Cohen, A Course in
    Computational Algebraic Number Theory, §2.4).  Indices that share a
    factor raise InvariantViolation: ideals above one rational prime are
    one ideal_power_lattice.
    """
    n1, n2 = lattice_det(a_basis), lattice_det(b_basis)
    if math.gcd(n1, n2) != 1:
        raise InvariantViolation(
            f"indices {n1} and {n2} of a comaximal product are not coprime")
    rows = [[n2 * c for c in r] for r in a_basis] + \
        [[n1 * c for c in r] for r in b_basis]
    return rows_hnf(rows, o.degree)


def ideal_power_lattice(o: NumberFieldOrder, q: int,
                        x: OrderElement) -> list[list[int]]:
    """Lattice of the ideal q·o + x·o: the HNF of the 2d rows q·e_j and
    x·θ^j (j < d), the latter reduced mod q.  Callers check the index.

    Every ideal above a prime p at which Z[θ] is maximal is one:
    ∏ P^m = p^s·o + x·o for s = max ⌈m/e_P⌉ and x = ∏ π_P^m, where π_P is a
    uniformizer at P and a unit at the other primes above p.  At each P | p,
    v_P(p^s) = s·e_P ≥ m and v_P(x) = m, and p^s is a unit at every other
    prime (Cohen, A Course in Computational Algebraic Number Theory, §4.8).
    """
    d = o.degree
    rows = [[q * (i == j) for j in range(d)] for i in range(d)]
    for _ in range(d):
        rows.append([c % q for c in x.coeffs])
        x = o.mul(x, o.theta)
    return rows_hnf(rows, d)
