"""Integer lattices of full rank in Z^d, as Hermite-normal-form row bases.

A lattice is stored as a list of d rows; the matrix is upper triangular with
positive diagonal and, in each column, the entries above the pivot reduced
into [0, pivot).  With that shape the canonical representatives of Z^d
modulo the lattice are exactly the boxes prod_i [0, H[i][i]), canonical
reduction is a single forward-substitution pass, and a vector is in the
lattice when it reduces to zero.  rows_hnf is the one routine that brings
generators to that shape.  Everything is plain Python integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvariantViolation
from .order import NumberFieldOrder


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


def lattice_product(
    o: NumberFieldOrder,
    a_basis: Sequence[Sequence[int]],
    b_basis: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Basis of the product ideal, from pairwise products of basis elements."""
    d = o.degree
    rows = []
    elems_b = [o.element(r) for r in b_basis]
    for ra in a_basis:
        ea = o.element(ra)
        for eb in elems_b:
            rows.append(list(o.mul(ea, eb).coeffs))
    return rows_hnf(rows, d)


def comaximal_product(
    o: NumberFieldOrder,
    a_basis: Sequence[Sequence[int]],
    b_basis: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Basis of the product of two comaximal ideals, which is their
    intersection.

    When the indices N1 and N2 are coprime, L1 ∩ L2 = N2·L1 + N1·L2 (write
    x = u·N1·x + v·N2·x with u·N1 + v·N2 = 1), so the HNF of the 2d stacked
    rows gives the basis with no order multiplication (Cohen, A Course in
    Computational Algebraic Number Theory, §2.4).  The HNF is canonical, so
    this is the basis lattice_product gives.  Ideals over the same rational
    prime go through lattice_product.
    """
    n1, n2 = lattice_det(a_basis), lattice_det(b_basis)
    if math.gcd(n1, n2) != 1:
        return lattice_product(o, a_basis, b_basis)
    rows = [[n2 * c for c in r] for r in a_basis] + \
        [[n1 * c for c in r] for r in b_basis]
    return rows_hnf(rows, o.degree)


def ideal_power_lattice(
    o: NumberFieldOrder, p: int, gen_poly: Sequence[int], n: int
) -> list[list[int]]:
    """Lattice of P^n for the prime ideal P = (p, g(theta)).

    Generated as a Z-module by p^i * g(theta)^(n-i) * theta^j over
    0 <= i <= n, 0 <= j < d.  The determinant must come out as p^(n*f) with
    f = deg g; that is checked, since it is a theorem whenever Z[theta] is
    maximal at p (which callers have already checked).
    """
    if n < 1:
        raise InvariantViolation(f"ideal power exponent must be >= 1, got {n}")
    d = o.degree
    g = o.element_from_poly(gen_poly)
    rows = []
    g_pow = o.one
    powers = [g_pow]
    for _ in range(n):
        g_pow = o.mul(g_pow, g)
        powers.append(g_pow)
    for i in range(n + 1):
        elt = o.mul_int(powers[n - i], p ** i)
        cur = elt
        for _ in range(d):
            rows.append(list(cur.coeffs))
            cur = o.mul(cur, o.theta)
    basis = rows_hnf(rows, d)
    f = len(tuple(gen_poly)) - 1
    if lattice_det(basis) != p ** (n * f):
        raise InvariantViolation(
            f"index {lattice_det(basis)} of P^{n} differs from p^(nf) = "
            f"{p ** (n * f)}")
    return basis
