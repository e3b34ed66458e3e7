"""Integer lattices of full rank in Z^d, as Hermite-normal-form row bases.

A lattice is stored as a list of d rows; the matrix is upper triangular with
positive diagonal and, in each column, the entries above the pivot reduced
into [0, pivot).  With that shape the canonical representatives of Z^d
modulo the lattice are exactly the boxes prod_i [0, H[i][i]), and both
membership tests and canonical reduction are a single forward-substitution
pass.  Everything is plain Python integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvariantViolation
from .order import NumberFieldOrder


def _hnf_pivot_rows(work: list[list[int]], d: int) -> list[list[int]]:
    """Row-reduce ``work`` in place to Hermite normal form on its first d
    columns and return the pivot rows, one per column that has a pivot.

    Pivots are positive, and every entry above a pivot is reduced into
    [0, pivot), in ascending pivot order, since reducing column i only
    touches columns >= i of the rows above it.  The rows not returned end
    up zero on the first d columns.  Row operations span the full row
    width, so columns past d carry a transform along.  Rows that become
    zero are dropped from the search (a row carrying a transform never is).
    """
    width = len(work[0]) if work else d
    live = [r for r in work if any(r)]
    out: list[list[int]] = []
    cols: list[int] = []
    for col in range(d):
        while True:
            nz = [r for r in live if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            if piv[col] < 0:
                for j in range(col, width):
                    piv[j] = -piv[j]
            for r in nz[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(col, width):
                        r[j] -= q * piv[j]
        piv = next((r for r in live if r[col]), None)
        if piv is None:
            continue
        if piv[col] < 0:
            for j in range(col, width):
                piv[j] = -piv[j]
        out.append(piv)
        cols.append(col)
        live = [r for r in live if r is not piv and any(r)]
    for i in range(1, len(out)):
        row, pc = out[i], cols[i]
        for k in range(i):
            q = out[k][pc] // row[pc]
            if q:
                for j in range(pc, width):
                    out[k][j] -= q * row[j]
    return out


def rows_hnf(rows: Sequence[Sequence[int]], d: int) -> list[list[int]]:
    """Hermite normal form of the lattice generated by ``rows``.

    Requires full rank d (always true for the ideal lattices this package
    builds); raises ValueError otherwise.
    """
    basis = _hnf_pivot_rows([list(r) for r in rows], d)
    if len(basis) < d:
        raise ValueError("generators do not span a full-rank lattice")
    return basis


def hnf_with_transform(
    rows: Sequence[Sequence[int]], d: int
) -> tuple[list[list[int]], list[list[int]]]:
    """HNF together with a unimodular U such that U * rows = stack.

    The returned ``stack`` has the HNF basis in its first rows (one per
    pivot) followed by zero rows; U is square of size len(rows).
    """
    n = len(rows)
    work = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(rows)]
    out = _hnf_pivot_rows(work, d)
    pivots = {id(r) for r in out}
    out += [r for r in work if id(r) not in pivots]
    stack = [r[:d] for r in out]
    transform = [r[d:] for r in out]
    return stack, transform


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


def contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Is ``vec`` in the lattice?  Forward substitution along the pivots."""
    v = list(vec)
    d = len(v)
    for i in range(d):
        q, r = divmod(v[i], basis[i][i])
        if r:
            return False
        if q:
            for j in range(i + 1, d):
                v[j] -= q * basis[i][j]
    return True


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


def solve_comaximal(
    l1: Sequence[Sequence[int]],
    l2: Sequence[Sequence[int]],
    target: Sequence[int],
) -> list[int]:
    """Find t in L1 with t = target (mod L2), given L1 + L2 = Z^d.

    Stacks the two bases, tracks the unimodular transform of the HNF, and
    reads the combination of L1 rows out of it.
    """
    d = len(target)
    rows = [list(r) for r in l1] + [list(r) for r in l2]
    stack, transform = hnf_with_transform(rows, d)
    for i in range(d):
        if stack[i][i] != 1 or any(stack[i][j] != 0 for j in range(d) if j != i):
            raise ValueError("lattices are not comaximal")
    # target = sum target[i] * stack_i, so its row-combination coefficients
    # on the original rows are sum target[i] * transform[i]
    combo = [0] * len(rows)
    for i in range(d):
        ti = target[i]
        if ti:
            for j in range(len(rows)):
                combo[j] += ti * transform[i][j]
    out = [0] * d
    for j in range(len(l1)):
        cj = combo[j]
        if cj:
            for k in range(d):
                out[k] += cj * l1[j][k]
    return out
