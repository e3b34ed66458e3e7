"""Finite quotient rings o/a and their unit groups, by honest enumeration.

The ring o/a is represented by the HNF basis of the ideal lattice of a in
the power basis of the order; canonical representatives are the integer
boxes prod [0, H[i][i]).  Units are the classes outside every prime divisor
of a, and `unit_product` multiplies all of them together — this module is
the brute-force side of the package, against which the closed-form
classification in `wilson` is checked.

Enumeration-heavy operations (unit listing, the all-units product, the
square-roots-of-1 census) run on int64 numpy arrays; a worst-case bound
checked at ring construction proves that no intermediate value can
overflow, and enumerating a ring beyond it raises RingTooLarge.
Coefficients are reduced modulo |o/a| between multiplications (|o/a|
annihilates o/a, so this never changes a residue class), which is what
keeps the bounds small.

The product and the census share one walk over the units.  It builds a
flat unit mask of the box (one byte per element, tiled from small per-prime
tables), then takes the box CHUNK positions at a time: each block's units
are decoded to coordinates and folded into a running product of FOLD
columns.  When the census is asked for, a second mask, tiled from per-prime
tables of the classes with x^2 = 1 mod P, marks the candidates (a square
root of 1 mod a is one mod every P | a); only the candidates of each block
are squared and tested for x^2 = 1 mod a.  A ring keeps no unit array:
`units`, `principal_units` and the dump build the whole array only when
they are called, so after a walk nothing the size of the ring is left, and
its temporaries stay a few megabytes near the cap.
A box of at most CHUNK positions is one block, multiplied as one tree.

The rings of one order share an OrderContext: lattice bases, uniformizers,
fold rows, and unit and root tables are built once per context, not once
per ring.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import lattice
from .errors import (
    CompositeModulus,
    InvariantViolation,
    JOutOfRange,
    NotAPowerOfTwo,
    RingTooLarge,
    magnitude,
)
from .order import NumberFieldOrder, OrderElement, poly_divmod_monic, poly_str
from .primes import FactoredIdeal, PrimeIdealData, uniformizer

DEFAULT_CAP = 1 << 20

_INT64_SAFE = 1 << 62

# the walk over the units takes the box this many positions at a time,
# which bounds its temporaries near the cap
CHUNK = 1 << 16
# each block's units are multiplied down to this many columns before they
# are multiplied into the running product
FOLD = 1 << 10


class OrderContext:
    """What the residue rings of one order share, each built once: lattice
    bases, uniformizers, fold rows, and unit and root tables.

    A context lives for one top-level call (one sweep, one CLI request, one
    bare verify_ideal or classify_global) and is never stored on the order,
    so its caches end with that call.  What it hands out is shared and must
    not be written to.
    """

    def __init__(self, o: NumberFieldOrder):
        self.order = o
        self._bases: dict = {}
        self._pis: dict = {}
        self._tables: dict = {}

    def basis(self, factors: tuple) -> list[list[int]]:
        """HNF basis of prod P^m over ``factors``, (PrimeIdealData, m) pairs.

        A composite basis is the comaximal product of the cached bases of
        its prefix and of its last factor: sweep_ideals yields every prefix
        before its extensions.  Each basis is checked once, when it is
        made, for what the box representatives and the int64 bounds of the
        rings rely on: every entry in [0, pivot), and the norm as index.
        """
        out = self._bases.get(factors)
        if out is None:
            if len(factors) > 1:
                out = lattice.comaximal_product(self.order,
                                                self.basis(factors[:-1]),
                                                self.basis(factors[-1:]))
            elif factors:
                (pd, m), = factors
                out = lattice.ideal_power_lattice(self.order, pd.p,
                                                  pd.gen_poly, m)
            else:
                out = np.eye(self.order.degree, dtype=int).tolist()
            ideal = FactoredIdeal(factors)
            if not lattice.is_reduced(out) or \
                    lattice.lattice_det(out) != ideal.absolute_norm:
                raise InvariantViolation(
                    f"lattice basis {out} of {self.order}/({ideal.label()}) "
                    f"is not in reduced Hermite normal form of index "
                    f"{ideal.absolute_norm}")
            self._bases[factors] = out
        return out

    def uniformizer(self, pd: PrimeIdealData) -> OrderElement:
        pi = self._pis.get(pd)
        if pi is None:
            pi = self._pis[pd] = uniformizer(self.order, pd)
        return pi

    @functools.cached_property
    def fold_rows(self) -> list[tuple]:
        """The rows x^(d+t) mod f for t < d-1, for polynomial reduction."""
        d = self.order.degree
        rows = []
        for t in range(d - 1):
            _, rem = poly_divmod_monic((0,) * (d + t) + (1,), self.order.poly)
            rows.append(rem + (0,) * (d - len(rem)))
        return rows

    def red_rows(self, n: int) -> list[list[int]]:
        """The fold rows as symmetric residues mod n.

        Only their residues mod n are ever used, and symmetric residues keep
        the int64 bounds independent of the size of f's coefficients.
        """
        half = n // 2
        return [[(c + half) % n - half for c in row] for row in self.fold_rows]

    def unit_table(self, pd: PrimeIdealData,
                   diag: Sequence[int]) -> np.ndarray:
        """Which classes of the small box prod [0, min(diag_i, p)) lie
        outside P, over the axes of the box longer than 1.  Membership in
        P only depends on the coordinates mod p (p*e_i lies in P), so
        _np_unit_mask tiles this table out to the full box.
        """
        return self._table(pd, diag, roots=False)

    def root_table(self, pd: PrimeIdealData,
                   diag: Sequence[int]) -> np.ndarray:
        """Which classes of the same small box square to 1 mod P; whether
        x^2 - 1 lies in P also depends only on the coordinates mod p, so
        _np_unit_mask tiles it the same way.  Every such class is a unit.
        When every unit squares to 1 mod P (q = 2, or p = 3 with f = 1)
        this is the unit table itself, the same array, so a walk can tell
        that it sieves nothing.
        """
        return self._table(pd, diag, roots=True)

    def _table(self, pd: PrimeIdealData, diag: Sequence[int],
               roots: bool) -> np.ndarray:
        """A unit or root table, made by enumerating the small box CHUNK
        classes at a time: each class, or its square mod p, is tested
        against 0 or 1 mod P.  Cached per (P, small box)."""
        small = tuple(min(h, pd.p) for h in diag)
        key = (pd, small, roots)
        table = self._tables.get(key)
        if table is None:
            p, d = pd.p, self.order.degree
            basis = self.basis(((pd, 1),))
            if roots:
                target = lattice.reduce_mod(basis, self.order.one.coeffs)
                # coefficients mod p, which p*o in P allows; reducing before
                # the fold keeps this within the bound of the rings above P
                args = (np.array(self.red_rows(p), dtype=np.int64).reshape(
                    -1, d), p, d, False)
            else:
                target = (0,) * d
            n = int(np.prod(small))
            table = np.zeros(n, dtype=bool)
            for s in range(0, n, CHUNK):
                box = _np_coords(np.arange(s, min(n, s + CHUNK)), small)
                if roots:
                    box = _np_mul(box, box, *args)
                table[s + _np_reduce(box, basis, p, target)] = True
            table = table.reshape(tuple(h for h in small if h > 1))
            if not roots:
                table = ~table
            elif np.array_equal(table, units := self.unit_table(pd, diag)):
                table = units
            table.flags.writeable = False
            self._tables[key] = table
        return table


@dataclass(frozen=True)
class ResidueElement:
    """A class of o/a, stored by its canonical box representative."""

    ring: "ResidueRing"
    coeffs: tuple

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        return self.ring.mul(self, other)

    def __str__(self) -> str:
        return poly_str(self.coeffs)


class Census(NamedTuple):
    """Census of square roots of 1 among the units.

    ``elements`` lists every unit x with x^2 = 1 (the identity included),
    in box order; each is found by squaring it mod a, among the candidates
    the root tables leave (the classes that square to 1 mod every P | a).
    ``count`` is the number of elements of order exactly 2, which is always
    2^d2 - 1.  ``product`` is the product of all units, taken on the same
    walk.
    """

    count: int
    elements: list
    d2: int
    product: "ResidueElement"


class ResidueRing:
    """o/a for a nonzero ideal a of an order o, within the enumeration cap;
    rings of one order and modulus are equal (the HNF basis is canonical)."""

    def __init__(self, context: OrderContext, modulus: FactoredIdeal):
        o = context.order
        self.context = context
        self.order = o
        self.modulus = modulus
        self.basis = context.basis(tuple(modulus.factors))
        self.diag = tuple(self.basis[i][i] for i in range(o.degree))
        self.size = lattice.lattice_det(self.basis)
        self.unit_count = 1
        for pd, m in modulus.factors:
            q = pd.p ** pd.f
            self.unit_count *= q ** (m - 1) * (q - 1)
        self._red_rows = context.red_rows(self.size)
        self._np_ok = self._bounds_allow_int64()
        # coefficients, not a ResidueElement: an element refers back to its
        # ring, and that cycle would leave a dropped ring to the cyclic GC
        self._one_coeffs = lattice.reduce_mod(self.basis, o.one.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResidueRing) and \
            (self.order, self.modulus) == (other.order, other.modulus)

    def __hash__(self) -> int:
        return hash((self.order, self.modulus))

    # -- plumbing ------------------------------------------------------------

    def _bounds_allow_int64(self) -> bool:
        n = self.size
        d = self.order.degree
        s = max(1 + sum(abs(row[m]) for row in self._red_rows)
                for m in range(d))
        # with "defer", coefficients are reduced only after the high-degree
        # columns of the convolution are folded back in
        self._defer_mod = d * n * n * s < _INT64_SAFE
        # fold row entries are at most n/2 in size, so n*s < (2d+4)*n^2 and
        # this one bound covers every kernel
        return (2 * d + 4) * n * n < _INT64_SAFE

    @property
    def one(self) -> ResidueElement:
        return ResidueElement(self, self._one_coeffs)

    def reduce(self, x: OrderElement | Sequence[int]) -> ResidueElement:
        coeffs = x.coeffs if isinstance(x, OrderElement) else tuple(x)
        if isinstance(x, OrderElement) or len(coeffs) != self.order.degree:
            coeffs = self.order.element(coeffs).coeffs
        return ResidueElement(self, lattice.reduce_mod(self.basis, coeffs))

    def mul(self, x: ResidueElement, y: ResidueElement) -> ResidueElement:
        prod = self.order.mul(self.order.element(x.coeffs),
                              self.order.element(y.coeffs))
        return self.reduce(prod)

    def is_unit(self, x: ResidueElement) -> bool:
        return all(not lattice.contains(self.context.basis(((pd, 1),)),
                                        x.coeffs)
                   for pd, _ in self.modulus.factors)

    # -- enumeration ---------------------------------------------------------

    def elements(self) -> list[ResidueElement]:
        """Every class, in box (mixed-radix) order."""
        return [ResidueElement(self, t)
                for t in itertools.product(*(range(h) for h in self.diag))]

    def _units_array(self) -> Iterator[np.ndarray]:
        """The units as (d, k) column blocks in box order.

        Builds the unit mask of the whole box, then returns a generator that
        decodes it CHUNK box positions at a time, one block per slice, and
        checks the count over all blocks against the closed form after the
        last one.  Every enumeration of the ring goes through here, once a
        walk.  Raises RingTooLarge when the ring is beyond the int64 bound
        of the kernels.
        """
        if not self._np_ok:
            raise RingTooLarge(
                f"|o/a| = {self.size} is beyond the int64 enumeration "
                f"bound (2d+4)*|o/a|^2 < 2^62 at degree {self.order.degree}")
        mask = _np_unit_mask(
            self.diag, [(pd.p, self.context.unit_table(pd, self.diag))
                        for pd, _ in self.modulus.factors])
        return self._unit_blocks(mask)

    def _unit_blocks(self, mask: np.ndarray) -> Iterator[np.ndarray]:
        found = 0
        for s in range(0, len(mask), CHUNK):
            idx = np.flatnonzero(mask[s:s + CHUNK])
            if s:
                idx += s
            cols = _np_coords(idx, self.diag)
            found += cols.shape[1]
            yield cols
        if found != self.unit_count:
            raise InvariantViolation(
                f"{found} units enumerated in {self}, "
                f"the closed form gives {self.unit_count}")

    def _unit_rows(self) -> np.ndarray:
        """Every unit as (count, d) rows in box order, in one array."""
        return np.concatenate(list(self._units_array()), axis=1).T

    def units(self) -> list[ResidueElement]:
        """All units, in enumeration order; length is checked against
        prod p^((m-1)f) (p^f - 1)."""
        return [ResidueElement(self, tuple(row))
                for row in self._unit_rows().tolist()]

    def unit_product(self) -> ResidueElement:
        """Product of all units — the brute-force oracle."""
        return self._walk(census=False)[0]

    def order2_census(self) -> Census:
        """Count and list the units squaring to 1; d2 = log2 of the count.

        The product of all units comes with it, from the same walk.
        """
        product, roots = self._walk(census=True)
        sols = [ResidueElement(self, tuple(row)) for row in roots]
        n_sols = len(sols)
        if n_sols & (n_sols - 1):
            raise NotAPowerOfTwo(
                f"{n_sols} square roots of 1 in a finite abelian unit group")
        return Census(count=n_sols - 1, elements=sols,
                      d2=n_sols.bit_length() - 1, product=product)

    def _walk(self, census: bool) -> tuple[ResidueElement, list | None]:
        """One pass over the units: their product, and with ``census`` the
        units x with x^2 = 1 as coefficient lists in box order.

        A box of one block is multiplied out as one balanced tree.  Else
        each block is folded in place down to FOLD columns and multiplied
        into an accumulator of FOLD columns, which is multiplied out as a
        tree at the end.  Coefficients are reduced mod |o/a| after every
        multiplication and the product to its canonical representative.
        The census squares only the candidates of each block (see
        _root_mask) and keeps those whose square is 1 mod a.
        """
        args = (self._np_red_rows(), self.size, self.order.degree,
                self._defer_mod)
        # columns set to 1 until a block reaches them: a later block can
        # hold more units than the first
        acc = np.repeat(np.array(self._one_coeffs, dtype=np.int64)[:, None],
                        FOLD, axis=1) if self.size > CHUNK else None
        # the units first: _units_array refuses a ring beyond the int64 bound
        blocks = self._units_array()
        sieve = self._root_mask() if census else None
        roots = []
        for s, cols in zip(itertools.count(0, CHUNK), blocks):
            if census:
                cands = cols if sieve is None else _np_coords(
                    np.flatnonzero(sieve[s:s + CHUNK]) + s, self.diag)
                sq = _np_mul(cands, cands, *args)
                roots.append(cands[:, _np_reduce(sq, self.basis, self.size,
                                                 self._one_coeffs)])
            if acc is None:
                col = _np_tree_product(cols, *args)
            else:
                live = _np_fold(cols, FOLD, *args)
                acc[:, :live] = _np_mul(acc[:, :live], cols[:, :live], *args)
        if acc is not None:
            col = _np_tree_product(acc, *args)
        product = self.reduce([int(c) for c in col])
        if not census:
            return product, None
        return product, np.concatenate(roots, axis=1).T.tolist()

    def _root_mask(self) -> np.ndarray | None:
        """Flat mask of the census candidates, in box order: the classes
        whose square is 1 mod every prime divisor P of a.  A square root
        of 1 mod a is one mod each P, so no root is left out, and every
        candidate is a unit.  None when no root table sieves out a unit, or
        when the tables would not be small beside the box (a table squares
        each of its classes, as the census squares each unit): then the
        candidates are the units.
        """
        ctx = self.context
        pds = [pd for pd, _ in self.modulus.factors]
        if 2 * sum(math.prod(min(h, pd.p) for h in self.diag)
                   for pd in pds) > self.size:
            return None
        tables = [(pd.p, ctx.root_table(pd, self.diag),
                   ctx.unit_table(pd, self.diag)) for pd in pds]
        if all(roots is units for _, roots, units in tables):
            return None
        return _np_unit_mask(self.diag, [(p, roots) for p, roots, _ in tables])

    def principal_units(self, j: int) -> list[ResidueElement]:
        """U_j = units congruent to 1 mod P^j, for a prime-power modulus P^n."""
        if len(self.modulus.factors) != 1:
            raise CompositeModulus("principal units need a prime-power modulus")
        pd, n = self.modulus.factors[0]
        if not 1 <= j <= n:
            raise JOutOfRange(f"j must be in [1, {n}], got {j}")
        pj = self.context.basis(((pd, j),))
        shift = pd.p ** (j * pd.f)
        rows = self._unit_rows()
        one_mod_pj = lattice.reduce_mod(pj, self.order.one.coeffs)
        hits = _np_reduce(rows.T, pj, shift, one_mod_pj)
        return [ResidueElement(self, tuple(row))
                for row in rows[hits].tolist()]

    # -- numpy helpers -------------------------------------------------------

    def _np_red_rows(self) -> np.ndarray:
        return np.array(self._red_rows, dtype=np.int64).reshape(
            -1, self.order.degree)

    # -- output --------------------------------------------------------------

    def to_dump_json(self) -> dict:
        census = self.order2_census()
        return {
            "size": self.size,
            "unit_count": self.unit_count,
            "elements": [list(e.coeffs) for e in self.elements()],
            "units": [list(u.coeffs) for u in self.units()],
            "census": {
                "solutions": [list(s.coeffs) for s in census.elements],
                "count": census.count,
                "d2": census.d2,
            },
        }

    def __str__(self) -> str:
        return f"{self.order}/({self.modulus.label()})"


def build_residue_ring(o: NumberFieldOrder, a: FactoredIdeal,
                       cap: int = DEFAULT_CAP,
                       ctx: OrderContext | None = None) -> ResidueRing:
    """Construct o/a, refusing when |o/a| would exceed ``cap``.

    The lattice of a is the product of its prime-power lattices (equal to
    the intersection, the factors being pairwise comaximal), from ``ctx``,
    which shares bases and tables among the rings of one order and checks
    each basis when it makes it; without one, a fresh context is made.
    """
    norm = a.absolute_norm
    if norm > cap:
        raise RingTooLarge(f"|o/a| = {magnitude(norm)} exceeds the cap {cap}")
    if ctx is None:
        ctx = OrderContext(o)
    elif ctx.order != o:
        raise InvariantViolation(f"a context of {ctx.order} used for {o}")
    return ResidueRing(ctx, a)


# ---------------------------------------------------------------------------
# int64 kernels.  Preconditions (checked via _bounds_allow_int64): operand
# coefficients lie in [0, N); N is the ring size; every basis entry lies in
# [0, pivot) (checked where OrderContext makes the basis); the lattice shift
# trick (adding multiples of s*e_i, legal whenever s*Z^d is inside the
# lattice) keeps every intermediate below the asserted bounds.  The kernels
# take elements as (d, count) columns, each coefficient one contiguous row.
# Divisions by powers of two — the common case, every lattice above 2 being
# 2-power-indexed — are done with shifts and masks.
# ---------------------------------------------------------------------------

def _np_mod(x: np.ndarray, m: int) -> np.ndarray:
    if m & (m - 1) == 0:
        return x & (m - 1)
    # numpy divides by a scalar without a hardware division, which makes
    # this about twice as fast as x % m
    return x - x // m * m


def _np_divmod(x: np.ndarray, m: int):
    if m & (m - 1) == 0:
        return x >> (m.bit_length() - 1), x & (m - 1)
    q = x // m  # as in _np_mod
    return q, x - q * m


def _np_reduce(vecs: np.ndarray, basis: Sequence[Sequence[int]],
               shift: int, target: Sequence[int]) -> np.ndarray:
    """Indices, in order, of the columns whose canonical box representative
    mod the lattice is ``target``.

    The columns of ``vecs`` are reduced one coordinate at a time, as in
    lattice.reduce_mod, and a column is dropped at the first coordinate
    whose residue differs from the target's: after the first pivot above 1
    only its survivors are carried on.  ``shift * Z^d`` must lie in the
    lattice, so every pivot divides ``shift``, and ``target`` must be a box
    representative.  A coordinate whose pivot is 1 is never updated (the
    basis entries above a pivot of 1 are 0), so it still holds its input
    value.  Bound: with the columns in [0, N), N >= shift, every quotient
    in [0, N) and every basis entry in [0, pivot), a carried value stays
    within N + (d-1)*N*shift <= d*N^2 in size, inside the int64 bound
    (2d+4)*|o/a|^2 < 2^62 for N = |o/a|.  ``vecs`` is not written to.
    """
    d, k = vecs.shape
    rows = vecs  # coordinates i.. of the surviving columns
    idx = None   # the surviving columns; None while every column survives
    for i in range(d):
        h = basis[i][i]
        if h > 1:
            keep = np.flatnonzero(_np_mod(rows[0], h) == target[i])
            idx = keep if idx is None else idx[keep]
            if not len(idx):
                return idx
            rows = rows[:, keep]
        if i + 1 == d:
            break
        q = rows[0] if h == 1 else _np_divmod(_np_mod(rows[0], shift), h)[0]
        rows = rows[1:]
        tail = np.array(basis[i][i + 1:], dtype=np.int64)
        if tail.any():
            rows = rows - q[None, :] * tail[:, None]
    return np.arange(k) if idx is None else idx


def _np_unit_mask(diag: Sequence[int],
                  tables: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """Flat unit mask of the box prod [0, diag_i), in box order.

    ``tables`` holds (p, OrderContext.unit_table) for each prime divisor P
    of the modulus, the unit test of P on the small box
    prod [0, min(diag_i, p)); with root tables in their place the mask
    marks the census candidates.  Each table is tiled out to the full box
    with period p along each axis; no arithmetic runs over the full box.
    """
    # the mask keeps only the axes longer than 1: at most log2 |o/a| of
    # them, within numpy's 64 dimensions at any degree
    shape = tuple(h for h in diag if h > 1)
    mask = np.ones(shape, dtype=bool)
    for p, m in tables:
        for i, h in enumerate(shape):
            if h > p:
                m = _np_periodic(m, i, h)
        mask &= m
    return mask.reshape(-1)


def _np_coords(idx: np.ndarray, diag: Sequence[int]) -> np.ndarray:
    """Flat box indices back to (d, count) coordinate columns, last
    coordinate fastest (as np.unravel_index, at a third of its cost)."""
    cols = np.zeros((len(diag), len(idx)), dtype=np.int64)
    for i in range(len(diag) - 1, 0, -1):
        h = diag[i]
        if h > 1:
            idx, cols[i] = _np_divmod(idx, h)
    cols[0] = idx
    return cols


def _np_periodic(x: np.ndarray, axis: int, h: int) -> np.ndarray:
    """``x`` repeated along ``axis`` up to length ``h``, by doubling copies."""
    p = x.shape[axis]
    shape = list(x.shape)
    shape[axis] = h
    out = np.empty(shape, dtype=x.dtype)
    pre = (slice(None),) * axis
    out[pre + (slice(0, p),)] = x
    done = p
    while done < h:
        k = min(done, h - done)
        out[pre + (slice(done, done + k),)] = out[pre + (slice(0, k),)]
        done += k
    return out


def _np_mul(a: np.ndarray, b: np.ndarray, red_rows: np.ndarray,
            n: int, d: int, defer_mod: bool) -> np.ndarray:
    """Columnwise products mod the defining polynomial, coefficients mod n.

    ``a`` and ``b`` are (d, k): row i holds coefficient i of k elements.
    With ``defer_mod`` (proved safe at ring construction) the coefficient
    reduction happens once, after folding the high-degree rows; else the
    convolution is reduced before folding as well.
    """
    k = a.shape[1]
    c = np.empty((2 * d - 1, k), dtype=np.int64)
    tmp = np.empty((d - 1, k), dtype=np.int64)
    np.multiply(a, b[0], out=c[:d])
    for j in range(1, d):
        # a * b[j] lands on rows j .. j+d-1; the last of them is new
        np.multiply(a[:d - 1], b[j], out=tmp)
        c[j:j + d - 1] += tmp
        np.multiply(a[d - 1], b[j], out=c[j + d - 1])
    if not defer_mod:
        c = _np_mod(c, n)
    r = c[:d]
    for t in range(d - 1):
        col = c[d + t]
        row = red_rows[t]
        for m in np.nonzero(row)[0]:
            coef = int(row[m])
            if coef == 1:
                r[m] += col
            elif coef == -1:
                r[m] -= col
            else:
                r[m] += col * coef
    return _np_mod(r, n)


def _np_fold(a: np.ndarray, width: int, red_rows: np.ndarray, n: int,
             d: int, defer_mod: bool) -> int:
    """Multiply the columns of a (d, count) array together in place, as a
    balanced tree, until at most ``width`` are left; returns how many.

    Each level multiplies the first half of the live columns by the last
    half (or as many as bring the count down to ``width``) and keeps the
    products in the first columns, so every operand row is a contiguous
    slice; with an odd count the middle column waits for the next level.
    """
    live = a.shape[1]
    while live > width:
        h = min(live // 2, live - width)
        a[:, :h] = _np_mul(a[:, :h], a[:, live - h:live], red_rows, n, d,
                           defer_mod)
        live -= h
    return live


def _np_tree_product(units: np.ndarray, red_rows: np.ndarray, n: int,
                     d: int, defer_mod: bool) -> np.ndarray:
    """Product of the columns of a nonempty (d, count) array, as a balanced
    tree."""
    a = units.copy(order="C")
    _np_fold(a, 1, red_rows, n, d, defer_mod)
    return a[:, 0]
