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
they are called.  A box of at most CHUNK positions is one block,
multiplied as one tree.

The masks and every block-sized array a walk writes are slots of one
scratch pool that the process keeps (_Scratch, one per thread), so once a
walk as large has run, a walk allocates only what numpy makes inside a
call (the index array of each block's np.flatnonzero, _np_reduce's
temporaries, the copy it makes of a tile whose source and destination
interleave), which the allocator serves from memory it has kept: it
faults in no fresh pages.  Each slot grows to the largest walk's need and
never shrinks: two bytes per box position for the masks, and at degree d
2d*CHUNK + (3d-1)*SPAN int64 entries for the blocks (the tiles of a mask
borrow the blocks' memory), about 5 MB after the near-cap rings of degree
2 to 6 that the benchmark verifies.  Buffers under KEEP entries (256 KB)
are made fresh and not kept, so small walks leave the pool empty.

The rings of one order share an OrderContext: lattice bases, uniformizers,
fold rows, and unit and root tables are built once per context, not once
per ring.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
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
# the walk multiplies at most this many columns in one _np_mul call, which
# bounds its work array to (3d-1)*SPAN int64 entries (a few hundred KB)
SPAN = 1 << 13
# the scratch pool keeps no buffer of fewer int64 entries (256 KB): made
# fresh, one that small comes from memory the allocator keeps and faults in
# next to no pages, and kept, it would only add to what a process of small
# walks holds
KEEP = 1 << 15


class _Scratch:
    """Scratch buffers of the walks over the units, kept between walks.

    Each slot is one flat int64 array, grown to the largest size a walk
    has asked of it and never shrunk, so a walk no larger than one before
    it writes its masks and blocks into pages that are already mapped.  A
    request for fewer than KEEP entries gets a fresh array and leaves the
    slot as it is.
    The pool belongs to the process (one per thread, see _scratch), not to
    a ring or an OrderContext: every CLI request and bare verify_ideal
    makes a fresh context.  ``walks`` counts the unit masks built, so a
    walk can tell when another one reused the pool while it was suspended.
    """

    def __init__(self):
        self.bufs: dict = {}   # slot -> int64 array
        self.bytes: dict = {}  # slot -> the same memory as bools
        self.walks = 0

    def take(self, slot: str, n: int) -> np.ndarray:
        """A flat int64 array of ``n`` entries in ``slot``, its contents
        undefined: it shares memory with what the slot handed out before."""
        if n < KEEP:
            return np.empty(n, dtype=np.int64)
        buf = self.bufs.get(slot)
        if buf is None or len(buf) < n:
            buf = self._grow(slot, n)
        return buf[:n]

    def take_bool(self, slot: str, n: int) -> np.ndarray:
        """As take, for ``n`` bools."""
        if n < 8 * KEEP:
            return np.empty(n, dtype=bool)
        buf = self.bytes.get(slot)
        if buf is None or len(buf) < n:
            self._grow(slot, -(-n // 8))
            buf = self.bytes[slot]
        return buf[:n]

    def _grow(self, slot: str, n: int) -> np.ndarray:
        buf = self.bufs[slot] = np.empty(n, dtype=np.int64)
        self.bytes[slot] = buf.view(bool)
        return buf


_THREAD = threading.local()


def _scratch() -> _Scratch:
    """This thread's scratch pool, made on first use."""
    pool = getattr(_THREAD, "pool", None)
    if pool is None:
        pool = _THREAD.pool = _Scratch()
    return pool


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
        walk.  Mask and blocks live in the scratch pool: each block is
        overwritten by the next, so a caller that keeps one copies it.
        Raises RingTooLarge when the ring is beyond the int64 bound of the
        kernels.
        """
        if not self._np_ok:
            raise RingTooLarge(
                f"|o/a| = {self.size} is beyond the int64 enumeration "
                f"bound (2d+4)*|o/a|^2 < 2^62 at degree {self.order.degree}")
        pool = _scratch()
        mask = self._mask([self.context.unit_table(pd, self.diag)
                           for pd, _ in self.modulus.factors],
                          pool, "units mask")
        pool.walks += 1
        return self._unit_blocks(mask, pool, pool.walks)

    def _unit_blocks(self, mask: np.ndarray, pool: _Scratch,
                     walk: int) -> Iterator[np.ndarray]:
        found = 0
        for s in range(0, len(mask), CHUNK):
            if pool.walks != walk:
                raise InvariantViolation(
                    f"a walk of {self} was resumed after another walk "
                    f"reused its scratch buffers")
            cols = self._decode(mask, s, pool, "units")
            found += cols.shape[1]
            yield cols
        if found != self.unit_count:
            raise InvariantViolation(
                f"{found} units enumerated in {self}, "
                f"the closed form gives {self.unit_count}")

    def _decode(self, mask: np.ndarray, s: int, pool: _Scratch,
                slot: str) -> np.ndarray:
        """The positions that ``mask`` marks among s .. s+CHUNK-1, as (d, k)
        coordinate columns in ``slot`` of ``pool``."""
        idx = np.flatnonzero(mask[s:s + CHUNK])
        if s:
            idx += s
        d, k = len(self.diag), len(idx)
        return _np_coords(idx, self.diag, pool.take(slot, d * k).reshape(d, k))

    def _mask(self, tables: list, pool: _Scratch, slot: str) -> np.ndarray:
        """_np_unit_mask of ``tables``, in ``slot`` of ``pool``.  The tiles
        go to the slot of the unit blocks, which no walk uses before its
        masks are made."""
        tile = None
        if len(tables) > 1:
            tile = pool.take_bool("units", self.size)
        return _np_unit_mask(self.diag, tables,
                             pool.take_bool(slot, self.size), tile)

    def _unit_rows(self) -> np.ndarray:
        """Every unit as (count, d) rows in box order, in one array."""
        return np.concatenate([cols.copy() for cols in self._units_array()],
                              axis=1).T

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
        _root_mask) and keeps those whose square is 1 mod a.  Every array
        the size of a block that the walk writes is a view of the scratch
        pool.
        """
        d = len(self.diag)
        args = (self._np_red_rows(), self.size, d, self._defer_mod)
        # columns set to 1 until a block reaches them: a later block can
        # hold more units than the first
        acc = np.repeat(np.array(self._one_coeffs, dtype=np.int64)[:, None],
                        FOLD, axis=1) if self.size > CHUNK else None
        # the units first: _units_array refuses a ring beyond the int64 bound
        blocks = self._units_array()
        pool = _scratch()
        sieve = self._root_mask() if census else None
        roots = []
        for s, cols in zip(itertools.count(0, CHUNK), blocks):
            k = cols.shape[1]
            cands = cols
            if census and sieve is not None:
                cands = self._decode(sieve, s, pool, "candidates")
            kc = cands.shape[1] if census else 0
            # one buffer for the census square, the fold and the product
            # into the accumulator, SPAN columns at a time
            span = min(SPAN, max(kc, k // 2, min(k, FOLD), 1))
            work = pool.take("work", (3 * d - 1) * span)
            for c in range(0, kc, span):
                part = cands[:, c:c + span]
                sq = _np_mul(part, part, *args, work=work)
                roots.append(part[:, _np_reduce(sq, self.basis, self.size,
                                                self._one_coeffs)])
            if acc is None:
                col = _np_tree_product(cols, *args, out=cols, work=work)
            else:
                live = _np_fold(cols, FOLD, *args, work=work)
                low = acc[:, :live]
                _np_mul(low, cols[:, :live], *args, out=low, work=work)
        if acc is not None:
            col = _np_tree_product(acc, *args, out=acc)
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
        tables = [(ctx.root_table(pd, self.diag),
                   ctx.unit_table(pd, self.diag)) for pd in pds]
        if all(roots is units for roots, units in tables):
            return None
        return self._mask([roots for roots, _ in tables], _scratch(),
                          "roots mask")

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

def _np_mod(x: np.ndarray, m: int, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """x mod m, in [0, m); into ``out`` when it is given, which may be ``x``
    itself but must not overlap it otherwise.  The quotients go to the
    first len(x) rows of ``work`` when it is given, else to ``out``, so
    ``work`` is needed when ``out`` is ``x``."""
    if m & (m - 1) == 0:
        return np.bitwise_and(x, m - 1, out=out)
    if out is None:
        # numpy divides by a scalar without a hardware division, which makes
        # this about twice as fast as x % m
        return x - x // m * m
    q = out if work is None else work[:len(x)]
    np.floor_divide(x, m, out=q)
    np.multiply(q, m, out=q)
    return np.subtract(x, q, out=out)


def _np_divmod(x: np.ndarray, m: int, out=(None, None)):
    """(x // m, x mod m), into the two arrays of ``out`` when they are
    given; neither may overlap ``x``."""
    q, r = out
    if m & (m - 1) == 0:
        return (np.right_shift(x, m.bit_length() - 1, out=q),
                np.bitwise_and(x, m - 1, out=r))
    q = np.floor_divide(x, m, out=q)  # as in _np_mod
    return q, np.subtract(x, np.multiply(q, m, out=r), out=r)


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
            prod = np.multiply(tail[:, None], q)
            rows = np.subtract(rows, prod, out=prod)
    return np.arange(k) if idx is None else idx


def _np_unit_mask(diag: Sequence[int], tables: Sequence[np.ndarray],
                  out: np.ndarray, tile: np.ndarray | None) -> np.ndarray:
    """Flat unit mask of the box prod [0, diag_i), in box order.

    ``tables`` holds OrderContext.unit_table for each prime divisor P of
    the modulus, the unit test of P on the small box
    prod [0, min(diag_i, p)); with root tables in their place the mask
    marks the census candidates.  Each table is tiled out to the full box
    with period p along each axis; no arithmetic runs over the full box.
    The mask is written into ``out`` and the tables after the first are
    tiled in ``tile``, flat bool arrays of the box's size; ``tile`` may be
    None when there is at most one table.
    """
    # the mask keeps only the axes longer than 1: at most log2 |o/a| of
    # them, within numpy's 64 dimensions at any degree
    shape = tuple(h for h in diag if h > 1)
    mask = out.reshape(shape)
    if not tables:
        mask.fill(True)
    for i, m in enumerate(tables):
        if not i:
            _np_periodic(m, mask)
        elif m.shape == shape:
            mask &= m
        else:
            mask &= _np_periodic(m, tile.reshape(shape))
    return mask.reshape(-1)


def _np_coords(idx: np.ndarray, diag: Sequence[int],
               out: np.ndarray | None = None) -> np.ndarray:
    """Flat box indices back to (d, count) coordinate columns, last
    coordinate fastest (as np.unravel_index, at a third of its cost), into
    ``out`` when it is given.  ``idx`` is overwritten: it holds the
    quotients in turn with the first row of the columns."""
    if out is None:
        out = np.zeros((len(diag), len(idx)), dtype=np.int64)
        zero = False
    else:
        zero = True
    first = out[0]
    x, spare = idx, first
    for i in range(len(diag) - 1, 0, -1):
        h = diag[i]
        if h > 1:
            _np_divmod(x, h, out=(spare, out[i]))
            x, spare = spare, x
        elif zero:
            out[i] = 0
    if x is not first:
        first[...] = x
    return out


def _np_periodic(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with ``x`` repeated along every axis, with period
    x.shape[i] along axis i, by doubling copies within ``out``."""
    if x.shape == out.shape:
        out[...] = x
        return out
    region = [slice(0, p) for p in x.shape]
    out[tuple(region)] = x
    for axis, (p, h) in enumerate(zip(x.shape, out.shape)):
        done = p
        while done < h:
            k = min(done, h - done)
            region[axis] = slice(0, k)
            src = tuple(region)
            region[axis] = slice(done, done + k)
            out[tuple(region)] = out[src]
            done += k
        region[axis] = slice(None)
    return out


def _np_mul(a: np.ndarray, b: np.ndarray, red_rows: np.ndarray,
            n: int, d: int, defer_mod: bool, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """Columnwise products mod the defining polynomial, coefficients mod n.

    ``a`` and ``b`` are (d, k): row i holds coefficient i of k elements.
    With ``defer_mod`` (proved safe at ring construction) the coefficient
    reduction happens once, after folding the high-degree rows; else the
    convolution is reduced before folding as well.  The arithmetic runs in
    ``work``, a flat int64 array (fresh when None), laid out as a
    contiguous (3d-1, k) array, which keeps numpy on its fast path for
    contiguous operands.  The products are left in its last d rows, and
    copied to ``out`` when it is given, which may be ``a`` or ``b``:
    returns ``out``, or else that view of ``work``.  A ``work`` of fewer
    than (3d-1)*k entries is used for as many columns at a time as it
    holds, and then ``out`` is needed.
    """
    k = a.shape[1]
    rows = 3 * d - 1
    if work is None:
        w = np.empty((rows, k), dtype=np.int64)
    elif len(work) < rows * k:
        span = len(work) // rows
        for s in range(0, k, span):
            _np_mul(a[:, s:s + span], b[:, s:s + span], red_rows, n, d,
                    defer_mod, out[:, s:s + span], work)
        return out
    else:
        w = work[:rows * k].reshape(rows, k)
    c = w[:2 * d - 1]
    tmp = w[2 * d - 1:3 * d - 2]
    np.multiply(a, b[0], out=c[:d])
    for j in range(1, d):
        # a * b[j] lands on rows j .. j+d-1; the last of them is new
        np.multiply(a[:d - 1], b[j], out=tmp)
        c[j:j + d - 1] += tmp
        np.multiply(a[d - 1], b[j], out=c[j + d - 1])
    prod = w[2 * d - 1:]  # free once the convolution is done
    if not defer_mod:
        # in place, d rows at a time, the quotients in prod
        for s in range(0, 2 * d - 1, d):
            _np_mod(c[s:s + d], n, out=c[s:s + d], work=prod)
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
                r[m] += np.multiply(col, coef, out=prod[0])
    _np_mod(r, n, out=prod)
    if out is None:
        return prod
    out[...] = prod
    return out


def _np_fold(a: np.ndarray, width: int, red_rows: np.ndarray, n: int,
             d: int, defer_mod: bool, work: np.ndarray | None = None) -> int:
    """Multiply the columns of a (d, count) array together in place, as a
    balanced tree, until at most ``width`` are left; returns how many.

    Each level multiplies the first half of the live columns by the last
    half (or as many as bring the count down to ``width``) and keeps the
    products in the first columns, so every operand row is a contiguous
    slice; with an odd count the middle column waits for the next level.
    ``work`` is _np_mul's (fresh, for count // 2 columns, when None).
    """
    live = a.shape[1]
    if work is None and live > width:
        work = np.empty((3 * d - 1) * (live // 2), dtype=np.int64)
    while live > width:
        h = min(live // 2, live - width)
        low = a[:, :h]
        _np_mul(low, a[:, live - h:live], red_rows, n, d, defer_mod,
                out=low, work=work)
        live -= h
    return live


def _np_tree_product(units: np.ndarray, red_rows: np.ndarray, n: int,
                     d: int, defer_mod: bool, out: np.ndarray | None = None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Product of the columns of a nonempty (d, count) array, as a balanced
    tree.  The tree runs in ``out``, which is ``units`` itself, or in a
    copy of ``units`` when None; ``work`` is _np_fold's."""
    if out is None:
        out = units.copy(order="C")
    _np_fold(out, 1, red_rows, n, d, defer_mod, work)
    return out[:, 0]
