"""Finite quotient rings o/a and their unit groups, by honest enumeration.

The ring o/a is represented by the HNF basis of the ideal lattice of a in
the power basis of the order; canonical representatives are the integer
boxes prod [0, H[i][i]).  Units are the classes outside every prime divisor
of a, and `unit_product` multiplies all of them together — this module is
the brute-force side of the package, against which the closed-form
classification in `wilson` is checked.

Enumeration-heavy operations (unit listing, the all-units product, the
square-roots-of-1 census) run on numpy integer arrays, with coefficients
reduced modulo the exponent e of o/a between multiplications: the least
s > 0 with s*o inside a, so reducing by it never changes a residue class.
Each exponent has one kernel setting (OrderContext.kernels): the lane,
int32 or int64, the fold terms mod e, and whether the reduction waits until
after the fold; the bounds that choose it are stated once, in the kernel
section.

The product of all units is one walk over them.  It builds a flat unit
mask of the box (one byte per element, tiled from small per-prime tables),
then takes the box CHUNK positions at a time in one loop: each block's
units are decoded to coordinates and streamed, SPAN columns at a time, into
a running product of at most SPAN columns, which one tree multiplies out at
the end, a narrow level of it as one matrix product with the structure
tensor of o/eo.  The census of square roots of 1 does not walk the box: it
lifts the roots through the factors of a, one step a_(i+1) = a_i*P^k at a
time, squaring each root mod a_i plus each class of a_i/a_(i+1) and keeping
those whose square is 1 mod a_(i+1) (_roots).  A ring keeps no unit array:
`units`, `principal_units` and the dump build the whole array only when
they are called.  A box of more than WALK_MAX positions is never walked.

The mask and every block-sized array a walk writes, and the coordinates
and the work of the census's blocks of lifts, are slots of a scratch pool
that each thread keeps (_take), so once a walk as large has run, a walk
faults in no fresh pages.  The slots hold one byte per box position for
the mask and, at degree d, at most 8*((2d+1)*CHUNK + (4d-1)*SPAN) bytes
for the blocks (whose slot tiles the mask's tables first), the decoded
indices, the running product and the products.  A narrow tree level's
arrays are too small to keep.  A walk runs to its end before it returns,
so no walk finds its slots written over by another.

The rings of one order share an OrderContext: lattice bases, uniformizers,
kernel settings, structure tensors and unit tables are built once per
context, not once per ring.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

# the kernels' lanes, narrowest first: (integer type, bound); see the
# kernel section
_LANES = ((np.int32, 1 << 30), (np.int64, 1 << 62))

# the walk over the units takes the box this many positions at a time, and
# the census squares at most CHUNK // (d+1) lifts at a time, which bounds
# their temporaries near the cap
CHUNK = 1 << 16
# the walk's running product has at most this many columns, and it
# multiplies at most this many in one _np_mul call, which bounds its work
# array to (3d-1)*SPAN entries (a few hundred KB)
SPAN = 1 << 13
# a tree level is one structure-tensor product when its outer products have
# at most this many entries, d*d a column, and the tensor too (d^3, so
# d <= 16): past that one _np_mul call costs less
NARROW = 1 << 12
# the scratch pool keeps no buffer of fewer bytes (256 KB): made fresh, one
# that small comes from memory the allocator keeps and faults in next to no
# pages, and kept, it would only add to what a process of small walks holds
KEEP = 1 << 18
# no walk takes a box of more positions: its mask and tile alone would need
# 2*WALK_MAX bytes (512 MB), which only a raised cap allows
WALK_MAX = 1 << 28

_THREAD = threading.local()


def _take(slot: str, n: int, dtype=np.int64) -> np.ndarray:
    """A flat array of ``n`` entries of ``dtype`` from ``slot`` of this
    thread's scratch pool, its contents undefined: it shares memory with
    what the slot handed out before.

    Each slot is one flat int64 array, grown to the largest request and
    never shrunk.  An integer entry takes one 8-byte word of it in either
    lane, a bool entry one byte.  A request for fewer than KEEP bytes gets
    a fresh array and leaves the slot as it is.  The pool belongs to the
    thread, not to a ring or an OrderContext: every CLI request makes a
    fresh context.
    """
    dtype = np.dtype(dtype)
    words = -(-n // 8) if dtype == bool else n
    if 8 * words < KEEP:
        return np.empty(n, dtype=dtype)
    bufs = getattr(_THREAD, "bufs", None)
    if bufs is None:
        bufs = _THREAD.bufs = {}
    buf = bufs.get(slot)
    if buf is None or len(buf) < words:
        buf = bufs[slot] = np.empty(words, dtype=np.int64)
    return buf.view(dtype)[:n]


def _is_exponent(basis: list[list[int]], e: int, p: int) -> bool:
    """Is the power ``e`` of ``p`` the least s > 0 with s*Z^d inside the
    lattice?  The s that qualify are the multiples of that least one."""
    d = len(basis)

    def kills(s: int) -> bool:
        return all(lattice.contains(basis, [s * (i == j) for j in range(d)])
                   for i in range(d))

    return kills(e) and (e == 1 or not kills(e // p))


def _memo(make):
    """An OrderContext method that makes its value, None included, once per
    context and argument tuple, and keeps it in the context; a hit hashes
    its key once (a PrimeIdealData in it keeps its hash)."""
    @functools.wraps(make)
    def cached(self, *args):
        key = (make.__name__, *args)
        out = self._caches.get(key, _memo)
        if out is _memo:
            out = self._caches[key] = make(self, *args)
        return out
    return cached


class OrderContext:
    """What the residue rings of one order share, each built once (_memo):
    lattice bases, uniformizers, the kernel setting of each exponent and
    its structure tensor, and unit tables.

    A context lives for one top-level call (one sweep, one CLI request, one
    bare verify_ideal or classify_global) and is never stored on the order,
    so its caches end with that call.  What it hands out is shared and must
    not be written to.
    """

    def __init__(self, o: NumberFieldOrder):
        self.order = o
        self._caches: dict = {}

    @_memo
    def basis(self, factors: tuple) -> list[list[int]]:
        """HNF basis of prod P^m over ``factors``, (PrimeIdealData, m) pairs.

        The factors above one prime p make the lattice q*o + x*o
        (lattice.ideal_power_lattice), q = p^s their exponent and x the
        product of the context's uniformizers pi_P^m, reduced mod q; where
        v_P(q) = m, g_P(theta) serves for pi_P and needs no lattice.  The
        factors above the last factor's prime join the cached basis of the
        rest by comaximal_product; for a sweep the rest is a prefix, which
        sweep_ideals yields before its extensions.  Each basis is checked
        once, when it is made, for what the box representatives and the
        bounds of the rings rely on: every entry in [0, pivot), the norm as
        index, and, above one prime, q as the exponent of the quotient: q
        times each e_i lies in the lattice, and q/p times some e_i does not.
        """
        o = self.order
        p = factors[-1][0].p if factors else 1
        rest = tuple(f for f in factors if f[0].p != p)
        if rest:
            out = lattice.comaximal_product(
                o, self.basis(rest),
                self.basis(tuple(f for f in factors if f[0].p == p)))
        else:
            q, x = self.exponent(factors), o.one
            for pd, m in factors:
                # v_P(g(theta)) >= 1, enough where v_P(q) = m; where
                # v_P(q) > m, x needs valuation m, from the uniformizer
                pi = self.uniformizer(pd) if pd.p ** m < q ** pd.e else \
                    o.element_from_poly(pd.gen_poly)
                for _ in range(m):
                    x = o.element([c % q for c in o.mul(x, pi).coeffs])
            out = lattice.ideal_power_lattice(o, q, x)
        ideal = FactoredIdeal(factors)
        if not lattice.is_reduced(out) or \
                lattice.lattice_det(out) != ideal.absolute_norm:
            raise InvariantViolation(
                f"lattice basis {out} of {o}/({ideal.label()}) is "
                f"not in reduced Hermite normal form of index "
                f"{ideal.absolute_norm}")
        if not rest and not _is_exponent(out, q, p):
            raise InvariantViolation(
                f"{q} is not the exponent of {o}/({ideal.label()}), "
                f"basis {out}")
        return out

    def exponent(self, factors: tuple) -> int:
        """The exponent of o/prod P^m, the least s > 0 with s*Z^d inside
        the lattice of basis(factors), which every pivot divides: the lcm
        of p^ceil(m/e_P), the least power of p in P^m, as the product of
        comaximal ideals is their intersection.  basis checks it when it
        makes the basis of the factors above one prime.
        """
        return math.lcm(*(pd.p ** -(-m // pd.e) for pd, m in factors))

    @_memo
    def uniformizer(self, pd: PrimeIdealData) -> OrderElement:
        return uniformizer(self.order, pd)

    @functools.cached_property
    def fold_rows(self) -> list[tuple]:
        """The rows x^(d+t) mod f for t < d-1, for polynomial reduction."""
        d = self.order.degree
        rows = []
        for t in range(d - 1):
            _, rem = poly_divmod_monic((0,) * (d + t) + (1,), self.order.poly)
            rows.append(rem + (0,) * (d - len(rem)))
        return rows

    @_memo
    def kernels(self, e: int) -> _Kernels | None:
        """The kernel setting of exponent e, None beyond every lane: the
        narrowest lane whose bound holds (_lane), the nonzero (t, m, coef)
        terms (_fold_terms) of the fold rows as symmetric residues mod e,
        and whether _np_mul may defer its coefficient reduction past the
        fold in that lane.  The rings of exponent e and the unit tables of
        o/P with p = e run in it.  Only the rows' residues mod e are used,
        and symmetric ones keep the kernels' bounds independent of the size
        of f's coefficients."""
        d = self.order.degree
        if (lane := _lane(d, e)) is None:
            return None
        dtype, safe = lane
        half = e // 2
        rows = [[(c + half) % e - half for c in row] for row in self.fold_rows]
        # the fold can grow a coefficient by 1 + the largest column sum of
        # the rows' sizes; with defer_mod, coefficients are reduced only
        # after the high-degree columns of the convolution are folded in
        grow = 1 + max(sum(abs(row[m]) for row in rows) for m in range(d))
        return _Kernels(dtype, _fold_terms(rows), d * e * e * grow < safe)

    @_memo
    def tensor(self, terms: tuple, dtype) -> np.ndarray:
        """The structure tensor of fold terms from kernels, for
        _np_tensor_mul: the (d, d*d) matrix, in ``dtype``, whose column
        i*d+j holds theta^i * theta^j mod f, that is column i+j of the
        identity beside the transposed fold rows.  Keyed by the terms, which
        every modulus above twice each fold coefficient shares."""
        d = self.order.degree
        fold = np.eye(d, 2 * d - 1, dtype=dtype)
        for t, m, coef in terms:
            fold[m, d + t] = coef
        out = fold[:, np.add.outer(np.arange(d), np.arange(d)).ravel()]
        out.flags.writeable = False
        return out

    @_memo
    def unit_table(self, pd: PrimeIdealData, small: tuple) -> np.ndarray:
        """Which classes of the small box ``small`` = prod [0, min(diag_i, p))
        of a ring's pivots diag_i lie outside P, over the axes longer than 1.
        Membership in P only depends on the coordinates mod p (p*e_i lies
        in P), so _np_unit_mask tiles this table out to the full box.  Made
        by enumerating the small box CHUNK classes at a time, in the setting
        of o/P's exponent p.
        """
        p, d = pd.p, self.order.degree
        basis = self.basis(((pd, 1),))
        n, dtype = math.prod(small), self.kernels(p).dtype
        table = np.ones(n, dtype=bool)
        for s in range(0, n, CHUNK):
            box = _np_coords(np.arange(s, min(n, s + CHUNK), dtype=dtype),
                             small)
            table[s + _np_reduce(box, basis, p, (0,) * d)] = False
        table = table.reshape(tuple(h for h in small if h > 1))
        table.flags.writeable = False
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
    in box order; each is found by squaring it mod a, among the lifts of
    the roots mod a coarser ideal (ResidueRing._roots).  ``count`` is the
    number of elements of order exactly 2, which is always 2^d2 - 1.
    ``product`` is the product of all units, from the walk over them.
    """

    count: int
    elements: list
    d2: int
    product: "ResidueElement"


class _Kernels(NamedTuple):
    """How the kernels run at one exponent (see OrderContext.kernels)."""

    dtype: type
    terms: tuple
    defer_mod: bool


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
        # coefficients, not a ResidueElement: an element refers back to its
        # ring, and that cycle would leave a dropped ring to the cyclic GC
        self._one_coeffs = lattice.reduce_mod(self.basis, o.one.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResidueRing) and \
            (self.order, self.modulus) == (other.order, other.modulus)

    def __hash__(self) -> int:
        return hash((self.order, self.modulus))

    # -- plumbing ------------------------------------------------------------

    @functools.cached_property
    def exponent(self) -> int:
        """The exponent e of o/a, the modulus of the kernels' coefficients
        (see OrderContext.exponent)."""
        return self.context.exponent(tuple(self.modulus.factors))

    @functools.cached_property
    def _kernels(self) -> _Kernels | None:
        """The kernel setting of the ring's exponent (OrderContext.kernels),
        None beyond every lane.  Looked up on first use, so a ring that only
        evaluates a witness never pays for it."""
        return self.context.kernels(self.exponent)

    @functools.cached_property
    def _live_rows(self) -> tuple:
        """The coordinates a box representative may hold nonzero, those of
        pivot above 1, for _np_mul; looked up only where a walk streams its
        units into a product and where _roots squares its lifts.  o/o has
        none, and its one class is 0 in row 0 as in every other."""
        return tuple(i for i, h in enumerate(self.diag) if h > 1) or (0,)

    @property
    def _np_ok(self) -> bool:
        return self._kernels is not None

    @property
    def _defer_mod(self) -> bool:
        return self._np_ok and self._kernels.defer_mod

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

    # -- enumeration ---------------------------------------------------------

    def elements(self) -> list[ResidueElement]:
        """Every class, in box (mixed-radix) order."""
        return [ResidueElement(self, t)
                for t in itertools.product(*(range(h) for h in self.diag))]

    def _units_array(self) -> np.ndarray:
        """The flat unit mask of the box, in box order, in the scratch pool.

        Every enumeration of the ring starts here, once a walk, and decodes
        the mask CHUNK positions at a time (_decode).  Raises RingTooLarge,
        before any mask is made, when the ring is beyond the int64 bound of
        the kernels or its box has more than WALK_MAX positions.
        """
        if not self._np_ok:
            raise RingTooLarge(
                f"|o/a| = {self.size} of exponent {self.exponent} is beyond "
                f"the kernels' int64 lane at degree {self.order.degree}")
        if self.size > WALK_MAX:
            raise RingTooLarge(
                f"|o/a| = {self.size} is beyond the {WALK_MAX} box positions "
                f"a walk over the units may take")
        ctx, diag = self.context, self.diag
        tables = [ctx.unit_table(pd, tuple(min(h, pd.p) for h in diag))
                  for pd, _ in self.modulus.factors]
        # the tile goes to the slot of the unit blocks, which the walk
        # takes only once the mask is made
        tile = _take("units", self.size, bool) if len(tables) > 1 else None
        return _np_unit_mask(diag, tables,
                             _take("units mask", self.size, bool), tile)

    def _check_units(self, found: int) -> None:
        if found != self.unit_count:
            raise InvariantViolation(
                f"{found} units enumerated in {self}, "
                f"the closed form gives {self.unit_count}")

    def _decode(self, mask: np.ndarray, s: int, slot: str) -> np.ndarray:
        """The positions that ``mask`` marks among s .. s+CHUNK-1, as (d, k)
        coordinate columns in ``slot`` of the scratch pool."""
        idx = np.flatnonzero(mask[s:s + CHUNK])
        d, k = len(self.diag), len(idx)
        dtype = self._kernels.dtype
        if idx.dtype != dtype:
            # one cast into the ring's lane, so that every division of the
            # decode runs in it
            idx = np.add(idx, s, out=_take("index", k, dtype),
                         casting="unsafe")
        elif s:
            idx += s
        cols = _take(slot, d * k, dtype).reshape(d, k)
        return _np_coords(idx, self.diag, cols)

    def _unit_rows(self) -> np.ndarray:
        """Every unit as (count, d) rows in box order, in one array."""
        mask = self._units_array()
        rows = np.concatenate([self._decode(mask, s, "units").copy()
                               for s in range(0, len(mask), CHUNK)], axis=1).T
        self._check_units(len(rows))
        return rows

    def units(self) -> list[ResidueElement]:
        """All units, in enumeration order; length is checked against
        prod p^((m-1)f) (p^f - 1)."""
        return [ResidueElement(self, tuple(row))
                for row in self._unit_rows().tolist()]

    def unit_product(self) -> ResidueElement:
        """Product of all units — the brute-force oracle."""
        return self._walk()

    def order2_census(self) -> Census:
        """Count and list the units squaring to 1; d2 = log2 of the count.

        The product of all units comes with it, from the walk, which runs
        first: it refuses a ring it cannot walk before any root is lifted.
        """
        product = self._walk()
        sols = [ResidueElement(self, row) for row in self._roots()]
        n_sols = len(sols)
        if n_sols & (n_sols - 1):
            raise NotAPowerOfTwo(
                f"{n_sols} square roots of 1 in a finite abelian unit group")
        return Census(count=n_sols - 1, elements=sols,
                      d2=n_sols.bit_length() - 1, product=product)

    def _walk(self) -> ResidueElement:
        """One pass over the units: their product.

        Each block's units are taken ``width`` = min(SPAN, unit count)
        columns at a time into a running product ``acc`` of that many
        columns, of which the first ``live`` hold a partial product: a part
        is multiplied into the live columns it reaches and copied into the
        ones past them, so every unit is multiplied or copied once, and one
        tree multiplies the live columns out at the end.  The units of a
        part enter _np_mul as its second operand with the ring's
        _live_rows, so their rows on the axes of pivot 1, all 0, are never
        multiplied.
        """
        d = len(self.diag)
        # the mask first: _units_array refuses a ring it cannot walk
        mask = self._units_array()
        e = self.exponent
        dtype, terms, defer_mod = self._kernels
        args = (terms, e, d, defer_mod)
        # the narrow tree levels hold only to defer_mod's bound
        tensor = self.context.tensor(terms, dtype) \
            if defer_mod and d ** 3 <= NARROW else None
        width = min(SPAN, self.unit_count)
        acc = _take("product", d * width, dtype).reshape(d, width)
        # one buffer for the products into acc and the tree, neither of
        # more than width columns
        work = _take("work", (3 * d - 1) * width, dtype)
        found = live = 0
        for s in range(0, len(mask), CHUNK):
            cols = self._decode(mask, s, "units")
            k = cols.shape[1]
            found += k
            for c in range(0, k, width):
                part = cols[:, c:c + width]
                w = part.shape[1]
                m = min(live, w)
                if m:
                    low = acc[:, :m]
                    _np_mul(low, part[:, :m], *args, out=low, work=work,
                            live_rows=self._live_rows)
                # the columns no earlier part reached: a later block can
                # hold more units than the first
                acc[:, m:w] = part[:, m:]
                live = max(live, w)
        self._check_units(found)
        col = _np_tree_product(acc[:, :live], *args, work=work, tensor=tensor)
        return self.reduce([int(c) for c in col])

    def _roots(self) -> list[tuple]:
        """The units x with x^2 = 1, as coefficient tuples in box order.

        They are lifted down the chain o = a_0 > a_1 > ... > a that takes
        the factors P^m of a in order, each step a_(i+1) = a_i*P^k.  A root
        mod a_(i+1) is one mod a_i, so it is r + t for a root r mod a_i and
        t = sum t_j*b_j over the rows b_j of a_i's basis, t_j in
        [0, h'_j/h_j) for the pivots h_j of a_i and h'_j of a_(i+1): both
        bases being upper triangular, these t are one of each class of
        a_i/a_(i+1).  Each lift is reduced mod e, squared in the ring's
        kernel setting and kept when its square is 1 mod a_(i+1); a lift is
        0 where a_(i+1) has pivot 1, so it enters _np_mul with the ring's
        _live_rows.  The first step squares the box of a_1 itself: the root
        there is 0 and the lift the identity.

        A step takes the largest k whose lifts, n*q^k for n roots so far
        and q = |o/P|, fit one block, else k = 1, and its lifts a block at a
        time as positions of the box (n, h'_0/h_0, ...), in the slots of
        the walk's blocks and work.  A block has at most CHUNK // (d+1)
        lifts, so that its d+1 rows of coordinates (the root's index and t)
        take at most CHUNK entries.
        """
        d = len(self.diag)
        e = self.exponent
        dtype, terms, defer_mod = self._kernels
        block = CHUNK // (d + 1)
        roots = np.zeros((d, 1), dtype=dtype)  # 0, the one class of o/o
        prev = [[int(i == j) for j in range(d)] for i in range(d)]
        done = ()
        for pd, m in self.modulus.factors:
            q, j = pd.residue_size, 0
            while j < m:
                n, k = roots.shape[1], 1
                while j + k < m and n * q ** (k + 1) <= block:
                    k += 1
                first = not done and j == 0
                j += k
                basis = self.context.basis(done + ((pd, j),))
                one = lattice.reduce_mod(basis, self.order.one.coeffs)
                box = (n, *(basis[i][i] // prev[i][i] for i in range(d)))
                rows = np.array(prev, dtype=dtype).T  # t -> sum t_j*b_j
                size, found = math.prod(box), []
                for s in range(0, size, block):
                    w = min(block, size - s)
                    cols = _np_coords(np.arange(s, s + w, dtype=dtype), box,
                                      _take("units", (d + 1) * w,
                                            dtype).reshape(d + 1, w))
                    x = cols[1:] if first else \
                        _np_mod(roots[:, cols[0]] + rows @ cols[1:], e)
                    sq = _np_mul(x, x, terms, e, d, defer_mod,
                                 work=_take("work", (3 * d - 1) * w, dtype),
                                 live_rows=self._live_rows)
                    found.append(x[:, _np_reduce(sq, basis, e, one)])
                roots = np.concatenate(found, axis=1)
                prev = basis
            done += ((pd, m),)
        return sorted(lattice.reduce_mod(self.basis, r)
                      for r in roots.T.tolist())

    def principal_units(self, j: int) -> list[ResidueElement]:
        """U_j = units congruent to 1 mod P^j, for a prime-power modulus P^n."""
        if len(self.modulus.factors) != 1:
            raise CompositeModulus("principal units need a prime-power modulus")
        pd, n = self.modulus.factors[0]
        if not 1 <= j <= n:
            raise JOutOfRange(f"j must be in [1, {n}], got {j}")
        pj = self.context.basis(((pd, j),))
        # the exponent of o/P^j divides e, so the walk's bound covers it
        shift = self.context.exponent(((pd, j),))
        rows = self._unit_rows()
        one_mod_pj = lattice.reduce_mod(pj, self.order.one.coeffs)
        hits = _np_reduce(rows.T, pj, shift, one_mod_pj)
        return [ResidueElement(self, tuple(row))
                for row in rows[hits].tolist()]

    # -- output --------------------------------------------------------------

    def to_dump_json(self, census: Census) -> dict:
        """The ring, its units and ``census``, its order2_census, as one
        JSON document."""
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


def _lane(d: int, e: int) -> tuple | None:
    """(integer type, bound) of the narrowest lane in which the kernels
    may run at degree d and exponent e, or None beyond every lane."""
    for dtype, safe in _LANES:
        if (2 * d + 4) * e * e < safe:
            return dtype, safe
    return None


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
# Kernels.  They run in the integer type of their operands, the lane of the
# exponent's setting (OrderContext.kernels, _lane): int32 when
# (2d+4)*e^2 < 2^30, else int64 when (2d+4)*e^2 < 2^62, where e is the
# exponent of o/a (the least s > 0 with s*Z^d inside the lattice, which
# every pivot divides); a ring beyond both lanes is not enumerated
# (RingTooLarge).  The lane depends on (d, e) alone: no walk takes more
# than WALK_MAX = 2^28 box positions, under 2^30, so a flat box index fits
# either lane.  Preconditions: operand coefficients lie in [0, e); every
# basis entry lies in [0, pivot) (checked where OrderContext makes the
# basis); fold terms are symmetric residues mod e, at most e/2 in size.
# Then in either lane:
#   _np_mul: every convolution sum is below d*e^2.  With defer_mod, chosen
#     only when d*e^2*s is under the lane's bound (s = 1 + the largest
#     column sum of the |fold rows|, see OrderContext.kernels), the folded
#     sums stay below d*e^2*s.  Without it only the d-1 rows the fold
#     multiplies are reduced to [0, e) first: the low rows stay below
#     d*e^2, the fold adds at most (s-1)*e <= (d-1)*e^2/2 to each, and
#     every folded sum stays below (3d-1)*e^2/2.  Given live rows, _np_mul
#     leaves out only terms of rows that are 0, so no sum grows.
#   _np_tensor_mul: each outer product a_i*b_j is below e^2, and row k of
#     the structure tensor has sizes adding up to at most d*s (at most d
#     pairs i+j meet theta^k, and at most d each fold row, of entry k), so
#     every partial sum of the matrix product is below d*e^2*s: the bound
#     of defer_mod, without which a ring has no tensor.
#   _np_reduce: with columns in [0, N), every quotient in [0, shift) and
#     every basis entry below shift, a carried value stays within
#     N + (d-1)*shift^2; N = e and a shift of at most e (e itself in the
#     census, against the basis of each a_(i+1) of its chain, all of whose
#     pivots divide e; the exponent of P^j, a divisor of e, in
#     principal_units) keep it within d*e^2.
#   _roots: a lift adds to a root in [0, e) the sum over j of t_j*b_j[k],
#     each below e^2 (t_j < h'_j/h_j, b_j[k] below its pivot h_k <= e,
#     h_j*t_j < h'_j), so it stays within e + d*e^2 until it is reduced
#     mod e.
#   _np_mod, _np_divmod: a quotient times the modulus is within the value
#     plus the modulus.
# So every intermediate is within (2d+4)*e^2, under the lane's bound.  The
# unit tables run the same kernels on o/P in the setting of its exponent p,
# a divisor of e, over small boxes of coordinates below p.
# The kernels take elements as (d, count) columns, each coefficient one
# contiguous row.  Divisions by powers of two, the common case (every
# lattice above 2 is 2-power-indexed), are done with shifts and masks.
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
    value.  Its bound is stated in the kernel section.  ``vecs`` is not
    written to.
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
        tail = np.array(basis[i][i + 1:], dtype=rows.dtype)
        if tail.any():
            prod = np.multiply(tail[:, None], q)
            rows = np.subtract(rows, prod, out=prod)
    return np.arange(k) if idx is None else idx


def _np_unit_mask(diag: Sequence[int], tables: Sequence[np.ndarray],
                  out: np.ndarray, tile: np.ndarray | None) -> np.ndarray:
    """Flat unit mask of the box prod [0, diag_i), in box order.

    ``tables`` holds OrderContext.unit_table for each prime divisor P of
    the modulus, the unit test of P on the small box
    prod [0, min(diag_i, p)).  Each table is tiled out to the full box
    with its period along each axis; no arithmetic runs over the full box.
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
        out = np.zeros((len(diag), len(idx)), dtype=idx.dtype)
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
    x.shape[i] along axis i, by doubling copies within ``out``.  The last
    (innermost) axis is tiled first, so each later axis copies whole runs
    of the axes inside it."""
    if x.shape == out.shape:
        out[...] = x
        return out
    region = [slice(0, p) for p in x.shape]
    out[tuple(region)] = x
    for axis in reversed(range(x.ndim)):
        p, h = x.shape[axis], out.shape[axis]
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


def _fold_terms(rows: Sequence[Sequence[int]]) -> tuple:
    """The nonzero entries of fold rows (x^(d+t) mod f for each t, as in
    OrderContext.kernels) as (t, m, coef) triples of Python ints: _np_mul
    adds coef times convolution row d+t into coefficient m."""
    return tuple((t, m, int(c)) for t, row in enumerate(rows)
                 for m, c in enumerate(row) if c)


def _np_mul(a: np.ndarray, b: np.ndarray, terms: tuple,
            n: int, d: int, defer_mod: bool, out: np.ndarray | None = None,
            work: np.ndarray | None = None,
            live_rows: Sequence[int] | None = None) -> np.ndarray:
    """Columnwise products mod the defining polynomial, coefficients mod n.

    ``a`` and ``b`` are (d, k): row i holds coefficient i of k elements.
    ``terms`` are the nonzero (t, m, coef) entries of the fold rows
    (_fold_terms).  With ``defer_mod`` (see the kernel section for when it
    is safe) the coefficient reduction happens once, after folding the
    high-degree rows; else those rows are reduced before folding as
    well.  ``live_rows``, when given, lists in increasing order some rows
    of ``b`` outside which it is 0 (a walk's units are 0 on the axes of
    pivot 1): only those rows are convolved, and the convolution rows none
    of them reaches are zeroed, each once.  The arithmetic runs in
    ``work``, a flat array of the operands' type of at least (3d-1)*k
    entries (fresh when None), laid out as a contiguous (3d-1, k) array,
    which keeps numpy on its fast path for contiguous operands.  The
    products are left in its last d rows, and copied to ``out`` when it is
    given, which may be ``a`` or ``b``: returns ``out``, or else that view
    of ``work``.
    """
    k = a.shape[1]
    rows = 3 * d - 1
    if work is None:
        w = np.empty((rows, k), dtype=a.dtype)
    else:
        w = work[:rows * k].reshape(rows, k)
    c = w[:2 * d - 1]
    tmp = w[2 * d - 1:3 * d - 2]
    live = range(d) if live_rows is None else live_rows
    first = live[0]
    if first:
        c[:first] = 0
    np.multiply(a, b[first], out=c[first:first + d])
    top = first + d  # the rows below top are written
    for j in live[1:]:
        # a * b[j] lands on rows j .. j+d-1; the last of them is new, and
        # so are those past top, after a row of b that is not live
        if top < j + d - 1:
            c[top:j + d - 1] = 0
        np.multiply(a[:d - 1], b[j], out=tmp)
        c[j:j + d - 1] += tmp
        np.multiply(a[d - 1], b[j], out=c[j + d - 1])
        top = j + d
    if top < 2 * d - 1:
        c[top:] = 0
    prod = w[2 * d - 1:]  # free once the convolution is done
    if not defer_mod:
        # the rows the fold multiplies, in place, the quotients in prod
        _np_mod(c[d:], n, out=c[d:], work=prod)
    r = c[:d]
    for t, m, coef in terms:
        if coef == 1:
            r[m] += c[d + t]
        elif coef == -1:
            r[m] -= c[d + t]
        else:
            r[m] += np.multiply(c[d + t], coef, out=prod[0])
    _np_mod(r, n, out=prod)
    if out is None:
        return prod
    out[...] = prod
    return out


def _np_tree_product(units: np.ndarray, terms: tuple, n: int,
                     d: int, defer_mod: bool,
                     work: np.ndarray | None = None,
                     tensor: np.ndarray | None = None) -> np.ndarray:
    """Product of the columns of a nonempty (d, count) array, as a balanced
    tree, in place: returns column 0 of ``units``, which holds it.

    Each level multiplies the first half of the live columns by the last
    half and keeps the products in the first columns, so every operand row
    is a contiguous slice; with an odd count the middle column waits for
    the next level.  A level of h columns is narrow when d*d*h <= NARROW,
    and given ``tensor`` (OrderContext.tensor; only with defer_mod), a
    narrow level is one _np_tensor_mul, which makes 3 numpy calls where
    _np_mul makes about 3d + the fold terms.  Every other level is one
    _np_mul, with ``work`` for count // 2 columns (fresh when None).
    """
    live = units.shape[1]
    while live > 1:
        h = live // 2
        low = units[:, :h]
        high = units[:, live - h:live]
        if tensor is not None and d * d * h <= NARROW:
            _np_tensor_mul(low, high, tensor, n, low)
        else:
            _np_mul(low, high, terms, n, d, defer_mod, out=low, work=work)
        live -= h
    return units[:, 0]


def _np_tensor_mul(a: np.ndarray, b: np.ndarray, tensor: np.ndarray, n: int,
                   out: np.ndarray) -> np.ndarray:
    """The columnwise products of _np_mul with defer_mod, as one matrix
    product: ``tensor`` (OrderContext.tensor) times the (d*d, k) outer
    products a_i*b_j of the columns, reduced mod n into ``out``, which may
    be ``a`` or ``b``; returns ``out``.  Its bound is defer_mod's (see the
    kernel section); its temporaries are fresh, as _np_tree_product's
    narrow levels are too small for the scratch pool to keep."""
    d, k = a.shape
    outer = (a[:, None] * b).reshape(d * d, k)
    return np.remainder(tensor @ outer, n, out=out)
