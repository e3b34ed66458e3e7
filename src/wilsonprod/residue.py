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
keeps the bounds small.  The all-units product and the census walk the
units in chunks of CHUNK, so their temporaries stay a few megabytes
however large the ring; a ring of at most CHUNK units is one chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import lattice
from .errors import (
    CompositeModulus,
    InvariantViolation,
    JOutOfRange,
    NotAPowerOfTwo,
    NotAUnit,
    RingTooLarge,
)
from .order import NumberFieldOrder, OrderElement, poly_divmod_monic, poly_str
from .primes import FactoredIdeal, PrimeIdealData

DEFAULT_CAP = 1 << 20

_INT64_SAFE = 1 << 62

# unit_product and order2_census work through the units this many at a
# time, which bounds their temporaries near the cap
CHUNK = 1 << 16


def ideal_lattice(o: NumberFieldOrder, pd: PrimeIdealData, n: int) -> list[list[int]]:
    """HNF basis of P^n (index p^(n*f), asserted inside)."""
    return lattice.ideal_power_lattice(o, pd.p, pd.gen_poly, n)


def cached_power_basis(o: NumberFieldOrder, pd: PrimeIdealData, n: int,
                       cache: dict) -> list[list[int]]:
    """ideal_lattice with memoization; the cache must belong to one order."""
    key = (pd.p, pd.index, n)
    if key not in cache:
        cache[key] = ideal_lattice(o, pd, n)
    return cache[key]


@dataclass(frozen=True)
class ResidueElement:
    """A class of o/a, stored by its canonical box representative."""

    ring: "ResidueRing"
    coeffs: tuple

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        return self.ring.mul(self, other)

    def __pow__(self, k: int) -> "ResidueElement":
        return self.ring.pow(self, k)

    def __neg__(self) -> "ResidueElement":
        return self.ring.neg(self)

    def __str__(self) -> str:
        return poly_str(self.coeffs)


class Census(NamedTuple):
    """Census of square roots of 1 among the units.

    ``elements`` lists every unit x with x^2 = 1 (the identity included);
    ``count`` is the number of elements of order exactly 2, which is always
    2^d2 - 1.
    """

    count: int
    elements: list
    d2: int


class ResidueRing:
    """o/a for a nonzero ideal a of an order o, within the enumeration cap."""

    def __init__(self, o: NumberFieldOrder, modulus: FactoredIdeal,
                 basis: list[list[int]], factor_bases: list[list[list[int]]],
                 radical_bases: list[list[list[int]]], cap: int):
        # the box representatives and the int64 bounds below rely on every
        # basis entry lying in [0, pivot)
        for b in [basis, *radical_bases]:
            if not lattice.is_reduced(b):
                raise InvariantViolation(
                    f"lattice basis {b} of {o}/({modulus.label()}) is not "
                    f"in reduced Hermite normal form")
        self.order = o
        self.modulus = modulus
        self.basis = basis
        self.diag = tuple(basis[i][i] for i in range(o.degree))
        self.size = lattice.lattice_det(basis)
        self.cap = cap
        # per prime-power factor: lattice of P^m, and of the radical P
        self.factor_bases = factor_bases
        self.radical_bases = radical_bases
        self.unit_count = 1
        for pd, m in modulus.factors:
            q = pd.p ** pd.f
            self.unit_count *= q ** (m - 1) * (q - 1)
        # x^(d+t) mod f rows, for vectorized polynomial reduction; only
        # their residues mod |o/a| are ever used, and symmetric residues keep
        # the int64 bounds independent of the size of f's coefficients
        d = o.degree
        n = self.size
        half = n // 2
        self._red_rows = []
        for t in range(d - 1):
            _, rem = poly_divmod_monic((0,) * (d + t) + (1,), o.poly)
            rem = rem + (0,) * (d - len(rem))
            self._red_rows.append([(c + half) % n - half for c in rem])
        self._np_ok = self._bounds_allow_int64()
        self._units_arr: np.ndarray | None = None
        self._one = self.reduce(o.one)

    # -- plumbing ------------------------------------------------------------

    def _bounds_allow_int64(self) -> bool:
        n = self.size
        d = self.order.degree
        s = 1
        for m in range(d):
            s = max(s, 1 + sum(abs(row[m]) for row in self._red_rows))
        # with "defer", coefficients are reduced only after the high-degree
        # columns of the convolution are folded back in
        self._defer_mod = d * n * n * s < _INT64_SAFE
        # fold row entries are at most n/2 in size, so n*s < (2d+4)*n^2 and
        # this one bound covers every kernel
        return (2 * d + 4) * n * n < _INT64_SAFE

    @property
    def one(self) -> ResidueElement:
        return self._one

    def reduce(self, x: OrderElement | Sequence[int]) -> ResidueElement:
        coeffs = x.coeffs if isinstance(x, OrderElement) else tuple(x)
        if isinstance(x, OrderElement) or len(coeffs) != self.order.degree:
            coeffs = self.order.element(coeffs).coeffs
        return ResidueElement(self, lattice.reduce_mod(self.basis, coeffs))

    def mul(self, x: ResidueElement, y: ResidueElement) -> ResidueElement:
        prod = self.order.mul(self.order.element(x.coeffs),
                              self.order.element(y.coeffs))
        return self.reduce(prod)

    def pow(self, x: ResidueElement, k: int) -> ResidueElement:
        out = self.one
        base = x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def neg(self, x: ResidueElement) -> ResidueElement:
        return self.reduce([-c for c in x.coeffs])

    def is_unit(self, x: ResidueElement) -> bool:
        return all(not lattice.contains(rad, x.coeffs)
                   for rad in self.radical_bases)

    # -- enumeration ---------------------------------------------------------

    def elements(self) -> list[ResidueElement]:
        """Every class, in box (mixed-radix) order."""
        return [ResidueElement(self, t)
                for t in itertools.product(*(range(h) for h in self.diag))]

    def _units_array(self) -> np.ndarray:
        """The units as (count, d) rows, in box order.

        The rows are a transposed view of a contiguous (d, count) array, the
        layout the kernels read.  Raises RingTooLarge when the ring is beyond
        the int64 bound of the kernels.
        """
        if self._units_arr is None:
            if not self._np_ok:
                raise RingTooLarge(
                    f"|o/a| = {self.size} is beyond the int64 enumeration "
                    f"bound (2d+4)*|o/a|^2 < 2^62 at degree {self.order.degree}")
            self._units_arr = _np_units(
                self.diag, [(pd.p, rad) for (pd, _), rad in
                            zip(self.modulus.factors, self.radical_bases)])
            if len(self._units_arr) != self.unit_count:
                raise InvariantViolation(
                    f"{len(self._units_arr)} units enumerated in {self}, "
                    f"the closed form gives {self.unit_count}")
        return self._units_arr

    def units(self) -> list[ResidueElement]:
        """All units, in enumeration order; length is checked against
        prod p^((m-1)f) (p^f - 1)."""
        return [ResidueElement(self, tuple(row))
                for row in self._units_array().tolist()]

    def unit_product(self) -> ResidueElement:
        """Product of all units — the brute-force oracle.

        Each chunk of units is multiplied out as a balanced tree and the
        chunk products are multiplied the same way; coefficients are reduced
        mod |o/a| after every multiplication and the final vector is reduced
        to its canonical representative.
        """
        args = (self._np_one(), self._np_red_rows(), self.size,
                self.order.degree, self._defer_mod)
        cols = self._units_array().T
        parts = [_np_tree_product(cols[:, s:s + CHUNK], *args)
                 for s in range(0, cols.shape[1], CHUNK)]
        col = parts[0] if len(parts) == 1 else \
            _np_tree_product(np.stack(parts, axis=1), *args)
        return self.reduce([int(c) for c in col])

    def order2_census(self) -> Census:
        """Count and list the units squaring to 1; d2 = log2 of the count."""
        arr = self._units_array()
        one, red_rows = self._np_one(), self._np_red_rows()
        mask = np.empty(len(arr), dtype=bool)
        for s in range(0, len(arr), CHUNK):
            cols = arr[s:s + CHUNK].T
            sq = _np_mul(cols, cols, red_rows, self.size, self.order.degree,
                         self._defer_mod)
            red = _np_reduce(sq.T, self.basis, self.size)
            mask[s:s + CHUNK] = (red == one[None, :]).all(axis=1)
        sols = [ResidueElement(self, tuple(int(c) for c in row))
                for row in arr[mask]]
        n_sols = len(sols)
        if n_sols & (n_sols - 1):
            raise NotAPowerOfTwo(
                f"{n_sols} square roots of 1 in a finite abelian unit group")
        return Census(count=n_sols - 1, elements=sols,
                      d2=n_sols.bit_length() - 1)

    def principal_units(self, j: int) -> list[ResidueElement]:
        """U_j = units congruent to 1 mod P^j, for a prime-power modulus P^n."""
        if len(self.modulus.factors) != 1:
            raise CompositeModulus("principal units need a prime-power modulus")
        pd, n = self.modulus.factors[0]
        if not 1 <= j <= n:
            raise JOutOfRange(f"j must be in [1, {n}], got {j}")
        pj = ideal_lattice(self.order, pd, j) if j < n else self.basis
        shift = pd.p ** (j * pd.f)
        arr = self._units_array()
        one_vec = [1] + [0] * (self.order.degree - 1)
        shifted = arr - np.array(one_vec, dtype=np.int64)[None, :]
        return [ResidueElement(self, tuple(int(c) for c in row))
                for row in arr[_np_in_lattice(shifted, pj, shift)]]

    def subgroup_product(self, gens: Iterable[ResidueElement]) -> ResidueElement:
        """Product of all elements of the subgroup generated by ``gens``.

        The subgroup is materialized by closure under multiplication (no
        inverses needed in a finite group).
        """
        gens = list(gens)
        for g in gens:
            if not self.is_unit(g):
                raise NotAUnit(f"{g.coeffs} is not a unit")
        seen = {self.one.coeffs}
        frontier = [self.one]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y.coeffs not in seen:
                        seen.add(y.coeffs)
                        nxt.append(y)
            frontier = nxt
        out = self.one
        for coeffs in sorted(seen):
            out = self.mul(out, ResidueElement(self, coeffs))
        return out

    def component_rings(self) -> list["ResidueRing"]:
        """One ring per prime-power factor (the CRT decomposition)."""
        return [build_residue_ring(self.order, FactoredIdeal(((pd, m),)),
                                   cap=self.cap)
                for pd, m in self.modulus.factors]

    # -- numpy helpers -------------------------------------------------------

    def _np_one(self) -> np.ndarray:
        return np.array(self._one.coeffs, dtype=np.int64)

    def _np_red_rows(self) -> np.ndarray:
        d = self.order.degree
        if not self._red_rows:
            return np.zeros((0, d), dtype=np.int64)
        return np.array(self._red_rows, dtype=np.int64)

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
                       lattice_cache: dict | None = None) -> ResidueRing:
    """Construct o/a, refusing when |o/a| would exceed ``cap``.

    The composite lattice is the product of the per-factor lattices (equal
    to the intersection, the factors being pairwise comaximal); its
    determinant is checked against the ideal norm.  ``lattice_cache`` lets
    sweeps share P^n bases across many ideals of the same order.
    """
    norm = a.absolute_norm
    if norm > cap:
        raise RingTooLarge(f"|o/a| = {norm} exceeds the cap {cap}")
    d = o.degree
    cache = lattice_cache if lattice_cache is not None else {}
    factor_bases = [cached_power_basis(o, pd, m, cache) for pd, m in a.factors]
    radical_bases = [cached_power_basis(o, pd, 1, cache) for pd, _ in a.factors]
    if not a.factors:
        basis = lattice.identity_lattice(d)
    else:
        basis = factor_bases[0]
        for nxt in factor_bases[1:]:
            basis = lattice.lattice_product(o, basis, nxt)
    if lattice.lattice_det(basis) != norm:
        raise InvariantViolation(
            f"lattice index {lattice.lattice_det(basis)} of {o}/({a.label()}) "
            f"differs from the ideal norm {norm}")
    return ResidueRing(o, a, basis, factor_bases, radical_bases, cap)


# ---------------------------------------------------------------------------
# int64 kernels.  Preconditions (checked via _bounds_allow_int64): operand
# coefficients lie in [0, N); N is the ring size; every basis entry lies in
# [0, pivot) (checked at ring construction); the lattice shift trick
# (adding multiples of s*e_i, legal whenever s*Z^d is inside the lattice)
# keeps every intermediate below the asserted bounds.  _np_mul and
# _np_tree_product take elements as (d, count) columns, each coefficient
# one contiguous row; the other kernels take (count, d) rows.  Divisions by
# powers of two — the common case, every lattice above 2 being
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


def _np_box(diag: Sequence[int]) -> np.ndarray:
    """All canonical representatives, last coordinate varying fastest."""
    d = len(diag)
    size = 1
    for h in diag:
        size *= h
    out = np.empty((size, d), dtype=np.int64)
    block = size
    for i in range(d):
        block //= diag[i]
        col = np.repeat(np.arange(diag[i], dtype=np.int64), block)
        out[:, i] = np.tile(col, size // (diag[i] * block))
    return out


def _np_in_lattice(el: np.ndarray, basis: Sequence[Sequence[int]],
                   shift: int) -> np.ndarray:
    """Membership mask; ``shift * Z^d`` must be contained in the lattice."""
    w = _np_mod(el, shift)
    d = w.shape[1]
    ok = np.ones(len(w), dtype=bool)
    for i in range(d):
        wi = _np_mod(w[:, i], shift)
        q, r = _np_divmod(wi, basis[i][i])
        ok &= r == 0
        if i + 1 < d:
            row = np.array(basis[i][i + 1:], dtype=np.int64)
            if row.any():
                w[:, i + 1:] -= q[:, None] * row[None, :]
    return ok


def _np_reduce(vecs: np.ndarray, basis: Sequence[Sequence[int]],
               shift: int) -> np.ndarray:
    """Canonical box representatives of each row, mod the lattice."""
    w = vecs.copy(order="K")
    d = w.shape[1]
    for i in range(d):
        wi = _np_mod(w[:, i], shift)
        q, r = _np_divmod(wi, basis[i][i])
        w[:, i] = r
        if i + 1 < d:
            row = np.array(basis[i][i + 1:], dtype=np.int64)
            if row.any():
                w[:, i + 1:] -= q[:, None] * row[None, :]
    return w


def _np_units(diag: Sequence[int],
              radicals: Sequence[tuple[int, Sequence[Sequence[int]]]]
              ) -> np.ndarray:
    """Units of the box prod [0, diag_i), as (count, d) rows in box order.

    ``radicals`` holds (p, basis of P) for each prime divisor P of the
    modulus.  Membership in P only depends on the coordinates mod p (p*e_i
    lies in P), so the unit test is tabulated on the small box
    prod [0, min(diag_i, p)) and tiled out to the full box with period p
    along each axis; no arithmetic runs over the full box.  The rows are a
    transposed view of a contiguous (d, count) array.
    """
    d = len(diag)
    # the mask keeps only the axes longer than 1: at most log2 |o/a| of
    # them, within numpy's 64 dimensions at any degree
    shape = tuple(h for h in diag if h > 1)
    mask = np.ones(shape, dtype=bool)
    for p, rad in radicals:
        sub = tuple(min(h, p) for h in diag)
        m = ~_np_in_lattice(_np_box(sub), rad, p).reshape(
            tuple(min(h, p) for h in shape))
        for i, h in enumerate(shape):
            if h > p:
                m = _np_periodic(m, i, h)
        mask &= m
    # flat box indices back to coordinates, last coordinate fastest
    idx = np.flatnonzero(mask)
    cols = np.zeros((d, len(idx)), dtype=np.int64)
    for i in range(d - 1, 0, -1):
        h = diag[i]
        if h > 1:
            q, cols[i] = _np_divmod(idx, h)
            idx = q
    cols[0] = idx
    return cols.T


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


def _np_tree_product(units: np.ndarray, one_col: np.ndarray,
                     red_rows: np.ndarray, n: int, d: int,
                     defer_mod: bool) -> np.ndarray:
    """Product of the columns of a (d, count) array, as a balanced tree.

    Each level multiplies the first half of the live columns by the last
    half and keeps the products in the first half, so every operand row is
    a contiguous slice; with an odd count the middle column waits for the
    next level.
    """
    live = units.shape[1]
    if live == 0:
        return one_col
    a = units.copy(order="C")
    while live > 1:
        h = live // 2
        a[:, :h] = _np_mul(a[:, :h], a[:, live - h:live], red_rows, n, d,
                           defer_mod)
        live -= h
    return a[:, 0]
