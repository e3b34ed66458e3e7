"""Exact arithmetic in a monogenic order Z[theta].

An order is given by a monic irreducible ``f`` in Z[x]; elements are integer
coordinate vectors in the power basis ``1, theta, ..., theta^(d-1)``.  All
arithmetic is arbitrary-precision integer arithmetic — nothing here touches
floats, so every result is exact.

Polynomials throughout the package are tuples of ints, constant term first.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterable, Sequence

from .errors import (
    DegreeMismatch,
    DegreeZero,
    InvariantViolation,
    NotMonic,
    ParseError,
    Reducible,
)

Poly = tuple  # tuple[int, ...], constant coefficient first


# ---------------------------------------------------------------------------
# integer polynomial helpers
# ---------------------------------------------------------------------------

def poly_trim(coeffs: Iterable[int]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(a: Poly) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(a) - 1


def poly_mul_z(a: Sequence[int], b: Sequence[int]) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod_monic(a: Sequence[int], g: Sequence[int]) -> tuple[Poly, Poly]:
    """Divide by a *monic* g over Z; quotient and remainder are integral."""
    if not g or g[-1] != 1:
        raise InvariantViolation(f"divisor {tuple(g)} is not monic")
    rem = list(a)
    dg = len(g) - 1
    if dg == 0:
        return poly_trim(rem), ()
    quo = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            quo[k - dg] = c
            for j in range(dg + 1):
                rem[k - dg + j] -= c * g[j]
    return poly_trim(quo), poly_trim(rem)


def poly_eval(a: Sequence[int], x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


# ---------------------------------------------------------------------------
# text formats: "c0,c1,...,cd" or "x^2+1"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""([+-]?)\s*(?:
        (\d+)\s*\*?\s*[xX]\s*(?:\^\s*(\d+))?   # c*x^k, c*x
        | [xX]\s*(?:\^\s*(\d+))?               # x^k, x
        | (\d+)                                # bare constant
    )\s*""",
    re.VERBOSE,
)


def parse_poly(text: str) -> Poly:
    """Parse either a comma coefficient list or a symbolic polynomial in x.

    ``"1,0,1"`` and ``"x^2+1"`` both give (1, 0, 1).  Negative coefficients
    are accepted in both forms.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    if "," in s:
        try:
            coeffs = tuple(int(part.strip()) for part in s.split(","))
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}") from exc
        return coeffs
    # symbolic form: consume term by term
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ParseError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign_s, cx, kx, k_only, const = m.groups()
        if not first and sign_s == "":
            raise ParseError(f"missing +/- between terms in {text!r}")
        sign = -1 if sign_s == "-" else 1
        if const is not None:
            k, c = 0, int(const)
        elif cx is not None:
            k, c = int(kx) if kx is not None else 1, int(cx)
        else:
            k, c = int(k_only) if k_only is not None else 1, 1
        terms[k] = terms.get(k, 0) + sign * c
        pos = m.end()
        first = False
    deg = max(terms)
    return tuple(terms.get(k, 0) for k in range(deg + 1))


def poly_str(coeffs: Sequence[int], var: str = "x") -> str:
    """Human-readable form, highest degree first (``x^2 - x - 1``)."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# irreducibility over Q (monic, integer coefficients)
# ---------------------------------------------------------------------------

def _divisors_up_to(n: int, bound: int):
    """All positive divisors of n that are <= bound (n > 0)."""
    small, large = [], []
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            if i <= bound:
                small.append(i)
            j = n // i
            if j != i and j <= bound:
                large.append(j)
    return small + large[::-1]


def _factor_bounds(f: Sequence[int], k: int) -> list[int]:
    """Per-coefficient bounds for a monic degree-k factor of monic f.

    Mignotte-style: |g_j| <= C(k-1, j) * ||f||_2 + C(k-1, j-1).
    """
    norm_sq = sum(c * c for c in f)
    l2 = isqrt(norm_sq)
    if l2 * l2 < norm_sq:
        l2 += 1
    return [comb(k - 1, j) * l2 + (comb(k - 1, j - 1) if j >= 1 else 0)
            for j in range(k)]


def _check_irreducible(f: Poly) -> None:
    """Raise Reducible if monic f splits over Q (hence over Z, by Gauss).

    Degree 1 is always irreducible.  Otherwise: a vanishing constant term
    means x | f; any integer root gives a linear factor (rational roots of a
    monic integer polynomial are integers dividing the constant term); and
    higher-degree factors are found by exhaustive search over monic integer
    candidates inside Mignotte coefficient bounds.  Exact and fast at the
    small degrees this library targets.
    """
    d = len(f) - 1
    if d == 1:
        return
    c0 = f[0]
    if c0 == 0:
        raise Reducible(f"x divides {poly_str(f)}")
    for r in _divisors_up_to(abs(c0), abs(c0)):
        if poly_eval(f, r) == 0:
            raise Reducible(f"{poly_str(f)} has root {r}")
        if poly_eval(f, -r) == 0:
            raise Reducible(f"{poly_str(f)} has root {-r}")
    for k in range(2, d // 2 + 1):
        bounds = _factor_bounds(f, k)
        const_choices = [t for a in _divisors_up_to(abs(c0), bounds[0])
                         for t in (a, -a)]
        mid_ranges = [range(-b, b + 1) for b in bounds[1:]]
        for a0 in const_choices:
            for mid in itertools.product(*mid_ranges):
                g = (a0, *mid, 1)
                _, rem = poly_divmod_monic(f, g)
                if not rem:
                    raise Reducible(
                        f"{poly_str(f)} = ({poly_str(g)}) * (...)")


# ---------------------------------------------------------------------------
# the order itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderElement:
    """Element of an order: coordinates in the power basis, length d."""

    coeffs: tuple

    def __iter__(self):
        return iter(self.coeffs)


@dataclass(frozen=True)
class NumberFieldOrder:
    """The order Z[theta] where theta is a root of the stored monic poly."""

    poly: tuple

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    # -- element construction ------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> OrderElement:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) > self.degree:
            raise DegreeMismatch(
                f"{len(cs)} coefficients for a degree-{self.degree} order")
        return OrderElement(cs + (0,) * (self.degree - len(cs)))

    def element_from_poly(self, coeffs: Sequence[int]) -> OrderElement:
        """Reduce an arbitrary-degree integer polynomial in theta."""
        _, rem = poly_divmod_monic(coeffs, self.poly)
        return self.element(rem)

    def from_int(self, n: int) -> OrderElement:
        return self.element((n,))

    @property
    def zero(self) -> OrderElement:
        return self.from_int(0)

    @property
    def one(self) -> OrderElement:
        return self.from_int(1)

    @property
    def theta(self) -> OrderElement:
        if self.degree == 1:
            # theta = -c0 is an integer here
            return self.from_int(-self.poly[0])
        return self.element((0, 1))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, a: OrderElement) -> tuple:
        if len(a.coeffs) != self.degree:
            raise DegreeMismatch(
                f"element has {len(a.coeffs)} coefficients, order degree is "
                f"{self.degree}")
        return a.coeffs

    def add(self, a: OrderElement, b: OrderElement) -> OrderElement:
        ca, cb = self._coerce(a), self._coerce(b)
        return OrderElement(tuple(x + y for x, y in zip(ca, cb)))

    def sub(self, a: OrderElement, b: OrderElement) -> OrderElement:
        ca, cb = self._coerce(a), self._coerce(b)
        return OrderElement(tuple(x - y for x, y in zip(ca, cb)))

    def neg(self, a: OrderElement) -> OrderElement:
        return OrderElement(tuple(-x for x in self._coerce(a)))

    def mul(self, a: OrderElement, b: OrderElement) -> OrderElement:
        prod = poly_mul_z(self._coerce(a), self._coerce(b))
        return self.element_from_poly(prod)

    def mul_int(self, a: OrderElement, n: int) -> OrderElement:
        return OrderElement(tuple(n * x for x in self._coerce(a)))

    def pow(self, a: OrderElement, k: int) -> OrderElement:
        if k < 0:
            raise ValueError("negative exponent")
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def norm(self, a: OrderElement) -> int:
        """Absolute norm |N(a)| = |Res(f, a(x))|, via the multiplication matrix.

        The matrix of multiplication by ``a`` in the power basis has
        determinant equal to the resultant of the defining polynomial and
        ``a(x)`` (both are the product of a over the conjugates of theta);
        the determinant is computed exactly with Bareiss elimination.
        """
        rows = []
        cur = a
        for _ in range(self.degree):
            rows.append(list(self._coerce(cur)))
            cur = self.mul(cur, self.theta)
        return abs(_bareiss_det(rows))

    def __str__(self) -> str:
        return f"Z[x]/({poly_str(self.poly)})"


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def make_order(poly: Sequence[int] | str) -> NumberFieldOrder:
    """Build Z[x]/(f) after validating that f is monic irreducible of degree >= 1."""
    coeffs = parse_poly(poly) if isinstance(poly, str) else tuple(int(c) for c in poly)
    trimmed = poly_trim(coeffs)
    if poly_degree(trimmed) < 1:
        raise DegreeZero(f"defining polynomial {list(coeffs)} has degree < 1")
    if trimmed[-1] != 1:
        raise NotMonic(
            f"leading coefficient is {trimmed[-1]}, must be 1")
    _check_irreducible(trimmed)
    return NumberFieldOrder(trimmed)
