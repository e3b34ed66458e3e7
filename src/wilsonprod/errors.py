"""Exception hierarchy for the package.

Every error carries a stable ``code`` string; the CLI serializes failures as
``{"error": {"type": <code>, "message": ...}}`` so callers can match on the
type without parsing prose.
"""


def magnitude(n: int) -> str:
    """``n`` for a message, by its bit count when it is too long to print."""
    return str(n) if n < 1 << 256 else f"a number of {n.bit_length()} bits"


class WilsonError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvariantViolation(WilsonError):
    """Internal consistency failure: a documented invariant does not hold."""

    code = "invariant_violation"


# --- defining polynomials / order arithmetic ---

class NotMonic(WilsonError):
    """The defining polynomial must have leading coefficient 1."""

    code = "not_monic"


class Reducible(WilsonError):
    """The defining polynomial factors over Q."""

    code = "reducible"


class IrreducibilityUndecided(WilsonError):
    """The factor search ran out of its work budget before deciding."""

    code = "irreducibility_undecided"


class DegreeZero(WilsonError):
    code = "degree_zero"


class DegreeMismatch(WilsonError):
    """Elements of different orders (or wrong coefficient length) were mixed."""

    code = "degree_mismatch"


# --- prime/ideal factorization ---

class NotPrime(WilsonError):
    code = "not_prime"


class PrimeTooLarge(WilsonError):
    """A prime at or above primes.PRIME_MAX, beyond the primality test."""

    code = "prime_too_large"


class NonMaximalOrder(WilsonError):
    """Z[theta] is not maximal at the requested prime (Dedekind test failed)."""

    code = "non_maximal_order"


class ZeroElement(WilsonError):
    code = "zero_element"


class NormTooLarge(WilsonError):
    """An element norm exceeded the trial-division cap."""

    code = "norm_too_large"


class ParseError(WilsonError):
    code = "parse_error"


class NoSuchPrimeIndex(WilsonError):
    code = "no_such_prime_index"


# --- residue rings ---

class RingTooLarge(WilsonError):
    """The quotient has more elements than the enumeration cap allows."""

    code = "ring_too_large"


class DumpTooLarge(WilsonError):
    """The ring is too large for ``verify --dump`` to list."""

    code = "dump_too_large"


class NotAPowerOfTwo(WilsonError):
    """Internal consistency failure: #(square roots of 1) must be a 2-power."""

    code = "not_a_power_of_two"


class CompositeModulus(WilsonError):
    """The operation only makes sense modulo a prime power."""

    code = "composite_modulus"


class JOutOfRange(WilsonError):
    code = "j_out_of_range"


# --- classification ---

class NotUniqueTorsion(WilsonError):
    """The unit group has no *unique* element of order 2 here."""

    code = "not_unique_torsion"

