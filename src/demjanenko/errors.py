"""Exception hierarchy shared by all modules."""


class DemjanenkoError(Exception):
    """Base class for all library errors."""


class NotPrime(DemjanenkoError):
    """A prime modulus was required but the argument is composite."""


class NotUnit(DemjanenkoError):
    """The residue is divisible by the modulus."""


class RangeExceeded(DemjanenkoError):
    """Input exceeds the machine-range cap of the fixed-width kernels."""


class KOutOfRange(DemjanenkoError):
    """k must lie in [1, ell-2]."""


class HOutOfRange(DemjanenkoError):
    """The 3-adic level h must lie in [0, beta]."""


class BetaZero(DemjanenkoError):
    """The identity suite degenerates when 3 does not divide ell-1."""


class NoPrimitiveRoot(DemjanenkoError):
    """No generator found; impossible for a prime modulus (arithmetic bug)."""


class DimensionTooLarge(DemjanenkoError):
    """Matrix dimension exceeds the cap passed to exact_rank."""


class NonIntegerRank(DemjanenkoError):
    """The rank formula did not produce an integer; signals an upstream bug."""


class CapExceeded(DemjanenkoError):
    """Argument exceeds a configured safety cap."""


class ZeroPolynomial(DemjanenkoError):
    """Resultants of the zero polynomial are undefined."""


class DegenerateParameters(DemjanenkoError):
    """The two polynomials share a root, so the resultant is provably zero."""


class BoundViolation(DemjanenkoError):
    """A computed count escaped a proven inequality; signals a bug."""
