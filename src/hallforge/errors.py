"""Exception types shared across the package."""


class HallforgeError(Exception):
    """Base class for all library errors."""


class NonBinomialError(HallforgeError):
    """Exact division by k! failed, so the ring is not a binomial domain."""


class MixedRingsError(HallforgeError):
    """Operands belong to different rings."""


class NotInRingError(HallforgeError):
    """A value does not lie in (and cannot be coerced into) the target ring."""


class ArityMismatchError(HallforgeError):
    """Point length does not match the variable count."""


class ShapeMismatchError(HallforgeError):
    """Operands disagree on rank, nilpotency class, or ring."""


class NotGroupLikeError(HallforgeError):
    """Series operation requires constant coefficient 1."""


class BadRankError(HallforgeError):
    """Rank below 2: a free nilpotent group here has at least 2 generators."""


class ScaleLimitError(HallforgeError):
    """Configuration exceeds the desk-scale limit for symbolic derivation."""


class NonIntegerCoefficientError(HallforgeError):
    """Binomial-basis conversion met a non-integer coefficient."""


class CocycleViolationError(HallforgeError):
    """Deformation data fails the symmetric 2-cocycle axioms."""


class SplitFailureError(HallforgeError):
    """Coboundary splitting failed to reproduce the input cocycle."""


class OutOfClassError(HallforgeError):
    """Requested weight lies outside 1..nilpotency class."""


class MalformedTailError(HallforgeError):
    """A collector tail letter is not a basis pair of at least the swapped weight sum."""
