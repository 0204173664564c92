"""Exception hierarchy shared by all modules."""


class AddesignsError(Exception):
    """Base class for every error raised by this package."""


# --- finite field errors ---

class NotPrime(AddesignsError):
    pass


class NotPrimitivePolynomial(AddesignsError):
    pass


class NotCoprime(AddesignsError):
    pass


class TooLarge(AddesignsError):
    """An input beyond what the machine or a table cap allows: exit status 2."""


class FieldTooLarge(TooLarge):
    pass


# --- geometry errors ---

class DimensionOutOfRange(AddesignsError):
    pass


class InvariantViolated(AddesignsError):
    """A count or identity that the construction guarantees did not hold."""


# --- design errors ---

class EmptyDesign(AddesignsError):
    pass


class UnequalBlockSizes(AddesignsError):
    pass


class NotTwoDesign(AddesignsError):
    pass


class NotDifferenceSet(AddesignsError):
    pass


class BadModulus(AddesignsError):
    pass


class MalformedDocument(AddesignsError):
    """A JSON document lacks a field or holds one of the wrong type."""


# --- embedding errors ---

class GroupMismatch(AddesignsError):
    pass


class NotSymmetric(AddesignsError):
    pass


class DegenerateOrder(AddesignsError):
    pass


class BadPrime(AddesignsError):
    pass


class SizeMismatch(AddesignsError):
    pass


class NotSubspaceBlocks(AddesignsError):
    pass
