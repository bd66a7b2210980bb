"""Exception types shared across the package.

Invalid arguments raise the stdlib ``ValueError``; only failure modes that
callers need to tell apart get their own class.
"""


class CapacityError(Exception):
    """Raised when a request exceeds the exact-enumeration limits.

    Permanents cost O(2^k) and output-pattern counts grow combinatorially,
    so oversized requests fail loudly instead of hanging.
    """


class NumericalError(ValueError, ArithmeticError):
    """Raised when a computed quantity leaves its tolerance.

    Examples are a non-unitary coupler, an unnormalized state or a
    fidelity above 1. Both bases are kept so callers that catch
    ``ValueError`` or ``ArithmeticError`` still see it.
    """
