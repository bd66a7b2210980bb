"""Exception types and input rules shared across the package.

Invalid arguments raise the stdlib ``ValueError``; only failure modes that
callers need to tell apart get their own class. A port, count or size is
checked by :func:`integer` or :func:`size` at the public call that takes it.
"""
import operator


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


def _index(value) -> int | None:
    """``operator.index(value)``, or None for a ``bool`` (a JSON ``true``) or a non-integer."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def integer(value, what: str) -> int:
    """``value`` as an ``int``; numpy integers pass, and a float, string, bool or None raises."""
    i = _index(value)
    if i is None:
        raise ValueError(f"{what} must be integers, got {value!r}")
    return i


def size(value, what: str, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``, by the rule of :func:`integer`."""
    i = _index(value)
    if i is None or i < minimum:
        raise ValueError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return i
