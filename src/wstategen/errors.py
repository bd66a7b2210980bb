"""Exception types and input rules shared across the package.

Invalid arguments raise the stdlib ``ValueError``; only failure modes that
callers need to tell apart get their own class. A port, count or size is
checked by :func:`integer` or :func:`size` at the public call that takes it
and written by :func:`int_text`; a JSON object is read by :func:`json_fields`.
"""
import operator


class CapacityError(Exception):
    """Raised when a request exceeds the exact-enumeration limits.

    Work and memory grow with the photons per polarization and the output
    patterns, so oversized requests fail loudly instead of hanging.
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


def int_text(value) -> str:
    """``repr(value)``, or an integer past 1,000 bits by bit length: str() stops at 4,300 digits."""
    if (i := _index(value)) is None or i.bit_length() <= 1000:
        return repr(value)
    return f"{'below -' if i < 0 else 'over '}2**{i.bit_length() - 1}"


def integer(value, what: str) -> int:
    """``value`` as an ``int``; numpy integers pass, and a float, string, bool or None raises."""
    i = _index(value)
    if i is None:
        raise ValueError(f"{what} must be integers, got {int_text(value)}")
    return i


def size(value, what: str, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``, by the rule of :func:`integer`."""
    i = _index(value)
    if i is None or i < minimum:
        raise ValueError(f"{what} must be an integer of at least {minimum}, got {int_text(value)}")
    return i


def json_fields(obj, what: str, **kinds: type) -> list:
    """The values of the keys of ``kinds`` in the JSON object ``obj``, in that order.

    Each value must be an instance of its kind (``object`` takes any value).
    A non-object, a missing key or a value of another kind raises
    ValueError naming ``what``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key, kind in kinds.items():
        if key not in obj:
            raise ValueError(f"{what} has no key {key!r}")
        if not isinstance(obj[key], kind):
            raise ValueError(f"{what} key {key!r} must be a {kind.__name__}, "
                             f"got {type(obj[key]).__name__}")
    return [obj[key] for key in kinds]
