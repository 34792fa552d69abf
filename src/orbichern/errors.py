"""Exception types shared across the package, and the one way a message
quotes a refused value (``quoted``)."""

from fractions import Fraction


class OrbichernError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` is the command line's exit status: 2, a cross-check that
    must hold did not, unless the class is an input error (1).
    """

    exit_code = 2


class ZeroInversion(OrbichernError):
    """Attempted to invert zero in an exact field."""


class FieldMismatch(OrbichernError):
    """Cyclotomic scalars of different conductors were mixed, or embedded
    into a field that does not contain them."""


class InvalidLabel(OrbichernError):
    """ADE label outside the admissible range."""

    exit_code = 1


class BoundExceeded(OrbichernError):
    """Multiplicative closure grew past the requested bound."""


class IdentityFailure(OrbichernError, ArithmeticError):
    """An identity or cross-check that must hold exactly did not; the message
    carries what failed.  Also an ``ArithmeticError``, so a caller that
    catches exact-arithmetic failures in general catches it too."""


class NonRationalTotal(OrbichernError):
    """A sum that must collapse to a rational number did not."""


class TraceTwoNonIdentity(OrbichernError):
    """A nontrivial group element or class reported trace 2."""


class DescriptionError(OrbichernError):
    """A surface description failed strict validation."""

    exit_code = 1


QUOTE_LIMIT = 60  # the most characters of a refused value's text that a message quotes

# the brackets ascii() puts around a nonempty value of each container type
_BRACKETS = {list: ("[", "]"), tuple: ("(", ")"), dict: ("{", "}"), set: ("{", "}"), frozenset: ("frozenset({", "})")}


def clipped(text: str) -> str:
    """text itself if it has at most QUOTE_LIMIT characters, else its first
    QUOTE_LIMIT - 3 and "..."."""
    return text if len(text) <= QUOTE_LIMIT else f"{text[: QUOTE_LIMIT - 3]}..."


def quoted(value) -> str:
    """``ascii(value)`` for an error message, ``clipped``: a value whose text
    has at most QUOTE_LIMIT characters is quoted exactly as ``{value!a}``
    quotes it, and a longer one is cut, from a bounded part of the value
    (``_ascii_head``), so a refused value of any size makes a short message."""
    return clipped(_ascii_head(value, QUOTE_LIMIT + 1))


def _ascii_head(value, budget: int) -> str:
    """ascii(value) if it has at most ``budget`` characters, else a text of
    more than ``budget`` characters that begins like it, built from about
    ``budget`` characters of the value.

    A str or bytes is cut to ``budget`` items before it is escaped (the cut
    may take the other quote).  A list, tuple, dict, set or frozenset quotes
    its items only until the text passes ``budget``, each with the budget
    left at its start; at no budget left, "..." stands for the rest.  An int
    of more than 1000 bits, or a Fraction with a numerator or denominator
    that long, is named by its size, since its digits may be past the
    interpreter's limit.  Any other value is ascii(value).
    """
    if budget <= 0:
        return "..."
    kind = type(value)
    if kind in (str, bytes, bytearray):
        return ascii(value[:budget])
    if kind is int and value.bit_length() > 1000:  # past 301 digits
        return f"<an int of {value.bit_length()} bits>"
    if kind is Fraction and max(value.numerator.bit_length(), value.denominator.bit_length()) > 1000:
        return f"<a Fraction of {value.numerator.bit_length()} bits over {value.denominator.bit_length()} bits>"
    if kind not in _BRACKETS or not value:
        return ascii(value)
    head, tail = _BRACKETS[kind]
    if kind is tuple and len(value) == 1:
        tail = ",)"
    parts, size = [], len(head)
    for item in value.items() if kind is dict else value:
        if kind is dict:
            key = _ascii_head(item[0], budget - size)
            part = f"{key}: {_ascii_head(item[1], budget - size - len(key) - 2)}"
        else:
            part = _ascii_head(item, budget - size)
        parts.append(part)
        size += len(part) + 2
        if size > budget:
            break
    return head + ", ".join(parts) + tail
