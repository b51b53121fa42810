"""Shared exception types and enumeration limits."""

import math

# Refuse exhaustive enumerations whose implied size exceeds this cap unless
# the caller raises it explicitly.  Large enough for every desk-scale run (up
# to the 10^6 zips of F_9 with n = 3), small enough to reject blowups up front.
DEFAULT_ENUM_BOUND = 1_000_000


class BoundExceededError(RuntimeError):
    """An exhaustive enumeration was refused because it would be too large."""

    def __init__(self, shown: int | str, bound: int, what: str = "enumeration"):
        super().__init__(f"{what} would visit {shown} items, above the bound {bound}")


def refuse_above(bound: int, what: str, base: int, exponent: int, factor: int = 1):
    """Raise BoundExceededError if ``factor * base ** exponent`` items exceed
    ``bound``.

    Counts of 2^64 or more are shown as "about 2^b".  Above 2^65536, when
    the count is certainly above the bound, b is taken from logarithms and
    the power itself is never computed.
    """
    log2_count = math.log2(factor) + exponent * math.log2(base)
    if log2_count > max(65536, bound.bit_length() + 1):
        raise BoundExceededError(f"about 2^{int(log2_count)}", bound, what)
    implied = factor * base ** exponent
    if implied > bound:
        # str() refuses ints of more than 4,300 digits, so huge counts are
        # shown by their size in bits
        shown = implied if implied < 2 ** 64 else f"about 2^{implied.bit_length() - 1}"
        raise BoundExceededError(shown, bound, what)
