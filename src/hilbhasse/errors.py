"""Shared exception types and enumeration limits."""

# Refuse exhaustive enumerations whose implied size exceeds this cap unless
# the caller raises it explicitly.  Large enough for every desk-scale run
# (q <= 3, n <= 3), small enough to reject accidental blowups up front.
DEFAULT_ENUM_BOUND = 1_000_000


class BoundExceededError(RuntimeError):
    """An exhaustive enumeration was refused because it would be too large."""

    def __init__(self, implied: int, bound: int, what: str = "enumeration"):
        self.implied = implied
        self.bound = bound
        # str() refuses ints of more than 4,300 digits, so huge counts are
        # shown by their size in bits
        shown = implied if implied < 2 ** 64 else f"about 2^{implied.bit_length() - 1}"
        super().__init__(f"{what} would visit {shown} items, above the bound {bound}")
