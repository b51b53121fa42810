"""Hilbert-type zip data at a point and the two vanishing-order computations
it supports.

A zip here is the block-line datum extracted from the first de Rham
cohomology of a point: the ambient 2n-dimensional space splits into n blocks
of dimension 2, block i holding a Hodge line Omega_i and a conjugate line
C_i, each as its normalized element-index pair (1, t) or (0, 1).  The
partial Hasse flag at i records whether the two lines coincide; the total
Hasse order is the flag count.  Independently, the conjugate lines wedge to a
line of the n-th exterior power, whose largest filtration level with respect
to the induced filtration of Omega is the Hodge level.  On a block zip that
wedge is the tensor product of the n block lines, so its level is the sum of
one-block levels: block i gives 1 iff C_i lies in Omega_i.  The consistency
of the two numbers is the content of the equivalence check.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product, repeat
from operator import eq

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import FieldCtx
from .linalg import Subspace
# perfbench traces zips.induced_filtration and zips.wedge_of_lines
from .linalg import induced_filtration, wedge_of_lines  # noqa: F401
from .record import FrozenRecord
from .schubert import det_2x2


def line_in_block(ctx: FieldCtx, n: int, block: int, local: Sequence) -> Subspace:
    """The line of F^(2n) spanned by a nonzero 2-vector placed in the given
    block, with its pivot at the block's first nonzero coordinate."""
    if not 0 <= block < n:
        raise ValueError("block index out of range")
    [(a, b)] = ctx.lines_of([local])
    vec = [0] * (2 * n)
    vec[2 * block], vec[2 * block + 1] = a, b
    return Subspace(ctx, 2 * n, (tuple(vec),), (2 * block if a else 2 * block + 1,))


class HilbertZip(FrozenRecord):
    """Block-line zip datum: context, degree, Hodge lines and conjugate
    lines, line i of each the normalized index pair of its point in block i.

    ``enumerate_zips`` stores on each zip the Hodge level it computed from
    lines equal to the zip's own; ``max_hodge_level`` reads it, or computes
    the level of a zip built otherwise.  No zip is written after it is built.
    """

    _fields = ("ctx", "n", "omega", "conj")
    _level = None  # not a field: equality, hash and repr ignore it

    def __init__(self, ctx: FieldCtx, n: int, omega: Sequence[tuple], conj: Sequence[tuple]):
        self.__dict__.update(ctx=ctx, n=n, omega=tuple(omega), conj=tuple(conj))
        for name, pairs in (("omega", self.omega), ("conj", self.conj)):
            if len(pairs) != n:
                raise ValueError(f"{name} must hold {n} lines")
            for i, pair in enumerate(pairs):
                if type(pair) is not tuple or len(pair) != 2:
                    raise ValueError(f"{name}[{i}] = {pair!r} is not a 2-tuple")
                if not all(type(x) is int and 0 <= x < ctx.q for x in pair):  # no bool passes
                    raise ValueError(f"{name}[{i}] = {pair!r} is not two ints in range({ctx.q})")
                if pair[0] != 1 and pair != (0, 1):
                    raise ValueError(f"{name}[{i}] = {pair} is not normalized to (1, t) or (0, 1)")

    @classmethod
    def _of_checked_lines(cls, ctx: FieldCtx, n: int, omega: tuple, conj: tuple,
                          level: int | None = None) -> "HilbertZip":
        """The zip of pair tuples the constructor would pass, unchecked, with
        ``level`` (computed from lines equal to these, or None) stored as given."""
        z = object.__new__(cls)
        z.__dict__.update(ctx=ctx, n=n, omega=omega, conj=conj, _level=level)
        return z


def partial_hasse_flags(z: HilbertZip) -> tuple[bool, ...]:
    """Flag i is set iff the conjugate line equals the Hodge line in block i;
    two normalized pairs are equal iff their lines are."""
    return tuple(map(eq, z.conj, z.omega))


def _block_level(ctx: FieldCtx, omega_i: tuple, c_i: tuple) -> int:
    """The Hodge level of one block: 1 iff C_i lies in Omega_i, that is iff
    the 2x2 matrix of their pairs is singular, else 0."""
    return int(not det_2x2(omega_i + c_i, ctx))


def max_hodge_level(z: HilbertZip) -> int:
    """Largest m such that the wedge of the conjugate lines lies in the m-th
    induced filtration piece of the Hodge subspace: the wedge is a product
    over blocks, so m is the sum of the block levels.  Returns the level
    ``enumerate_zips`` stored, if any."""
    if z._level is not None:
        return z._level
    return sum(map(_block_level, repeat(z.ctx), z.omega, z.conj))


class ZipReport(FrozenRecord):
    """Per-index flags and the Hodge level; the Hasse order and the
    agreement of the two are derived from them."""

    __slots__ = _fields = ("flags", "m_max")

    def __init__(self, flags: tuple[bool, ...], m_max: int):
        _set_flags(self, flags)
        _set_m_max(self, m_max)

    @property
    def hasse_order(self) -> int:
        return sum(self.flags)

    @property
    def consistent(self) -> bool:
        return sum(self.flags) == self.m_max

    def to_json_obj(self) -> dict:
        return {"flags": list(self.flags), "hasse_order": self.hasse_order,
                "m_max": self.m_max, "consistent": self.consistent}

    def tsv_row(self) -> str:
        flag_str = "".join("1" if f else "0" for f in self.flags)
        return f"{flag_str}\t{self.hasse_order}\t{self.m_max}\t{int(self.consistent)}"


_set_flags, _set_m_max = ZipReport.flags.__set__, ZipReport.m_max.__set__  # the slots' setters


def check_equivalence(z: HilbertZip) -> ZipReport:
    """Run both order computations on one zip; the report compares them."""
    return ZipReport(partial_hasse_flags(z), max_hodge_level(z))


def enumerate_zips(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> Iterator[HilbertZip]:
    """Yield every (Omega, C) line configuration, (q+1)^(2n) in total, in
    lexicographic order over (Omega_1, ..., Omega_n, C_1, ..., C_n), each
    over the pairs (1, t) for t in element order, then (0, 1).

    Each zip stores its level, the sum of its block levels.  Every block has
    the same q+1 pairs, so ``_block_level`` runs (q+1)^2 times in all.  The
    (q+1)^n conjugate tuples are built once and shared by every Omega tuple;
    a zip's level sums the tuple in the same place of the product of its
    Omega tuple's level rows.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    refuse_above(bound, "zip enumeration", ctx.q + 1, 2 * n)
    lines = ctx._lines
    # each Omega_i with the block levels of the candidate C lines, in line order
    table = [(o, [_block_level(ctx, o, c) for c in lines]) for o in lines]
    conjs = list(product(lines, repeat=n))
    for choice in product(table, repeat=n):
        omega, level_rows = zip(*choice)
        for conj, level in zip(conjs, map(sum, product(*level_rows))):
            yield HilbertZip._of_checked_lines(ctx, n, omega, conj, level)


# -- serialization ---------------------------------------------------------------


def _line_to_json(ctx: FieldCtx, pair: tuple) -> list:
    return [ctx.from_index(x).to_list() for x in pair]


def zip_to_json_obj(z: HilbertZip) -> dict:
    return {"p": z.ctx.p, "k": z.ctx.k, "n": z.n,
            "omega": [_line_to_json(z.ctx, pair) for pair in z.omega],
            "conj": [_line_to_json(z.ctx, pair) for pair in z.conj]}


_INT = frozenset({int})


def _check_lines(name: str, lines, n: int) -> bool:
    """Shape and types only; the field rejects too many coefficients.
    Returns whether any coordinate is a list rather than a plain int."""
    if not isinstance(lines, list) or len(lines) != n:
        raise ValueError(f"{name!r} must be a list of {n} coordinate pairs")
    has_list = False
    for i, pair in enumerate(lines):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{name}[{i}] must be a pair of field elements")
        for c in pair:  # type(c) is int: no bool passes
            if type(c) is int:
                continue
            if not (isinstance(c, list) and _INT.issuperset(map(type, c))):
                raise ValueError(f"{name}[{i}] holds {c!r}, not an int or a list of ints")
            has_list = True
    return has_list


def zip_from_json_obj(obj: dict) -> HilbertZip:
    """Parse {"p", "k", "n", "omega", "conj"}; each line is a pair of field
    elements given as coefficient arrays (plain ints also accepted), kept as
    its normalized index pair, so the parse is linear in n.  Each
    coefficient is read once: a list of k reduced coefficients is looked up
    in the field's coefficient map, and only a list that misses it (short,
    unreduced or too long) is folded by ``FieldCtx.index_of``.

    Any departure from that schema raises ValueError; keys outside it are
    ignored.  A valid zip with 2^n above ``DEFAULT_ENUM_BOUND`` (n >= 20)
    still raises BoundExceededError under the name the CLI's pinned output
    gives it, "conjugate-wedge expansion", which keeps zip-check's exit codes.
    """
    if not isinstance(obj, dict):
        raise ValueError("a zip must be a JSON object")
    for key in ("p", "n", "omega", "conj"):
        if key not in obj:
            raise ValueError(f"zip is missing {key!r}")
    p, k, n = obj["p"], obj.get("k", 1), obj["n"]
    for key, value in (("p", p), ("k", k), ("n", n)):
        if type(value) is not int:  # a bool is no integer here
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if n < 1:
        raise ValueError(f"'n' must be at least 1, got {n}")
    has_list = _check_lines("omega", obj["omega"], n)
    has_list = _check_lines("conj", obj["conj"], n) or has_list
    ctx = FieldCtx(p, k)
    lines = obj["omega"] + obj["conj"]
    if has_list:  # plain ints alone go to lines_of as they are
        # _check_lines let through exact ints and lists of exact ints alone
        get = ctx._by_coeffs.get
        lines = [(u if type(u) is int else get(tuple(u), u),
                  v if type(v) is int else get(tuple(v), v)) for u, v in lines]
    pairs = ctx.lines_of(lines)
    refuse_above(DEFAULT_ENUM_BOUND, "conjugate-wedge expansion", 2, n)
    # _check_lines counted n lines of each kind
    return HilbertZip._of_checked_lines(ctx, n, pairs[:n], pairs[n:])
