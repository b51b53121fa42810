"""Hilbert-type zip data at a point and the two vanishing-order computations
it supports.

A zip here is the block-line datum extracted from the first de Rham
cohomology of a point: the ambient 2n-dimensional space splits into n blocks
of dimension 2, block i holding a Hodge line Omega_i and a conjugate line
C_i.  The partial Hasse flag at i records whether the two lines coincide;
the total Hasse order is the flag count.  Independently, the conjugate lines
wedge to a line of the n-th exterior power, whose largest filtration level
with respect to the induced filtration of Omega is the Hodge level.  The
consistency of the two numbers is the content of the equivalence check.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import FieldCtx
from .linalg import (Subspace, _support, _wedge_extend, adapted_row, filtration_level,
                     least_pivot_count)
# perfbench traces zips.induced_filtration and zips.wedge_of_lines
from .linalg import induced_filtration, wedge_of_lines  # noqa: F401
from .record import FrozenRecord
from .schubert import normalized_index_pair, projective_line_reps


def line_in_block(ctx: FieldCtx, n: int, block: int, local: Sequence) -> Subspace:
    """The line of F^(2n) spanned by a nonzero 2-vector placed in the given
    block."""
    if not 0 <= block < n:
        raise ValueError("block index out of range")
    x, y = local
    return _placed(ctx, n, block, normalized_index_pair(ctx, x, y))


def _placed(ctx: FieldCtx, n: int, block: int, pair: tuple[int, int]) -> Subspace:
    """A normalized index pair placed alone in its block: the line's reduced
    row echelon basis, with the pivot at the block's first nonzero coordinate."""
    a, b = pair
    vec = [0] * (2 * n)
    vec[2 * block], vec[2 * block + 1] = a, b
    return Subspace(ctx, 2 * n, (tuple(vec),), (2 * block if a else 2 * block + 1,))


class HilbertZip(FrozenRecord):
    """Block-line zip datum: context, degree, Hodge lines and conjugate
    lines (line i supported in coordinates {2i, 2i+1}).

    ``enumerate_zips`` stores on each zip the Hodge level it computed from
    lines equal to the zip's own; ``max_hodge_level`` reads it, or computes
    the level of a zip built otherwise.  No zip is written after it is built.
    """

    _fields = ("ctx", "n", "omega", "conj")
    _level = None  # not a field: equality, hash and repr ignore it

    def __init__(self, ctx: FieldCtx, n: int, omega: Sequence[Subspace], conj: Sequence[Subspace]):
        self.__dict__.update(ctx=ctx, n=n, omega=tuple(omega), conj=tuple(conj))
        for name, lines in (("omega", self.omega), ("conj", self.conj)):
            if len(lines) != n:
                raise ValueError(f"{name} must hold {n} lines")
            for i, line in enumerate(lines):
                _check_line(ctx, n, i, line, f"{name}[{i}]")

    @classmethod
    def _of_checked_lines(cls, ctx: FieldCtx, n: int, omega: tuple, conj: tuple,
                          level: int | None = None) -> "HilbertZip":
        """The zip of line tuples that ``_check_line`` passed or ``_placed``
        put in their blocks, with no check run again and ``level`` (computed
        from lines equal to these, or None) stored as given."""
        z = object.__new__(cls)
        z.__dict__.update(ctx=ctx, n=n, omega=omega, conj=conj, _level=level)
        return z

    @property
    def hodge(self) -> Subspace:
        """The total Hodge subspace: the span of the Omega lines.  Each line's
        basis row is normalized at its pivot and the supports are disjoint, so
        the rows stacked in block order are already the span's reduced row
        echelon basis."""
        return Subspace(self.ctx, 2 * self.n, tuple(line.index_basis[0] for line in self.omega),
                        tuple(line.pivots[0] for line in self.omega))


def _check_line(ctx: FieldCtx, n: int, i: int, line: Subspace, name: str):
    """Raise ValueError unless ``line`` is a line of F^(2n) over ``ctx`` in block i."""
    if line.ctx != ctx or line.ambient_dim != 2 * n or line.dim != 1:
        raise ValueError(f"{name} is not a line of the ambient space")
    row = line.index_basis[0]
    if any(row[:2 * i]) or any(row[2 * i + 2:]):
        raise ValueError(f"{name} is not supported in block {i}")


def partial_hasse_flags(z: HilbertZip) -> tuple[bool, ...]:
    """Flag i is set iff the conjugate line equals the Hodge line in block i.
    The lines of a zip share its context and ambient space (``_check_line``,
    ``line_in_block``), so their canonical bases decide equality."""
    return tuple([c.index_basis == o.index_basis for c, o in zip(z.conj, z.omega)])


def hasse_order(z: HilbertZip) -> int:
    """Total vanishing order: the number of set partial Hasse flags."""
    return sum(partial_hasse_flags(z))


def max_hodge_level(z: HilbertZip) -> int:
    """Largest m such that the wedge of the conjugate lines lies in the m-th
    induced filtration piece of the Hodge subspace (see ``filtration_level``);
    the level ``enumerate_zips`` stored, if any."""
    if z._level is not None:
        return z._level
    return filtration_level(z.hodge, [line.index_basis[0] for line in z.conj])


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
        return self.hasse_order == self.m_max

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


def block_line_reps(ctx: FieldCtx, n: int, block: int) -> list[Subspace]:
    """All q+1 lines of one block, in deterministic order."""
    return [line_in_block(ctx, n, block, pair) for pair in projective_line_reps(ctx)]


def enumerate_zips(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> Iterator[HilbertZip]:
    """Yield every (Omega, C) line configuration, (q+1)^(2n) in total, in
    lexicographic order over (Omega_1, ..., Omega_n, C_1, ..., C_n).

    ``line_in_block`` puts each candidate line in its block, so no line is
    checked again.  Each zip stores its level: the least pivot count of the
    C tuple's wedge of adapted rows.  The Hodge basis is block-diagonal, so
    a block-i line's adapted row depends on Omega_i alone: each candidate C
    line gets its adapted row and that row's support once per (block,
    Omega_i), n(q+1)^2 in total.  Per Omega tuple, the C prefixes of n-1
    lines are walked depth-first from the empty wedge, each prefix wedge
    extended by one row per block, so at most n prefix wedges are alive at
    once; the q+1 leaves of a prefix are extended in the last block's loop.
    That makes (q+1)^i wedge extensions at depth i of the walk, i = 1..n,
    per Omega tuple.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    refuse_above(bound, "zip enumeration", ctx.q + 1, 2 * n)
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    per_block = [block_line_reps(ctx, n, i) for i in range(n)]
    # per block, each Omega_i with the supports of its candidate C lines' adapted rows
    adapted = [[(o, [_support(adapted_row(o, c.index_basis[0])) for c in lines]) for o in lines]
               for lines in per_block]

    def walk(supports, prefix, terms):  # each n-1 C lines extending prefix, with their terms
        i = len(prefix)
        if i == n - 1:
            yield prefix, terms
            return
        for line, support in zip(per_block[i], supports[i]):
            yield from walk(supports, prefix + (line,),
                            _wedge_extend(terms, support, add, mul, neg))

    for choice in product(*adapted):
        omega, supports = zip(*choice)
        pivot_mask = sum(1 << o.pivots[0] for o in omega)
        leaves = list(zip(per_block[-1], supports[-1]))
        for prefix, terms in walk(supports, (), {0: 1}):
            for line, support in leaves:
                leaf = _wedge_extend(terms, support, add, mul, neg)
                yield HilbertZip._of_checked_lines(ctx, n, omega, prefix + (line,),
                                                   least_pivot_count(pivot_mask, leaf, n))


# -- serialization ---------------------------------------------------------------


def _line_to_json(line: Subspace, block: int) -> list:
    row = line.basis[0]
    return [row[2 * block].to_list(), row[2 * block + 1].to_list()]


def zip_to_json_obj(z: HilbertZip) -> dict:
    return {"p": z.ctx.p, "k": z.ctx.k, "n": z.n,
            "omega": [_line_to_json(line, i) for i, line in enumerate(z.omega)],
            "conj": [_line_to_json(line, i) for i, line in enumerate(z.conj)]}


def _check_lines(name: str, lines, n: int):
    """Shape and types only; the field rejects too many coefficients."""
    if not isinstance(lines, list) or len(lines) != n:
        raise ValueError(f"{name!r} must be a list of {n} coordinate pairs")
    for i, pair in enumerate(lines):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{name}[{i}] must be a pair of field elements")
        for c in pair:  # type(c) is int: no bool passes
            if not (type(c) is int or isinstance(c, list) and {int}.issuperset(map(type, c))):
                raise ValueError(f"{name}[{i}] holds {c!r}, not an int or a list of ints")


def zip_from_json_obj(obj: dict) -> HilbertZip:
    """Parse {"p", "k", "n", "omega", "conj"}; each line is a pair of field
    elements given as coefficient arrays (plain ints also accepted).

    Any departure from that schema raises ValueError; keys outside it are
    ignored.  A valid zip whose conjugate wedge has more than
    ``DEFAULT_ENUM_BOUND`` possible terms (2^n) raises BoundExceededError
    before its 2n lines of 2n coordinates are built.
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
    _check_lines("omega", obj["omega"], n)
    _check_lines("conj", obj["conj"], n)
    ctx = FieldCtx(p, k)
    pairs = [normalized_index_pair(ctx, x, y) for x, y in obj["omega"] + obj["conj"]]
    # the conjugate wedge that gives the Hodge level has up to 2^n terms
    refuse_above(DEFAULT_ENUM_BOUND, "conjugate-wedge expansion", 2, n)
    # _check_lines counted n lines of each kind; line i of each goes in block i
    lines = [_placed(ctx, n, i % n, pair) for i, pair in enumerate(pairs)]
    return HilbertZip._of_checked_lines(ctx, n, tuple(lines[:n]), tuple(lines[n:]))
