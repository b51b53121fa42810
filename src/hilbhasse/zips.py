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

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import FieldCtx
from .linalg import (Subspace, _support, _wedge_extend, adapted_row, filtration_level,
                     least_pivot_count)
# perfbench traces zips.induced_filtration and zips.wedge_of_lines
from .linalg import induced_filtration, wedge_of_lines  # noqa: F401
from .schubert import normalized_index_pair, projective_line_reps


def line_in_block(ctx: FieldCtx, n: int, block: int, local: Sequence) -> Subspace:
    """The line of F^(2n) spanned by a nonzero 2-vector placed in the given
    block.  Its normalized pair, placed alone, is the line's reduced row
    echelon basis, with the pivot at the block's first nonzero coordinate."""
    if not 0 <= block < n:
        raise ValueError("block index out of range")
    x, y = local
    a, b = normalized_index_pair(ctx, x, y)
    vec = [0] * (2 * n)
    vec[2 * block], vec[2 * block + 1] = a, b
    return Subspace(ctx, 2 * n, (tuple(vec),), (2 * block if a else 2 * block + 1,))


class _derived:
    """A value computed from the instance on first read and stored in its
    ``__dict__`` under the method's name.  As a non-data descriptor it is
    found only while that entry is missing, so a stored or seeded value is
    read with no call and no lock."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class HilbertZip:
    """Block-line zip datum: context, degree, Hodge lines and conjugate
    lines (line i supported in coordinates {2i, 2i+1}).

    ``hodge`` and ``level`` are derived from the lines on first use;
    ``enumerate_zips`` seeds both, computed from lines equal to the zip's own.
    """

    ctx: FieldCtx
    n: int
    omega: tuple[Subspace, ...]
    conj: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(self.omega))
        object.__setattr__(self, "conj", tuple(self.conj))
        for name, lines in (("omega", self.omega), ("conj", self.conj)):
            if len(lines) != self.n:
                raise ValueError(f"{name} must hold {self.n} lines")
            for i, line in enumerate(lines):
                _check_line(self.ctx, self.n, i, line, f"{name}[{i}]")

    @classmethod
    def _of_checked_lines(cls, ctx: FieldCtx, n: int, omega: tuple, conj: tuple,
                          **seeds) -> "HilbertZip":
        """The zip of line tuples that ``_check_line`` passed or ``line_in_block``
        built, with no check run again and ``seeds`` (``hodge``, ``level``,
        computed from lines equal to these) stored as given."""
        z = object.__new__(cls)
        z.__dict__.update(ctx=ctx, n=n, omega=omega, conj=conj, **seeds)
        return z

    @_derived
    def hodge(self) -> Subspace:
        """The total Hodge subspace: the span of the Omega lines."""
        return _hodge_span(self.ctx, self.n, self.omega)

    @_derived
    def level(self) -> int:
        """The Hodge level of the conjugate lines (see ``max_hodge_level``)."""
        return filtration_level(self.hodge, [line.index_basis[0] for line in self.conj])


def _check_line(ctx: FieldCtx, n: int, i: int, line: Subspace, name: str):
    """Raise ValueError unless ``line`` is a line of F^(2n) over ``ctx`` in block i."""
    if line.ctx != ctx or line.ambient_dim != 2 * n or line.dim != 1:
        raise ValueError(f"{name} is not a line of the ambient space")
    row = line.index_basis[0]
    if any(row[:2 * i]) or any(row[2 * i + 2:]):
        raise ValueError(f"{name} is not supported in block {i}")


def _hodge_span(ctx: FieldCtx, n: int, omega: Sequence[Subspace]) -> Subspace:
    """The span of n block lines, line i supported in block i.  Each basis
    row is normalized at its pivot and the supports are disjoint, so the rows
    stacked in block order are already the span's reduced row echelon basis."""
    return Subspace(ctx, 2 * n, tuple(line.index_basis[0] for line in omega),
                    tuple(line.pivots[0] for line in omega))


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
    induced filtration piece of the Hodge subspace (see ``filtration_level``)."""
    return z.level


@dataclass(frozen=True, slots=True)
class ZipReport:
    """Per-index flags and the Hodge level; the Hasse order and the
    agreement of the two are derived from them."""

    flags: tuple[bool, ...]
    m_max: int

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
    checked again.  Seeded on each zip, from lines equal to its own:
    ``hodge``, once per Omega tuple, and ``level``, the least pivot count of
    the C tuple's wedge of adapted rows.  Per Omega tuple each of the
    n(q+1) candidate C lines gets its adapted row and that row's support
    once.  The C prefixes of n-1 lines are walked depth-first from the empty
    wedge, each prefix wedge extended by one row per block, so at most n
    prefix wedges are alive at once; the q+1 leaves of a prefix are extended
    in the last block's loop.  That makes (q+1)^i wedge extensions at depth
    i of the walk, i = 1..n, per Omega tuple.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    refuse_above(bound, "zip enumeration", ctx.q + 1, 2 * n)
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    per_block = [block_line_reps(ctx, n, i) for i in range(n)]

    def walk(supports, prefix, terms):  # each n-1 C lines extending prefix, with their terms
        i = len(prefix)
        if i == n - 1:
            yield prefix, terms
            return
        for line, support in zip(per_block[i], supports[i]):
            yield from walk(supports, prefix + (line,),
                            _wedge_extend(terms, support, add, mul, neg))

    for omega in product(*per_block):
        hodge = _hodge_span(ctx, n, omega)
        supports = [[_support(adapted_row(hodge, line.index_basis[0])) for line in lines]
                    for lines in per_block]
        pivot_mask = sum(1 << p for p in hodge.pivots)
        leaves = list(zip(per_block[-1], supports[-1]))
        for prefix, terms in walk(supports, (), {0: 1}):
            for line, support in leaves:
                leaf = _wedge_extend(terms, support, add, mul, neg)
                level = least_pivot_count(pivot_mask, leaf, n)
                yield HilbertZip._of_checked_lines(ctx, n, omega, prefix + (line,),
                                                   hodge=hodge, level=level)


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
    ignored.
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
    omega = [line_in_block(ctx, n, i, pair) for i, pair in enumerate(obj["omega"])]
    conj = [line_in_block(ctx, n, i, pair) for i, pair in enumerate(obj["conj"])]
    # _check_lines counted the lines, and line_in_block put line i in block i
    return HilbertZip._of_checked_lines(ctx, n, tuple(omega), tuple(conj))
