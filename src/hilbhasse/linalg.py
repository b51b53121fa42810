"""Exact linear algebra over a field context.

Subspaces are kept as reduced row echelon bases of element indices, so two
equal subspaces have identical representations and containment reduces to
pivot elimination on the context's integer tables.  The wedge helpers
coordinatize the n-th exterior power of a 2n-dimensional space by
colexicographic rank of n-element index subsets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations
from math import comb

from .field import ContextMismatchError, FieldCtx, FieldElem

Vector = tuple[FieldElem, ...]


def _rref_rows(rows: list[list[int]], ncols: int,
               ctx: FieldCtx) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form of rows of element indices;
    returns (rows, pivot columns)."""
    add, mul, neg, inv = ctx._add, ctx._mul, ctx._neg, ctx._inv
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[inv[rows[r][c]]]
        lead = rows[r] = [scale[x] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                minus_f = mul[neg[row[c]]]
                rows[i] = [add[x][minus_f[y]] for x, y in zip(row, lead)]
        pivots.append(c)
        r += 1
    return rows, pivots


class Subspace:
    """A subspace of F^d held by its canonical reduced row echelon basis,
    stored as rows of element indices; ``basis`` rebuilds the elements."""

    __slots__ = ("ctx", "ambient_dim", "index_basis", "pivots")

    def __init__(self, ctx: FieldCtx, ambient_dim: int,
                 index_basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.index_basis = index_basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, ambient_dim: int,
                     vectors: Iterable[Sequence]) -> "Subspace":
        return cls.from_index_rows(ctx, ambient_dim,
                                   [[ctx(e)._idx for e in v] for v in vectors])

    @classmethod
    def from_index_rows(cls, ctx: FieldCtx, ambient_dim: int,
                        rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of vectors given as element indices of ``ctx``, each in
        range(ctx.q) (unchecked, like ``FieldCtx.from_index``)."""
        rows = list(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length differs from ambient dimension")
        reduced, pivots = _rref_rows(rows, ambient_dim, ctx)
        basis = tuple(tuple(r) for r in reduced[:len(pivots)])
        return cls(ctx, ambient_dim, basis, tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.index_basis)

    @property
    def basis(self) -> tuple[Vector, ...]:
        elems = self.ctx._elems
        return tuple(tuple(elems[x] for x in row) for row in self.index_basis)

    def reduce(self, row: Sequence[int]) -> Sequence[int]:
        """Residual of a vector of element indices (unchecked) after
        eliminating along the basis pivots, as element indices."""
        add, mul, neg = self.ctx._add, self.ctx._mul, self.ctx._neg
        for brow, c in zip(self.index_basis, self.pivots):
            if row[c]:
                minus_f = mul[neg[row[c]]]
                row = [add[x][minus_f[y]] for x, y in zip(row, brow)]
        return row

    def contains(self, inner: "Subspace") -> bool:
        """True iff every basis row of ``inner`` lies in this row space.

        Equivalent to the rank of the stacked basis matrix staying equal to
        this subspace's dimension; computed by eliminating each row of
        ``inner`` against the canonical pivots.
        """
        if inner.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if inner.ctx is not self.ctx:
            raise ContextMismatchError(f"subspaces over {self.ctx!r} and {inner.ctx!r}")
        return not any(any(self.reduce(row)) for row in inner.index_basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx is other.ctx
                and self.ambient_dim == other.ambient_dim
                and self.index_basis == other.index_basis)

    def __hash__(self):
        # equal subspaces share a context, so it need not be hashed
        return hash((self.ambient_dim, self.index_basis))

    def __repr__(self):
        rows = ["[" + ", ".join(repr(e) for e in row) + "]" for row in self.basis]
        return f"Subspace(dim={self.dim} of {self.ambient_dim}: {'; '.join(rows)})"


# -- exterior power coordinates ---------------------------------------------


def wedge_basis_index(n: int, subset: Sequence[int]) -> int:
    """Colexicographic rank of an n-element subset of {0, ..., 2n-1}."""
    sub = tuple(subset)
    if len(sub) != n or any(sub[i] >= sub[i + 1] for i in range(len(sub) - 1)):
        raise ValueError("subset must be strictly increasing of size n")
    if sub and (sub[0] < 0 or sub[-1] >= 2 * n):
        raise ValueError("subset entries must lie in {0, ..., 2n-1}")
    return sum(comb(s, j + 1) for j, s in enumerate(sub))


def wedge_basis_subsets(n: int) -> list[tuple[int, ...]]:
    """All n-element subsets of {0, ..., 2n-1} in colexicographic order."""
    return sorted(combinations(range(2 * n), n), key=lambda s: tuple(reversed(s)))


@lru_cache(maxsize=None)
def _colex_ranks(n: int) -> dict[int, int]:
    """Colex rank of each n-element subset of {0, ..., 2n-1}, keyed by its bitmask."""
    return {sum(1 << s for s in subset): i for i, subset in enumerate(wedge_basis_subsets(n))}


def _support(v: Sequence[int]) -> list[tuple[int, int, int]]:
    """The nonzero entries of a vector of element indices, as
    (j + 1, 1 << j, c) for each entry c at index j."""
    return [(j + 1, 1 << j, c) for j, c in enumerate(v) if c]


def _wedge_extend(terms: dict[int, int], support: list[tuple[int, int, int]],
                  add: list, mul: list, neg: list) -> dict[int, int]:
    """The terms of w ^ v, for w given by its terms (keyed by the bitmask of
    their index subset) and v by its ``_support``; ``add``, ``mul`` and
    ``neg`` are the context's tables."""
    nxt: dict[int, int] = {}
    for subset, coeff in terms.items():
        times_coeff = mul[coeff]
        for above, bit, c in support:
            if subset & bit:
                continue
            term = times_coeff[c]
            # e_j moves left past the subset's indices above j
            if (subset >> above).bit_count() & 1:
                term = neg[term]
            key = subset | bit
            total = add[nxt.get(key, 0)][term]
            if total:
                nxt[key] = total
            else:
                del nxt[key]
    return nxt


def _wedge_terms(vectors: Sequence[Sequence[int]], ctx: FieldCtx,
                 terms: dict[int, int] | None = None) -> dict[int, int]:
    """Nonzero coordinates of w ^ v_1 ^ ... ^ v_r, keyed by the bitmask of
    their index subset, where w is given by ``terms`` (default: the empty
    wedge, 1); vectors and coordinates are element indices."""
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    acc = {0: 1} if terms is None else terms
    for v in vectors:
        acc = _wedge_extend(acc, _support(v), add, mul, neg)
    return acc


def _wedge_coords(terms: dict[int, int], n: int) -> list[int]:
    """The colex coordinate vector of an n-fold wedge given by its terms."""
    ranks = _colex_ranks(n)
    coords = [0] * len(ranks)
    for subset, coeff in terms.items():
        coords[ranks[subset]] = coeff
    return coords


def wedge_of_lines(lines: Sequence[Subspace]) -> Subspace:
    """Wedge n block-supported lines of F^(2n) into a line of the n-th
    exterior power.

    Line i must be one-dimensional and supported in coordinates
    {2i, 2i+1}, so the wedge of the spanning vectors is nonzero.
    """
    n = len(lines)
    if n == 0:
        raise ValueError("need at least one line")
    ctx = lines[0].ctx
    ambient = 2 * n
    for i, line in enumerate(lines):
        if line.dim != 1 or line.ambient_dim != ambient:
            raise ValueError(f"input {i} is not a line of a {ambient}-dim space")
        if line.ctx is not ctx:
            raise ContextMismatchError(f"line {i} lies over {line.ctx!r}, not {ctx!r}")
        row = line.index_basis[0]
        if any(row[j] for j in range(ambient) if j not in (2 * i, 2 * i + 1)):
            raise ValueError(f"line {i} is not supported in block {{{2 * i}, {2 * i + 1}}}")
    terms = _wedge_terms([line.index_basis[0] for line in lines], ctx)
    return Subspace.from_index_rows(ctx, comb(ambient, n), [_wedge_coords(terms, n)])


@lru_cache(maxsize=None)
def induced_filtration(omega: Subspace, m: int) -> Subspace:
    """The m-th piece of the filtration that an n-dimensional subspace of
    F^(2n) induces on the n-th exterior power.

    The piece is the span of all wedges with at least m factors drawn from
    ``omega`` and the remaining factors from a full basis of the ambient
    space; here the full basis is omega's own basis extended by the standard
    vectors at its non-pivot columns, which spans the same subspace with far
    fewer wedges.  Piece 0 is the whole exterior power and piece n is the
    top wedge of omega.  Results are cached; inputs are immutable.
    """
    ambient = omega.ambient_dim
    if ambient % 2:
        raise ValueError("ambient dimension must be even")
    n = ambient // 2
    if omega.dim != n:
        raise ValueError(f"omega must have dimension {n}, got {omega.dim}")
    if not 0 <= m <= n:
        raise ValueError(f"filtration index must be in [0, {n}], got {m}")
    ctx = omega.ctx
    pivot_set = set(omega.pivots)
    # element index 1 is the field's one, 0 its zero
    complement = [tuple(int(j == c) for j in range(ambient))
                  for c in range(ambient) if c not in pivot_set]
    spanning = []
    for j in range(m, n + 1):
        for part_a in combinations(omega.index_basis, j):
            wedge_a = _wedge_terms(part_a, ctx)
            for part_b in combinations(complement, n - j):
                spanning.append(_wedge_coords(_wedge_terms(part_b, ctx, wedge_a), n))
    return Subspace.from_index_rows(ctx, comb(ambient, n), spanning)


def adapted_row(omega: Subspace, row: Sequence[int]) -> Sequence[int]:
    """A vector's coordinates (element indices) in the basis that ``induced_filtration``
    builds from: its entries at omega's pivots, its residual modulo omega elsewhere."""
    coords = omega.reduce(row)
    for p in omega.pivots:
        if row[p]:  # so reduce eliminated at p, into a list of its own
            coords[p] = row[p]
    return coords


def least_pivot_count(pivot_mask: int, terms: dict[int, int], n: int) -> int:
    """The least number of pivots (the bits of ``pivot_mask``) in a nonzero
    term of a wedge of n adapted rows, or n if the wedge is 0."""
    return min([(mask & pivot_mask).bit_count() for mask in terms], default=n)


def filtration_level(omega: Subspace, rows: Sequence[Sequence[int]]) -> int:
    """Largest m such that the wedge of n vectors (element indices) lies in
    ``induced_filtration(omega, m)``, omega n-dim in F^(2n), or n if it is 0:
    the least pivot count over the terms of the wedge of their adapted rows."""
    n = omega.dim
    if omega.ambient_dim != 2 * n or len(rows) != n:
        raise ValueError("need n vectors and an n-dim subspace of F^(2n)")
    terms = _wedge_terms([adapted_row(omega, r) for r in rows], omega.ctx)
    return least_pivot_count(sum(1 << p for p in omega.pivots), terms, n)
