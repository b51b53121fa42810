"""Sign-vector Weyl combinatorics and torus characters.

The Weyl group of a product of n rank-one factors is the group of sign
vectors in {+1, -1}^n under componentwise multiplication.  Characters of the
ambient diagonal torus are integer vectors (a_1, ..., a_n; c) subject to the
parity constraint sum(a) = c mod 2; the Weyl group flips a-entries and a
Galois permutation shuffles them.  The twisted pullback rule transports a
pair of torus characters on the two-sided Borel quotient to a single
character on the zip-flag side.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product

from .field import _is_prime
from .record import FrozenRecord


class WeylElem:
    """A sign vector in {+1, -1}^n; the group law is componentwise."""

    __slots__ = ("signs",)

    def __init__(self, signs: Sequence[int]):
        signs = tuple(signs)
        if not signs or signs.count(1) + signs.count(-1) != len(signs):
            raise ValueError("signs must be a non-empty sequence over {+1, -1}")
        self.signs = signs

    @classmethod
    def from_signs(cls, signs: tuple[int, ...]) -> "WeylElem":
        """Unchecked constructor from a non-empty sign tuple over {+1, -1}."""
        w = object.__new__(cls)
        w.signs = signs
        return w

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return cls((1,) * n)

    @classmethod
    def longest(cls, n: int) -> "WeylElem":
        return cls((-1,) * n)

    @property
    def n(self) -> int:
        return len(self.signs)

    def length(self) -> int:
        """Coxeter length: the number of -1 entries."""
        return self.signs.count(-1)

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if not isinstance(other, WeylElem):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("rank mismatch")
        return WeylElem.from_signs(tuple([a * b for a, b in zip(self.signs, other.signs)]))

    def to_string(self) -> str:
        return "".join(["+" if s > 0 else "-" for s in self.signs])

    def __eq__(self, other):
        return isinstance(other, WeylElem) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __repr__(self):
        return f"WeylElem({self.to_string()})"


class Character(FrozenRecord):
    """A torus character (a_1, ..., a_n; c) with sum(a) = c mod 2."""

    _fields = ("a", "c")

    def __init__(self, a: Sequence[int], c: int):
        self.__dict__.update(a=tuple(a), c=c)
        if (sum(self.a) - c) % 2:
            raise ValueError(f"parity violated: sum(a)={sum(self.a)} vs c={c}")

    @property
    def n(self) -> int:
        return len(self.a)

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("rank mismatch")
        return Character(tuple(x + y for x, y in zip(self.a, other.a)), self.c + other.c)

    def __neg__(self) -> "Character":
        return Character(tuple(-x for x in self.a), -self.c)

    def __rmul__(self, k: int) -> "Character":
        if not isinstance(k, int):
            return NotImplemented
        return Character(tuple(k * x for x in self.a), k * self.c)

    @classmethod
    def zero(cls, n: int) -> "Character":
        return cls((0,) * n, 0)


def _check_perm(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return perm


def inverse_perm(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


class CocharDatum(FrozenRecord):
    """Degree, characteristic, Galois permutation and the twist element z.

    For this group the parabolic attached to the distinguished cocharacter is
    the Borel itself, so z is always the longest element.  sigma records how
    Galois permutes the n factors: identity for a split characteristic, an
    n-cycle for an inert one.
    """

    _fields = ("n", "p", "sigma", "z")

    def __init__(self, n: int, p: int, sigma: Sequence[int], z: WeylElem):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.__dict__.update(n=n, p=p, sigma=_check_perm(sigma, n), z=z)
        if z.n != n:
            raise ValueError("rank mismatch between z and n")

    @classmethod
    def split(cls, n: int, p: int) -> "CocharDatum":
        return cls(n, p, tuple(range(n)), WeylElem.longest(n))

    @classmethod
    def inert(cls, n: int, p: int) -> "CocharDatum":
        # n-cycle: entry i is fed from slot i-1, wrapping around.
        return cls(n, p, tuple((i - 1) % n for i in range(n)), WeylElem.longest(n))


def hodge_character(n: int) -> Character:
    """The character (-1, ..., -1; -n) attached to the Hodge line bundle."""
    return Character((-1,) * n, -n)


def weyl_act(w: WeylElem, chi: Character) -> Character:
    """Flip a-entries by the signs of w; c is untouched."""
    if w.n != chi.n:
        raise ValueError("rank mismatch")
    return Character(tuple(s * x for s, x in zip(w.signs, chi.a)), chi.c)


def galois_act(perm: Sequence[int], chi: Character) -> Character:
    """Push the a-entries along a permutation of the factors; c is fixed."""
    perm = _check_perm(perm, chi.n)
    out = [0] * chi.n
    for i, x in enumerate(chi.a):
        out[perm[i]] = x
    return Character(tuple(out), chi.c)


def zipflag_pullback(mu: Character, nu: Character, datum: CocharDatum) -> Character:
    """Character of the pullback to the zip-flag side: mu + p * sigma^(-1)(z . nu)."""
    if mu.n != datum.n or nu.n != datum.n:
        raise ValueError("rank mismatch")
    twisted = galois_act(inverse_perm(datum.sigma), weyl_act(datum.z, nu))
    return mu + datum.p * twisted


def all_weyl_elems(n: int) -> Iterator[WeylElem]:
    """All 2^n sign vectors, built one at a time as the iterator is read:
    identity first, longest element last, the last entry varying fastest.
    n < 1 raises ValueError at the call."""
    if n < 1:
        raise ValueError("need at least one factor")
    return map(WeylElem.from_signs, product((1, -1), repeat=n))
