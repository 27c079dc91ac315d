"""Braid words, their action on the free group, and closure data.

A braid on n strands is a sequence of Artin generators; letter ``i > 0``
is sigma_i and ``-i`` its inverse.  The action on the rank-n free group is
fixed once and for all as

    sigma_i:  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,   others fixed

(the inverse generator gets the inverse assignment).  Any consistent
over/under convention satisfies the braid relations; this one is pinned
here and nowhere else.

Text syntax: ``"<n>: tok tok ..."`` where tok is ``s<i>`` for sigma_i and
``S<i>`` for its inverse, e.g. ``"2: s1 s1 s1"``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ParseError, StrandsOutOfRange
from .freegroup import FreeEndo, Word, compose, cyclic_decompose, identity_endo

__all__ = [
    "Braid",
    "Permutation",
    "ClosureInfo",
    "parse_braid",
    "braid_text",
    "artin_endo",
    "induced_permutation",
    "closure_info",
]


@dataclass(frozen=True)
class Braid:
    strands: int
    word: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise StrandsOutOfRange("a braid needs at least one strand")
        for i in self.word:
            if i == 0 or abs(i) >= self.strands:
                raise StrandsOutOfRange(
                    f"generator s{abs(i)} needs at least {abs(i) + 1} strands, have {self.strands}"
                )

    def __mul__(self, other: "Braid") -> "Braid":
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            raise StrandsOutOfRange("cannot concatenate braids with different strand counts")
        return Braid(self.strands, self.word + other.word)

    def inverse(self) -> "Braid":
        return Braid(self.strands, tuple(-i for i in reversed(self.word)))

    def __pow__(self, k: int) -> "Braid":
        if k < 0:
            return self.inverse() ** (-k)
        return Braid(self.strands, self.word * k)

    def __str__(self) -> str:
        return braid_text(self)


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., n}; ``mapping[i-1]`` is the image of i.

    ``compose(p, q)`` follows the same left-to-right order as braid and
    endomorphism composition: first p, then q.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.mapping}")

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def compose(self, then: "Permutation") -> "Permutation":
        return Permutation(tuple(then.mapping[v - 1] for v in self.mapping))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, len(self.mapping) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class ClosureInfo:
    components: int
    winding: int
    exponent_sum: int
    is_knot: bool


def parse_braid(text: str) -> Braid:
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError("expected '<n>: tok tok ...'", position=0)
    try:
        n = int(head.strip())
    except ValueError:
        raise ParseError(f"bad strand count {head.strip()!r}", position=0) from None
    letters: list[int] = []
    pos = len(head) + 1
    for tok in rest.split():
        pos = text.index(tok, pos)
        if len(tok) < 2 or tok[0] not in "sS" or not tok[1:].isdigit():
            raise ParseError(f"bad braid token {tok!r}", position=pos)
        i = int(tok[1:])
        if i < 1:
            raise ParseError(f"generator index must be >= 1 in {tok!r}", position=pos)
        letters.append(i if tok[0] == "s" else -i)
        pos += len(tok)
    return Braid(n, tuple(letters))


def braid_text(b: Braid) -> str:
    toks = " ".join(f"s{i}" if i > 0 else f"S{-i}" for i in b.word)
    return f"{b.strands}: {toks}" if toks else f"{b.strands}:"


def _generator_endo(n: int, letter: int) -> FreeEndo:
    i = abs(letter)
    images = [Word([k]) for k in range(1, n + 1)]
    if letter > 0:
        images[i - 1] = Word([i, i + 1, -i])
        images[i] = Word([i])
    else:
        images[i - 1] = Word([i + 1])
        images[i] = Word([-(i + 1), i, i + 1])
    return FreeEndo(n, tuple(images))


@functools.lru_cache(maxsize=4096)
def artin_endo(b: Braid) -> FreeEndo:
    """The braid's automorphism of the rank-n free group.

    Each generator image is a conjugate of a single generator and the
    product x_1 ... x_n is fixed exactly; both facts are property-tested.

    The returned endo also holds the braid's power ladder (see
    :func:`soleknot.torusgrp.apply_power`), so this bounded LRU is the only
    per-braid cache and ``artin_endo.cache_clear()`` drops everything.
    """
    e = identity_endo(b.strands)
    for letter in b.word:
        e = compose(e, _generator_endo(b.strands, letter))
    return e


def induced_permutation(b: Braid) -> Permutation:
    """Strand permutation of the braid; sigma_i gives (i, i+1).

    Matches the permutation read off the cyclically reduced cores of the
    ``artin_endo`` images (checked in the test suite).
    """
    mapping = list(range(1, b.strands + 1))
    for letter in b.word:
        i = abs(letter)
        # left-to-right composition: apply the transposition after the rest
        for idx, v in enumerate(mapping):
            if v == i:
                mapping[idx] = i + 1
            elif v == i + 1:
                mapping[idx] = i
    return Permutation(tuple(mapping))


def permutation_from_cores(b: Braid) -> Permutation:
    """Independent route to the strand permutation, via endomorphism cores."""
    e = artin_endo(b)
    images = []
    for img in e.images:
        _, core = cyclic_decompose(img)
        letters = core.letters
        if len(letters) != 1 or letters[0] < 0:
            raise ValueError(f"image core is not a positive generator: {core}")
        images.append(letters[0])
    return Permutation(tuple(images))


def closure_info(b: Braid) -> ClosureInfo:
    """Component count and framing data of the braid closure.

    The number of cycles of the induced permutation is the number of
    closure components; the closure is a knot exactly when the permutation
    is a single n-cycle.
    """
    perm = induced_permutation(b)
    components = len(perm.cycles())
    return ClosureInfo(
        components=components,
        winding=b.strands,
        exponent_sum=sum(1 if i > 0 else -1 for i in b.word),
        is_knot=components == 1,
    )
