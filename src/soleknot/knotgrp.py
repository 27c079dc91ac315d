"""Knot-group presentations: sphere closures, homology, Alexander polynomials.

Closing the solid torus inside the sphere kills t, leaving the deficiency-1
presentation < x_1..x_n | x_i^-1 beta(x_i), i < n > (the n-th relation is a
consequence of the others and is dropped).  The 0-framed longitude is
w * x_1^{-s} with w the meridian conjugator and s its total exponent sum;
nullhomology is verified, not assumed.

The Alexander polynomial comes from the free differential calculus on a
deficiency-1 presentation and is the package's independent oracle for
presentation correctness: the test suite checks Delta(1) = +-1, symmetry,
torus-knot values and the satellite product identity against it.
"""

from __future__ import annotations

from .braid import Braid, artin_endo, closure_info
from .errors import (
    InvalidPresentation,
    MissingPeripheral,
    NotAKnot,
    NotInfiniteCyclic,
    NotKnotLike,
)
from .freegroup import FreeEndo, Word, apply_endo, cyclic_decompose, exponent_sum, exponent_sums, fits_rank
from .laurent import LaurentPoly, poly_determinant
from .presentations import PeripheralPair, Presentation
from .snf import diagonal, smith_normal_form
from .torusgrp import meridian_conjugator

__all__ = [
    "sphere_closure_presentation",
    "exponent_matrix",
    "abelianize",
    "h1_vector",
    "h1_class",
    "alexander_polynomial",
    "fox_matrix",
    "tietze_simplify",
]


def sphere_closure_presentation(beta: Braid) -> Presentation:
    """Knot group of the braid closure in the 3-sphere, with peripheral
    meridian x_1 and 0-framed longitude w x_1^{-exponent_sum(w)}."""
    info = closure_info(beta)
    if not info.is_knot:
        raise NotAKnot(f"closure has {info.components} components")
    n = beta.strands
    e = artin_endo(beta)
    gens = tuple(f"x{i}" for i in range(1, n + 1))
    relators = tuple(Word([-i]) * e.images[i - 1] for i in range(1, n))
    w = meridian_conjugator(beta)
    longitude = w * Word([-1]) ** exponent_sum(w)
    p = Presentation(gens, relators, PeripheralPair(Word([1]), longitude))
    if h1_class(p, longitude) != 0:
        raise InvalidPresentation("longitude is not nullhomologous (construction bug)")
    return p


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Relator-by-generator exponent sums (the abelianized relator matrix)."""
    return [exponent_sums(r, p.rank) for r in p.relators]


def abelianize(p: Presentation) -> dict:
    """Smith normal form of the exponent matrix.

    Returns ``{"invariant_factors": [...], "free_rank": r}``; for every
    knot-group presentation this package produces the answer is Z
    (free rank 1, no torsion).
    """
    _, d, _ = smith_normal_form(exponent_matrix(p))
    diag = [x for x in diagonal(d) if x != 0]
    return {
        "invariant_factors": [x for x in diag if x != 1],
        "free_rank": p.rank - len(diag),
    }


def h1_vector(p: Presentation) -> list[int]:
    """Class of each generator in H_1(p) when H_1 is infinite cyclic.

    The sign of the generator is pinned by the presentation's own Smith
    form, not by the meridian; :func:`h1_class` adds the meridian
    normalization.
    """
    g, r = p.rank, len(p.relators)
    mat = exponent_matrix(p)
    transpose = [[mat[i][j] for i in range(r)] for j in range(g)]
    if r == 0:
        if g != 1:
            raise NotInfiniteCyclic("free rank is not 1")
        return [1]
    u, d, _ = smith_normal_form(transpose)
    free_rows = [i for i in range(g) if i >= r or d[i][i] == 0]
    torsion = [d[i][i] for i in range(min(g, r)) if d[i][i] not in (0, 1)]
    if len(free_rows) != 1 or torsion:
        raise NotInfiniteCyclic("first homology is not infinite cyclic")
    row = u[free_rows[0]]
    return list(row)


def h1_class(p: Presentation, w: Word) -> int:
    """Image of w in H_1(p) = Z, normalized so the meridian maps to +1."""
    if p.peripheral is None:
        raise MissingPeripheral("presentation has no peripheral pair")
    vec = h1_vector(p)
    if not fits_rank(w, p.rank):
        raise InvalidPresentation("word addresses a missing generator")

    def cls(word: Word) -> int:
        return sum(v * e for v, e in zip(vec, exponent_sums(word, p.rank)))

    mu = cls(p.peripheral.meridian)
    if mu not in (1, -1):
        raise NotInfiniteCyclic(f"meridian class {mu} does not generate")
    return cls(w) * mu


def fox_matrix(p: Presentation, classes: list[int]) -> list[list[LaurentPoly]]:
    """Free-derivative matrix of the relators, abelianized via t^classes[j].

    Scanning a relator left to right, a positive letter x_j at abelianized
    prefix p contributes t^p to column j; an inverse letter contributes
    -t^(p - classes[j]) after the prefix update.
    """
    rows: list[list[LaurentPoly]] = []
    for r in p.relators:
        row = [dict() for _ in range(p.rank)]  # type: list[dict[int, int]]
        pref = 0
        for letter in r:
            j = abs(letter)
            if letter > 0:
                row[j - 1][pref] = row[j - 1].get(pref, 0) + 1
                pref += classes[j - 1]
            else:
                pref -= classes[j - 1]
                row[j - 1][pref] = row[j - 1].get(pref, 0) - 1
        rows.append([LaurentPoly(c) for c in row])
    return rows


def alexander_polynomial(p: Presentation) -> LaurentPoly:
    """First elementary ideal generator of a deficiency-1 presentation with
    H_1 = Z, canonically normalized (lowest exponent 0, leading
    coefficient positive)."""
    if len(p.relators) != p.rank - 1:
        raise NotKnotLike(
            f"need deficiency 1 ({p.rank - 1} relators for {p.rank} generators), "
            f"have {len(p.relators)}"
        )
    try:
        classes = h1_vector(p)
    except NotInfiniteCyclic as exc:
        raise NotKnotLike(str(exc)) from None
    if p.rank == 1:
        return LaurentPoly.one()
    # Delete a column whose generator is a meridian class (+-1); the
    # remaining square minor is the polynomial up to a unit.
    try:
        col = next(j for j, c in enumerate(classes) if c in (1, -1))
    except StopIteration:
        raise NotKnotLike("no generator of meridian class +-1") from None
    m = fox_matrix(p, classes)
    minor = [[row[j] for j in range(p.rank) if j != col] for row in m]
    return poly_determinant(minor).canonical()


def tietze_simplify(p: Presentation) -> Presentation:
    """Sound simplification: drop empty and duplicate relators, cyclically
    reduce, and eliminate generators defined by a relator in which they
    occur exactly once (only when the substitution does not grow the
    presentation).  Peripheral words are rewritten through eliminations."""
    gens = list(p.gens)
    relators = list(p.relators)
    peripheral = list(
        (p.peripheral.meridian, p.peripheral.longitude) if p.peripheral else ()
    )

    changed = True
    while changed:
        changed = False
        # cyclic reduction and cleanup
        cleaned: list[Word] = []
        seen: set[str] = set()
        for r in relators:
            _, core = cyclic_decompose(r)
            if not core:
                continue
            key = min(core._s, (~core)._s)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(core)
        if cleaned != relators:
            relators = cleaned
            changed = True
        # generator elimination
        for ri, r in enumerate(relators):
            target = None
            # prefer dropping later generators, keeping the seed names
            for g in range(len(gens), 0, -1):
                count = sum(1 for k in r if abs(k) == g)
                if count != 1:
                    continue
                elsewhere = sum(
                    sum(1 for k in other if abs(k) == g)
                    for oi, other in enumerate(relators)
                    if oi != ri
                )
                if elsewhere * (len(r) - 2) <= len(r):
                    target = g
                    break
            if target is None:
                continue
            letters = list(r)
            pos = next(i for i, k in enumerate(letters) if abs(k) == target)
            rot = letters[pos:] + letters[:pos]  # starts with target^eps
            # one endo sends x_target to its replacement and every later
            # generator one index down, so the words land in the smaller rank
            images = [Word([i - (i > target)]) for i in range(1, len(gens) + 1)]
            rest = apply_endo(FreeEndo(len(gens), tuple(images)), Word(rot[1:]))
            images[target - 1] = ~rest if rot[0] > 0 else rest
            endo = FreeEndo(len(gens), tuple(images))
            others = [x for oi, x in enumerate(relators) if oi != ri]
            substituted = [apply_endo(endo, w) for w in others + peripheral]
            relators = substituted[: len(others)]
            peripheral = substituted[len(others):]
            del gens[target - 1]
            changed = True
            break
    pp = None
    if peripheral:
        pp = PeripheralPair(peripheral[0], peripheral[1])
    return Presentation(tuple(gens), tuple(relators), pp)
