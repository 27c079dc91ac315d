"""Satellite amalgamation, the canonical knot-group filtration, and the
tight-subgroup arithmetic criterion.

A satellite presentation glues a closed-braid pattern into a companion
knot exterior along the boundary torus: companion meridian = x_1...x_n,
companion longitude = t (untwisted gluing, longitude to longitude).  The
result's peripheral pair is meridian x_1 and 0-framed longitude
t^n w x_1^{-s}.

Generator names gain a fresh ``@<stage>`` suffix at each satellite step,
so the inclusion of one stage's group into the next is a pure renaming
(the identity on surviving names) and stage-k relators are literally a
subset of stage-(k+1) relators.

One of the n conjugation relators t^-1 x_i t = beta(x_i) is dropped: the
last one follows from the others together with the gluing relators
(the companion's peripheral pair commutes in its group and the braid
action fixes x_1...x_n), keeping every stage at deficiency 1 so the
Alexander machinery applies directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .braid import Braid, artin_endo
from .errors import (
    DepthExceedsPatterns,
    DomainError,
    InvalidPresentation,
    MissingPeripheral,
    WindingTooSmall,
)
from .freegroup import Word, exponent_sum
from .knotgrp import h1_class
from .presentations import PeripheralPair, Presentation
from .torusgrp import meridian_conjugator

__all__ = [
    "FiltrationStage",
    "satellite_presentation",
    "build_filtration",
    "h1_transition",
    "CableCheck",
    "cable_tight_criterion",
    "search_cable_tight_witnesses",
]


@dataclass(frozen=True)
class FiltrationStage:
    index: int
    braid: Braid | None
    presentation: Presentation
    inclusion: tuple[tuple[str, str], ...]


def _fresh_suffix(gens: Iterable[str]) -> int:
    best = 0
    for name in gens:
        _, at, tag = name.rpartition("@")
        if at and tag.isdigit():
            best = max(best, int(tag))
    return best + 1


def _shift(w: Word, offset: int) -> Word:
    return Word([k + offset if k > 0 else k - offset for k in w])


def satellite_presentation(companion: Presentation, beta: Braid) -> Presentation:
    """Knot group of the satellite with the given companion and closed-braid
    pattern, peripheral structure included."""
    if companion.peripheral is None:
        raise MissingPeripheral("companion presentation has no peripheral pair")
    if beta.strands < 2:
        raise WindingTooSmall(f"pattern winding {beta.strands} < 2")
    w = meridian_conjugator(beta)  # raises NotAKnot for a link pattern
    if h1_class(companion, companion.peripheral.longitude) != 0:
        raise InvalidPresentation("companion longitude is not nullhomologous")

    n = beta.strands
    m = len(companion.gens)
    d = _fresh_suffix(companion.gens)
    gens = companion.gens + tuple(f"x{i}@{d}" for i in range(1, n + 1)) + (f"t@{d}",)
    t = m + n + 1

    e = artin_endo(beta)
    relators = list(companion.relators)
    # conjugation relators for x_1 .. x_{n-1}; the n-th is a consequence
    for i in range(1, n):
        relators.append(Word([-t, m + i, t]) * _shift(~e.images[i - 1], m))
    # untwisted gluing: companion meridian = x_1...x_n, companion longitude = t
    relators.append(~companion.peripheral.meridian * Word(range(m + 1, m + n + 1)))
    relators.append(~companion.peripheral.longitude * Word([t]))

    s = exponent_sum(w)
    longitude = Word([t] * n) * _shift(w, m) * Word([-(m + 1)]) ** s
    result = Presentation(
        gens, tuple(relators), PeripheralPair(Word([m + 1]), longitude)
    )
    if h1_class(result, longitude) != 0:
        raise InvalidPresentation("satellite longitude is not nullhomologous (bug)")
    return result


def build_filtration(
    seed: Presentation,
    patterns: list[Braid],
    depth: int,
    repeat: bool = False,
) -> list[FiltrationStage]:
    """Stages seed -> satellite(seed, patterns[0]) -> ...; the inclusion of
    each stage into the next is recorded as explicit name pairs."""
    if seed.peripheral is None:
        raise MissingPeripheral("seed presentation has no peripheral pair")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if depth > len(patterns) and not repeat:
        raise DepthExceedsPatterns(
            f"depth {depth} exceeds {len(patterns)} patterns (repeat not set)"
        )
    stages = [FiltrationStage(0, None, seed, ())]
    for k in range(depth):
        pattern = patterns[k % len(patterns)] if repeat else patterns[k]
        prev = stages[-1].presentation
        nxt = satellite_presentation(prev, pattern)
        inclusion = tuple((name, name) for name in prev.gens)
        stages.append(FiltrationStage(k + 1, pattern, nxt, inclusion))
    return stages


def h1_transition(stages: list[FiltrationStage], k: int) -> int:
    """Class of stage k's meridian inside stage k+1's homology; equals the
    winding (strand count) of the pattern used at that step."""
    prev = stages[k].presentation
    nxt = stages[k + 1].presentation
    if prev.peripheral is None:
        raise MissingPeripheral(f"stage {k} has no peripheral pair")
    # inclusion is a pure renaming and companion generators come first,
    # so the meridian word carries over letter for letter
    return h1_class(nxt, prev.peripheral.meridian)


@dataclass(frozen=True)
class CableCheck:
    satisfied: bool
    z: int
    w: int


def cable_tight_criterion(
    s: int, t: int, p: int, q: int, d: int, eps: int, delta: int
) -> CableCheck:
    """Arithmetic test for a nontrivial knot group embedding tightly in the
    group of the (s,t)-cable of the (p,q)-torus knot:

        pq - s/t = -eps/d + delta*z*w/(d*t)

    with d > 1, |eps| = 1, |delta| <= 1, z = gcd(t, d) > 1 and
    w = gcd(s, d*p*q + eps), checked in exact rational arithmetic."""
    if t == 0 or d == 0:
        raise DomainError("t and d must be nonzero")
    if math.gcd(p, q) != 1:
        raise DomainError(f"(p, q) = ({p}, {q}) must be coprime torus-knot parameters")
    z = math.gcd(t, d)
    w = math.gcd(s, d * p * q + eps)
    ok = (
        d > 1
        and abs(eps) == 1
        and abs(delta) <= 1
        and z > 1
        and Fraction(p * q) - Fraction(s, t)
        == Fraction(-eps, d) + Fraction(delta * z * w, d * t)
    )
    return CableCheck(ok, z, w)


def search_cable_tight_witnesses(bound: int) -> list[tuple[int, ...]]:
    """Every parameter tuple (s, t, p, q, d, eps, delta) with all of
    |s|, |t|, |p|, |q|, |d| <= bound satisfying the criterion.

    Every guard below is the criterion's identity multiplied through by
    d*t != 0, d*(p*q*t - s) = -eps*t + delta*z*w, and the loops fix its
    side conditions (d >= 2, z = gcd(t, d) > 1, |eps| = 1, |delta| <= 1,
    gcd(p, q) = 1), so a tuple that passes its guard is emitted as is.  The
    exact-rational oracle is ``verify.cable_suite`` (criterion 6), which
    re-checks every hit with ``Fraction``.

    The search is exhaustive over the box; it only skips regions excluded
    by bounds that follow from the identity itself:

    * for s != 0, w divides s so w <= bound, and the identity forces
      d*|p*q*t - s| <= |t| + z*w, confining s to a window around p*q*t
      (and p*q*t itself to the window's reach of the [-bound, bound] range);
    * s = 0 (where w = |d*p*q + eps| may exceed the bound) is checked
      directly for every remaining parameter combination.
    """
    span = range(-bound, bound + 1)
    pairs = [(p, q, p * q) for p in span for q in span if math.gcd(p, q) == 1]
    hits: list[tuple[int, ...]] = []
    for d in range(2, bound + 1):
        for t in span:
            if t == 0:
                continue
            z = math.gcd(t, d)
            if z <= 1:
                continue
            window = (abs(t) + z * bound) // d + 1
            for eps in (1, -1):
                for delta in (-1, 0, 1):
                    if delta == 0:
                        # identity pins s = p*q*t + eps*t/d exactly
                        if eps * t % d:
                            continue
                        shift = eps * t // d
                        for p, q, pq in pairs:
                            s = pq * t + shift
                            if abs(s) <= bound:
                                hits.append((s, t, p, q, d, eps, delta))
                        continue
                    for p, q, pq in pairs:
                        center = pq * t
                        dpq_eps = d * pq + eps
                        # s = 0 first: its w = |d p q + eps| can exceed the
                        # bound, so it lives outside the window below
                        if d * center == -eps * t + delta * z * abs(dpq_eps):
                            hits.append((0, t, p, q, d, eps, delta))
                        if abs(center) > bound + window:
                            continue
                        lo = max(-bound, center - window)
                        hi = min(bound, center + window)
                        for s in range(lo, hi + 1):
                            if s == 0:
                                continue
                            w = math.gcd(s, dpq_eps)
                            if d * (center - s) == -eps * t + delta * z * w:
                                hits.append((s, t, p, q, d, eps, delta))
    hits.sort()
    return hits
