"""Satellite assembly, filtrations, and the cable-embedding arithmetic."""

import math
from fractions import Fraction

import pytest

from soleknot.braid import Braid
from soleknot.errors import (
    DepthExceedsPatterns,
    DomainError,
    MissingPeripheral,
    NotAKnot,
    WindingTooSmall,
)
from soleknot.freegroup import Word
from soleknot.knotgrp import abelianize, alexander_polynomial, h1_class, sphere_closure_presentation
from soleknot.presentations import Presentation
from soleknot.satellite import (
    build_filtration,
    cable_tight_criterion,
    h1_transition,
    satellite_presentation,
    search_cable_tight_witnesses,
)
from soleknot.verify import CABLE_WITNESSES

TREFOIL = sphere_closure_presentation(Braid(2, (1, 1, 1)))
S1_3 = Braid(2, (1, 1, 1))


def test_satellite_shape():
    sat = satellite_presentation(TREFOIL, S1_3)
    assert sat.gens == ("x1", "x2", "x1@1", "x2@1", "t@1")
    # companion relator + (n-1) conjugation relators + 2 gluing relators
    assert len(sat.relators) == 1 + 1 + 2
    assert set(TREFOIL.relators) <= set(sat.relators)
    assert sat.peripheral.meridian == Word([3])
    # longitude t^2 w' x1'^-6 with w' the shifted conjugator (x1 x2)^3
    expected = Word([5, 5]) * Word([3, 4] * 3) * Word([-3]) ** 6
    assert sat.peripheral.longitude == expected


def test_satellite_homology():
    sat = satellite_presentation(TREFOIL, S1_3)
    assert abelianize(sat) == {"invariant_factors": [], "free_rank": 1}
    assert h1_class(sat, sat.peripheral.longitude) == 0
    # companion meridian picks up the winding number
    assert h1_class(sat, TREFOIL.peripheral.meridian) == 2


def test_satellite_alexander_product():
    sat = satellite_presentation(TREFOIL, S1_3)
    delta = alexander_polynomial(sat)
    base = alexander_polynomial(TREFOIL)
    assert delta == (base * base.subs_power(2)).canonical()


def test_satellite_errors():
    bare = Presentation(TREFOIL.gens, TREFOIL.relators)
    with pytest.raises(MissingPeripheral):
        satellite_presentation(bare, S1_3)
    with pytest.raises(NotAKnot):
        satellite_presentation(TREFOIL, Braid(2, (1, 1)))
    with pytest.raises(WindingTooSmall):
        satellite_presentation(TREFOIL, Braid(1, ()))


def test_filtration_examples():
    stages = build_filtration(TREFOIL, [S1_3], 1, repeat=True)
    assert len(stages) == 2
    assert stages[0].presentation == TREFOIL and stages[0].braid is None
    assert stages[1].braid == S1_3
    assert stages[1].inclusion == tuple((g, g) for g in TREFOIL.gens)

    assert build_filtration(TREFOIL, [S1_3], 0) == [stages[0]]

    deeper = build_filtration(TREFOIL, [S1_3, Braid(3, (1, 2))], 2)
    assert [len(s.presentation.gens) for s in deeper] == [2, 5, 9]

    with pytest.raises(DepthExceedsPatterns):
        build_filtration(TREFOIL, [S1_3], 2)


def test_h1_transitions():
    stages = build_filtration(TREFOIL, [S1_3, Braid(3, (1, 2))], 2)
    assert h1_transition(stages, 0) == 2
    assert h1_transition(stages, 1) == 3
    with pytest.raises(IndexError):
        h1_transition(stages, 2)


def test_filtration_alexander_chain():
    patterns = [S1_3, Braid(3, (1, 2)), Braid(3, (1, 2, 1, 2))]
    stages = build_filtration(TREFOIL, patterns, 3)
    deltas = [alexander_polynomial(s.presentation) for s in stages]
    for k in range(3):
        pattern_delta = alexander_polynomial(sphere_closure_presentation(patterns[k]))
        n = patterns[k].strands
        assert deltas[k + 1] == (pattern_delta * deltas[k].subs_power(n)).canonical()


def test_cable_criterion_examples():
    # delta = 0 witness: 2*3 - 13/2 = -1/2
    res = cable_tight_criterion(13, 2, 2, 3, 2, 1, 0)
    assert res.satisfied and res.z == 2 and res.w == 13
    assert not cable_tight_criterion(13, 2, 2, 3, 1, 1, 0).satisfied  # d = 1
    assert not cable_tight_criterion(13, 3, 2, 3, 2, 1, 0).satisfied  # gcd(t, d) = 1
    with pytest.raises(DomainError):
        cable_tight_criterion(1, 0, 2, 3, 2, 1, 0)
    with pytest.raises(DomainError):
        cable_tight_criterion(1, 1, 2, 3, 0, 1, 0)
    with pytest.raises(DomainError):
        cable_tight_criterion(1, 2, 2, 4, 2, 1, 0)  # p, q not coprime


def test_recorded_witnesses_reverify():
    for s, t, p, q, d, eps, delta in CABLE_WITNESSES:
        z = math.gcd(t, d)
        w = math.gcd(s, d * p * q + eps)
        assert d > 1 and abs(eps) == 1 and abs(delta) <= 1 and z > 1
        assert Fraction(p * q) - Fraction(s, t) == Fraction(-eps, d) + Fraction(
            delta * z * w, d * t
        )


def naive_search(bound):
    """Independent 7-deep brute force in cleared integer arithmetic."""
    hits = set()
    for d in range(2, bound + 1):
        for t in range(-bound, bound + 1):
            if t == 0 or math.gcd(t, d) <= 1:
                continue
            z = math.gcd(t, d)
            for p in range(-bound, bound + 1):
                for q in range(-bound, bound + 1):
                    if math.gcd(p, q) != 1:
                        continue
                    for eps in (1, -1):
                        for delta in (-1, 0, 1):
                            for s in range(-bound, bound + 1):
                                w = math.gcd(s, d * p * q + eps)
                                if d * (p * q * t - s) == -eps * t + delta * z * w:
                                    hits.add((s, t, p, q, d, eps, delta))
    return hits


@pytest.mark.parametrize("bound", [1, 2, 6])
def test_search_matches_naive_at_small_bound(bound):
    # bound 1 leaves the d range empty: both searches return nothing
    assert set(search_cable_tight_witnesses(bound)) == naive_search(bound)


def test_search_rejects_bad_domains():
    # the search emits hits without a rational re-check; this ties it to
    # the Fraction criterion
    for h in search_cable_tight_witnesses(10):
        s, t, p, q, d, eps, delta = h
        assert d > 1 and math.gcd(t, d) > 1
        assert cable_tight_criterion(*h).satisfied
