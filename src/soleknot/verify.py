"""Verification corpora and property suites.

Each suite returns a list of violation strings (empty means the property
held everywhere).  :data:`SCALES` is the one place that sets how large the
suites run: its ``"default"`` row is the CLI's moderate ``verify`` scale and
its ``"full"`` row is the acceptance scale, which ``verify --corpus full``
and the acceptance tests both build through :func:`suites`.

Corpus notes.  The deterministic corpus is every knot-closure braid in B2
and B3 of word length at most ``max_len``, enumerated completely (it
includes the alternating-sign braids whose automorphisms grow fastest;
those are kept).  The random corpus is seeded and rejects, besides non-knot
closures, braids whose iterated action would exceed a hard word-length cap:
without the cap a single random sample can demand reduced words beyond
10^{12} letters (growth rates of free-group automorphisms are exponential
in the power), which no exact check can materialize at desk scale.  The cap
is part of the corpus definition (:data:`GROWTH_CAP`).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .braid import Braid, artin_endo, closure_info
from .freegroup import Word, apply_endo, cyclic_decompose, identity_endo
from .knotgrp import (
    abelianize,
    alexander_polynomial,
    h1_class,
    sphere_closure_presentation,
    tietze_simplify,
)
from .laurent import LaurentPoly
from .satellite import build_filtration, cable_tight_criterion, h1_transition, search_cable_tight_witnesses
from .solenoid import WindingSeq, profile, solenoids_equivalent
from .torusgrp import (
    DEFAULT_ENUMERATION_BUDGET,
    TorusElement,
    apply_power,
    centralizer_enumeration_oracle,
    centralizer_generators,
    meridian_conjugator,
    mt_multiply,
    mt_pow,
    power_identity_check,
)

__all__ = [
    "GROWTH_CAP",
    "det_knot_corpus",
    "random_knot_corpus",
    "braid_relation_suite",
    "centralizer_suite",
    "uniqueness_suite",
    "closure_presentation_suite",
    "satellite_suite",
    "cable_suite",
    "solenoid_suite",
    "negative_control_suite",
    "cyclically_equal",
    "Scale",
    "SCALES",
    "Suite",
    "suites",
]

GROWTH_CAP = 1 << 22  # letters; random-corpus feasibility bound for beta^(3n)(x1)


def det_knot_corpus(max_len: int) -> list[Braid]:
    """All knot-closure braids in B2 and B3 with word length <= max_len."""
    out: list[Braid] = []
    for n in (2, 3):
        letters = [i for k in range(1, n) for i in (k, -k)]
        for length in range(1, max_len + 1):
            for word in itertools.product(letters, repeat=length):
                b = Braid(n, word)
                if closure_info(b).is_knot:
                    out.append(b)
    return out


def _growth_feasible(b: Braid) -> bool:
    w = Word([1])
    e = artin_endo(b)
    for _ in range(3 * b.strands):
        w = apply_endo(e, w)
        if len(w) > GROWTH_CAP:
            return False
    return True


def random_knot_corpus(count: int, seed: int) -> list[Braid]:
    """Seeded random knot-closure braids in B2-B4 of word length 1-8,
    rejection-sampled for knot closures and for beta^(3n)(x1) staying
    within :data:`GROWTH_CAP` letters."""
    rng = random.Random(seed)
    out: list[Braid] = []
    while len(out) < count:
        n = rng.choice((2, 3, 4))
        length = rng.randint(1, 8)
        word = []
        for _ in range(length):
            i = rng.randint(1, n - 1)
            word.append(i if rng.random() < 0.5 else -i)
        b = Braid(n, tuple(word))
        if not closure_info(b).is_knot:
            continue
        if not _growth_feasible(b):
            continue
        out.append(b)
    return out


def braid_relation_suite(max_strands: int, instances: int, seed: int) -> list[str]:
    """Artin relations and product invariance, exactly.

    Checks every adjacent/commuting generator pair for each strand count,
    then seeded random braids for product invariance, inverse collapse,
    and the relations inside a random context.
    """
    bad: list[str] = []
    for n in range(2, max_strands + 1):
        for i in range(1, n - 1):
            lhs = artin_endo(Braid(n, (i, i + 1, i)))
            rhs = artin_endo(Braid(n, (i + 1, i, i + 1)))
            if lhs != rhs:
                bad.append(f"braid relation failed for s{i} s{i+1} in B{n}")
        for i in range(1, n):
            for j in range(i + 2, n):
                if artin_endo(Braid(n, (i, j))) != artin_endo(Braid(n, (j, i))):
                    bad.append(f"far commutation failed for s{i}, s{j} in B{n}")
    rng = random.Random(seed)
    for _ in range(instances):
        n = rng.randint(2, max_strands)
        length = rng.randint(0, 10)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
        b = Braid(n, word)
        e = artin_endo(b)
        product = Word(range(1, n + 1))
        if apply_endo(e, product) != product:
            bad.append(f"product invariance failed for {b}")
        if artin_endo(b * b.inverse()) != identity_endo(n):
            bad.append(f"inverse collapse failed for {b}")
        if n >= 3:
            i = rng.randint(1, n - 2)
            lhs = artin_endo(b * Braid(n, (i, i + 1, i)))
            rhs = artin_endo(b * Braid(n, (i + 1, i, i + 1)))
            if lhs != rhs:
                bad.append(f"relation failed in context {b}")
    return bad


def centralizer_suite(braids: Iterable[Braid], k_range: Iterable[int]) -> list[str]:
    """Conjugator round trip, commuting generators, and the power identity."""
    bad: list[str] = []
    x1 = Word([1])
    ks = list(k_range)
    for b in braids:
        w = meridian_conjugator(b)
        n = b.strands
        if w * x1 * ~w != apply_power(b, n, x1):
            bad.append(f"conjugator round trip failed for {b}")
        letters = w.letters
        if letters and abs(letters[-1]) == 1:
            bad.append(f"conjugator ends in x1 power for {b}")
        a, c = centralizer_generators(b)
        if mt_multiply(a, c, b) != mt_multiply(c, a, b):
            bad.append(f"centralizer generators do not commute for {b}")
        for k in ks:
            if not power_identity_check(b, k):
                bad.append(f"power identity failed for {b} at k={k}")
    return bad


def _in_predicted_centralizer(b: Braid, el: TorusElement) -> bool:
    """Membership of (t^n w)^k x1^l, decided by normal-form arithmetic."""
    n = b.strands
    if el.texp % n:
        return False
    k = el.texp // n
    a = TorusElement(n, meridian_conjugator(b))
    base = mt_pow(a, k, b)
    rest = ~base.tail * el.tail
    return all(abs(x) == 1 for x in rest)


def uniqueness_suite(braids: Iterable[Braid], max_len: int, budget: int) -> list[str]:
    """Exhaustive centralizer enumeration with |m| <= 2n stays inside the
    predicted (t^n w)^k x1^l family."""
    bad: list[str] = []
    for b in braids:
        found = centralizer_enumeration_oracle(b, 2 * b.strands, max_len, budget=budget)
        for el in found:
            if not _in_predicted_centralizer(b, el):
                bad.append(f"unexpected centralizer element {el} for {b}")
        if TorusElement(0, Word([1])) not in found and max_len >= 1:
            bad.append(f"enumeration missed x1 for {b}")
    return bad


def torus_knot_polynomial(k: int) -> LaurentPoly:
    """Alexander polynomial of the (2, 2k+1) torus knot: alternating sum of
    t^i for i = 0..2k."""
    return LaurentPoly({i: (-1) ** i for i in range(2 * k + 1)})


def closure_presentation_suite(max_k: int) -> list[str]:
    """Sphere-closure presentations of sigma_1^(2k+1): braid relation for
    the trefoil, Z for the unknot, torus-knot polynomials in general."""
    bad: list[str] = []
    trefoil = sphere_closure_presentation(Braid(2, (1, 1, 1)))
    relator = trefoil.relators[0]
    braid_rel = Word([2, 1, 2]) * ~Word([1, 2, 1])
    if not cyclically_equal(relator, braid_rel):
        bad.append("trefoil relator is not the braid relation")
    unknot = tietze_simplify(sphere_closure_presentation(Braid(2, (1,))))
    if len(unknot.gens) != 1 or unknot.relators:
        bad.append("sigma_1 closure did not simplify to Z")
    for k in range(0, max_k + 1):
        b = Braid(2, (1,) * (2 * k + 1))
        p = sphere_closure_presentation(b)
        ab = abelianize(p)
        if ab != {"invariant_factors": [], "free_rank": 1}:
            bad.append(f"H1 of sigma_1^{2*k+1} closure is not Z")
        if h1_class(p, p.peripheral.longitude) != 0:
            bad.append(f"longitude class nonzero for sigma_1^{2*k+1}")
        delta = alexander_polynomial(p)
        if delta != torus_knot_polynomial(k):
            bad.append(f"Alexander polynomial wrong for sigma_1^{2*k+1}: {delta}")
        if delta.eval_at_one() not in (1, -1):
            bad.append(f"Delta(1) != +-1 for sigma_1^{2*k+1}")
        if not delta.unit_equal(delta.reciprocal()):
            bad.append(f"Delta not symmetric for sigma_1^{2*k+1}")
    return bad


def cyclically_equal(a: Word, b: Word) -> bool:
    """Equality of relators up to cyclic rotation and inversion."""
    _, ca = cyclic_decompose(a)
    _, cb = cyclic_decompose(b)
    if len(ca) != len(cb):
        return False
    sa = ca._s
    for cand in (cb._s, (~cb)._s):
        if len(sa) == 0 and len(cand) == 0:
            return True
        if sa in cand + cand:
            return True
    return False


def satellite_suite(depth: int) -> list[str]:
    """Homology and Alexander oracles along a filtration over the trefoil:
    H1 = Z at every stage, longitude class 0, meridian transition =
    winding, and the exact satellite product identity for the Alexander
    polynomials."""
    bad: list[str] = []
    patterns = [Braid(2, (1, 1, 1)), Braid(3, (1, 2)), Braid(3, (1, 2, 1, 2))]
    seed = sphere_closure_presentation(Braid(2, (1, 1, 1)))
    stages = build_filtration(seed, patterns, depth, repeat=True)
    deltas = [alexander_polynomial(seed)]
    for k in range(1, len(stages)):
        p = stages[k].presentation
        ab = abelianize(p)
        if ab != {"invariant_factors": [], "free_rank": 1}:
            bad.append(f"stage {k}: H1 is not Z")
        if h1_class(p, p.peripheral.longitude) != 0:
            bad.append(f"stage {k}: longitude class nonzero")
        pattern = stages[k].braid
        n = pattern.strands
        if h1_transition(stages, k - 1) != n:
            bad.append(f"stage {k}: meridian transition != winding {n}")
        prev_names = set(stages[k - 1].presentation.gens)
        if not prev_names <= set(p.gens):
            bad.append(f"stage {k}: inclusion is not a renaming subset")
        prev_relators = set(stages[k - 1].presentation.relators)
        if not prev_relators <= set(p.relators):
            bad.append(f"stage {k}: relators are not literally included")
        delta = alexander_polynomial(p)
        pattern_delta = alexander_polynomial(sphere_closure_presentation(pattern))
        expected = pattern_delta * deltas[-1].subs_power(n)
        if delta != expected.canonical():
            bad.append(f"stage {k}: satellite Alexander identity failed")
        deltas.append(delta)
    return bad


#: frozen witnesses for the cable criterion, found by the bounded search
#: and hand-checked in exact rationals (see tests for the arithmetic)
CABLE_WITNESSES = (
    (13, 2, 2, 3, 2, 1, 0),
    (12, 2, 2, 3, 2, 1, 1),
    (14, 2, 2, 3, 2, 1, -1),
    (0, 2, 2, 3, 2, 1, 1),
)


def cable_suite(bound: int, sample_rejects: int, seed: int) -> list[str]:
    """Bounded exhaustive witness search for the cable-embedding arithmetic,
    plus rejection checks for d = 1 and gcd(t, d) = 1.

    This is the exact-rational oracle for
    :func:`~soleknot.satellite.search_cable_tight_witnesses`: the search
    decides in cleared-denominator integers, and every hit it returns is
    re-checked here in ``Fraction`` arithmetic."""
    bad: list[str] = []
    hits = search_cable_tight_witnesses(bound)
    if not hits:
        bad.append("search found no witnesses")
    for fixture in CABLE_WITNESSES:
        if all(abs(v) <= bound for v in fixture[:5]) and fixture not in hits:
            bad.append(f"search missed recorded witness {fixture}")
    for s, t, p, q, d, eps, delta in hits:
        z, w = _gcds(s, t, p, q, d, eps)
        lhs = Fraction(p * q) - Fraction(s, t)
        rhs = Fraction(-eps, d) + Fraction(delta * z * w, d * t)
        if lhs != rhs or d <= 1 or z <= 1 or abs(eps) != 1 or abs(delta) > 1:
            bad.append(f"witness fails re-verification: {(s, t, p, q, d, eps, delta)}")
    rng = random.Random(seed)
    checked = 0
    while checked < sample_rejects:
        s = rng.randint(-bound, bound)
        t = rng.randint(1, bound) * rng.choice([1, -1])
        p = rng.randint(-bound, bound)
        q = 1  # keeps (p, q) coprime
        eps = rng.choice([1, -1])
        delta = rng.choice([-1, 0, 1])
        if rng.random() < 0.5:
            d = 1
        else:
            d = rng.randint(2, bound)
            if math.gcd(t, d) != 1:
                continue
        checked += 1
        if cable_tight_criterion(s, t, p, q, d, eps, delta).satisfied:
            bad.append(f"tuple with d=1 or gcd(t,d)=1 accepted: {(s, t, p, q, d, eps, delta)}")
    return bad


def _gcds(s, t, p, q, d, eps):
    return math.gcd(t, d), math.gcd(s, d * p * q + eps)


def _random_seq(rng: random.Random) -> WindingSeq:
    pre = tuple(rng.randint(2, 50) for _ in range(rng.randint(0, 4)))
    per = tuple(rng.randint(2, 50) for _ in range(rng.randint(1, 4)))
    return WindingSeq(pre, per)


def solenoid_suite(pairs: int, seed: int) -> list[str]:
    """Classification examples plus equivalence-relation axioms, finite-edit
    invariance and period rotation on seeded random sequences."""
    bad: list[str] = []
    examples = [
        (WindingSeq((), (2,)), WindingSeq((), (4,)), True),
        (WindingSeq((), (2,)), WindingSeq((), (3,)), False),
        (WindingSeq((), (2, 3)), WindingSeq((), (6,)), True),
    ]
    for a, b, expected in examples:
        if solenoids_equivalent(a, b) != expected:
            bad.append(f"classification example failed: {a} vs {b}")
    pr = profile(WindingSeq((12,), (5,)))
    if pr.finite_map() != {2: 2, 3: 1} or pr.infinite != {5}:
        bad.append("profile of pre 12 / per 5 is wrong")
    rng = random.Random(seed)
    for _ in range(pairs):
        a, b, c = _random_seq(rng), _random_seq(rng), _random_seq(rng)
        if not solenoids_equivalent(a, a):
            bad.append(f"reflexivity failed: {a}")
        if solenoids_equivalent(a, b) != solenoids_equivalent(b, a):
            bad.append(f"symmetry failed: {a} vs {b}")
        if solenoids_equivalent(a, b) and solenoids_equivalent(b, c):
            if not solenoids_equivalent(a, c):
                bad.append(f"transitivity failed: {a}, {b}, {c}")
        # finite edits: mutate the preperiod arbitrarily
        edited = WindingSeq(
            tuple(rng.randint(2, 50) for _ in range(rng.randint(0, 5))), a.period
        )
        if not solenoids_equivalent(a, edited):
            bad.append(f"finite-edit invariance failed: {a} vs {edited}")
        # rotation of the period block
        r = rng.randrange(len(a.period))
        rotated = WindingSeq(a.preperiod, a.period[r:] + a.period[:r])
        if not solenoids_equivalent(a, rotated):
            bad.append(f"rotation invariance failed: {a} vs {rotated}")
        # multiplicativity of a preperiod extension, without factoring m:
        # m loses the infinite primes, and the finite exponents must grow by
        # prime powers (bases are prime by PrimeProfile's invariant) whose
        # product is what is left of m
        m = rng.randint(2, 50)
        extended = profile(WindingSeq(a.preperiod + (m,), a.period))
        base = profile(a)
        rest = m
        for prime in base.infinite:
            while rest % prime == 0:
                rest //= prime
        old, new = base.finite_map(), extended.finite_map()
        gains = {prime: new.get(prime, 0) - old.get(prime, 0) for prime in old.keys() | new.keys()}
        if (
            extended.infinite != base.infinite
            or min(gains.values(), default=0) < 0
            or math.prod(prime**gain for prime, gain in gains.items()) != rest
        ):
            bad.append(f"multiplicativity failed for {a} + [{m}]")
    return bad


def negative_control_suite() -> list[str]:
    """Deliberately false property; exists so the failure path of the
    verification runner can be exercised end to end."""
    b = Braid(3, (1,))
    e = artin_endo(b)
    if apply_endo(e, Word([1])) != Word([1]):
        return ["negative control tripped (as designed): sigma_1 moves x1"]
    return []


@dataclass(frozen=True)
class Scale:
    """How large each suite runs; one row of :data:`SCALES`."""

    corpus_len: int  # det_knot_corpus word length (centralizer, uniqueness)
    random_count: int  # random_knot_corpus size (centralizer)
    max_strands: int  # braid relations
    instances: int  # braid relations
    k_range: range  # power identity exponents (centralizer)
    enum_len: int  # enumeration word length (uniqueness)
    max_k: int  # torus knots sigma_1^(2k+1) (closure presentations)
    depth: int  # satellite filtration
    cable_bound: int  # cable witness box
    cable_rejects: int  # cable rejection samples
    pairs: int  # solenoid pairs


#: the suite scales; ``"full"`` is the acceptance scale
SCALES = {
    "default": Scale(4, 10, 5, 100, range(-2, 3), 4, 3, 2, 12, 50, 50),
    "full": Scale(5, 100, 6, 500, range(-3, 4), 6, 4, 3, 30, 200, 200),
}


@dataclass(frozen=True)
class Suite:
    name: str
    run: Callable[[], list[str]]


def suites(corpus: str, seed: int = 0, budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[Suite]:
    """The seven property suites at the scale ``SCALES[corpus]``.

    Uniqueness runs first, so an infeasible ``budget`` fails before the
    other suites start."""
    sc = SCALES[corpus]
    det = det_knot_corpus(sc.corpus_len)
    return [
        Suite("centralizer-uniqueness", lambda: uniqueness_suite(det, sc.enum_len, budget)),
        Suite("braid-relations", lambda: braid_relation_suite(sc.max_strands, sc.instances, seed)),
        Suite(
            "centralizer",
            lambda: centralizer_suite(det + random_knot_corpus(sc.random_count, seed), sc.k_range),
        ),
        Suite("closure-presentations", lambda: closure_presentation_suite(sc.max_k)),
        Suite("satellite-filtration", lambda: satellite_suite(sc.depth)),
        Suite("cable-criterion", lambda: cable_suite(sc.cable_bound, sc.cable_rejects, seed)),
        Suite("solenoid-classification", lambda: solenoid_suite(sc.pairs, seed)),
    ]
