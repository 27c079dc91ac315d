"""The four benchmark workloads: seeded input pools, ops, oracles, digests.

Each workload turns a seed into a pool of inputs, runs one op per input
through the engine's public functions, and checks every output with an
oracle written here, independent of the code path that produced it.

Pools are stratified: every stratum has a fixed number of members, drawn
by the seed, and the pool order interleaves the strata so that any prefix
of the pool holds them in the same proportions.  A timed run that stops
part-way through a pass therefore sees the same input mix as a whole pass.

Engine caches are cleared before every op (outside the timed region), so
an op costs the same wherever it falls in a run and a run's memory is
bounded by its largest op.

Ops call the engine through module attributes (``torusgrp.apply_power``),
so the tracer's rebinding of those attributes reaches them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

from soleknot import braid, freegroup, knotgrp, satellite, solenoid, torusgrp
from soleknot.braid import Braid
from soleknot.freegroup import Word
from soleknot.torusgrp import TorusElement

# Captured before any tracing wraps the module attributes.
_ARTIN_CACHE_CLEAR = getattr(braid.artin_endo, "cache_clear", None)
_POWER_CACHE_CLEAR = getattr(torusgrp, "clear_power_cache", None)


def reset_engine_caches() -> None:
    """Drop the per-braid caches so the next op starts cold."""
    if _ARTIN_CACHE_CLEAR is not None:
        _ARTIN_CACHE_CLEAR()
    if _POWER_CACHE_CLEAR is not None:
        _POWER_CACHE_CLEAR()


def word_bytes(w: Word) -> bytes:
    """Canonical bytes of a word: generator k as byte k, its inverse as
    byte 255 - k.  The engine stores words in exactly this form, so the
    fast path reads it directly; the fallback rebuilds it letter by letter
    if the storage ever changes, giving the same digest."""
    s = getattr(w, "_s", None)
    if isinstance(s, str):
        return s.encode("latin-1")
    return bytes(k if k > 0 else 255 + k for k in w)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()[:16]


def interleave(strata: list[list]) -> list:
    """Merge strata so every prefix holds them in proportion."""
    keyed = []
    for si, members in enumerate(strata):
        c = len(members)
        for j, item in enumerate(members):
            keyed.append(((j + 0.5) / c, si, item))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


def _random_braid(rng: random.Random, n: int, max_len: int) -> Braid:
    length = rng.randint(1, max_len)
    word = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        word.append(i if rng.random() < 0.5 else -i)
    return Braid(n, tuple(word))


def knot_braids(max_len: int) -> list[Braid]:
    """Every knot-closure braid in B2 and B3 of word length <= max_len, in
    a fixed order."""
    out = []
    for n in (2, 3):
        letters = [i for k in range(1, n) for i in (k, -k)]
        for length in range(1, max_len + 1):
            for word in itertools.product(letters, repeat=length):
                b = Braid(n, word)
                if braid.closure_info(b).is_knot:
                    out.append(b)
    return out


# --------------------------------------------------------------------------
# power-ladder


PROBE_CAP = 1 << 10


def predicted_growth(b: Braid, power: int) -> float:
    """Cheap estimate of max |beta^{+-power}(x1)|.

    Iterates the braid's automorphism (and its inverse) on x1 until the
    word passes PROBE_CAP letters, then extrapolates with the last growth
    ratio.  Exact when the word never passes the cap."""
    best = 0.0
    for e in (braid.artin_endo(b), braid.artin_endo(b.inverse())):
        w = Word([1])
        est = 1.0
        for j in range(1, power + 1):
            nxt = freegroup.apply_endo(e, w)
            if len(nxt) > PROBE_CAP:
                ratio = len(nxt) / max(len(w), 1)
                est = len(nxt) * ratio ** (power - j)
                break
            w = nxt
            est = float(len(w))
        best = max(best, est)
    return best


class PowerLadder:
    name = "power-ladder"
    # (stratum, strand counts, lowest predicted size, size limit, members)
    # Ranks get bands of their own because B4 words cost about a third of
    # B3 words per letter.  The pool holds 100 braids sorted by cost into
    # tiny (ranks 1-20), medium-b3 (21-70), medium-b4 (71-95) and large
    # (96-100): the median is the 30th of 50 medium-b3 braids and the 90th
    # percentile the 20th of 25 medium-b4 braids, so neither statistic sits
    # on the edge between two strata.  The bands are narrow enough that
    # op cost varies little inside one (B4 braids of 2^15-2^17 letters
    # cost 7-17 ms, those of 2^16.05-2^16.15 letters 10-11.5 ms), and a
    # whole pass costs about a second, so every input runs many times in
    # a run.
    STRATA = (
        ("tiny", (2, 3, 4), 0, 2 ** 10, 20),
        ("medium-b3", (3,), 2 ** 13, 2 ** 15, 50),
        ("medium-b4", (4,), 2 ** 16.05, 2 ** 16.15, 25),
        ("large-b4", (4,), 2 ** 19.75, 2 ** 20.25, 5),
    )
    MAX_LEN = 8
    K_RANGE = range(-3, 4)
    WARMUP = Braid(3, (1, 2))

    def generate(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        strata = []
        for name, ranks, lo, hi, count in self.STRATA:
            members: list[Braid] = []
            while len(members) < count:
                b = _random_braid(rng, rng.choice(ranks), self.MAX_LEN)
                if not braid.closure_info(b).is_knot:
                    continue
                if lo <= predicted_growth(b, 3 * b.strands) < hi:
                    members.append(b)
            strata.append(members)
        return interleave(strata)

    def run(self, b: Braid):
        n = b.strands
        x1 = Word([1])
        w = torusgrp.meridian_conjugator(b)
        round_trip = w * x1 * ~w == torusgrp.apply_power(b, n, x1)
        a, c = TorusElement(n, w), TorusElement(0, x1)
        commute = torusgrp.mt_multiply(a, c, b) == torusgrp.mt_multiply(c, a, b)
        powers = tuple(torusgrp.power_identity_check(b, k) for k in self.K_RANGE)
        return w, round_trip, commute, powers

    def digest(self, out) -> str:
        w, round_trip, commute, powers = out
        flags = bytes([round_trip, commute, *powers])
        return _digest(word_bytes(w), flags)

    def check(self, b: Braid, out) -> list[str]:
        w, round_trip, commute, powers = out
        bad = []
        if not round_trip:
            bad.append("w x1 w^-1 != beta^n(x1)")
        if not commute:
            bad.append("(t^n w, x1) do not commute")
        for k, ok in zip(self.K_RANGE, powers):
            if not ok:
                bad.append(f"power identity failed at k={k}")
        wb = word_bytes(w)
        if wb and wb[-1] in (1, 254):
            bad.append("conjugator ends in a power of x1")
        return bad

    def label(self, b: Braid) -> str:
        return braid.braid_text(b)


# --------------------------------------------------------------------------
# enumeration


class Enumeration:
    name = "enumeration"
    MAX_LEN = 4
    CORPUS_LEN = 5
    WARMUP = Braid(2, (1, 1, 1))

    def generate(self, seed: int) -> list:
        """All 42 B2 and 168 B3 braids of the corpus; the seed only orders
        them.  B3 op costs spread from 5 to 30 ms, so a seeded subset would
        let the seed move the median by 10%."""
        rng = random.Random(f"{self.name}:{seed}")
        corpus = knot_braids(self.CORPUS_LEN)
        strata = [[b for b in corpus if b.strands == n] for n in (2, 3)]
        for members in strata:
            rng.shuffle(members)
        return interleave(strata)

    def run(self, b: Braid):
        return torusgrp.centralizer_enumeration_oracle(b, 2 * b.strands, self.MAX_LEN)

    def digest(self, out) -> str:
        parts = []
        for el in out:
            parts.append(el.texp.to_bytes(8, "little", signed=True))
            parts.append(word_bytes(el.tail))
        return _digest(*parts)

    def check(self, b: Braid, out) -> list[str]:
        x1 = TorusElement(0, Word([1]))
        bad = []
        for el in out:
            if abs(el.texp) > 2 * b.strands or len(el.tail) > self.MAX_LEN:
                bad.append(f"element outside the box: t^{el.texp} | {el.tail}")
            elif torusgrp.mt_multiply(el, x1, b) != torusgrp.mt_multiply(x1, el, b):
                bad.append(f"element does not commute with x1: t^{el.texp} | {el.tail}")
        if x1 not in out:
            bad.append("x1 missing from the enumeration")
        if len(set(out)) != len(out):
            bad.append("duplicate elements")
        return bad

    def label(self, b: Braid) -> str:
        return braid.braid_text(b)


# --------------------------------------------------------------------------
# satellite-tower


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _poly_canonical(p: dict) -> dict:
    if not p:
        return p
    lo = min(p)
    sign = 1 if p[max(p)] > 0 else -1
    return {e - lo: sign * v for e, v in p.items()}


def _primes(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


class SatelliteTower:
    name = "satellite-tower"
    COMPANION = "2: s1 s1 s1"
    COMPANION_DELTA = {0: 1, 1: -1, 2: 1}
    # towers per depth, 100 in all: the median input is the 10th of 30
    # depth-3 towers and the 90th percentile the 20th of 25 depth-4 towers
    DEPTHS = {1: 20, 2: 20, 3: 30, 4: 25, 5: 5}
    PATTERN_LEN = 4
    WARMUP = ((Braid(2, (1,)), Braid(3, (1, 1, 1, 2))), 2)

    def generate(self, seed: int) -> list:
        """Each tower cycles a B2 pattern whose closure is unknotted and a
        B3 pattern whose closure is knotted.  Op cost depends mostly on the
        patterns' Alexander polynomials (a tower of unknotted patterns is
        several times cheaper), so fixing the kinds keeps the cost of a
        depth stratum narrow while the seed picks the braids."""
        rng = random.Random(f"{self.name}:{seed}")
        corpus = knot_braids(self.PATTERN_LEN)
        # kept for the product identity check
        self.pattern_delta = {
            b: knotgrp.alexander_polynomial(knotgrp.sphere_closure_presentation(b)).coeffs()
            for b in corpus
        }
        unknotted_b2 = [b for b in corpus if b.strands == 2 and self.pattern_delta[b] == {0: 1}]
        knotted_b3 = [b for b in corpus if b.strands == 3 and self.pattern_delta[b] != {0: 1}]
        strata = []
        for depth, count in self.DEPTHS.items():
            strata.append([((rng.choice(unknotted_b2), rng.choice(knotted_b3)), depth)
                           for _ in range(count)])
        return interleave(strata)

    def run(self, inp):
        patterns, depth = inp
        seed = knotgrp.sphere_closure_presentation(braid.parse_braid(self.COMPANION))
        stages = satellite.build_filtration(seed, list(patterns), depth, repeat=True)
        deltas, homology, longitudes = [], [], []
        for st in stages:
            p = st.presentation
            deltas.append(knotgrp.alexander_polynomial(p).coeffs())
            homology.append(knotgrp.abelianize(p))
            longitudes.append(knotgrp.h1_class(p, p.peripheral.longitude))
        transitions = [satellite.h1_transition(stages, k) for k in range(depth)]
        windings = tuple(stages[k].braid.strands for k in range(1, depth + 1))
        period = tuple(b.strands for b in patterns)
        prof = solenoid.profile(solenoid.WindingSeq(windings, period))
        return deltas, homology, longitudes, transitions, windings, prof

    def digest(self, out) -> str:
        deltas, homology, longitudes, transitions, windings, prof = out
        text = repr((
            [sorted(d.items()) for d in deltas],
            [(h["free_rank"], h["invariant_factors"]) for h in homology],
            longitudes, transitions, windings,
            prof.finite, sorted(prof.infinite),
        ))
        return _digest(text.encode())

    def check(self, inp, out) -> list[str]:
        patterns, depth = inp
        deltas, homology, longitudes, transitions, windings, prof = out
        bad = []
        if len(deltas) != depth + 1:
            return [f"{len(deltas)} stages for depth {depth}"]
        if deltas[0] != self.COMPANION_DELTA:
            bad.append("companion Alexander polynomial is wrong")
        for k in range(depth + 1):
            if homology[k] != {"invariant_factors": [], "free_rank": 1}:
                bad.append(f"stage {k}: H1 is not Z")
            if longitudes[k] != 0:
                bad.append(f"stage {k}: longitude class {longitudes[k]}")
        for k in range(1, depth + 1):
            pattern = patterns[(k - 1) % len(patterns)]
            n = pattern.strands
            if windings[k - 1] != n or transitions[k - 1] != n:
                bad.append(f"stage {k}: meridian transition != winding {n}")
            prev = {e * n: v for e, v in deltas[k - 1].items()}
            expected = _poly_canonical(_poly_mul(self.pattern_delta[pattern], prev))
            if deltas[k] != expected:
                bad.append(f"stage {k}: Alexander product identity failed")
        infinite = set().union(*(_primes(b.strands) for b in patterns))
        finite: dict[int, int] = {}
        for n in windings:
            for p in _primes(n) - infinite:
                m = n
                while m % p == 0:
                    m //= p
                    finite[p] = finite.get(p, 0) + 1
        if set(prof.infinite) != infinite or dict(prof.finite) != finite:
            bad.append("solenoid profile is wrong")
        return bad

    def label(self, inp) -> str:
        patterns, depth = inp
        pats = " / ".join(braid.braid_text(b) for b in patterns)
        return f"{self.COMPANION} <- [{pats}] depth {depth}"


# --------------------------------------------------------------------------
# cable-search

#: witnesses recorded for the cable criterion (the repository's fixtures),
#: each must be found by a search whose box contains it
CABLE_WITNESSES = (
    (13, 2, 2, 3, 2, 1, 0),
    (12, 2, 2, 3, 2, 1, 1),
    (14, 2, 2, 3, 2, 1, -1),
    (0, 2, 2, 3, 2, 1, 1),
)


def _coprime_q(rng: random.Random, p: int, bound: int) -> int:
    while True:
        q = rng.randint(-bound, bound)
        if math.gcd(p, q) == 1:
            return q


class CableSearch:
    name = "cable-search"
    # searches per bound, 100 in all: the median input is the 10th of 25
    # searches with bound 4 and the 90th percentile the 25th of 35 with
    # bound 5
    BOUNDS = {2: 15, 3: 25, 4: 25, 5: 35}
    REJECTS = 40
    WARMUP = (2, ())

    def generate(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        strata = []
        for bound, count in self.BOUNDS.items():
            members = []
            for _ in range(count):
                members.append((bound, tuple(self._reject(rng, bound) for _ in range(self.REJECTS))))
            strata.append(members)
        return interleave(strata)

    @staticmethod
    def _reject(rng: random.Random, bound: int) -> tuple:
        while True:
            t = rng.randint(1, bound) * rng.choice((1, -1))
            d = 1 if rng.random() < 0.5 else rng.randint(2, bound)
            if d == 1 or math.gcd(t, d) == 1:
                break
        s = rng.randint(-bound, bound)
        p = rng.randint(-bound, bound)
        q = _coprime_q(rng, p, bound)
        return (s, t, p, q, d, rng.choice((1, -1)), rng.choice((-1, 0, 1)))

    def run(self, inp):
        bound, rejects = inp
        hits = satellite.search_cable_tight_witnesses(bound)
        accepted = tuple(satellite.cable_tight_criterion(*r).satisfied for r in rejects)
        return hits, accepted

    def digest(self, out) -> str:
        hits, accepted = out
        return _digest(repr(hits).encode(), bytes(accepted))

    def check(self, inp, out) -> list[str]:
        bound, rejects = inp
        hits, accepted = out
        bad = []
        if not hits:
            bad.append("search found no witnesses")
        if hits != sorted(set(hits)):
            bad.append("hits are not sorted and distinct")
        for fixture in CABLE_WITNESSES:
            if all(abs(v) <= bound for v in fixture[:5]) and fixture not in hits:
                bad.append(f"missed recorded witness {fixture}")
        for h in hits:
            s, t, p, q, d, eps, delta = h
            if max(abs(s), abs(t), abs(p), abs(q), abs(d)) > bound:
                bad.append(f"witness outside the box: {h}")
                continue
            z, w = math.gcd(t, d), math.gcd(s, d * p * q + eps)
            lhs = Fraction(p * q) - Fraction(s, t)
            rhs = Fraction(-eps, d) + Fraction(delta * z * w, d * t)
            if lhs != rhs or d <= 1 or z <= 1 or abs(eps) != 1 or abs(delta) > 1:
                bad.append(f"witness fails re-verification: {h}")
        for r, ok in zip(rejects, accepted):
            if ok:
                bad.append(f"tuple with d=1 or gcd(t,d)=1 accepted: {r}")
        return bad

    def label(self, inp) -> str:
        return f"bound {inp[0]}"


WORKLOADS = {w.name: w for w in (PowerLadder(), Enumeration(), SatelliteTower(), CableSearch())}
