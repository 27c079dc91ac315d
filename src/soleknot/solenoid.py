"""Classification of solenoids from their winding sequences.

An inverse limit of circles with degree-n_i covering maps (every n_i > 1)
is determined, as a topological space, by the formal product of the n_i:
a supernatural number assigning each prime an exponent in N union {inf}.
Two sequences give homeomorphic limits exactly when one can delete
finitely many entries from each to make the products match.

Only eventually periodic sequences are representable here (a finite
preperiod plus a repeating block).  That keeps equivalence decidable and
covers the constant and mixed examples in the literature.  For such
sequences the finite-deletion test collapses to comparing the infinite
parts alone:

* a prime dividing a period entry recurs forever, so its exponent is
  infinite and no finite deletion can change that;
* all other prime contributions come from the finite preperiod, and
  deleting the whole preperiod removes them.

Hence two eventually periodic sequences are equivalent iff the same set of
primes divides their period blocks.

Sequence text syntax: ``pre: 12 5 | per: 2 3`` (preperiod before the bar,
period after; preperiod may be empty).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, EntryTooLarge, EntryTooSmall, InvalidProfile, ParseError

__all__ = [
    "DEFAULT_FACTOR_BOUND",
    "WindingSeq",
    "PrimeProfile",
    "profile",
    "solenoids_equivalent",
    "parse_winding_seq",
    "winding_seq_text",
    "profile_text",
    "parse_profile",
]

DEFAULT_FACTOR_BOUND = 10**6


@dataclass(frozen=True)
class WindingSeq:
    """Eventually periodic winding sequence n_1, n_2, ...; the period block
    repeats forever after the preperiod.  The period is nonempty and every
    entry is at least 2."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise DomainError("empty period: a winding sequence repeats at least one entry")
        small = [
            f"EntryTooSmall at {kind} {i}"
            for kind, entries in (("preperiod", self.preperiod), ("period", self.period))
            for i, n in enumerate(entries)
            if n < 2
        ]
        if small:
            raise EntryTooSmall("; ".join(small))


@dataclass(frozen=True)
class PrimeProfile:
    """Supernatural number: finite prime exponents plus the set of primes
    with infinite exponent.  The two parts are disjoint, and the finite
    part lists strictly increasing bases with exponents >= 1, so every
    supernatural number has exactly one value."""

    finite: tuple[tuple[int, int], ...]
    infinite: frozenset[int]

    def __post_init__(self):
        for i, (p, e) in enumerate(self.finite):
            if e < 1:
                raise InvalidProfile(f"profile exponent {p}^{e} is below 1")
            if i and p <= self.finite[i - 1][0]:
                raise InvalidProfile(f"profile bases are not strictly increasing at {p}")
        for p in (*(p for p, _ in self.finite), *self.infinite):
            if not _is_prime(p):
                raise InvalidProfile(f"profile base {p} is not prime")
        both = self.infinite.intersection(p for p, _ in self.finite)
        if both:
            raise InvalidProfile(
                f"prime {min(both)} has both a finite and an infinite exponent"
            )

    def finite_map(self) -> dict[int, int]:
        return dict(self.finite)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is exact below this limit
# (Sorenson and Webster, 2015).
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality in time polynomial in the digit count; bases beyond
    the deterministic Miller-Rabin range raise EntryTooLarge."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise EntryTooLarge(f"profile base {n} exceeds the primality-test range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> dict[int, int]:
    if n > DEFAULT_FACTOR_BOUND:
        raise EntryTooLarge(f"entry {n} exceeds factorization bound {DEFAULT_FACTOR_BOUND}")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def profile(seq: WindingSeq) -> PrimeProfile:
    """Supernatural number of the sequence: a prime has infinite exponent
    iff it divides some period entry; otherwise its exponent is its total
    multiplicity across the preperiod."""
    infinite: set[int] = set()
    for n in seq.period:
        infinite.update(_factor(n))
    finite: dict[int, int] = {}
    for n in seq.preperiod:
        for p, e in _factor(n).items():
            if p not in infinite:
                finite[p] = finite.get(p, 0) + e
    return PrimeProfile(tuple(sorted(finite.items())), frozenset(infinite))


def solenoids_equivalent(a: WindingSeq, b: WindingSeq) -> bool:
    """Homeomorphism test for the two inverse limits (see module docs for
    why this reduces to equality of the infinite prime sets)."""
    return profile(a).infinite == profile(b).infinite


def parse_winding_seq(text: str) -> WindingSeq:
    toks = text.split()
    if not toks or toks[0] != "pre:":
        raise ParseError("expected 'pre: ... | per: ...'", position=0)
    try:
        bar = toks.index("|")
    except ValueError:
        raise ParseError("missing '|' separator", position=0) from None
    if bar + 1 >= len(toks) or toks[bar + 1] != "per:":
        raise ParseError("expected 'per:' after '|'", position=bar)
    def ints(parts: list[str], where: str) -> tuple[int, ...]:
        vals = []
        for tok in parts:
            try:
                vals.append(int(tok))
            except ValueError:
                raise ParseError(f"bad {where} entry {tok!r}", position=0) from None
        return tuple(vals)
    return WindingSeq(ints(toks[1:bar], "preperiod"), ints(toks[bar + 2:], "period"))


def winding_seq_text(seq: WindingSeq) -> str:
    toks = ["pre:", *map(str, seq.preperiod), "|", "per:", *map(str, seq.period)]
    return " ".join(toks)


def profile_text(pr: PrimeProfile) -> str:
    """Compact factor listing, e.g. ``2^2 3 5^inf``; the empty profile is 1."""
    parts = []
    entries = dict(pr.finite)
    for p in sorted(set(entries) | pr.infinite):
        if p in pr.infinite:
            parts.append(f"{p}^inf")
        elif entries[p] == 1:
            parts.append(str(p))
        else:
            parts.append(f"{p}^{entries[p]}")
    return " ".join(parts) if parts else "1"


def parse_profile(text: str) -> PrimeProfile:
    s = text.strip()
    if s == "1":
        return PrimeProfile((), frozenset())
    finite: dict[int, int] = {}
    infinite: set[int] = set()
    for tok in s.split():
        base, caret, exp = tok.partition("^")
        if not base.isdigit():
            raise ParseError(f"bad profile factor {tok!r}", position=0)
        p = int(base)
        if not caret:
            finite[p] = finite.get(p, 0) + 1
        elif exp == "inf":
            infinite.add(p)
        elif exp.isdigit():
            finite[p] = finite.get(p, 0) + int(exp)
        else:
            raise ParseError(f"bad profile exponent {tok!r}", position=0)
    return PrimeProfile(tuple(sorted(finite.items())), frozenset(infinite))
