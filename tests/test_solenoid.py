"""Winding-sequence profiles and the homeomorphism classification."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from soleknot.errors import DomainError, EntryTooLarge, EntryTooSmall, InvalidProfile, ParseError
from soleknot.solenoid import (
    PrimeProfile,
    WindingSeq,
    parse_profile,
    parse_winding_seq,
    profile,
    profile_text,
    solenoids_equivalent,
    winding_seq_text,
)

entries = st.integers(min_value=2, max_value=60)
seqs = st.builds(
    WindingSeq,
    st.lists(entries, max_size=4).map(tuple),
    st.lists(entries, min_size=1, max_size=4).map(tuple),
)


def test_profile_examples():
    assert profile(WindingSeq((), (2,))).infinite == {2}
    pr = profile(WindingSeq((12,), (5,)))
    assert pr.finite_map() == {2: 2, 3: 1} and pr.infinite == {5}
    pr2 = profile(WindingSeq((2,), (3,)))
    assert pr2.finite_map() == {2: 1} and pr2.infinite == {3}


def test_profile_rejects_bad_entries():
    with pytest.raises(EntryTooSmall):
        profile(WindingSeq((), (1,)))
    with pytest.raises(EntryTooLarge):
        profile(WindingSeq((10**7,), (2,)))


def test_equivalence_examples():
    assert solenoids_equivalent(WindingSeq((), (2,)), WindingSeq((), (4,)))
    assert not solenoids_equivalent(WindingSeq((), (2,)), WindingSeq((), (3,)))
    assert solenoids_equivalent(WindingSeq((), (2, 3)), WindingSeq((), (6,)))


def test_validate_examples():
    with pytest.raises(EntryTooSmall) as info:
        WindingSeq((), (1,))
    assert str(info.value) == "EntryTooSmall at period 0"
    with pytest.raises(EntryTooSmall) as info:
        WindingSeq((0,), (2, 1))
    assert str(info.value) == "EntryTooSmall at preperiod 0; EntryTooSmall at period 1"
    assert WindingSeq((2,), (3,)).period == (3,)
    with pytest.raises(DomainError, match="empty period"):
        WindingSeq((), ())
    with pytest.raises(DomainError, match="empty period"):
        WindingSeq((1,), ())


@given(seqs, seqs, seqs)
@settings(max_examples=120, derandomize=True)
def test_equivalence_relation(a, b, c):
    assert solenoids_equivalent(a, a)
    assert solenoids_equivalent(a, b) == solenoids_equivalent(b, a)
    if solenoids_equivalent(a, b) and solenoids_equivalent(b, c):
        assert solenoids_equivalent(a, c)


@given(seqs, st.lists(entries, max_size=5))
@settings(max_examples=120, derandomize=True)
def test_finite_edits_preserve_class(a, new_pre):
    edited = WindingSeq(tuple(new_pre), a.period)
    assert solenoids_equivalent(a, edited)


@given(seqs, st.integers(min_value=0, max_value=3))
@settings(max_examples=120, derandomize=True)
def test_period_rotation_preserves_class(a, r):
    r %= len(a.period)
    rotated = WindingSeq(a.preperiod, a.period[r:] + a.period[:r])
    assert solenoids_equivalent(a, rotated)


@given(seqs, entries)
@settings(max_examples=120, derandomize=True)
def test_profile_multiplicative_on_preperiod(a, m):
    base = profile(a)
    extended = profile(WindingSeq(a.preperiod + (m,), a.period))
    factors = {}
    x = m
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    expect = dict(base.finite)
    for prime, e in factors.items():
        if prime not in base.infinite:
            expect[prime] = expect.get(prime, 0) + e
    assert extended.finite_map() == expect
    assert extended.infinite == base.infinite


def primes_divide(a: int, b: int) -> bool:
    """Every prime of a divides b, decided by gcds alone: dividing a by
    gcd(a, b) strips a factor of each shared prime, so a reaches 1 exactly
    when no prime of a is missing from b."""
    while a > 1:
        g = math.gcd(a, b)
        if g == 1:
            return False
        a //= g
    return True


def gcd_equivalent(a: WindingSeq, b: WindingSeq) -> bool:
    """The classification without factoring: the two period products must
    have the same prime divisors."""
    pa, pb = math.prod(a.period), math.prod(b.period)
    return primes_divide(pa, pb) and primes_divide(pb, pa)


# entries up to the factorization bound, so that leftover prime cofactors
# above the trial-division range show up
large_entries = st.one_of(entries, st.integers(min_value=2, max_value=10**6))


@given(seqs, seqs)
@settings(max_examples=150, derandomize=True)
def test_equivalence_matches_gcd_oracle(a, b):
    assert solenoids_equivalent(a, b) == gcd_equivalent(a, b)


@given(seqs, large_entries, st.booleans())
@settings(max_examples=300, derandomize=True)
def test_gcd_oracle_on_one_extra_period_entry(a, extra, first):
    # one added entry is equivalent exactly when its primes already divide
    # the period, so both verdicts come up often
    period = (extra,) + a.period if first else a.period + (extra,)
    b = WindingSeq(a.preperiod, period)
    assert solenoids_equivalent(a, b) == gcd_equivalent(a, b)
    assert gcd_equivalent(a, b) == primes_divide(extra, math.prod(a.period))


def test_sequence_text_roundtrip():
    for text in ["pre: 12 5 | per: 2 3", "pre: | per: 2"]:
        seq = parse_winding_seq(text)
        assert winding_seq_text(seq) == text
        assert parse_winding_seq(winding_seq_text(seq)) == seq
    with pytest.raises(ParseError):
        parse_winding_seq("per: 2")
    with pytest.raises(ParseError):
        parse_winding_seq("pre: 2 per: 3")
    with pytest.raises(ParseError):
        parse_winding_seq("pre: x | per: 2")


def test_profile_text_roundtrip():
    pr = profile(WindingSeq((12,), (5,)))
    assert profile_text(pr) == "2^2 3 5^inf"
    assert parse_profile(profile_text(pr)) == pr
    empty = profile(WindingSeq((), (2,)))
    assert parse_profile(profile_text(empty)) == empty
    for text in ["1", "2", "2^inf", "2^2 3 5^inf", "2^inf 3^inf", "3 7^4 11^inf 13", "999983^inf"]:
        assert profile_text(parse_profile(text)) == text


@given(seqs)
@settings(max_examples=120, derandomize=True)
def test_profile_value_roundtrip(a):
    pr = profile(a)
    assert parse_profile(profile_text(pr)) == pr


def test_profile_rejects_broken_invariant():
    # 4 is not prime, and 2 would land in both parts
    for text in ["4 2^inf 2", "4", "2^inf 2", "3^2 3^inf", "1^inf", "0", "9^inf"]:
        with pytest.raises(InvalidProfile):
            parse_profile(text)
    with pytest.raises(InvalidProfile):
        PrimeProfile(((2, 1),), frozenset({2}))
    with pytest.raises(InvalidProfile):
        PrimeProfile(((6, 1),), frozenset())
    # one spelling per profile: exponents >= 1, bases strictly increasing
    for text in ["2^0", "3 2^0", "5^0 7^inf"]:
        with pytest.raises(InvalidProfile):
            parse_profile(text)
    for finite in [((2, 1), (2, 1)), ((3, 1), (2, 1)), ((2, -1),), ((2, 0),)]:
        with pytest.raises(InvalidProfile):
            PrimeProfile(finite, frozenset())
    # Carmichael number and a strong pseudoprime to the bases 2, 3, 5, 7
    for composite in [561, 3215031751]:
        with pytest.raises(InvalidProfile):
            PrimeProfile((), frozenset({composite}))
    with pytest.raises(EntryTooLarge):
        parse_profile(f"{10**30 + 57}^inf")
