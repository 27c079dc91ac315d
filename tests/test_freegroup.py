"""Word algebra: reduction, group laws, conjugator extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from soleknot.errors import IndexOutOfRank, ParseError, RankMismatch
from soleknot.freegroup import (
    MAX_RANK,
    FreeEndo,
    Word,
    apply_endo,
    compose,
    cyclic_decompose,
    exponent_sum,
    exponent_sums,
    fits_rank,
    identity_endo,
    parse_word,
    word_text,
)

letters = st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=40)
words = raw_words.map(Word)


def naive_reduce(raw):
    stack = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def test_reduce_examples():
    assert Word([1, -1]) == Word()
    assert Word([1, 2, -2, 1]).letters == (1, 1)
    assert Word([-2, 2, -2]).letters == (-2,)


def test_multiply_examples():
    assert Word([1, 2]) * Word([-2, 3]) == Word([1, 3])
    w = Word([1, -2, 1])
    assert w * Word() == w
    assert w * ~w == Word()


def test_invert_examples():
    assert ~Word([1, 2]) == Word([-2, -1])
    assert ~Word() == Word()
    assert ~Word([-1]) == Word([1])


@given(raw_words)
@settings(max_examples=200, derandomize=True)
def test_reduce_matches_naive_stack(raw):
    assert Word(raw).letters == naive_reduce(raw)


@given(raw_words)
@settings(derandomize=True)
def test_reduce_idempotent(raw):
    once = Word(raw)
    assert Word(once.letters) == once


@given(words, words, words)
@settings(derandomize=True)
def test_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * Word() == a and Word() * a == a
    assert a * ~a == Word() and ~a * a == Word()


@given(words)
@settings(derandomize=True)
def test_cyclic_decompose_roundtrip(w):
    prefix, core = cyclic_decompose(w)
    assert prefix * core * ~prefix == w
    if core:
        first, last = core.letters[0], core.letters[-1]
        assert first != -last


def test_cyclic_decompose_examples():
    assert cyclic_decompose(Word([2, 1, -2])) == (Word([2]), Word([1]))
    assert cyclic_decompose(Word([1])) == (Word(), Word([1]))
    assert cyclic_decompose(Word([1, 2, 1, -2, -1])) == (Word([1, 2]), Word([1]))


def letter_count(w, generator):
    """Signed count of one generator, read off the decoded letters."""
    return sum((x == generator) - (x == -generator) for x in w.letters)


def test_exponent_sum_examples():
    assert exponent_sum(Word([1, 2, -1])) == 1
    assert exponent_sum(Word([1, 2] * 3)) == 6
    assert exponent_sum(Word()) == 0
    assert exponent_sums(Word([1, 2, -1]), 2) == [0, 1]
    assert exponent_sums(Word(), 1) == [0]


@given(words, words)
@settings(derandomize=True)
def test_exponent_sum_additive(a, b):
    assert exponent_sum(a * b) == exponent_sum(a) + exponent_sum(b)
    assert exponent_sums(a * b, 6) == [
        x + y for x, y in zip(exponent_sums(a, 6), exponent_sums(b, 6))
    ]


@given(words, st.integers(min_value=0, max_value=MAX_RANK + 2))
@settings(derandomize=True)
def test_exponent_sums_match_per_generator_counts(w, rank):
    if fits_rank(w, rank):
        assert exponent_sums(w, rank) == [letter_count(w, j) for j in range(1, rank + 1)]
        assert exponent_sum(w) == sum(1 if x > 0 else -1 for x in w.letters)
    else:
        with pytest.raises(IndexOutOfRank):
            exponent_sums(w, rank)


def sigma1(n=2):
    images = [Word([k]) for k in range(1, n + 1)]
    images[0] = Word([1, 2, -1])
    images[1] = Word([1])
    return FreeEndo(n, tuple(images))


def test_apply_endo_examples():
    e = sigma1()
    assert apply_endo(e, Word([1])) == Word([1, 2, -1])
    assert apply_endo(identity_endo(3), Word([1, -3, 2])) == Word([1, -3, 2])
    assert apply_endo(e, Word([1, 2])) == Word([1, 2])


def test_apply_endo_rank_error():
    with pytest.raises(IndexOutOfRank):
        apply_endo(sigma1(), Word([3]))
    # letters n and -n fit rank n, n + 1 and -(n + 1) do not; the engine
    # has no letter above MAX_RANK, so rank 120 holds every word
    for n in (1, 2, 119, 120):
        e = identity_endo(n)
        for letter in (n, -n):
            assert apply_endo(e, Word([letter, letter])) == Word([letter, letter])
            assert FreeEndo(n, (Word([letter]),) + e.images[1:]).rank == n
        if n < MAX_RANK:
            for letter in (n + 1, -(n + 1)):
                with pytest.raises(IndexOutOfRank):
                    apply_endo(e, Word([1, letter]))
                with pytest.raises(IndexOutOfRank):
                    FreeEndo(n, (Word([letter]),) + e.images[1:])


@given(words, st.integers(min_value=-1, max_value=8))
@settings(derandomize=True)
def test_fits_rank_matches_letter_scan(w, rank):
    assert fits_rank(w, rank) == all(abs(x) <= rank for x in w.letters)


@given(words, words)
@settings(derandomize=True)
def test_apply_endo_homomorphic(a, b):
    e = identity_endo(6)
    shuffled = FreeEndo(6, (e.images[1], e.images[0]) + e.images[2:])
    assert apply_endo(shuffled, a * b) == apply_endo(shuffled, a) * apply_endo(shuffled, b)


@given(words, st.integers(min_value=-5, max_value=5))
@settings(derandomize=True)
def test_pow_matches_repeated_multiply(w, n):
    expected = Word()
    for _ in range(abs(n)):
        expected = expected * (w if n > 0 else ~w)
    assert w ** n == expected


def test_compose_examples():
    e = sigma1()
    inv = FreeEndo(2, (Word([2]), Word([-2, 1, 2])))
    assert compose(e, inv) == identity_endo(2)
    twice = compose(e, e)
    # hand-composition oracle: apply(e, apply(e, x1))
    assert twice.images[0] == apply_endo(e, apply_endo(e, Word([1])))
    assert twice.images[0] == Word([1, 2, 1, -2, -1])
    assert compose(identity_endo(2), e) == e


def test_compose_rank_mismatch():
    with pytest.raises(RankMismatch):
        compose(identity_endo(2), identity_endo(3))


def test_word_text_roundtrip_examples():
    assert parse_word("x1 x2 X1") == Word([1, 2, -1])
    assert parse_word("") == Word()
    assert word_text(Word([1, -2])) == "x1 X2"


@given(words)
@settings(derandomize=True)
def test_word_text_roundtrip(w):
    assert parse_word(word_text(w)) == w


def test_parse_word_errors():
    with pytest.raises(ParseError):
        parse_word("x1 y2")
    with pytest.raises(ParseError):
        parse_word("x0")
    with pytest.raises(ParseError):
        parse_word("x")
