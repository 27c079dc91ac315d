"""Braids: parsing, the Artin action, permutations, closure data."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from soleknot.braid import (
    Braid,
    Permutation,
    artin_endo,
    braid_text,
    closure_info,
    induced_permutation,
    parse_braid,
)
from soleknot.errors import ParseError, StrandsOutOfRange
from soleknot.freegroup import Word, apply_endo, cyclic_decompose, identity_endo


def permutation_from_cores(b: Braid) -> Permutation:
    """Independent route to the strand permutation, via endomorphism cores."""
    images = []
    for img in artin_endo(b).images:
        _, core = cyclic_decompose(img)
        assert len(core) == 1 and core.letters[0] > 0, f"image core {core}"
        images.append(core.letters[0])
    return Permutation(tuple(images))


@st.composite
def braids(draw, max_strands=8, max_len=10):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    length = draw(st.integers(min_value=0, max_value=max_len))
    word = tuple(
        draw(st.integers(min_value=1, max_value=n - 1)) * draw(st.sampled_from([1, -1]))
        for _ in range(length)
    )
    return Braid(n, word)


def test_parse_examples():
    assert parse_braid("2: s1 s1 s1") == Braid(2, (1, 1, 1))
    assert parse_braid("3: s1 S2") == Braid(3, (1, -2))
    with pytest.raises(StrandsOutOfRange):
        parse_braid("2: s2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_braid("3: s1 q2")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_braid("x: s1")
    with pytest.raises(ParseError):
        parse_braid("3 s1")


@given(braids())
@settings(derandomize=True)
def test_text_roundtrip(b):
    assert parse_braid(braid_text(b)) == b


def test_artin_convention():
    e = artin_endo(Braid(2, (1,)))
    assert e.images == (Word([1, 2, -1]), Word([1]))
    assert artin_endo(Braid(3, ())) == identity_endo(3)
    # triple composition, cross-checked by iterated application
    e3 = artin_endo(Braid(2, (1, 1, 1)))
    x2 = Word([2])
    expected = x2
    for _ in range(3):
        expected = apply_endo(artin_endo(Braid(2, (1,))), expected)
    assert e3.images[1] == expected == Word([1, 2, 1, -2, -1])


@given(braids(max_strands=8, max_len=6))
@settings(max_examples=150, derandomize=True)
def test_braid_relations(b):
    n = b.strands
    for i in range(1, n - 1):
        lhs = artin_endo(b * Braid(n, (i, i + 1, i)))
        rhs = artin_endo(b * Braid(n, (i + 1, i, i + 1)))
        assert lhs == rhs
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert artin_endo(Braid(n, (i, j))) == artin_endo(Braid(n, (j, i)))


@given(braids())
@settings(max_examples=150, derandomize=True)
def test_inverse_collapse(b):
    assert artin_endo(b * b.inverse()) == identity_endo(b.strands)


@given(braids())
@settings(max_examples=150, derandomize=True)
def test_product_invariance_and_conjugate_cores(b):
    e = artin_endo(b)
    product = Word(range(1, b.strands + 1))
    assert apply_endo(e, product) == product
    for img in e.images:
        _, core = cyclic_decompose(img)
        assert len(core) == 1 and core.letters[0] > 0


def test_induced_permutation_examples():
    assert induced_permutation(Braid(2, (1,))).mapping == (2, 1)
    assert induced_permutation(Braid(2, (1, 1))) == Permutation((1, 2))
    perm = induced_permutation(Braid(3, (1, 2)))
    assert len(perm.cycles()) == 1  # 3-cycle


@given(braids(max_len=6))
@settings(max_examples=100, derandomize=True)
def test_permutation_matches_core_extraction(b):
    assert induced_permutation(b) == permutation_from_cores(b)


@given(braids(), braids())
@settings(max_examples=100, derandomize=True)
def test_permutation_homomorphism(b1, b2):
    if b1.strands != b2.strands:
        b2 = Braid(b1.strands, tuple(x for x in b2.word if abs(x) < b1.strands))
    lhs = induced_permutation(b1 * b2)
    # first b1's permutation, then b2's
    p1, p2 = induced_permutation(b1), induced_permutation(b2)
    assert lhs.mapping == tuple(p2(v) for v in p1.mapping)


def test_closure_examples():
    info = closure_info(Braid(2, (1, 1, 1)))
    assert (info.components, info.winding, info.exponent_sum, info.is_knot) == (1, 2, 3, True)
    assert closure_info(Braid(2, (1, 1))).components == 2
    empty = closure_info(Braid(3, ()))
    assert (empty.components, empty.winding, empty.exponent_sum, empty.is_knot) == (3, 3, 0, False)


@given(braids(max_len=6), braids(max_len=4))
@settings(max_examples=100, derandomize=True)
def test_components_conjugation_invariant(b, g):
    if g.strands != b.strands:
        g = Braid(b.strands, tuple(x for x in g.word if abs(x) < b.strands))
    conj = g * b * g.inverse()
    assert closure_info(conj).components == closure_info(b).components
