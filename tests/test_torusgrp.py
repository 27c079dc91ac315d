"""Mapping-torus normal forms, the centralizer machinery, the enumeration oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from soleknot.braid import Braid, closure_info
from soleknot.errors import (
    BudgetExceeded,
    IndexOutOfRank,
    InvalidPresentation,
    NotAKnot,
    ParseError,
)
from soleknot.knotgrp import h1_class, sphere_closure_presentation
from soleknot.freegroup import Word, apply_endo, word_text
from soleknot.braid import artin_endo
from soleknot.presentations import PeripheralPair, Presentation, presentation_text
from soleknot import torusgrp
from soleknot.verify import det_knot_corpus
from soleknot.torusgrp import (
    TorusElement,
    apply_power,
    centralizer_enumeration_oracle,
    centralizer_generators,
    enumeration_size,
    meridian_conjugator,
    mt_invert,
    mt_multiply,
    mt_pow,
    parse_torus_element,
    power_identity_check,
    solid_torus_presentation,
    torus_element_text,
)

S1 = Braid(2, (1,))
S1_3 = Braid(2, (1, 1, 1))

small_words = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8
).map(Word)
elements = st.builds(TorusElement, st.integers(min_value=-4, max_value=4), small_words)


def test_mt_multiply_examples():
    assert mt_multiply(TorusElement(1, Word()), TorusElement(0, Word([1])), S1) == TorusElement(
        1, Word([1])
    )
    # defining relation: t^-1 x1 t has tail sigma_1(x1)
    conj = mt_multiply(
        mt_multiply(TorusElement(-1, Word()), TorusElement(0, Word([1])), S1),
        TorusElement(1, Word()),
        S1,
    )
    assert conj == TorusElement(0, Word([1, 2, -1]))


def test_mt_rank_validation():
    with pytest.raises(IndexOutOfRank):
        mt_multiply(TorusElement(0, Word([3])), TorusElement(0, Word()), S1)
    with pytest.raises(IndexOutOfRank):
        mt_multiply(TorusElement(0, Word()), TorusElement(0, Word([3])), S1)
    # letters n and -n fit a braid on n strands, n + 1 and -(n + 1) do not,
    # at every power including m = 0; 120 strands hold every word
    for beta in (Braid(1), S1, S1_3, Braid(119), Braid(120)):
        n = beta.strands
        for letter in (n, -n):
            w = Word([letter])
            assert apply_power(beta, 0, w) == w
            assert apply_power(beta, 2, w) == apply_power(beta, -1, apply_power(beta, 3, w))
            el = TorusElement(1, w)
            assert mt_multiply(el, el, beta).texp == 2
        if n < 120:
            for letter in (n + 1, -(n + 1)):
                w = Word([letter])
                for m in (0, 1, -1):
                    with pytest.raises(IndexOutOfRank):
                        apply_power(beta, m, w)
                for a, b in ((TorusElement(0, w), TorusElement(0, Word())),
                             (TorusElement(0, Word()), TorusElement(0, w))):
                    with pytest.raises(IndexOutOfRank):
                        mt_multiply(a, b, beta)
    # presentations and homology classes reject words past their rank
    p = sphere_closure_presentation(S1_3)
    assert h1_class(p, Word([-p.rank])) == -1
    with pytest.raises(InvalidPresentation):
        h1_class(p, Word([p.rank + 1]))
    for bad in (Word([-(p.rank + 1)]), Word([1, p.rank + 1])):
        with pytest.raises(InvalidPresentation):
            Presentation(p.gens, p.relators + (bad,))
        with pytest.raises(InvalidPresentation):
            Presentation(p.gens, p.relators, PeripheralPair(bad, p.peripheral.longitude))
    assert Presentation(p.gens, p.relators + (Word([-p.rank]),)).rank == p.rank


def test_power_identity_k_cap():
    from soleknot.errors import DomainError

    with pytest.raises(DomainError):
        power_identity_check(S1, 99)


@given(elements, elements, elements)
@settings(max_examples=100, derandomize=True)
def test_mt_group_laws(a, b, c):
    beta = Braid(3, (1, -2))
    ab_c = mt_multiply(mt_multiply(a, b, beta), c, beta)
    a_bc = mt_multiply(a, mt_multiply(b, c, beta), beta)
    assert ab_c == a_bc
    ident = TorusElement(0, Word())
    assert mt_multiply(a, ident, beta) == a
    assert mt_multiply(ident, a, beta) == a
    assert mt_multiply(a, mt_invert(a, beta), beta) == ident


@given(elements, st.integers(min_value=-3, max_value=3))
@settings(max_examples=60, derandomize=True)
def test_mt_pow_matches_iterated_multiply(a, k):
    beta = Braid(3, (2, 1))
    expected = TorusElement(0, Word())
    step = a if k >= 0 else mt_invert(a, beta)
    for _ in range(abs(k)):
        expected = mt_multiply(expected, step, beta)
    assert mt_pow(a, k, beta) == expected


def test_defining_relation_all_generators():
    for beta in [S1, S1_3, Braid(3, (1, 2)), Braid(4, (1, -2, 3))]:
        e = artin_endo(beta)
        for i in range(1, beta.strands + 1):
            lhs = mt_multiply(
                mt_multiply(TorusElement(-1, Word()), TorusElement(0, Word([i])), beta),
                TorusElement(1, Word()),
                beta,
            )
            assert lhs == TorusElement(0, e.images[i - 1])


def test_solid_torus_presentation_sigma1():
    p = solid_torus_presentation(S1)
    assert p.gens == ("x1", "x2", "t")
    assert presentation_text(p).splitlines()[1:3] == [
        "rel: T x1 t x1 X2 X1",
        "rel: T x2 t X1",
    ]
    assert p.peripheral.meridian == Word([1, 2])
    assert p.peripheral.longitude == Word([3])


def test_solid_torus_presentation_trivial_braid():
    p = solid_torus_presentation(Braid(2, ()))
    # relators collapse to commutators [t^-1 x_i t x_i^-1]
    assert p.relators == (Word([-3, 1, 3, -1]), Word([-3, 2, 3, -2]))


def test_wall_peripheral_commutes():
    for beta in [S1, S1_3, Braid(3, (1, 2)), Braid(4, (1, 2, 3))]:
        m = TorusElement(0, Word(range(1, beta.strands + 1)))
        l = TorusElement(1, Word())
        assert mt_multiply(m, l, beta) == mt_multiply(l, m, beta)


def test_meridian_conjugator_examples():
    assert meridian_conjugator(S1) == Word([1, 2])
    assert meridian_conjugator(S1_3) == Word([1, 2] * 3)
    # unknot closure of a 3-cycle braid: oracle is the recomposition identity
    b = Braid(3, (1, 2))
    w = meridian_conjugator(b)
    assert w * Word([1]) * ~w == apply_power(b, 3, Word([1]))


def test_meridian_conjugator_errors():
    with pytest.raises(NotAKnot):
        meridian_conjugator(Braid(2, (1, 1)))


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, derandomize=True)
def test_meridian_conjugator_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    b = Braid(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 6))))
    if not closure_info(b).is_knot:
        return
    w = meridian_conjugator(b)
    assert w * Word([1]) * ~w == apply_power(b, n, Word([1]))
    if w:
        assert abs(w.letters[-1]) != 1


def test_centralizer_generators_examples():
    a, b = centralizer_generators(S1)
    assert a == TorusElement(2, Word([1, 2]))
    assert b == TorusElement(0, Word([1]))
    assert mt_multiply(a, b, S1) == mt_multiply(b, a, S1)
    a3, _ = centralizer_generators(S1_3)
    assert a3 == TorusElement(2, Word([1, 2] * 3))
    with pytest.raises(NotAKnot):
        centralizer_generators(Braid(2, (1, 1)))


def test_power_identity_examples():
    assert power_identity_check(S1, 0)
    assert power_identity_check(S1, 1)
    assert power_identity_check(S1_3, -2)
    for k in range(-3, 4):
        assert power_identity_check(Braid(3, (1, 2)), k)


def test_enumeration_sigma1():
    found = centralizer_enumeration_oracle(S1, 2, 2)
    elems = set(found)
    must_have = {
        TorusElement(0, Word()),
        TorusElement(0, Word([1])),
        TorusElement(0, Word([-1])),
        TorusElement(2, Word([1, 2])),
        TorusElement(-2, Word([-2, -1])),
    }
    assert must_have <= elems
    # nothing outside the predicted family (t^2 x1x2)^k x1^l
    a = TorusElement(2, Word([1, 2]))
    for el in found:
        assert el.texp % 2 == 0
        base = mt_pow(a, el.texp // 2, S1)
        rest = ~base.tail * el.tail
        assert all(abs(x) == 1 for x in rest)


def test_enumeration_texp_one_only_x1_powers():
    found = centralizer_enumeration_oracle(S1, 1, 2)
    assert all(el.texp == 0 for el in found)
    assert all(not el.tail or {abs(x) for x in el.tail} == {1} for el in found)


def test_enumeration_trivial_bounds():
    assert centralizer_enumeration_oracle(S1, 0, 0) == [TorusElement(0, Word())]


def test_enumeration_budget():
    assert enumeration_size(2, 2, 2) == 5 * (1 + 4 + 12)
    with pytest.raises(BudgetExceeded):
        centralizer_enumeration_oracle(S1, 2, 2, budget=10)


def naive_enumeration(beta, max_texp, max_len):
    """Pairwise search: test z x1 == beta^m(x1) z for every (m, z) in the
    box, with the same length pruning and the box built from raw letter
    tuples rather than the oracle's word generator."""
    letters = [x for i in range(1, beta.strands + 1) for x in (i, -i)]
    candidates = [
        Word(raw)
        for length in range(max_len + 1)
        for raw in itertools.product(letters, repeat=length)
        if all(a != -b for a, b in zip(raw, raw[1:]))
    ]
    assert (2 * max_texp + 1) * len(candidates) == enumeration_size(
        beta.strands, max_texp, max_len
    )
    x1 = Word([1])
    found = []
    for m in range(-max_texp, max_texp + 1):
        u = apply_power(beta, m, x1)
        if len(u) > 2 * max_len + 1:
            continue
        for z in candidates:
            if z * x1 == u * z:
                found.append(TorusElement(m, z))
    found.sort(key=lambda el: (el.texp, len(el.tail), el.tail._s))
    return found


def test_enumeration_matches_naive_corpus():
    corpus = det_knot_corpus(5)
    assert len(corpus) == 210
    for b in corpus:
        assert centralizer_enumeration_oracle(b, 2 * b.strands, 4) == naive_enumeration(
            b, 2 * b.strands, 4
        ), b


def test_enumeration_matches_naive_len6_sample():
    for b in det_knot_corpus(5)[::15]:
        assert centralizer_enumeration_oracle(b, 2 * b.strands, 6) == naive_enumeration(
            b, 2 * b.strands, 6
        ), b


def test_enumeration_budget_checked_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("apply_power called before the budget check")

    monkeypatch.setattr(torusgrp, "apply_power", fail)
    with pytest.raises(BudgetExceeded):
        centralizer_enumeration_oracle(S1_3, 4, 6, budget=enumeration_size(2, 4, 6) - 1)


def test_torus_element_text_roundtrip():
    for el in [TorusElement(2, Word([1, 2])), TorusElement(0, Word()), TorusElement(-3, Word([-1]))]:
        assert parse_torus_element(torus_element_text(el)) == el
    assert torus_element_text(TorusElement(2, Word([1, 2]))) == "t^2 | x1 x2"
    with pytest.raises(ParseError):
        parse_torus_element("t2 | x1")
    with pytest.raises(ParseError):
        parse_torus_element("x1")
