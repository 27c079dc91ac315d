"""Closure presentations, homology, Fox calculus, Tietze moves, SNF."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from soleknot.braid import Braid
from soleknot.errors import NotAKnot, NotKnotLike, ParseError
from soleknot.freegroup import Word
from soleknot.knotgrp import (
    abelianize,
    alexander_polynomial,
    exponent_matrix,
    h1_class,
    sphere_closure_presentation,
    tietze_simplify,
)
from soleknot.laurent import LaurentPoly, parse_poly, poly_determinant, poly_text
from soleknot.presentations import (
    PeripheralPair,
    Presentation,
    parse_presentation,
    presentation_from_structured,
    presentation_structured,
    presentation_text,
)
from soleknot.snf import smith_normal_form
from soleknot.verify import cyclically_equal, torus_knot_polynomial

TREFOIL_BRAID = Braid(2, (1, 1, 1))


def test_trefoil_presentation():
    p = sphere_closure_presentation(TREFOIL_BRAID)
    assert p.gens == ("x1", "x2")
    assert len(p.relators) == 1
    braid_relation = Word([2, 1, 2]) * ~Word([1, 2, 1])
    assert cyclically_equal(p.relators[0], braid_relation)
    assert p.peripheral.meridian == Word([1])
    assert p.peripheral.longitude == Word([1, 2] * 3) * Word([-1]) ** 6


def test_unknot_presentation():
    p = sphere_closure_presentation(Braid(2, (1,)))
    assert abelianize(p) == {"invariant_factors": [], "free_rank": 1}
    simplified = tietze_simplify(p)
    assert len(simplified.gens) == 1 and not simplified.relators


def test_cinquefoil_longitude():
    p = sphere_closure_presentation(Braid(2, (1,) * 5))
    assert p.peripheral.longitude == Word([1, 2] * 5) * Word([-1]) ** 10


def test_not_a_knot():
    with pytest.raises(NotAKnot):
        sphere_closure_presentation(Braid(2, (1, 1)))


def test_abelianize_examples():
    trefoil = sphere_closure_presentation(TREFOIL_BRAID)
    # row sign depends on which redundant relator is dropped; the lattice
    # and its Smith form do not
    assert exponent_matrix(trefoil) == [[-1, 1]]
    assert abelianize(trefoil) == {"invariant_factors": [], "free_rank": 1}
    z3 = Presentation(("a",), (Word([1, 1, 1]),))
    assert abelianize(z3) == {"invariant_factors": [3], "free_rank": 0}
    free2 = Presentation(("a", "b"), ())
    assert abelianize(free2) == {"invariant_factors": [], "free_rank": 2}


def test_h1_class_examples():
    p = sphere_closure_presentation(TREFOIL_BRAID)
    assert h1_class(p, p.peripheral.meridian) == 1
    assert h1_class(p, p.peripheral.longitude) == 0
    assert h1_class(p, Word([2, 2])) == 2


def test_alexander_examples():
    trefoil = sphere_closure_presentation(TREFOIL_BRAID)
    # hand Fox calculus on x2 x1 x2 x1^-1 x2^-1 x1^-1 gives t - t^2 - 1,
    # i.e. t^2 - t + 1 after unit normalization
    assert alexander_polynomial(trefoil) == LaurentPoly({0: 1, 1: -1, 2: 1})
    unknot = sphere_closure_presentation(Braid(2, (1,)))
    assert alexander_polynomial(unknot) == LaurentPoly.one()
    cinq = sphere_closure_presentation(Braid(2, (1,) * 5))
    assert alexander_polynomial(cinq) == LaurentPoly({i: (-1) ** i for i in range(5)})


def test_torus_knot_family():
    for k in range(0, 5):
        p = sphere_closure_presentation(Braid(2, (1,) * (2 * k + 1)))
        delta = alexander_polynomial(p)
        assert delta == torus_knot_polynomial(k)
        assert delta.eval_at_one() in (1, -1)
        assert delta.unit_equal(delta.reciprocal())


def test_alexander_preconditions():
    with pytest.raises(NotKnotLike):
        alexander_polynomial(Presentation(("a", "b"), (Word([1, 1]), Word([2, 2]))))
    with pytest.raises(NotKnotLike):
        alexander_polynomial(Presentation(("a",), (Word([1, 1, 1]),)))


def test_tietze_examples():
    p = Presentation(("a", "b"), (Word([-2, 1]),))
    out = tietze_simplify(p)
    assert out.gens == ("a",) and not out.relators
    trefoil = sphere_closure_presentation(TREFOIL_BRAID)
    fixed = tietze_simplify(trefoil)
    assert fixed.relators == trefoil.relators
    dup = Presentation(("a", "b"), (Word([1, 2, 1, 2]), Word([1, 2, 1, 2])))
    assert len(tietze_simplify(dup).relators) == 1
    # c = b a^-1 turns the second relator into a b^-1, which then gives
    # b = a; the peripheral words follow both substitutions and renamings
    chain = Presentation(
        ("a", "b", "c"),
        (Word([3, 1, -2]), Word([1, 3, 1, -2, -2])),
        PeripheralPair(Word([3]), Word([1, 2])),
    )
    out = tietze_simplify(chain)
    assert out.gens == ("a",) and not out.relators
    assert out.peripheral == PeripheralPair(Word(), Word([1, 1]))


def test_tietze_preserves_invariants():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        length = rng.randint(1, 6)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
        b = Braid(n, word)
        from soleknot.braid import closure_info

        if not closure_info(b).is_knot:
            continue
        p = sphere_closure_presentation(b)
        q = tietze_simplify(p)
        assert abelianize(q) == abelianize(p)
        if len(q.relators) == len(q.gens) - 1:
            assert alexander_polynomial(q) == alexander_polynomial(p)


def test_knot_corpus_invariants():
    # every knot closure in the small corpus: H1 = Z, longitude class 0,
    # Delta(1) = +-1 and Delta symmetric up to units
    from soleknot.verify import det_knot_corpus

    for b in det_knot_corpus(4):
        p = sphere_closure_presentation(b)
        assert abelianize(p) == {"invariant_factors": [], "free_rank": 1}
        assert h1_class(p, p.peripheral.longitude) == 0
        delta = alexander_polynomial(p)
        assert delta.eval_at_one() in (1, -1)
        assert delta.unit_equal(delta.reciprocal())


int_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(int_matrices)
@settings(max_examples=150, derandomize=True)
def test_smith_normal_form_properties(mat):
    u, d, v = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0])
    # U * mat * V == D by explicit multiplication
    prod = [
        [sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)]
        for i in range(rows)
    ]
    prod = [
        [sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
        for i in range(rows)
    ]
    assert prod == d
    for m in (u, v):
        det = poly_determinant([[LaurentPoly({0: x}) for x in row] for row in m])
        assert det in (LaurentPoly.one(), -LaurentPoly.one())
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(cols):
            if j != i and i < rows:
                assert d[i][j] == 0 or j >= len(diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0


def test_poly_text_roundtrip():
    for p in [
        LaurentPoly({0: 1, 1: -1, 2: 1}),
        LaurentPoly.zero(),
        LaurentPoly.one(),
        LaurentPoly({-2: 3, 0: -5, 4: 1}),
        LaurentPoly({1: -7}),
    ]:
        assert parse_poly(poly_text(p)) == p
    assert poly_text(LaurentPoly({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
    with pytest.raises(ParseError):
        parse_poly("t^^2")


def test_presentation_text_roundtrip():
    p = sphere_closure_presentation(TREFOIL_BRAID)
    assert parse_presentation(presentation_text(p)) == p
    assert parse_presentation(presentation_text(p).replace("\n", ";")) == p
    assert presentation_from_structured(presentation_structured(p)) == p
    bare = Presentation(("a", "b"), (Word([1, 2]),))
    assert parse_presentation(presentation_text(bare)) == bare


def test_presentation_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("rel: a b")  # gens must come first
    with pytest.raises(ParseError):
        parse_presentation("gens: a b\nrel: a c")
    with pytest.raises(ParseError):
        parse_presentation("gens: a\nfoo: bar")
