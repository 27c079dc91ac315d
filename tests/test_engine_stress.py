"""Large-word engine paths checked against naive letter-stack oracles.

The public property tests use short words, which never leave the
small-word code paths; these tests force the C-level routes (pair-deletion
reduce, deep seam search, block folding) and demand exact agreement with a
plain Python stack.
"""

import random

from soleknot.braid import Braid, artin_endo
from soleknot.freegroup import FreeEndo, Word, apply_endo
from soleknot.torusgrp import apply_power


def naive_reduce(raw):
    stack = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def test_large_reduce_matches_stack():
    rng = random.Random(11)
    for trial in range(30):
        n = rng.randint(600, 4000)
        # bias toward cancellation so the replace loop actually iterates
        raw = []
        for _ in range(n):
            if raw and rng.random() < 0.45:
                raw.append(-raw[-1] if rng.random() < 0.8 else -raw[rng.randrange(len(raw))])
            else:
                raw.append(rng.choice([1, -1, 2, -2, 3, -3]))
        assert Word(raw).letters == naive_reduce(raw)


def test_full_annihilation_large():
    rng = random.Random(5)
    half = [rng.choice([1, -1, 2, -2]) for _ in range(3000)]
    raw = half + [-x for x in reversed(half)]
    assert Word(raw) == Word()


def test_nested_cancellation_reduce():
    # (x1 x2)^k (X2 X1)^k cancels from the middle out, a few pairs per
    # pair-deletion pass; 64k letters
    k = 16000
    raw = [1, 2] * k + [-2, -1] * k
    assert Word(raw) == Word()
    raw = [1, 2] * k + [3, -3] + [-2, -1] * (k - 3) + [3]
    assert Word(raw).letters == naive_reduce(raw)


def test_deep_seam_multiply():
    rng = random.Random(3)
    for _ in range(20):
        shared = Word([rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(500, 3000))])
        left = Word([rng.choice([1, 2, 3]) for _ in range(rng.randint(0, 50))])
        right = Word([rng.choice([1, 2, 3]) for _ in range(rng.randint(0, 50))])
        a = left * shared
        b = ~shared * right
        assert (a * b).letters == naive_reduce(list(a.letters) + list(b.letters))


def test_apply_endo_paths_agree():
    # small images + long word exercises the translate route; the oracle
    # substitutes letter by letter through a Python stack
    e = artin_endo(Braid(4, (1, -2, 3)))
    rng = random.Random(9)
    w = Word([rng.choice([1, -1, 2, -2, 3, -3, 4, -4]) for _ in range(4000)])
    raw = []
    table = {i: list(img.letters) for i, img in enumerate(e.images, start=1)}
    for x in w.letters:
        img = table[abs(x)]
        raw.extend(img if x > 0 else [-y for y in reversed(img)])
    assert apply_endo(e, w).letters == naive_reduce(raw)


def test_power_application_consistent_with_stepping():
    # the bit-doubled ladder against one-step iteration of artin_endo, for
    # both signs of m and for words other than x1; the oracle never runs
    # the ladder
    cases = [
        (Braid(3, (1, -2)), 9),
        (Braid(3, (1, -2, 1, -2)), 6),
        (Braid(2, (1, 1, 1)), 9),
        (Braid(4, (1, 2, 3)), 9),
        (Braid(4, (1, -2, 3)), 9),
    ]
    for braid, top in cases:
        n = braid.strands
        artin_endo.cache_clear()
        apply_power(braid, -top, Word([1]))
        assert artin_endo.cache_info().currsize <= 2
        for w in (Word([1]), Word([n, -1, n]), Word([-n, 1])):
            assert apply_power(braid, 0, w) == w
            for sign, b in ((1, braid), (-1, braid.inverse())):
                e = artin_endo(b)
                stepped = w
                for m in range(1, top + 1):
                    stepped = apply_endo(e, stepped)
                    assert apply_power(braid, sign * m, w) == stepped


def test_large_power_of_conjugated_core():
    # w = p c p^-1 with |p| = 2: the core repeats and the prefix stays
    n = 200_000
    w = Word([2, 3, 1, -2, 1, -3, -2])
    expected = Word([2, 3] + [1, -2, 1] * n + [-3, -2])
    assert w ** n == expected
    assert w ** -n == ~expected
    assert len(w ** n) == 3 * n + 4
