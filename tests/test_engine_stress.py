"""Large-word engine paths checked against naive letter-stack oracles.

The public property tests use short words, which never leave the
small-word code paths; these tests force the C-level routes (pair-deletion
reduce, the common-suffix cancellation kernel, and the block cascade of
apply_endo's fold path) and demand exact agreement with a plain Python
stack.  The file needs only the standard library and soleknot, so each
``test_*`` function also runs when called directly, without pytest.
"""

import random
import time

from soleknot.braid import Braid, artin_endo
from soleknot.freegroup import FreeEndo, Word, _common_suffix, apply_endo, compose
from soleknot.torusgrp import apply_power


def naive_reduce(raw):
    stack = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def naive_apply(e, letters):
    """Substitute each letter's image, then reduce with the stack."""
    table = {i: list(img.letters) for i, img in enumerate(e.images, start=1)}
    raw = []
    for x in letters:
        img = table[abs(x)]
        raw.extend(img if x > 0 else [-y for y in reversed(img)])
    return naive_reduce(raw)


def naive_common_suffix(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[-1 - k] == b[-1 - k]:
        k += 1
    return k


def random_letters(rng, rank, n):
    return [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(n)]


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
    w = Word(random_letters(rng, 4, 4000))
    assert apply_endo(e, w).letters == naive_apply(e, w.letters)


def test_common_suffix_depths():
    # depths on both sides of each doubling window edge, where the
    # binary search takes over
    rng = random.Random(17)
    depths = {0, 1}
    for j in range(1, 12):
        depths |= {2 ** j - 1, 2 ** j, 2 ** j + 1}
    for d in sorted(depths):
        shared = "".join(rng.choice("abc") for _ in range(d))
        for head_a, head_b in (("x", "y"), ("bx", "by"), ("x" * 40, "cy")):
            a, b = head_a + shared, head_b + shared
            assert _common_suffix(a, b) == d
            assert _common_suffix(b, a) == d
        # the whole of the shorter side is shared
        assert _common_suffix(shared, "y" + shared) == d
        assert _common_suffix("x" * 3 + shared, shared) == d
        assert _common_suffix(shared, shared) == d
    for _ in range(300):
        n = rng.randint(0, 70)
        a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6))) + "a" * n
        b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6))) + "a" * n
        assert _common_suffix(a, b) == naive_common_suffix(a, b)


def test_multiply_full_annihilation():
    rng = random.Random(19)
    for n in (1, 2, 31, 32, 33, 500):
        a = Word(random_letters(rng, 3, n))
        c = Word(random_letters(rng, 3, 7))
        assert (a * ~a) == Word() == (~a * a)
        # the whole of one side cancels, the other keeps a remainder
        for left, right in ((a, ~a * c), (c * a, ~a)):
            expect = naive_reduce(list(left.letters) + list(right.letters))
            assert (left * right).letters == expect


def test_fold_path_ladder_images():
    # e^4 of a braid endo has images of 25-365 letters, so every apply
    # takes the fold path; w = e^-4(u) makes e^4(w) cascade back down to u
    rng = random.Random(23)
    for braid in (Braid(3, (1, -2)), Braid(4, (1, -2, 3))):
        n = braid.strands
        e, inv = artin_endo(braid), artin_endo(braid.inverse())
        e4, inv4 = e, inv
        for _ in range(3):
            e4, inv4 = compose(e4, e), compose(inv4, inv)
        assert max(len(img) for img in e4.images) > 32
        for length in (5, 100, 300):
            w = Word(random_letters(rng, n, length))
            assert apply_endo(e4, w).letters == naive_apply(e4, w.letters)
        for length in (3, 12):
            u = Word(random_letters(rng, n, length))
            w = apply_endo(inv4, u)
            assert apply_endo(e4, w) == u
            assert naive_apply(e4, w.letters) == u.letters


def random_endo(rng, rank):
    """Images that are not conjugates of generators: some empty, some
    sharing a long suffix (deep seams), some products of earlier images
    (a letter's inverse image then pops several output blocks)."""
    tail = random_letters(rng, rank, rng.randint(0, 40))
    images = []
    for _ in range(rank):
        roll = rng.random()
        if roll < 0.15:
            img = Word()
        elif roll < 0.4 and len(images) >= 2:
            i, j = rng.sample(range(len(images)), 2)
            img = images[i] * images[j]
        elif roll < 0.7:
            img = Word(random_letters(rng, rank, rng.randint(1, 8)) + tail)
        else:
            img = Word(random_letters(rng, rank, rng.randint(1, 60)))
        images.append(img)
    return FreeEndo(rank, tuple(images))


def test_apply_endo_random_endos():
    rng = random.Random(29)
    for _ in range(80):
        rank = rng.randint(2, 5)
        e = random_endo(rng, rank)
        # words built from triples x_i x_j X_k and pairs x_i X_j, so
        # products of images and shared suffixes meet at the seams
        raw = []
        for _ in range(rng.randint(1, 200)):
            i, j, k = (rng.randint(1, rank) for _ in range(3))
            raw += [i, j, -k] if rng.random() < 0.5 else [i, -j]
        w = Word(raw)
        assert apply_endo(e, w).letters == naive_apply(e, w.letters)
        assert apply_endo(e, ~w) == ~apply_endo(e, w)


def test_deep_seams_stay_fast():
    # seams millions of letters deep: the kernel compares slices, so each
    # case costs milliseconds, where a loop over the letters takes seconds
    w = Word([1, 2]) ** 2_000_000
    start = time.perf_counter()
    assert w * ~w == Word()
    x3 = Word([3])
    assert (x3 * w) * (~w * x3) == Word([3, 3])
    # the same depth through the fold path: x1 X2 -> x3 s s^-1
    e = FreeEndo(3, (x3 * w, w, x3))
    assert apply_endo(e, Word([1, -2])) == x3
    assert time.perf_counter() - start < 0.5


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
