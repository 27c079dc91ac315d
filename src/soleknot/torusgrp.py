"""Exact arithmetic in the mapping-torus group of a braid.

For a braid beta on n strands, the complement of its closure inside the
solid torus has fundamental group F_n x|_beta Z with presentation

    < x_1, ..., x_n, t  |  t^-1 x_i t = beta(x_i) >.

Every element has a unique normal form t^m * z with z a reduced word in
the x_i, and

    (m1, z1) * (m2, z2) = (m1 + m2, beta^m2(z1) * z2).

Elements carry no reference to the braid; arithmetic takes the braid as an
explicit context argument.  beta^m runs the binary ladder e^(2^j) of
e = ``artin_endo(beta)`` (of the inverse braid when m < 0), memoized on
that endomorphism itself (idempotent fill, safe under concurrent use).
``artin_endo``'s bounded LRU is thus the only per-braid cache, and
``artin_endo.cache_clear()`` drops the ladders with it.

Text form of an element: ``t^<m> | <word>``, e.g. ``t^2 | x1 x2``; the
identity tail leaves nothing after the bar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import Braid, artin_endo, closure_info
from .errors import (
    BudgetExceeded,
    CoreMismatch,
    DomainError,
    NotAKnot,
    ParseError,
)
from .freegroup import (
    Word,
    _check_rank,
    cyclic_decompose,
    parse_word,
    word_text,
)
from .presentations import PeripheralPair, Presentation

__all__ = [
    "TorusElement",
    "DEFAULT_ENUMERATION_BUDGET",
    "apply_power",
    "mt_multiply",
    "mt_invert",
    "mt_pow",
    "solid_torus_presentation",
    "meridian_conjugator",
    "centralizer_generators",
    "power_identity_check",
    "centralizer_enumeration_oracle",
    "enumeration_size",
    "parse_torus_element",
    "torus_element_text",
]

DEFAULT_ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class TorusElement:
    """Normal form t^texp * tail."""

    texp: int
    tail: Word

    def __str__(self) -> str:
        return torus_element_text(self)


def apply_power(beta: Braid, m: int, w: Word) -> Word:
    """beta^m applied to w, for any integer m (negative uses the inverse
    braid's automorphism, which composes with the forward one to the
    identity)."""
    _check_rank(w, beta.strands)
    if m == 0 or not w:
        return w
    if m > 0:
        return artin_endo(beta)._apply_power(m, w)
    return artin_endo(beta.inverse())._apply_power(-m, w)


def mt_multiply(a: TorusElement, b: TorusElement, beta: Braid) -> TorusElement:
    """(m1, z1)(m2, z2) = (m1 + m2, beta^m2(z1) z2), reduced."""
    _check_rank(b.tail, beta.strands)
    return TorusElement(a.texp + b.texp, apply_power(beta, b.texp, a.tail) * b.tail)


def mt_invert(a: TorusElement, beta: Braid) -> TorusElement:
    return TorusElement(-a.texp, apply_power(beta, -a.texp, ~a.tail))


def mt_pow(a: TorusElement, k: int, beta: Braid) -> TorusElement:
    if k < 0:
        return mt_pow(mt_invert(a, beta), -k, beta)
    out = TorusElement(0, Word())
    for _ in range(k):
        # left-multiply so the power application always hits the short tail
        out = mt_multiply(a, out, beta)
    return out


def solid_torus_presentation(beta: Braid) -> Presentation:
    """The n+1 generator presentation above, with peripheral data for the
    outer boundary torus: meridian x_1...x_n, longitude t.  The meridian of
    the closed-braid boundary is always x_1.
    """
    n = beta.strands
    e = artin_endo(beta)
    t = n + 1
    gens = tuple(f"x{i}" for i in range(1, n + 1)) + ("t",)
    relators = tuple(
        Word([-t, i, t]) * ~e.images[i - 1] for i in range(1, n + 1)
    )
    peripheral = PeripheralPair(Word(range(1, n + 1)), Word([t]))
    return Presentation(gens, relators, peripheral)


def _require_knot(beta: Braid) -> None:
    info = closure_info(beta)
    if not info.is_knot:
        raise NotAKnot(f"closure has {info.components} components")


def meridian_conjugator(beta: Braid) -> Word:
    """The unique w with beta^n(x_1) = w x_1 w^-1 whose last letter is not
    a power of x_1 (any trailing x_1 run is absorbed into the x_1^l factor
    of the centralizer)."""
    _require_knot(beta)
    n = beta.strands
    image = apply_power(beta, n, Word([1]))
    prefix, core = cyclic_decompose(image)
    if core != Word([1]):
        raise CoreMismatch(
            f"cyclically reduced core of beta^{n}(x1) is {core}, expected x1"
        )
    s = prefix._s
    x1, X1 = chr(1), chr(254)
    while s and (s[-1] == x1 or s[-1] == X1):
        s = s[:-1]
    return Word._raw(s)


def centralizer_generators(beta: Braid) -> tuple[TorusElement, TorusElement]:
    """Generating pair (t^n w, x_1) of the centralizer of x_1; the two
    elements commute in exact normal-form arithmetic."""
    return (
        TorusElement(beta.strands, meridian_conjugator(beta)),
        TorusElement(0, Word([1])),
    )


def power_identity_check(beta: Braid, k: int, k_cap: int = 8) -> bool:
    """Exact check that beta^{kn}(x_1) equals the tail of

        t^{-kn} (t^n w)^k  x_1  (t^n w)^{-k} t^{kn}

    computed in normal-form arithmetic.  True for every knot-closure braid;
    a False return means a convention bug somewhere and is reportable.
    The word sizes grow exponentially in k, hence the configurable cap."""
    _require_knot(beta)
    if abs(k) > k_cap:
        raise DomainError(f"|k| = {abs(k)} exceeds the configured cap {k_cap}")
    n = beta.strands
    w = meridian_conjugator(beta)
    lhs = apply_power(beta, k * n, Word([1]))
    a = TorusElement(n, w)
    # associate as (t^-kn a^k) x1 (t^-kn a^k)^-1; the left factor has t-degree 0
    left = mt_multiply(TorusElement(-k * n, Word()), mt_pow(a, k, beta), beta)
    rhs = mt_multiply(
        mt_multiply(left, TorusElement(0, Word([1])), beta),
        mt_invert(left, beta),
        beta,
    )
    return rhs.texp == 0 and rhs.tail == lhs


def enumeration_size(rank: int, max_texp: int, max_len: int) -> int:
    words = 1
    if max_len >= 1:
        run = 2 * rank
        words += run
        for _ in range(max_len - 1):
            run *= 2 * rank - 1
            words += run
    return (2 * max_texp + 1) * words


def centralizer_enumeration_oracle(
    beta: Braid,
    max_texp: int,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[TorusElement]:
    """Exhaustive search for every normal form t^m z with |m| <= max_texp
    and |z| <= max_len that commutes with x_1.

    t^m z commutes with x_1 exactly when z x_1 = beta^m(x_1) z in the free
    group, and right-multiplying by z^-1 turns that into

        beta^m(x_1) = z x_1 z^-1.

    The images u = beta^m(x_1) go into a dict keyed by u, and each
    candidate z is tested once by looking z x_1 z^-1 up.  Free reduction
    alone narrows the candidates.  Write a solution as z = p x_1^l with p
    not ending in x_1 or X_1.  Then z x_1 z^-1 = p x_1 p^-1, which is
    reduced as written, so p is a prefix of u and |u| = 2 |p| + 1.  An
    image longer than 2 max_len + 1 therefore never matches and is left
    out of the dict.  The candidates are p x_1^l for every prefix p of a
    key u with |p| <= |u| // 2 that does not end in x_1^(+-1), and every
    l with |p| + |l| <= max_len.  They hold every solution, each written
    once.

    This enumeration is the independent oracle for the centralizer shape.
    It never consults :func:`meridian_conjugator` or the cyclic
    decomposition behind it: it finds the centralizer from the defining
    equation alone, so the (t^n w, x_1) pair is checked against elements
    that no step of its own construction produced.
    """
    _require_knot(beta)
    size = enumeration_size(beta.strands, max_texp, max_len)
    if size > budget:
        raise BudgetExceeded(f"enumeration of {size} candidates exceeds budget {budget}")
    x1 = Word([1])
    texps_by_image: dict[Word, list[int]] = {}
    for m in range(-max_texp, max_texp + 1):
        u = apply_power(beta, m, x1)
        if len(u) <= 2 * max_len + 1:
            texps_by_image.setdefault(u, []).append(m)
    x1_ends = (x1._s, (~x1)._s)
    prefixes = {
        u._s[:k]
        for u in texps_by_image
        for k in range(len(u) // 2 + 1)
        if k == 0 or u._s[k - 1] not in x1_ends
    }
    found: list[TorusElement] = []
    for p in prefixes:
        room = max_len - len(p)
        for l in range(-room, room + 1):
            z = Word._raw(p) * x1**l
            texps = texps_by_image.get(z * x1 * ~z)
            if texps is not None:
                found.extend(TorusElement(m, z) for m in texps)
    found.sort(key=lambda el: (el.texp, len(el.tail), el.tail._s))
    return found


def torus_element_text(el: TorusElement) -> str:
    tail = word_text(el.tail)
    return f"t^{el.texp} | {tail}" if tail else f"t^{el.texp} |"


def parse_torus_element(text: str) -> TorusElement:
    head, sep, rest = text.partition("|")
    if not sep:
        raise ParseError("expected 't^<m> | <word>'", position=0)
    head = head.strip()
    if not head.startswith("t^"):
        raise ParseError(f"bad t-power {head!r}", position=0)
    try:
        m = int(head[2:])
    except ValueError:
        raise ParseError(f"bad t-power {head!r}", position=0) from None
    return TorusElement(m, parse_word(rest.strip()))
