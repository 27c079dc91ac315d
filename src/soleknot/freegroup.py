"""Exact word algebra in finitely generated free groups.

Letters are nonzero integers: ``k > 0`` is the k-th generator (1-based, the
x_k of the punctured-disk group) and ``-k`` is its inverse.  A :class:`Word`
is immutable and always freely reduced; the empty word is the identity.

Internally a word is a latin-1 string with one byte per letter, so that
reduction, substitution and cancellation run through CPython's C string
machinery.  Iterated braid actions routinely produce words with tens of
millions of letters and the byte engine keeps those exact computations at
desk scale.  The encoding is private; the public surface speaks integers.

Text syntax (used by the CLI and all file formats): whitespace-separated
tokens ``x<k>`` for a generator and ``X<k>`` for its inverse, e.g.
``"x1 x2 X1"``.  The empty string is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IndexOutOfRank, ParseError, RankMismatch, RankTooLarge

__all__ = [
    "MAX_RANK",
    "Word",
    "FreeEndo",
    "apply_endo",
    "compose",
    "identity_endo",
    "cyclic_decompose",
    "exponent_sum",
    "exponent_sums",
    "fits_rank",
    "parse_word",
    "word_text",
]

# Generator k is chr(k), its inverse chr(255 - k).  Codepoints stay below
# 256 so CPython stores words one byte per letter.
MAX_RANK = 120

_INV_ORD = {k: 255 - k for k in range(1, MAX_RANK + 1)}
_INV_ORD.update({255 - k: k for k in range(1, MAX_RANK + 1)})
# inversion is a 1->1 codepoint map, so the heavy lifting runs through
# bytes.translate (memcpy speed) with latin-1 round trips
_INV_BYTES = bytes(_INV_ORD.get(o, o) for o in range(256))
_INV_CHAR = {chr(o): chr(i) for o, i in _INV_ORD.items()}
# _RANK_BYTES[n]: the bytes of x_1..x_n and their inverses
_RANK_BYTES = [bytes(range(1, n + 1)) + bytes(range(255 - n, 255)) for n in range(MAX_RANK)]

_SMALL_REDUCE = 512
# Translated braid-action words converge in at most 14 pair-deletion passes
# (measured on the benchmark's power-ladder pools and the criterion-2
# corpus), so a cap of 32 leaves them on the C-level path.
_REDUCE_PASSES = 32
_SEAM_LOOP = 128


def _enc(letter: int) -> str:
    if not isinstance(letter, int) or letter == 0:
        raise ValueError(f"letters are nonzero integers, got {letter!r}")
    k = letter if letter > 0 else -letter
    if k > MAX_RANK:
        raise RankTooLarge(f"generator index {k} exceeds engine limit {MAX_RANK}")
    return chr(letter) if letter > 0 else chr(255 + letter)


def _dec(ch: str) -> int:
    o = ord(ch)
    return o if o <= MAX_RANK else o - 255


def _invert_str(s: str) -> str:
    return s.encode("latin-1")[::-1].translate(_INV_BYTES).decode("latin-1")


def _stack_reduce(s: str) -> str:
    """One left-to-right pass with a letter stack; linear in len(s)."""
    out: list[str] = []
    push = out.append
    pop = out.pop
    inv = _INV_CHAR
    for ch in s:
        if out and out[-1] == inv[ch]:
            pop()
        else:
            push(ch)
    return "".join(out)


def _reduce_str(s: str) -> str:
    """Freely reduce an encoded letter string.  Exact and idempotent."""
    if len(s) < 2:
        return s
    if len(s) <= _SMALL_REDUCE:
        return _stack_reduce(s)
    # Large words: repeated C-level pair deletion.  A pass that removes
    # nothing proves no cancelling pair remains (the char set only shrinks),
    # so the loop is exact; confluence of free reduction makes the result
    # independent of pass order.  Nested cancellation such as
    # (x1 x2)^k (X2 X1)^k frees only a few pairs per pass, so the passes are
    # capped and the letter stack finishes the word, keeping the cost linear.
    pairs = {c + _INV_CHAR[c] for c in set(s)}
    for _ in range(_REDUCE_PASSES):
        before = len(s)
        for p in pairs:
            if p in s:
                s = s.replace(p, "")
        if len(s) == before:
            return s
    return _stack_reduce(s)


def _seam(a: str, b: str) -> int:
    """Cancellation depth when concatenating reduced words a, b."""
    m = min(len(a), len(b))
    if m == 0:
        return 0
    # cheap probe first: most seams are shallow
    k = 0
    inv = _INV_CHAR
    la = len(a)
    probe = m if m <= _SEAM_LOOP else _SEAM_LOOP
    while k < probe and a[la - 1 - k] == inv[b[k]]:
        k += 1
    if k < probe or k == m:
        return k
    # Deep seam: widen the window exponentially so the C-level work stays
    # proportional to the actual cancellation depth, then pin the depth by
    # binary search on slice equality inside the first failing window.
    good = k
    while True:
        width = min(4 * good, m)
        ra = a[la - width:].encode("latin-1")
        rb = b[:width].encode("latin-1").translate(_INV_BYTES)[::-1]
        if ra == rb:
            if width == m:
                return m
            good = width
            continue
        lo, hi = good, width
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if ra[width - mid:] == rb[width - mid:]:
                lo = mid
            else:
                hi = mid - 1
        return lo


def _seam_multiply(a: str, b: str) -> str:
    k = _seam(a, b)
    return a[: len(a) - k] + b[k:]


def _fold_blocks(blocks: Iterable[str]) -> str:
    """Reduce a concatenation of reduced blocks via seam cancellation."""
    out: list[str] = []
    for b in blocks:
        while b and out:
            t = out[-1]
            k = _seam(t, b)
            if k == 0:
                break
            if k == len(t):
                out.pop()
                b = b[k:]
            else:
                out[-1] = t[: len(t) - k]
                b = b[k:]
                break
        if b:
            out.append(b)
    return "".join(out)


class Word:
    """A freely reduced word; an immutable value usable as a dict key.

    >>> Word([1, 2, -2, 1])
    Word('x1 x1')
    >>> Word([1, 2]) * Word([-2, 3])
    Word('x1 x3')
    >>> ~Word([1, 2])
    Word('X2 X1')
    """

    __slots__ = ("_s",)

    def __init__(self, letters: Iterable[int] = ()):
        if isinstance(letters, Word):
            self._s = letters._s
        else:
            self._s = _reduce_str("".join(_enc(x) for x in letters))

    @classmethod
    def _raw(cls, s: str) -> "Word":
        w = object.__new__(cls)
        w._s = s
        return w

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(_dec(c) for c in self._s)

    def max_index(self) -> int:
        """Largest generator index used (0 for the identity)."""
        return max((abs(_dec(c)) for c in set(self._s)), default=0)

    def __len__(self) -> int:
        return len(self._s)

    def __bool__(self) -> bool:
        return bool(self._s)

    def __iter__(self) -> Iterator[int]:
        return (_dec(c) for c in self._s)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._s == other._s

    def __hash__(self) -> int:
        return hash(self._s)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._raw(_seam_multiply(self._s, other._s))

    def __invert__(self) -> "Word":
        return Word._raw(_invert_str(self._s))

    def __pow__(self, n: int) -> "Word":
        # w = p c p^-1 with c cyclically reduced, so w^n = p c^n p^-1 and
        # the core repeats without cancellation
        if n == 0:
            return Word()
        prefix, core = cyclic_decompose(self)
        c = core._s if n > 0 else _invert_str(core._s)
        return Word._raw(prefix._s + c * abs(n) + _invert_str(prefix._s))

    def __repr__(self) -> str:
        return f"Word({word_text(self)!r})"

    def __str__(self) -> str:
        return word_text(self)


def cyclic_decompose(w: Word) -> tuple[Word, Word]:
    """Split w = prefix * core * prefix^-1 with core cyclically reduced.

    >>> cyclic_decompose(Word([2, 1, -2]))
    (Word('x2'), Word('x1'))
    """
    s = w._s
    limit = len(s) // 2
    inv = _INV_CHAR
    j = 0
    while j < limit and s[j] == inv[s[len(s) - 1 - j]]:
        j += 1
    return Word._raw(s[:j]), Word._raw(s[j : len(s) - j])


def fits_rank(w: Word, rank: int) -> bool:
    """Whether w uses only the generators x_1..x_rank.

    Deleting the bytes of those letters and their inverses must leave
    nothing; a rank of MAX_RANK or more holds every word.

    >>> fits_rank(Word([2, -1]), 2), fits_rank(Word([-3]), 2)
    (True, False)
    """
    if rank >= MAX_RANK:
        return True
    return not w._s.encode("latin-1").translate(None, _RANK_BYTES[max(rank, 0)])


def _check_rank(w: Word, rank: int) -> None:
    if not fits_rank(w, rank):
        raise IndexOutOfRank(f"word uses a generator above rank {rank}")


def exponent_sum(w: Word) -> int:
    """Signed letter count of the whole word.

    >>> exponent_sum(Word([1, 2, -1]))
    1
    >>> exponent_sum(Word([1, 2] * 3))
    6
    """
    s = w._s
    total = 0
    for c in set(s):
        total += s.count(c) if ord(c) <= MAX_RANK else -s.count(c)
    return total


def exponent_sums(w: Word, rank: int) -> list[int]:
    """Signed letter counts of x_1..x_rank, counting each distinct letter
    of the word once rather than scanning the word once per generator.

    >>> exponent_sums(Word([1, 2, -1, 2]), 3)
    [0, 2, 0]
    """
    s = w._s
    out = [0] * rank
    try:
        for c in set(s):
            j = ord(c)
            if j <= MAX_RANK:
                out[j - 1] += s.count(c)
            else:
                out[254 - j] -= s.count(c)
    except IndexError:
        raise IndexOutOfRank(f"word uses a generator above rank {rank}") from None
    return out


@dataclass(frozen=True)
class FreeEndo:
    """Endomorphism of the rank-n free group, given by generator images.

    ``compose(e1, e2)`` means "apply e1, then e2", so iterating a braid's
    endomorphism matches taking powers of the braid word.
    """

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.rank > MAX_RANK:
            raise RankTooLarge(f"rank {self.rank} exceeds engine limit {MAX_RANK}")
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for img in self.images:
            _check_rank(img, self.rank)

    @property
    def _table(self) -> list[str | None]:
        # 256-slot lookup table for str.translate; built once per endo.
        tbl = self.__dict__.get("_tbl")
        if tbl is None:
            tbl = [None] * 256
            for i, img in enumerate(self.images, start=1):
                tbl[i] = img._s
                tbl[255 - i] = _invert_str(img._s)
            self.__dict__["_tbl"] = tbl
        return tbl

    @property
    def _max_image(self) -> int:
        m = self.__dict__.get("_mi")
        if m is None:
            m = max((len(img._s) for img in self.images), default=0)
            self.__dict__["_mi"] = m
        return m

    def _apply_power(self, m: int, w: Word) -> Word:
        """self^m applied to w, for m >= 0, by the binary ladder
        self^(2^j).  The ladder is memoized on the endo; the fill is
        idempotent (setdefault), so racing threads may waste work but
        always observe the same values."""
        ladder = self.__dict__.setdefault("_ladder", {})
        e, j = self, 0
        while m:
            if m & 1:
                w = apply_endo(e, w)
            m >>= 1
            if m:
                j += 1
                e = ladder.get(j) or ladder.setdefault(j, compose(e, e))
        return w

    def __call__(self, w: Word) -> Word:
        return apply_endo(self, w)


def identity_endo(rank: int) -> FreeEndo:
    return FreeEndo(rank, tuple(Word._raw(chr(i)) for i in range(1, rank + 1)))


def apply_endo(e: FreeEndo, w: Word) -> Word:
    """Homomorphic substitution followed by free reduction."""
    _check_rank(w, e.rank)
    s = w._s
    if not s:
        return w
    if e._max_image <= 32 and len(s) >= 256:
        # Small images, long word: C-level translate, then pair deletion.
        # Junction cascades are bounded by the image lengths, so the
        # replace loop stays shallow.
        return Word._raw(_reduce_str(s.translate(e._table)))
    tbl = e._table
    return Word._raw(_fold_blocks(tbl[ord(c)] for c in s))  # type: ignore[misc]


def compose(e1: FreeEndo, e2: FreeEndo) -> FreeEndo:
    """The endomorphism "e1 then e2" (left-to-right, like braid words)."""
    if e1.rank != e2.rank:
        raise RankMismatch(f"rank {e1.rank} vs {e2.rank}")
    return FreeEndo(e1.rank, tuple(apply_endo(e2, img) for img in e1.images))


def parse_word(text: str) -> Word:
    """Parse the ``x<k>``/``X<k>`` token syntax.  Empty input is the identity."""
    letters: list[int] = []
    pos = 0
    for tok in text.split():
        pos = text.index(tok, pos)
        if len(tok) < 2 or tok[0] not in "xX" or not tok[1:].isdigit():
            raise ParseError(f"bad word token {tok!r}", position=pos)
        k = int(tok[1:])
        if k < 1:
            raise ParseError(f"generator index must be >= 1 in {tok!r}", position=pos)
        letters.append(k if tok[0] == "x" else -k)
        pos += len(tok)
    return Word(letters)


def word_text(w: Word) -> str:
    """Serialize to the token syntax; always emits the reduced form."""
    return " ".join(f"x{x}" if x > 0 else f"X{-x}" for x in w)
