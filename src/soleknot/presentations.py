"""Finite group presentations with optional peripheral structure.

Generators are named; relators and peripheral words are :class:`Word`
values whose letter k refers to ``gens[k-1]``.

Text format (one item per line, bit-exact round trip):

    gens: x1 x2
    rel: X2 x1 x2 x1 X2 X1
    meridian: x1
    longitude: x1 x2 x1 x2 x1 x2 X1 X1 X1 X1 X1 X1

A relator token is a generator name (positive letter) or the name
uppercased (inverse); names are single lowercase tokens.  Inline CLI input
may separate lines with ``;`` instead of newlines.

The structured form (:func:`presentation_structured`) is the JSON object
``{"gens": [...], "relators": [...], "peripheral": null | {"meridian":
..., "longitude": ...}}`` with each word in the same token syntax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPresentation, ParseError
from .freegroup import Word, fits_rank

__all__ = [
    "PeripheralPair",
    "Presentation",
    "parse_presentation",
    "presentation_text",
    "presentation_structured",
    "presentation_from_structured",
    "word_tokens",
    "tokens_word",
]


@dataclass(frozen=True)
class PeripheralPair:
    """Meridian/longitude pair on a boundary torus.  Every pair produced by
    this package commutes in its group; the torus-group module checks the
    mapping-torus instances by exact normal-form arithmetic."""

    meridian: Word
    longitude: Word


def _check_name(name: str) -> None:
    if not name or any(c.isspace() for c in name):
        raise InvalidPresentation(f"generator name {name!r} is not a single token")
    if name != name.lower() or name == name.upper():
        # Inverse letters are written by uppercasing the name, so the name
        # must be lowercase and must actually change under .upper().
        raise InvalidPresentation(
            f"generator name {name!r} must be lowercase with at least one letter"
        )


@dataclass(frozen=True)
class Presentation:
    gens: tuple[str, ...]
    relators: tuple[Word, ...]
    peripheral: PeripheralPair | None = None

    def __post_init__(self):
        for name in self.gens:
            _check_name(name)
        if len(set(self.gens)) != len(self.gens):
            raise InvalidPresentation("duplicate generator names")
        n = len(self.gens)
        for r in self.relators:
            if not fits_rank(r, n):
                raise InvalidPresentation(f"relator {r} addresses a missing generator")
        if self.peripheral is not None:
            for w in (self.peripheral.meridian, self.peripheral.longitude):
                if not fits_rank(w, n):
                    raise InvalidPresentation(f"peripheral word {w} addresses a missing generator")

    @property
    def rank(self) -> int:
        return len(self.gens)


def word_tokens(p: Presentation, w: Word) -> str:
    return " ".join(p.gens[k - 1] if k > 0 else p.gens[-k - 1].upper() for k in w)


def tokens_word(p: Presentation, text: str, line: int = 0) -> Word:
    index = {name: i + 1 for i, name in enumerate(p.gens)}
    letters: list[int] = []
    for tok in text.split():
        if tok in index:
            letters.append(index[tok])
        elif tok.lower() in index and tok == tok.lower().upper():
            letters.append(-index[tok.lower()])
        else:
            raise ParseError(f"unknown generator token {tok!r}", position=line)
    return Word(letters)


def presentation_text(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.gens)]
    lines += ["rel: " + word_tokens(p, r) for r in p.relators]
    if p.peripheral is not None:
        lines.append("meridian: " + word_tokens(p, p.peripheral.meridian))
        lines.append("longitude: " + word_tokens(p, p.peripheral.longitude))
    return "\n".join(lines)


def parse_presentation(text: str) -> Presentation:
    """Parse the line format; ``;`` is accepted as a line separator."""
    lines = [ln.strip() for ln in text.replace(";", "\n").splitlines()]
    gens: tuple[str, ...] | None = None
    relators: list[Word] = []
    meridian: Word | None = None
    longitude: Word | None = None
    shell: Presentation | None = None
    for no, ln in enumerate(lines):
        if not ln:
            continue
        key, sep, rest = ln.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: ...' line, got {ln!r}", position=no)
        key = key.strip()
        rest = rest.strip()
        if key == "gens":
            if gens is not None:
                raise ParseError("duplicate gens line", position=no)
            gens = tuple(rest.split())
            shell = Presentation(gens, ())
        elif gens is None or shell is None:
            raise ParseError("gens line must come first", position=no)
        elif key == "rel":
            relators.append(tokens_word(shell, rest, line=no))
        elif key == "meridian":
            meridian = tokens_word(shell, rest, line=no)
        elif key == "longitude":
            longitude = tokens_word(shell, rest, line=no)
        else:
            raise ParseError(f"unknown key {key!r}", position=no)
    if gens is None:
        raise ParseError("missing gens line", position=0)
    peripheral = None
    if meridian is not None or longitude is not None:
        if meridian is None or longitude is None:
            raise ParseError("meridian and longitude must appear together", position=0)
        peripheral = PeripheralPair(meridian, longitude)
    return Presentation(gens, tuple(relators), peripheral)


def presentation_structured(p: Presentation) -> dict:
    doc: dict = {
        "gens": list(p.gens),
        "relators": [word_tokens(p, r) for r in p.relators],
        "peripheral": None,
    }
    if p.peripheral is not None:
        doc["peripheral"] = {
            "meridian": word_tokens(p, p.peripheral.meridian),
            "longitude": word_tokens(p, p.peripheral.longitude),
        }
    return doc


def presentation_from_structured(doc: dict) -> Presentation:
    """Read back what :func:`presentation_structured` writes; a document of
    any other shape raises ParseError."""

    def strs(values: object) -> bool:
        return isinstance(values, list) and all(isinstance(v, str) for v in values)

    per = doc.get("peripheral") if isinstance(doc, dict) else None
    if not (
        isinstance(doc, dict)
        and strs(doc.get("gens"))
        and strs(doc.get("relators"))
        and (per is None or isinstance(per, dict) and strs([per.get("meridian"), per.get("longitude")]))
    ):
        raise ParseError(
            'a structured presentation is {"gens": [...], "relators": [...], '
            '"peripheral": null or {"meridian": ..., "longitude": ...}} with string entries'
        )
    shell = Presentation(tuple(doc["gens"]), ())
    relators = tuple(tokens_word(shell, r) for r in doc["relators"])
    peripheral = None
    if per is not None:
        peripheral = PeripheralPair(
            tokens_word(shell, per["meridian"]), tokens_word(shell, per["longitude"])
        )
    return Presentation(shell.gens, relators, peripheral)
