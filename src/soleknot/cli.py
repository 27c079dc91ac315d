"""Command-line surface.

Exit codes: 0 success, 1 any input/parse/usage error (diagnostics on
stderr), 2 when ``verify`` finds a property violation.  Arguments that
name a value (braid, word, presentation, sequence) accept either the
inline text or ``@path`` to read it from a file; inline presentations may
use ``;`` as a line separator.  A presentation whose text starts with
``{`` is read as the JSON that ``--format structured`` prints.

The environment variable ``SOLEKNOT_BUDGET`` overrides the enumeration
cap used by ``verify``; an explicit ``--budget`` flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .braid import artin_endo, braid_text, closure_info, parse_braid
from .errors import ParseError, SoleknotError
from .freegroup import apply_endo, parse_word, word_text
from .knotgrp import abelianize, alexander_polynomial, sphere_closure_presentation
from .laurent import poly_text
from .presentations import (
    Presentation,
    parse_presentation,
    presentation_from_structured,
    presentation_structured,
    presentation_text,
)
from .satellite import build_filtration, satellite_presentation
from .solenoid import parse_winding_seq, profile, profile_text, solenoids_equivalent
from .torusgrp import (
    DEFAULT_ENUMERATION_BUDGET,
    centralizer_generators,
    solid_torus_presentation,
    torus_element_text,
)

__all__ = ["main", "dispatch"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for verify violations, so usage
    # errors must not use argparse's default SystemExit(2)
    def error(self, message):
        raise _UsageError(message)


def _read_arg(value: str) -> str:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _read_presentation(value: str) -> Presentation:
    text = _read_arg(value)
    if not text.lstrip().startswith("{"):
        return parse_presentation(text)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad structured presentation: {exc}") from None
    return presentation_from_structured(doc)


def _emit(doc: dict, compact: str, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(compact)


def _cmd_closure(args) -> int:
    info = closure_info(parse_braid(_read_arg(args.braid)))
    compact = (
        f"components={info.components} winding={info.winding} "
        f"exponent_sum={info.exponent_sum} is_knot={'true' if info.is_knot else 'false'}"
    )
    _emit(
        {
            "components": info.components,
            "winding": info.winding,
            "exponent_sum": info.exponent_sum,
            "is_knot": info.is_knot,
        },
        compact,
        args.format,
    )
    return 0


def _cmd_act(args) -> int:
    b = parse_braid(_read_arg(args.braid))
    w = parse_word(_read_arg(args.word))
    image = apply_endo(artin_endo(b), w)
    _emit({"word": word_text(image)}, word_text(image), args.format)
    return 0


def _cmd_centralizer(args) -> int:
    b = parse_braid(_read_arg(args.braid))
    a, x1 = centralizer_generators(b)
    doc = {"a": torus_element_text(a), "b": torus_element_text(x1)}
    _emit(doc, f"a: {doc['a']}\nb: {doc['b']}", args.format)
    return 0


def _cmd_present(args) -> int:
    b = parse_braid(_read_arg(args.braid))
    p = solid_torus_presentation(b) if args.ambient == "torus" else sphere_closure_presentation(b)
    _emit(presentation_structured(p), presentation_text(p), args.format)
    return 0


def _cmd_satellite(args) -> int:
    companion = _read_presentation(args.companion)
    b = parse_braid(_read_arg(args.pattern))
    p = satellite_presentation(companion, b)
    _emit(presentation_structured(p), presentation_text(p), args.format)
    return 0


def _cmd_filtration(args) -> int:
    seed = _read_presentation(args.seed)
    patterns = [parse_braid(_read_arg(p)) for p in args.patterns]
    stages = build_filtration(seed, patterns, args.depth, repeat=args.repeat)
    docs = [
        {
            "index": st.index,
            "braid": braid_text(st.braid) if st.braid is not None else None,
            "presentation": presentation_structured(st.presentation),
            "inclusion": dict(st.inclusion),
        }
        for st in stages
    ]
    if args.format == "structured":
        print(json.dumps({"stages": docs}, sort_keys=True))
    else:
        blocks = []
        for st in stages:
            head = f"stage {st.index}:"
            if st.braid is not None:
                head += f" pattern {braid_text(st.braid)}"
            body = "\n".join("  " + ln for ln in presentation_text(st.presentation).splitlines())
            blocks.append(head + "\n" + body)
        print("\n".join(blocks))
    return 0


def _cmd_abelianize(args) -> int:
    p = _read_presentation(args.presentation)
    ab = abelianize(p)
    factors = " ".join(map(str, ab["invariant_factors"])) or "none"
    compact = f"free_rank={ab['free_rank']} invariant_factors={factors}"
    _emit(ab, compact, args.format)
    return 0


def _cmd_alexander(args) -> int:
    p = _read_presentation(args.presentation)
    delta = alexander_polynomial(p)
    _emit({"polynomial": poly_text(delta)}, poly_text(delta), args.format)
    return 0


def _cmd_classify(args) -> int:
    a = parse_winding_seq(_read_arg(args.first))
    b = parse_winding_seq(_read_arg(args.second))
    pa, pb = profile(a), profile(b)
    same = solenoids_equivalent(a, b)
    doc = {
        "equivalent": same,
        "profiles": [
            {"finite": {str(p): e for p, e in pr.finite}, "infinite": sorted(pr.infinite)}
            for pr in (pa, pb)
        ],
    }
    compact = "\n".join(
        [
            "equivalent" if same else "inequivalent",
            f"a: {profile_text(pa)}",
            f"b: {profile_text(pb)}",
        ]
    )
    _emit(doc, compact, args.format)
    return 0


def _cmd_verify(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("SOLEKNOT_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_ENUMERATION_BUDGET
        except ValueError:
            raise _UsageError(f"SOLEKNOT_BUDGET must be an integer, got {env!r}") from None
    if args.corpus == "negative-control":
        suites = [verify_mod.Suite("negative-control", verify_mod.negative_control_suite)]
    elif args.corpus in verify_mod.SCALES:
        suites = verify_mod.suites(args.corpus, args.seed, budget)
    else:
        raise _UsageError(f"unknown corpus {args.corpus!r}")
    results = []
    for suite in suites:
        violations = suite.run()
        results.append((suite.name, violations))
    results.sort(key=lambda pair: pair[0])
    failed = 0
    doc_cases = []
    lines = []
    for name, violations in results:
        if violations:
            failed += 1
            lines.append(f"FAIL {name}: {violations[0]}" + (
                f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
            ))
        else:
            lines.append(f"ok {name}")
        doc_cases.append({"name": name, "ok": not violations, "violations": violations})
    summary = f"{len(results)} suites: {len(results) - failed} ok, {failed} failed"
    _emit({"cases": doc_cases, "ok": failed == 0}, "\n".join(lines + [summary]), args.format)
    return 2 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="soleknot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["compact", "structured"], default="compact")
        return p

    p = add("closure", _cmd_closure, "component count and framing of a braid closure")
    p.add_argument("braid")

    p = add("act", _cmd_act, "apply a braid's automorphism to a word")
    p.add_argument("braid")
    p.add_argument("word")

    p = add("centralizer", _cmd_centralizer, "generators of the centralizer of x1")
    p.add_argument("braid")

    p = add("present", _cmd_present, "group presentation of a braid closure")
    p.add_argument("braid")
    p.add_argument("--ambient", choices=["torus", "sphere"], default="sphere")

    p = add("satellite", _cmd_satellite, "satellite presentation from companion and pattern")
    p.add_argument("companion")
    p.add_argument("pattern")

    p = add("filtration", _cmd_filtration, "iterated satellite filtration")
    p.add_argument("seed")
    p.add_argument("patterns", nargs="+")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--repeat", action="store_true")

    p = add("abelianize", _cmd_abelianize, "first homology of a presentation")
    p.add_argument("presentation")

    p = add("alexander", _cmd_alexander, "Alexander polynomial of a presentation")
    p.add_argument("presentation")

    p = add("classify", _cmd_classify, "compare two solenoid winding sequences")
    p.add_argument("first")
    p.add_argument("second")

    p = add("verify", _cmd_verify, "run the property suites")
    p.add_argument("--corpus", default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, SoleknotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:  # no panics on any input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())
