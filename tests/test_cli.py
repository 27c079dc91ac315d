"""CLI contract: output formats round-trip, exit codes cover every error path."""

import json

import pytest

from soleknot.cli import dispatch
from soleknot.knotgrp import abelianize
from soleknot.laurent import parse_poly
from soleknot.presentations import parse_presentation, presentation_from_structured
from soleknot.braid import parse_braid
from soleknot.torusgrp import parse_torus_element


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TREFOIL_TEXT = None


def trefoil_text(capsys):
    code, out, _ = run(capsys, "present", "--ambient", "sphere", "2: s1 s1 s1")
    assert code == 0
    return out.strip()


# --- success paths ---------------------------------------------------------


def test_closure_compact(capsys):
    code, out, err = run(capsys, "closure", "2: s1 s1 s1")
    assert code == 0 and err == ""
    assert out.strip() == "components=1 winding=2 exponent_sum=3 is_knot=true"


def test_closure_structured(capsys):
    code, out, _ = run(capsys, "closure", "--format", "structured", "3: s1 S2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"components": 1, "exponent_sum": 0, "is_knot": True, "winding": 3}


def test_act(capsys):
    code, out, _ = run(capsys, "act", "2: s1", "x1")
    assert code == 0 and out.strip() == "x1 x2 X1"


def test_act_identity_word(capsys):
    code, out, _ = run(capsys, "act", "2: s1", "")
    assert code == 0 and out.strip() == ""


def test_centralizer(capsys):
    code, out, _ = run(capsys, "centralizer", "2: s1 s1 s1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a: t^2 | x1 x2 x1 x2 x1 x2"
    assert lines[1] == "b: t^0 | x1"
    assert parse_torus_element(lines[0][3:]).texp == 2


def test_present_torus_roundtrip(capsys):
    code, out, _ = run(capsys, "present", "--ambient", "torus", "2: s1")
    assert code == 0
    p = parse_presentation(out)
    assert p.gens == ("x1", "x2", "t")


def test_present_sphere_roundtrip(capsys):
    text = trefoil_text(capsys)
    p = parse_presentation(text)
    assert abelianize(p) == {"invariant_factors": [], "free_rank": 1}


def test_present_structured_roundtrip(capsys):
    code, out, _ = run(capsys, "present", "--format", "structured", "2: s1 s1 s1")
    assert code == 0
    assert presentation_from_structured(json.loads(out)).gens == ("x1", "x2")


def test_satellite_from_file(capsys, tmp_path):
    seed = tmp_path / "trefoil.pres"
    seed.write_text(trefoil_text(capsys) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "satellite", f"@{seed}", "2: s1 s1 s1")
    assert code == 0
    p = parse_presentation(out)
    assert len(p.gens) == 5


def test_satellite_inline_semicolons(capsys):
    inline = trefoil_text(capsys).replace("\n", ";")
    code, out, _ = run(capsys, "satellite", inline, "3: s1 s2")
    assert code == 0 and parse_presentation(out).gens[-1] == "t@1"


def test_filtration_structured(capsys):
    inline = trefoil_text(capsys).replace("\n", ";")
    code, out, _ = run(
        capsys, "filtration", inline, "2: s1 s1 s1", "--depth", "2", "--repeat",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert [st["index"] for st in doc["stages"]] == [0, 1, 2]
    assert doc["stages"][1]["braid"] == "2: s1 s1 s1"
    assert doc["stages"][0]["braid"] is None
    inc = doc["stages"][1]["inclusion"]
    assert inc == {"x1": "x1", "x2": "x2"}


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", "gens: a;rel: a a a")
    assert code == 0 and out.strip() == "free_rank=0 invariant_factors=3"


def test_alexander(capsys):
    inline = trefoil_text(capsys).replace("\n", ";")
    code, out, _ = run(capsys, "alexander", inline)
    assert code == 0
    assert parse_poly(out.strip()).coeffs() == {0: 1, 1: -1, 2: 1}


def test_classify_equivalent(capsys):
    code, out, _ = run(capsys, "classify", "pre: | per: 2 3", "pre: 7 | per: 6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "equivalent"
    assert lines[1] == "a: 2^inf 3^inf"
    assert lines[2] == "b: 2^inf 3^inf 7"


def test_classify_inequivalent_structured(capsys):
    code, out, _ = run(
        capsys, "classify", "--format", "structured", "pre: | per: 2", "pre: | per: 3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["profiles"][0]["infinite"] == [2]


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "negative-control")
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL negative-control")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "closure" in out


# --- error paths (all exit 1, diagnostics on stderr) -----------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("closure", "2: s1 q1"),                      # braid token ParseError
        ("closure", "nope"),                          # missing colon
        ("closure", "2: s2"),                         # StrandsOutOfRange
        ("act", "2: s1", "x1 y"),                     # word ParseError
        ("act", "2: s1", "x3"),                       # IndexOutOfRank
        ("centralizer", "2: s1 s1"),                  # NotAKnot
        ("present", "--ambient", "sphere", "3: s1"),  # NotAKnot via closure
        ("satellite", "gens: a;rel: a a", "2: s1 s1 s1"),   # MissingPeripheral
        ("satellite", "gens: a;rel: a a;meridian: a;longitude:", "1:"),  # WindingTooSmall
        ("abelianize", "rel: a"),                     # presentation ParseError
        ("abelianize", "gens: a;rel: b"),             # unknown token
        ("alexander", "gens: a b;rel: a a;rel: b b"), # NotKnotLike
        ("classify", "pre: | per:", "pre: | per: 2"), # empty period: DomainError
        ("classify", "pre: | per: 1", "pre: | per: 2"),  # EntryTooSmall
        ("classify", "oops", "pre: | per: 2"),        # sequence ParseError
        ("closure", "@/no/such/file"),                # unreadable @file
        ("frobnicate",),                              # unknown subcommand
        ("closure", "--format", "yaml", "2: s1"),     # bad flag value
        ("verify", "--corpus", "bogus"),              # unknown corpus
        ("filtration", "gens: a", "2: s1"),           # MissingPeripheral on seed
        ("filtration", "gens: a;meridian: a;longitude:", "2: s1 s1 s1", "--depth", "-1"),
    ],
)
def test_error_paths_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


def test_classify_bad_sequences(capsys):
    code, out, err = run(capsys, "classify", "pre: | per:", "pre: | per: 2")
    assert code == 1 and out == ""
    assert err.startswith("error: empty period")
    code, out, err = run(capsys, "classify", "pre: | per: 1", "pre: | per: 2")
    assert code == 1 and out == ""
    assert err == "error: EntryTooSmall at period 0\n"


def test_filtration_depth_exceeds_patterns(capsys):
    inline = trefoil_text(capsys).replace("\n", ";")
    code, _, err = run(capsys, "filtration", inline, "2: s1 s1 s1", "--depth", "3")
    assert code == 1 and "depth" in err


@pytest.mark.parametrize("corpus", ["default", "full"])
def test_verify_budget_exceeded_is_input_error(capsys, corpus):
    code, _, err = run(capsys, "verify", "--corpus", corpus, "--budget", "1")
    # a unit budget makes the enumeration infeasible: config error, not a
    # property violation; uniqueness runs first, so this fails fast
    assert code == 1 and "budget" in err


@pytest.mark.parametrize("corpus", ["default", "negative-control"])
def test_verify_malformed_budget_env_is_usage_error(capsys, monkeypatch, corpus):
    monkeypatch.setenv("SOLEKNOT_BUDGET", "abc")
    code, out, err = run(capsys, "verify", "--corpus", corpus)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "SOLEKNOT_BUDGET" in err


def test_verify_default_exact_stdout(capsys):
    code, out, err = run(capsys, "verify", "--corpus", "default", "--seed", "0")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "ok braid-relations",
        "ok cable-criterion",
        "ok centralizer",
        "ok centralizer-uniqueness",
        "ok closure-presentations",
        "ok satellite-filtration",
        "ok solenoid-classification",
        "7 suites: 7 ok, 0 failed",
    ]


def test_no_panics_on_fuzzed_argv(capsys):
    import random

    rng = random.Random(123)
    commands = [
        "closure", "act", "centralizer", "present", "satellite", "filtration",
        "abelianize", "alexander", "classify", "verify", "???",
    ]
    junk = ["", "2: s1", "@nope", ";;;", "pre: |", "x1 x1", "--depth", "-3",
            "gens:", "\x00", "t^1 |", "--format", "structured", "s1 s1"]
    for _ in range(300):
        argv = [rng.choice(commands)] + [
            rng.choice(junk) for _ in range(rng.randint(0, 4))
        ]
        code = dispatch(argv)  # must never raise
        capsys.readouterr()
        assert code in (0, 1, 2)


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "--corpus", "negative-control", "--seed", "7")
    second = run(capsys, "verify", "--corpus", "negative-control", "--seed", "7")
    assert first == second
    a = run(capsys, "present", "--ambient", "sphere", "2: s1 s1 s1")
    b = run(capsys, "present", "--ambient", "sphere", "2: s1 s1 s1")
    assert a == b


def test_verify_structured_shape(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "negative-control", "--format", "structured")
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False and doc["cases"][0]["name"] == "negative-control"
