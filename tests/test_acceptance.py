"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Criteria and scales:

1. Artin relations + product invariance, n <= 6, 500 seeded instances.
2. Centralizer of x1 over every knot-closure braid in B2/B3 of length <= 5
   plus 100 seeded random knot-closure braids in B2-B4 of length <= 8:
   conjugator round trip, commuting generators, power identity k in [-3, 3].
3. Centralizer enumeration with |m| <= 2n, |z| <= 6 over the B2/B3 corpus
   stays inside the predicted family, within the 10^6 candidate budget.
4. Closure presentations: trefoil relator, unknot collapse, torus-knot
   Alexander polynomials for sigma_1^(2k+1), k <= 4, Delta(1) = +-1,
   symmetry.
5. Satellite filtration to depth 3: H1 = Z, longitude class 0, meridian
   transition = winding, exact Alexander product identity.
6. Cable-embedding arithmetic: exhaustive witness search over the
   |params| <= 30 box, recorded fixtures re-verified in exact rationals,
   d = 1 and gcd(t, d) = 1 always rejected.
7. Solenoid classification examples plus 200 seeded random pairs:
   equivalence axioms, finite-edit and rotation invariance.
8. CLI round trip and exit codes (delegated to tests/test_cli.py, summarized
   here over a fixture sample).

All checks are exact; no tolerances are floating point.  Criteria 1-7 run
the suites of ``verify --corpus full``: the scales above are the ``"full"``
row of ``soleknot.verify.SCALES``, which ``test_full_scale_is_acceptance_scale``
pins.
"""

import time

from soleknot.cli import dispatch
from soleknot.torusgrp import DEFAULT_ENUMERATION_BUDGET
from soleknot.verify import SCALES, Scale, det_knot_corpus, suites

SEED = 20260809


def _report(criterion: int, label: str, violations: list[str], started: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} ({elapsed:.1f}s): {label}")
    assert not violations, violations[:5]


def _run_full(criterion: int, name: str, label: str) -> None:
    t0 = time.time()
    (suite,) = [s for s in suites("full", seed=SEED) if s.name == name]
    _report(criterion, label, suite.run(), t0)


def test_full_scale_is_acceptance_scale():
    assert SCALES["full"] == Scale(
        corpus_len=5,
        random_count=100,
        max_strands=6,
        instances=500,
        k_range=range(-3, 4),
        enum_len=6,
        max_k=4,
        depth=3,
        cable_bound=30,
        cable_rejects=200,
        pairs=200,
    )
    assert DEFAULT_ENUMERATION_BUDGET == 10**6  # criterion 3's candidate budget


def test_criterion_1_braid_relations():
    _run_full(1, "braid-relations", "braid relations and product invariance")


def test_criterion_2_centralizer():
    full = SCALES["full"]
    size = len(det_knot_corpus(full.corpus_len)) + full.random_count
    _run_full(2, "centralizer", f"centralizer of x1 over {size} braids")


def test_criterion_3_centralizer_uniqueness():
    size = len(det_knot_corpus(SCALES["full"].corpus_len))
    _run_full(3, "centralizer-uniqueness", f"bounded-enumeration uniqueness over {size} braids")


def test_criterion_4_closure_presentations():
    _run_full(4, "closure-presentations", "closure presentations and torus-knot polynomials")


def test_criterion_5_satellite_filtration():
    _run_full(5, "satellite-filtration", "satellite filtration homology and Alexander identity")


def test_criterion_6_cable_arithmetic():
    _run_full(6, "cable-criterion", "cable tight-embedding arithmetic")


def test_criterion_7_solenoid_classification():
    _run_full(7, "solenoid-classification", "solenoid classification")


def test_criterion_8_cli_contract(capsys, tmp_path):
    t0 = time.time()
    violations = []

    def expect(code, *argv):
        got = dispatch(list(argv))
        capsys.readouterr()
        if got != code:
            violations.append(f"{argv}: exit {got}, expected {code}")

    # success paths
    expect(0, "closure", "2: s1 s1 s1")
    expect(0, "act", "2: s1", "x1 X2")
    expect(0, "centralizer", "2: s1 s1 s1")
    expect(0, "present", "--ambient", "torus", "3: s1 s2")
    expect(0, "present", "--ambient", "sphere", "2: s1 s1 s1")
    expect(0, "abelianize", "gens: a;rel: a a a")
    expect(0, "classify", "pre: | per: 2", "pre: | per: 4")

    # round trip through a file
    code = dispatch(["present", "--ambient", "sphere", "2: s1 s1 s1"])
    out = capsys.readouterr().out
    if code != 0:
        violations.append("present failed")
    seed_file = tmp_path / "seed.pres"
    seed_file.write_text(out, encoding="utf-8")
    expect(0, "satellite", f"@{seed_file}", "2: s1 s1 s1")
    expect(0, "alexander", f"@{seed_file}")
    expect(0, "filtration", f"@{seed_file}", "2: s1 s1 s1", "--depth", "2", "--repeat")

    # error paths
    expect(1, "closure", "2: s2")
    expect(1, "closure", "bogus")
    expect(1, "act", "2: s1", "x9")
    expect(1, "centralizer", "2: s1 s1")
    expect(1, "satellite", "gens: a;rel: a a", "2: s1 s1 s1")
    expect(1, "satellite", f"@{seed_file}", "1:")
    expect(1, "alexander", "gens: a b;rel: a a;rel: b b")
    expect(1, "classify", "pre: | per: 1", "pre: | per: 2")
    expect(1, "classify", "?", "pre: | per: 2")
    expect(1, "abelianize", "@/absent/file")
    expect(1, "frobnicate")
    expect(1, "closure", "--format", "yaml", "2: s1")

    # verify contract: violation -> 2
    got = dispatch(["verify", "--corpus", "negative-control"])
    capsys.readouterr()
    if got != 2:
        violations.append(f"negative-control verify: exit {got}, expected 2")

    _report(8, "CLI round trip and exit codes", violations, t0)
