"""The claim table and its runner: premises form a DAG in output order, and
``Level.report`` runs each claim once, after its premises."""

import pytest

from helpers import swapped
from tmblocks.claims import CLAIMS, Level
from tmblocks.thue_morse import FactorSet, enumerate_by_scan


def test_each_premise_is_a_claim_listed_before_it():
    # so the premises are acyclic, and a premise is printed before its claims
    order = list(CLAIMS)
    for i, (name, claim) in enumerate(CLAIMS.items()):
        for premise in claim.premises:
            assert premise in order[:i], f"{name} rests on {premise}, not listed before it"


def test_a_claim_needs_the_next_level_if_a_premise_does():
    # verify refuses the claims that need level m + 1 at m = MAX_M; one that
    # rests on such a claim would build that level through its premise
    for name, claim in CLAIMS.items():
        for premise in claim.premises:
            assert claim.needs_next_level or not CLAIMS[premise].needs_next_level, name


def test_the_premises_are_the_chain_of_the_theorem():
    assert {name: claim.premises for name, claim in CLAIMS.items() if claim.premises} == {
        "firsthalf": ("quarters",), "pairs": ("nblock",), "fixedpoint": ("pairs",),
        "primitivity": ("nblock",)}


def test_report_runs_a_claim_once_after_its_premises(monkeypatch):
    runs = []
    for name, claim in CLAIMS.items():
        def check(lv, name=name, check=claim.check):
            runs.append(name)
            return check(lv)
        monkeypatch.setitem(CLAIMS, name, claim._replace(check=check))
    level = Level(3)
    fixed_point = level.report("fixedpoint")
    assert fixed_point.ok and level.report("fixedpoint") is fixed_point
    assert runs == ["nblock", "pairs", "fixedpoint"]
    assert list(level.reports) == ["nblock", "pairs", "fixedpoint"]
    level.report("theorem")
    level.report("primitivity")
    assert runs == ["nblock", "pairs", "fixedpoint", "theorem", "primitivity"]


def test_only_the_runner_applies_a_premise():
    # with two offsets swapped the window check of θ_N fails; η's pair images
    # do not read the offsets, so the check of pairs alone passes
    level = Level(3)
    level.factors = swapped(enumerate_by_scan(3), 0)
    assert CLAIMS["pairs"].check(level).ok
    assert {(e.passed, e.detail) for e in level.report("pairs").entries} == {
        (False, "premise nblock failed")}


@pytest.mark.parametrize("m, level", [(2, 4), (3, 2)])
def test_qandf_fails_on_the_factor_set_of_another_level(m, level):
    lv = Level(m)
    lv.factors = enumerate_by_scan(level)
    entries = {e.claim: e for e in lv.report("qandf").entries}
    k, n = 3 * 2 ** level, 2 ** level + 1
    assert not entries["qandf.count"].passed
    assert entries["qandf.count"].detail == (
        f"level {level}: {k} factors, the shortest label {n} letters long; "
        f"|A_{m}| = {3 * 2 ** m} of {2 ** m + 1} letters")
    # the quarter minima of the level it holds are right
    assert all(entries[f"qandf.q{i}"].passed for i in range(1, 5))


def test_qandf_fails_on_labels_cut_short():
    # the same offsets over a prefix without its last letter: the label
    # that ends P is one letter short
    lv = Level(3)
    fs = enumerate_by_scan(3)
    lv.factors = FactorSet(3, fs.prefix[:max(fs.offsets) + fs.word_length - 1], fs.offsets)
    entry = lv.report("qandf").entries[0]
    assert entry.claim == "qandf.count" and not entry.passed
    assert entry.detail.startswith("level 3: 24 factors, the shortest label 8 letters long")
