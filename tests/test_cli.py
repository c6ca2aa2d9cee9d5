import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MALFORMED_SUBSTITUTIONS, off_prefix, swapped
from tmblocks import claims, cli, injectivize, nblock, thue_morse
from tmblocks.cli import run
from tmblocks.report import CheckEntry, VerificationReport
from tmblocks.substitution import Substitution
from tmblocks.substitution_json import JSON_CHUNK
from tmblocks.thue_morse import MAX_M, enumerate_by_descendants


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factors_text(capsys):
    code, out, _ = _run(capsys, ["factors", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m=2 N=5 count=12"
    assert lines[1].startswith("w_1  = 00101")
    assert "w_12 = 11010" in out


def test_factors_json(capsys):
    code, out, _ = _run(capsys, ["factors", "--m", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2
    assert len(data["words"]) == 12
    assert data["words"][0] == "00101"


def test_factors_method_both(capsys):
    code, out, _ = _run(capsys, ["factors", "--m", "3", "--method", "both"])
    assert code == 0
    assert "count=24" in out


def _refuses_both(capsys, m):
    for fmt in ("text", "json"):
        code, out, err = _run(capsys, ["factors", "--m", str(m), "--method", "both",
                                       "--format", fmt])
        assert (code, out, err) == (1, "", "error: enumeration methods disagree\n")


@pytest.mark.parametrize("m", [2, 3, 6])
def test_factors_both_refuses_a_level_off_the_prefix(capsys, monkeypatch, m):
    scan = thue_morse.enumerate_by_scan
    monkeypatch.setattr(thue_morse, "enumerate_by_scan", lambda m: off_prefix(scan(m)))
    _refuses_both(capsys, m)


@pytest.mark.parametrize("m, i", [(1, 0), (2, 5), (6, 100)])
def test_factors_both_refuses_two_swapped_offsets(capsys, monkeypatch, m, i):
    scan = thue_morse.enumerate_by_scan

    def swapped(m):
        fs = scan(m)
        off = array("I", fs.offsets)
        off[i], off[i + 1] = off[i + 1], off[i]
        return thue_morse.FactorSet(m, fs.prefix, off)

    monkeypatch.setattr(thue_morse, "enumerate_by_scan", swapped)
    _refuses_both(capsys, m)


def test_factors_bad_m(capsys):
    code, _, err = _run(capsys, ["factors", "--m", "0"])
    assert code == 2 and f"1 <= m <= {MAX_M}" in err


def test_factors_deterministic(capsys):
    _, first, _ = _run(capsys, ["factors", "--m", "4", "--format", "json"])
    _, second, _ = _run(capsys, ["factors", "--m", "4", "--format", "json"])
    assert first == second


def _whole_factor_table(m, words):
    """Oracle: the factor table of ``words`` at level m, built as one list of
    lines and joined."""
    size = len(words)
    ncols = 4 if size % 4 == 0 else (2 if size % 2 == 0 else 1)
    rows = size // ncols
    width = len(str(size))
    lines = [f"m={m} N={2 ** m + 1} count={size}"]
    for r in range(rows):
        cells = [f"w_{c * rows + r + 1:<{width}} = {words[c * rows + r]}"
                 for c in range(ncols)]
        lines.append("   ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", range(1, 11))
def test_streamed_factors_match_whole_document_output(capsys, m):
    # the words as the descendant oracle prints them, each from its own bits
    words = [f"{b:0{2 ** m + 1}b}" for b in enumerate_by_descendants(m)]
    for method in ("scan", "descend", "both"):
        code, out, _ = _run(capsys, ["factors", "--m", str(m), "--method", method,
                                     "--format", "json"])
        assert code == 0
        assert out == json.dumps({"m": m, "words": words}) + "\n"
        code, out, _ = _run(capsys, ["factors", "--m", str(m), "--method", method])
        assert code == 0
        assert out == _whole_factor_table(m, words)


@pytest.mark.parametrize("argv", ["factors --m 10 --method both --format json", "factors --m 9",
                                  "build eta --m 9 --format dot"])
def test_output_is_written_in_batches(monkeypatch, argv):
    """Each write to stdout's binary buffer but the last carries at least
    one batch of bytes and less than two."""
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(flush=lambda: None,
                                                       buffer=SimpleNamespace(write=writes.append)))
    assert run(argv.split()) == 0
    assert all(type(w) is bytes for w in writes)
    batch = cli._WRITE_BATCH
    assert len(writes) > 2 and all(batch <= len(w) < 2 * batch for w in writes[:-1])
    assert len(writes[-1]) < 2 * batch


def test_build_theta_text(capsys):
    code, out, _ = _run(capsys, ["build", "theta", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_5(w_1) = w_4 w_10"
    assert lines[6] == "theta_5(w_7) = w_7 w_1"


def test_build_theta_scans_once(capsys, monkeypatch):
    scans = _count_calls(monkeypatch, "enumerate_by_scan", lambda m: m)
    code, _, _ = _run(capsys, ["build", "theta", "--m", "4"])
    assert code == 0
    assert scans == {4: 1}


@pytest.mark.parametrize("kind", ["theta", "eta"])
def test_build_refuses_width_three(capsys, kind):
    # the closed form of θ_N needs the quarter partition, so m >= 2
    code, out, err = _run(capsys, ["build", kind, "--m", "1"])
    assert code == 2 and out == "" and f"2 <= m <= {MAX_M}" in err


@pytest.mark.parametrize("kind", ["theta", "eta"])
def test_build_fails_when_theta_n_fails_its_window_check(capsys, monkeypatch, kind):
    scan = claims.enumerate_by_scan
    monkeypatch.setattr(claims, "enumerate_by_scan", lambda m: swapped(scan(m), 0))
    code, out, err = _run(capsys, ["build", kind, "--m", "3"])
    assert code == 1 and out == ""
    assert err.startswith("error: nblock.images: level 3: out of order at i=[2]")


def test_build_eta_text_and_json(capsys):
    code, out, _ = _run(capsys, ["build", "eta", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eta_5(w_1) = w_10"
    assert lines[6] == "eta_5(w_7) = w_7 w_1 w_4"
    code, out, _ = _run(capsys, ["build", "eta", "--m", "2", "--format", "json"])
    data = json.loads(out)
    assert data["images"][0] == [9]
    assert len(data["alphabet"]) == 12


def test_build_eta_dot(capsys):
    code, out, _ = _run(capsys, ["build", "eta", "--m", "2", "--format", "dot"])
    assert code == 0
    assert 'w1 [label="w1:00101"];' in out
    assert "w1 -> w10" in out


def test_fixture_zeta5(capsys):
    code, out, _ = _run(capsys, ["fixture", "zeta5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[10] == "zeta_5(w_11) = w_3"
    assert lines[4] == "zeta_5(w_5) = w_6 w_12 w_9"


def test_verify_range(capsys):
    code, out, err = _run(capsys, ["verify", "--m", "2..3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert all(line.startswith("PASS") for line in lines)
    assert "16/16 claims passed" in err


def test_verify_single_m_and_claim_subset(capsys):
    code, out, _ = _run(capsys, ["verify", "--m", "2", "--claims", "qandf,pairs"])
    assert code == 0
    assert out.splitlines() == ["PASS m=2 qandf", "PASS m=2 pairs"]


def _count_calls(monkeypatch, name, key):
    """Count the calls of the function ``name`` by ``key(*args)``, in every
    module that binds it."""
    modules = (thue_morse, nblock, injectivize, claims)
    original = next(getattr(mod, name) for mod in modules if hasattr(mod, name))
    seen = Counter()

    def counting(*args):
        seen[key(*args)] += 1
        return original(*args)
    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return seen


def _count_theta_prefixes(monkeypatch):
    """Count the reads of θ(P), by the level m of P: ``grow`` reads it to
    build level m + 1."""
    seen = Counter()
    theta_prefix = thue_morse.FactorSet.theta_prefix

    def counting(fs):
        seen[fs.m] += 1
        return theta_prefix(fs)
    monkeypatch.setattr(thue_morse.FactorSet, "theta_prefix", counting)
    return seen


def test_verify_builds_each_input_once_per_m(capsys, monkeypatch):
    scans = _count_calls(monkeypatch, "enumerate_by_scan", lambda m: m)
    grown = _count_calls(monkeypatch, "grow", lambda fs: fs.m)
    orders = _count_calls(monkeypatch, "verify_quarter_descendants", lambda fs: fs.m)
    blocks = _count_calls(monkeypatch, "thue_morse_block_system", lambda fs: fs.m)
    checks = _count_calls(monkeypatch, "verify_block_formula", lambda fs, nb: fs.m)
    theta_prefixes = _count_theta_prefixes(monkeypatch)
    etas = _count_calls(monkeypatch, "build_eta", lambda m, nb: m)
    pairs = _count_calls(monkeypatch, "verify_pair_images", lambda m, nb, eta: m)
    fixed_points = _count_calls(monkeypatch, "verify_fixed_point",
                                lambda m, nb, eta: m)
    searches = _count_calls(monkeypatch, "search_fixed_letters", lambda eta: eta.size)
    code, out, _ = _run(capsys, ["verify", "--m", "2..6"])
    assert code == 0 and len(out.splitlines()) == 40
    # level 2 is grown from the base; each level above from the one below,
    # and each is order-checked once
    assert scans == {2: 1}
    assert grown == {m: 1 for m in range(1, 7)}
    assert orders == {m: 1 for m in range(2, 8)}
    assert blocks == {m: 1 for m in range(2, 7)}
    # nblock, pairs and primitivity read one window check of θ_N
    assert checks == {m: 1 for m in range(2, 7)}
    # θ(P) is read by grow alone
    assert theta_prefixes == {m: 1 for m in range(1, 7)}
    assert etas == {m: 1 for m in range(2, 7)}
    # pairs and fixedpoint read one pairs report, fixedpoint and theorem
    # one fixed-point report
    assert pairs == {m: 1 for m in range(2, 7)}
    assert fixed_points == {m: 1 for m in range(2, 7)}
    # primitivity and theorem read one search of η from its fixed letters
    assert searches == {3 * 2 ** m: 1 for m in range(2, 7)}


def test_a_level_out_of_order_fails_quarters_and_is_not_handed_on(capsys, monkeypatch):
    # each level m + 1 is grown with the first two offsets of each quarter
    # swapped
    grow = claims.grow

    def swapped_grow(fs):
        grown = grow(fs)
        q = grown.quarter_size
        return swapped(grown, 0, q, 2 * q, 3 * q)
    monkeypatch.setattr(claims, "grow", swapped_grow)
    scans = _count_calls(monkeypatch, "enumerate_by_scan", lambda m: m)
    code, out, _ = _run(capsys, ["verify", "--m", "2..3", "--claims", "quarters,firsthalf"])
    assert code == 1
    assert out.splitlines()[:6] == [
        "FAIL m=2 quarters",
        "  quarters.Q1: eps(Q3 u Q4) out of order at i=2",
        "  quarters.Q2: delta(Q1 u Q2) out of order at i=8",
        "  quarters.Q3: delta(Q3 u Q4) out of order at i=14",
        "  quarters.Q4: eps(Q1 u Q2) out of order at i=20",
        "FAIL m=2 firsthalf"]
    assert out.count("  firsthalf.pairs: premise quarters failed\n") == 2
    # the failed level 3 is not handed on: m = 3 enumerates its own
    assert scans == {2: 1, 3: 1}


_LEVEL_2_FAILED = "level 2 is out of order: quarters.Q2: delta(Q1 u Q2) read 3 labels, not 4"


@pytest.mark.parametrize("argv, want_out, want_err", [
    (["verify", "--m", "2..3", "--claims", "qandf,nblock"],
     "".join(f"FAIL m={m} {claim}\n  {claim}.factors: {_LEVEL_2_FAILED}\n"
             for m in (2, 3) for claim in ("qandf", "nblock")),
     "0/4 claims passed\n"),
    (["factors", "--m", "3"], "", f"error: {_LEVEL_2_FAILED}\n"),
    (["build", "theta", "--m", "3"], "", f"error: nblock.factors: {_LEVEL_2_FAILED}\n"),
    (["build", "eta", "--m", "3"], "", f"error: nblock.factors: {_LEVEL_2_FAILED}\n"),
])
def test_a_level_that_fails_its_order_pass_while_built_exits_1(capsys, monkeypatch, argv,
                                                                want_out, want_err):
    """Negative control: the order pass of level 2 FAILs while
    ``enumerate_by_scan`` grows it. ``verify`` prints a FAIL line per claim
    naming the failed entry, ``factors`` and ``build`` an error, and all
    three exit 1 without a traceback."""
    def failed(fs):
        return VerificationReport((CheckEntry(fs.m - 1, "quarters.Q2", False,
                                              "delta(Q1 u Q2) read 3 labels, not 4"),))
    monkeypatch.setattr(thue_morse, "verify_quarter_descendants", failed)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, want_out, want_err)
    assert "Traceback" not in err


def test_a_level_that_fails_while_built_is_built_once_per_m(capsys, monkeypatch):
    # each of the 8 claims of an m reads the one failure of its level
    def failed(fs):
        return VerificationReport((CheckEntry(fs.m - 1, "quarters.Q2", False,
                                              "delta(Q1 u Q2) read 3 labels, not 4"),))
    monkeypatch.setattr(thue_morse, "verify_quarter_descendants", failed)
    scans = _count_calls(monkeypatch, "enumerate_by_scan", lambda m: m)
    code = cli.main(["verify", "--m", "2..5"])
    out, err = capsys.readouterr()
    assert scans == {m: 1 for m in range(2, 6)}
    assert (code, err) == (1, "0/32 claims passed\n")
    assert out == "".join(f"FAIL m={m} {claim}\n  {claim}.factors: {_LEVEL_2_FAILED}\n"
                          for m in range(2, 6) for claim in claims.CLAIMS)


def test_pairs_alone_runs_the_window_check(capsys, monkeypatch):
    # the window check of θ_N is the premise of pairs, so it runs although
    # the nblock claim is not selected
    checks = _count_calls(monkeypatch, "verify_block_formula", lambda fs, nb: fs.m)
    theta_prefixes = _count_theta_prefixes(monkeypatch)
    code, out, _ = _run(capsys, ["verify", "--m", "4", "--claims", "pairs"])
    assert code == 0 and out == "PASS m=4 pairs\n"
    # the scan grows levels 1..3, and the window check reads no θ(P)
    assert checks == {4: 1} and theta_prefixes == {1: 1, 2: 1, 3: 1}


def _is_thue_morse_prefix(length, bits):
    """Whether the word of ``length`` letters and ``bits`` starts the fixed
    point from 0 or from 1: letter i of the one from 0 is the parity of
    popcount(i)."""
    text = "".join(str(i.bit_count() & 1) for i in range(length))
    return f"{bits:0{length}b}" in (text, text.translate(str.maketrans("01", "10")))


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "8"], ["build", "theta", "--m", "8"],
    ["build", "eta", "--m", "8"], ["factors", "--m", "8"],
    ["factors", "--m", "8", "--format", "json"],
])
def test_no_theta_and_no_word_per_factor(capsys, monkeypatch, argv):
    """The factors are windows of one prefix: θ is applied only to build
    prefixes of the fixed point. A θ per factor would make k = 768 calls at
    m = 8."""
    thetas = _count_calls(monkeypatch, "theta_bits", _is_thue_morse_prefix)
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert set(thetas) == {True} and sum(thetas.values()) < 64


def test_verify_reports_a_failed_claim(capsys, monkeypatch):
    def broken(m, theta_n, eta):
        return VerificationReport((CheckEntry(m, "pairs.images", False, "mismatch at j=[1]"),
                                   CheckEntry(m, "pairs.kept", True, "fine"),
                                   CheckEntry(m, "pairs.bare", False)))
    monkeypatch.setattr(claims, "verify_pair_images", broken)
    code, out, err = _run(capsys, ["verify", "--m", "2", "--claims", "qandf,pairs,fixedpoint"])
    assert code == 1
    # fixedpoint is proved by induction from the pairs report, so it fails
    # with its premise
    assert out.splitlines() == ["PASS m=2 qandf", "FAIL m=2 pairs",
                                "  pairs.images: mismatch at j=[1]", "  pairs.bare: failed",
                                "FAIL m=2 fixedpoint",
                                "  fixedpoint.f0_orbit: premise pairs failed",
                                "  fixedpoint.f1_common_fixed_point: premise pairs failed"]
    assert err == "1/3 claims passed\n"


def test_report_is_a_plain_named_tuple():
    rep = VerificationReport((CheckEntry(2, "pairs.images", False, "mismatch at j=[1]"),
                              CheckEntry(2, "pairs.kept", True)))
    assert len(rep) == 1 and rep._asdict() == {"entries": rep.entries}
    assert copy.copy(rep) == rep
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_verify_rejects_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2..1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2", "--claims", "nonsense"])
    assert exc.value.code == 2
    code, _, err = _run(capsys, ["verify", "--m", "1..3"])
    assert code == 2 and "2 <= m" in err


@pytest.mark.parametrize("option", [["--claims", ","], ["--claims", " , ,"]])
def test_verify_rejects_bad_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2", *option])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {option[0]}" in captured.err


@pytest.mark.parametrize("option", [["--tol", "1e-9"], ["--depth", "12"]])
def test_verify_has_no_tolerance_or_depth_option(option):
    # the eigenvalue check is exact, so there is no tolerance to set, and
    # fixedpoint holds for every n by induction, so there is no depth
    result = subprocess.run([sys.executable, "-m", "tmblocks", "verify", "--m", "2", *option],
                            env=_src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert "unrecognized arguments" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("option", ["--windows", "--explicit", "--both"])
def test_build_theta_has_no_construction_option(option):
    # θ_N has one construction, the closed form checked against the windows,
    # so there is nothing to select
    result = subprocess.run([sys.executable, "-m", "tmblocks", "build", "theta", "--m", "3",
                             option],
                            env=_src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert "unrecognized arguments" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--m", str(MAX_M), "--claims", "quarters"],
    ["verify", "--m", f"{MAX_M - 1}..{MAX_M}", "--claims", "qandf,firsthalf"],
    ["verify", "--m", f"2..{MAX_M}"],
])
def test_verify_refuses_next_level_claims_at_max_m(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"m <= {MAX_M - 1}" in err


def test_eigen_round_trip(capsys, tmp_path):
    _, payload, _ = _run(capsys, ["build", "eta", "--m", "2", "--format", "json"])
    path = tmp_path / "eta5.json"
    path.write_text(payload)
    code, out, _ = _run(capsys, ["eigen", "--sub", str(path)])
    assert code == 0
    assert out == "PF ≈ 2.000000000, primitive: true\n"


# images -> the exact eigen line; None is η at m = 3, from `build eta`. The
# lines were recorded before the images became the only representation.
EIGEN_LINES = {
    "eta_m3": (None, "PF ≈ 2.000000000, primitive: true"),
    "cycle_with_tail": ([[1], [0], [0]], "PF ≈ 1.000000000, primitive: false"),
    "stalled_rayleigh": ([[1, 0], [2], [3], [4], [0]], "PF ≈ 1.324717957, primitive: true"),
    "closed_letter_outgrows": ([[0, 1], [1, 0], [2, 2, 2]],
                               "PF ≈ 3.000000000, primitive: false"),
    "row_sum_3_tail": ([[0, 0], [2, 2, 2], [0]], "PF ≈ 2.000000000, primitive: false"),
    "periodic_block_feeds": ([[4, 4, 0], [2, 4, 2], [1, 3], [2], [0]],
                             "PF ≈ 2.000000000, primitive: false"),
    "period_2": ([[1], [0, 0, 0, 0]], "PF ≈ 2.000000000, primitive: false"),
    "sqrt5_block": ([[0], [2], [1, 1, 1, 1, 1]], "PF ≈ 2.236067977, primitive: false"),
    # first bracket (1, 3): the power iteration and its certificates run
    "k97": ([[(b + 1) % 97] + [(3 * b) % 97] * (b % 3) for b in range(97)],
            "PF ≈ 1.989025368, primitive: true"),
}


@pytest.mark.parametrize("images, line", EIGEN_LINES.values(), ids=EIGEN_LINES)
def test_eigen_from_stdin(capsys, monkeypatch, images, line):
    if images is None:
        _, payload, _ = _run(capsys, ["build", "eta", "--m", "3", "--format", "json"])
    else:
        payload = json.dumps({"alphabet": [str(a) for a in range(len(images))],
                              "images": images})
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
    code, out, _ = _run(capsys, ["eigen", "--sub", "-"])
    assert code == 0
    assert out == line + "\n"


def test_eigen_on_zeta5(capsys, tmp_path):
    _, payload, _ = _run(capsys, ["fixture", "zeta5", "--format", "json"])
    path = tmp_path / "zeta5.json"
    path.write_text(payload)
    code, out, _ = _run(capsys, ["eigen", "--sub", str(path)])
    assert code == 0
    assert out.endswith("primitive: false\n")


def test_eigen_error_paths(capsys, tmp_path):
    code, _, err = _run(capsys, ["eigen", "--sub", str(tmp_path / "missing.json")])
    assert code == 3 and "could not load" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["eigen", "--sub", str(bad)])
    assert code == 3


def test_eigen_reads_its_file_within_half_its_size(tmp_path):
    # what is held is the labels, each 0/1 block label as the int of its
    # bits, the two image arrays and about a chunk of text: 0.37 times the
    # file. The labels held as strs took 1.22 times, and the whole text
    # beside the labels decoded from it 2.2 times
    import tmblocks.substitution_json  # noqa: F401  the reader's code is not part of the count

    eta = claims.eta_system(9).eta
    path = tmp_path / "eta_m9.json"
    with open(path, "w") as fh:
        fh.writelines(eta.iter_json())
    size = path.stat().st_size
    tracemalloc.start()
    try:
        sub = cli._read_substitution(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 24 * JSON_CHUNK
    assert sub.letters == eta.letters and sub.starts == eta.starts
    assert list(map(sub.label, range(sub.size))) == list(map(eta.label, range(eta.size)))
    assert peak < 0.5 * size, f"{peak} B traced for a file of {size} B"


def test_eigen_names_a_syntax_error_at_its_offset_in_the_file(capsys, tmp_path):
    text = claims.eta_system(7).eta.to_json()
    i = len(text) - 3  # in the last image, past the first chunk
    assert i > JSON_CHUNK
    bad = text[:i] + " x" + text[i:]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(bad)
    path = tmp_path / "bad.json"
    path.write_text(bad)
    code, out, err = _run(capsys, ["eigen", "--sub", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: could not load substitution: {want.value}\n"
    assert f"(char {i + 1})" in err


def test_eigen_and_verify_are_independent_of_the_locale(tmp_path):
    # a file is read as UTF-8 and the result line written as UTF-8, whatever
    # the locale; a FAIL detail of verify may name θ_N. The command line
    # itself is ASCII, which the C locale decodes
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"alphabet": ["ä", "θ"], "images": [[1], [0, 1]]}', encoding="utf-8")
    bad.write_bytes(b'{"alphabet": ["\xe4"], "images": [[0]]}')
    code = ("import sys\n"
            "from tmblocks import claims, cli\n"
            "from tmblocks.report import CheckEntry, VerificationReport\n"
            "claims.verify_pair_images = lambda m, theta_n, eta: VerificationReport(\n"
            "    (CheckEntry(m, 'pairs.images', False, '\\u03b8_N(w_1) \\u2260 \\u03b7(w_1)'),))\n"
            "codes = [cli.main(['eigen', '--sub', sys.argv[1]]),\n"
            "         cli.main(['eigen', '--sub', '-']),\n"
            "         cli.main(['eigen', '--sub', sys.argv[2]]),\n"
            "         cli.main(['verify', '--m', '2', '--claims', 'pairs'])]\n"
            "print(codes, file=sys.stderr)\n")
    env = {**_src_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    with open(good, "rb") as stdin:
        result = subprocess.run([sys.executable, "-c", code, str(good), str(bad)], env=env,
                                stdin=stdin, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    want = ("PF ≈ 1.618033989, primitive: true\n" * 2
            + "FAIL m=2 pairs\n  pairs.images: θ_N(w_1) ≠ η(w_1)\n")
    assert result.stdout.decode("utf-8") == want
    err = result.stderr.decode("ascii")
    assert "Traceback" not in err and err.count("could not load substitution") == 1
    assert err.endswith("[0, 0, 3, 1]\n")


@pytest.mark.parametrize("payload", MALFORMED_SUBSTITUTIONS)
def test_eigen_rejects_malformed_substitution(capsys, tmp_path, payload):
    path = tmp_path / "sub.json"
    path.write_text(payload)
    code, out, err = _run(capsys, ["eigen", "--sub", str(path)])
    assert code == 3 and out == "" and "could not load" in err


def _src_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# SHA-256 of the stdout bytes of each command line, recorded before words over
# a substitution's alphabet became codepoint text: representation changes
# below the CLI must leave its output byte-identical
STDOUT_SHA256 = {
    "build theta --m 4": "15841bc3bf52b63616f8dcb1e461a253e94bdedca585cabf3237bceab45c1228",
    "build theta --m 4 --format json":
        "387ba956430121a910ea469c35de73c5b2d4a22ac08fa2386d2a057e28274e1b",
    "build theta --m 4 --format dot":
        "03db039eb8c952f3190b53613644a9680a42e9bf900ff03d1fce063b664f4687",
    "build eta --m 4": "fdccc79317802e41518f3e3dbdf6cf8c44adbd0ecf9b70fab54d26f71227569a",
    "build eta --m 4 --format json":
        "2152e01cc91f946c98eda4471f607e719b2a0a152b32edf3d909210c94946ed6",
    "build eta --m 4 --format dot":
        "ed843bdcd3efca8c3cbc489c1409d6448ea3b169ddb42d23629c51edee91e4db",
    "fixture zeta5 --format dot":
        "1f2856b9c144fc1a9be8b2c6f6a2a9758b60f502446b3f85218341b45ad999c1",
    "factors --m 5 --format json":
        "aae60885096e12e630ce7d5c5fd7a891419c0c4aa46579724d98b1d60c9ca261",
    # the descendant oracle prints the same table and JSON as the scan
    "factors --m 5": "dbd1525318fb16988d0395af3f5e904d501fbb5641b2dba6b13767528e06575a",
    "factors --m 5 --method descend":
        "dbd1525318fb16988d0395af3f5e904d501fbb5641b2dba6b13767528e06575a",
    "factors --m 5 --method descend --format json":
        "aae60885096e12e630ce7d5c5fd7a891419c0c4aa46579724d98b1d60c9ca261",
    "verify --m 2..6": "f5fe71144acc0cac429dd8a526e537c3bf7fb9a290c0237f45fd0a3d55b4e3f3",
    "build theta --m 9 --format json":
        "9e70ca2511cfe9a850d61d5c496cdf20b7cf4f28486bd4dbc705264b9b12308f",
    "build eta --m 9 --format dot":
        "f0480a4c35d27ed46c72b31a1956f9c2425464b15a2aaf4dca1692b25e3867ca",
}


@pytest.mark.parametrize("command", STDOUT_SHA256)
def test_stdout_bytes_are_pinned(command):
    result = subprocess.run([sys.executable, "-m", "tmblocks", *command.split()],
                            env=_src_env(), capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[command]


# sha256 prefixes of `build KIND --m M --format FORMAT` for m = 2..8, recorded
# when a substitution's images were tuples of letters: the flat arrays must
# print the same bytes
BUILD_SHA256 = {
    ("theta", "text"): ("0e050614d60fb716", "6755c56c20a7f628", "15841bc3bf52b636",
                        "dadcfa8b0248e2f9", "15d751972311e0ca", "02b2362948f186de",
                        "5df6a2c754c2bd94"),
    ("theta", "json"): ("d1cf7a0b6f098301", "346684bedf8844d7", "387ba956430121a9",
                        "cb94a584ea91ae09", "6fe34b63acce5cd6", "dca845b9a3ef6b9d",
                        "d7ebe697d81f81c4"),
    ("theta", "dot"): ("f7eff8a86f8dab68", "30258068438f0cf7", "03db039eb8c952f3",
                       "30427cea57d06c28", "2a706a290d4509da", "7b43eb1a08b3cf86",
                       "a350e61f210151a1"),
    ("eta", "text"): ("0f34e2ed773a5112", "149f7db659523277", "fdccc79317802e41",
                      "4fce4a0bc37f7853", "a7839ab4cb498b4b", "fbb8e64c592bdf99",
                      "d31f38f389e80b51"),
    ("eta", "json"): ("b06372c16eb203ae", "46a3dcd9efba0a6f", "2152e01cc91f946c",
                      "89a374610c560d2c", "a5237b6e5c1dde26", "fb3d337017f536c8",
                      "372e9ccedf315f34"),
    ("eta", "dot"): ("57ad0fe0a0775b0c", "e4ae5de4f7d877fa", "ed843bdcd3efca8c",
                     "ee1261905ec6b000", "ee6719b2bff497d0", "92b1a8297f4bda3f",
                     "f88fea8766b99a84"),
}


@pytest.mark.parametrize("kind, fmt", BUILD_SHA256)
def test_build_output_is_unchanged_for_m_2_to_8(capsys, kind, fmt):
    for m, want in zip(range(2, 9), BUILD_SHA256[kind, fmt]):
        code, out, _ = _run(capsys, ["build", kind, "--m", str(m), "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, f"m={m}"
        if fmt == "json":
            again = Substitution.from_json(out)
            assert "".join(again.iter_json()) + "\n" == out


def test_benchmark_library_inputs(capsys, tmp_path):
    """The eigen_mix workload writes its library inputs through the public
    API; run that script as the benchmark does."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("eigen_inputs",
                                                  root / "perfbench" / "eigen_inputs.py")
    eigen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(eigen_inputs)
    subprocess.run([sys.executable, "-c", eigen_inputs._LIBRARY_INPUTS, str(tmp_path)],
                   env=_src_env(), check=True, timeout=120)
    for name, k in (("eta_m9", 1536), ("eta_m10", 3072), ("zeta5", 12)):
        assert Substitution.from_json((tmp_path / f"{name}.json").read_text()).size == k
    _, out, _ = _run(capsys, ["build", "eta", "--m", "9", "--format", "json"])
    assert (tmp_path / "eta_m9.json").read_text() == out[:-1]


def test_benchmark_traced_verify(tmp_path):
    """The traced runs of the benchmark wrap the package's functions by
    module and name; a target the package no longer has is skipped, not an
    error. Run that script as the benchmark does."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    result = subprocess.run([sys.executable, str(root / "perfbench" / "traced_cli.py"),
                             str(spans), "verify", "--m", "2..4"],
                            env=_src_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.count("PASS ") == 24
    assert spans.read_text()


def test_closed_stdout_exits_3_without_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "tmblocks", "factors", "--m", "10"],
                            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"m=10 ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 3
    err = proc.stderr.read()
    proc.stderr.close()
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_cli_import_leaves_numpy_unloaded(capsys, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src" / "tmblocks"
    assert not [p.name for p in src.glob("*.py") if "numpy" in p.read_text()]
    _, payload, _ = _run(capsys, ["fixture", "zeta5", "--format", "json"])
    path = tmp_path / "zeta5.json"
    path.write_text(payload)
    # a None entry in sys.modules makes every later import of numpy fail
    code = ("import sys, tmblocks.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.modules['numpy'] = None\n"
            "sys.exit(tmblocks.cli.main(['verify', '--m', '2..5'])\n"
            "         or tmblocks.cli.main(['eigen', '--sub', sys.argv[1]]))\n")
    result = subprocess.run([sys.executable, "-c", code, str(path)], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("\nPF ≈ 2.000000000, primitive: false\n")


def test_eigen_loads_only_the_substitution_module(capsys, tmp_path):
    _, payload, _ = _run(capsys, ["fixture", "zeta5", "--format", "json"])
    path = tmp_path / "zeta5.json"
    path.write_text(payload)
    # a defective dominant eigenvalue: the sums bracket only [1, 2], so this
    # input takes the path through the strongly connected blocks
    defective = tmp_path / "defective.json"
    defective.write_text('{"alphabet": ["0","1"], "images": [[1,0],[1]]}')
    code = ("import sys\n"
            "from tmblocks.cli import main\n"
            "main(['eigen', '--sub', sys.argv[1]])\n"
            "main(['eigen', '--sub', sys.argv[2]])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code, str(path), str(defective)],
                            env=_src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout == ("PF ≈ 2.000000000, primitive: false\n"
                             "PF ≈ 1.000000000, primitive: false\n")
    loaded = set(result.stderr.split())
    assert {"tmblocks.substitution", "tmblocks.substitution_json"} <= loaded
    for name in ("dataclasses", "tmblocks.thue_morse", "tmblocks.nblock",
                 "tmblocks.injectivize", "tmblocks.words", "tmblocks.report",
                 "argparse", "gettext", "locale"):
        assert name not in loaded, name


def test_word_commands_load_neither_dataclasses_nor_inspect_nor_json():
    code = ("import sys\n"
            "from tmblocks.cli import main\n"
            "main(['verify', '--m', '2'])\n"
            "main(['factors', '--m', '2'])\n"
            "main(['build', 'theta', '--m', '2'])\n"
            "main(['build', 'eta', '--m', '2', '--format', 'dot'])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("PASS m=2 qandf\n")
    loaded = set(result.stderr.split())
    assert {"tmblocks.claims", "tmblocks.thue_morse", "tmblocks.nblock"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "json", "tmblocks.substitution_json",
                         "argparse", "gettext", "locale"}


def test_a_usage_error_loads_argparse_and_exits_2():
    # the plain parser leaves a command line it does not read to argparse,
    # which names the fault
    code = ("import sys\n"
            "from tmblocks.cli import main\n"
            "try:\n"
            "    main(['verify', '--m', '2..1'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'argparse' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.stdout == "2 True\n"
    assert result.stderr.startswith("usage: tmblocks verify")
    assert "error: argument --m: empty range '2..1'" in result.stderr


def test_every_public_name_resolves():
    import tmblocks

    listing = dir(tmblocks)
    for name in tmblocks.__all__:
        assert getattr(tmblocks, name) is not None, name
        assert name in listing, name
    with pytest.raises(AttributeError):
        tmblocks.no_such_name


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def _argparse_outcome(argv):
    """argparse's namespace of ``argv`` as a dict, or the code it exits
    with, for help (0) or a usage error (2)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


# the values drawn for each option: values that some command takes, then
# values that none does
_OPTION_VALUES = {
    "--m": (["0", "3", "12", " 4", "+5", "1_0", "2..5", "3..3"],
            ["x", "5..2", "2..", "-", "-3", "-h", "-m"]),
    "--method": (["scan", "descend", "both"], ["text", "sc", "-h"]),
    "--format": (["text", "json", "dot"], ["csv", "-x"]),
    "--claims": (["qandf", "qandf,pairs", " pairs , "], [",", "nonsense", "qandf,nonsense", "-h"]),
    "--sub": (["-", "f.json", "", "a b"], ["--sub", "-f", "-h", "-1"]),
}
# the other forms of an option: abbreviated, joined to its value, help, the
# end of options, unknown
_OTHER_NAMES = ["--me", "--meth", "--form", "--cl", "--su", "--m=3", "--format=json",
                "--sub=-", "-h", "--help", "--", "--tol"]
_WORDS = [*cli._GRAMMAR, "theta", "eta", "zeta5", "nope", *_OPTION_VALUES, *_OTHER_NAMES,
          *(v for values in _OPTION_VALUES.values() for v in values[0] + values[1])]


@st.composite
def _command_lines(draw) -> list[str]:
    """A command and, most of the time, a CHOICE that fits it and each of
    its options in any order, each with a value that some command takes;
    now and then an option left out, in another form or twice, a value
    that no command takes or none, or any word put in at any place."""
    def now_and_then():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from([*cli._GRAMMAR, "nope"]))
    _, _, choice, options = cli._GRAMMAR.get(command, (None, None, None, ()))
    argv = [command]
    if choice is not None and not now_and_then():
        argv.append(draw(st.sampled_from(choice[1])))
    names = [name for name in draw(st.permutations([name for name, _ in options]))
             if not now_and_then()]
    if names and now_and_then():
        names.append(names[0])
    for name in names:
        argv.append(draw(st.sampled_from(_OTHER_NAMES)) if now_and_then() else name)
        if not now_and_then():
            valid, invalid = _OPTION_VALUES[name]
            argv.append(draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid)))
    if now_and_then():
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_WORDS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(_command_lines(), _command_lines(),
                 st.lists(st.sampled_from(_WORDS), max_size=6)))
def test_the_plain_parser_reads_a_command_line_as_argparse_does_or_not_at_all(argv):
    # where argparse prints help or a usage error, the plain parser leaves
    # the command line to it, so that help and usage errors keep their text
    plain = cli._parse_plain(argv)
    want = _argparse_outcome(argv)
    if type(want) is not dict:
        assert plain is None, (argv, want)
    elif plain is not None:
        assert vars(plain) == want, argv


@pytest.mark.parametrize("command", [*STDOUT_SHA256, "verify --m 2..5 --claims qandf,pairs",
                                     "eigen --sub -", "eigen --sub f.json", "fixture zeta5",
                                     "factors --format json --method both --m 3"])
def test_the_plain_parser_reads_every_plain_command_line(command):
    plain = cli._parse_plain(command.split())
    assert plain is not None and vars(plain) == _argparse_outcome(command.split())


# each command line, and the exit codes it may end in when its reader closes
# stdout after 100 bytes: the output of the first two is far larger than a
# pipe holds, fixture and eigen write theirs at once, before the reader
# closes, and verify writes its lines as it checks them when its stdout is
# unbuffered, else at its end
_STREAM_COMMANDS = {
    "factors --m 10 --format json": (3,),
    "build eta --m 9 --format json": (3,),
    "fixture zeta5": (0,),
    "verify --m 2..3": (0, 3),
    "eigen --sub FILE": (0,),
    "eigen --sub -": (0,),
}


@pytest.mark.parametrize("case", ["closed stdin", "closed stdout", "full stdout",
                                  "stdout closed after 100 bytes", "closed stderr"])
@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_closed_and_full_streams_exit_3_without_traceback(tmp_path, command, case):
    """A closed stdin that the command reads, a closed or full stdout, and a
    reader that closes stdout early each end in exit 3 without a traceback:
    the first three with one ``error:`` line on stderr, the last silently.
    A closed stderr is not stdout's fault: the command exits 0."""
    sub = tmp_path / "zeta5.json"
    sub.write_text(injectivize.zeta5_fixture().to_json())
    argv = command.replace("FILE", str(sub)).split()
    redirect = {"closed stdin": "0<&-", "closed stdout": ">&-", "full stdout": ">/dev/full",
                "stdout closed after 100 bytes": "", "closed stderr": "2>&-"}[case]
    if case == "full stdout" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # the shell starts the command with the redirection in place
    cmd = ["sh", "-c", f'exec "$0" -m tmblocks "$@" {redirect}', sys.executable, *argv]
    with open(sub, "rb") as stdin, open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(cmd, env=_src_env(), stdin=stdin, stdout=subprocess.PIPE,
                                stderr=err)
        proc.stdout.read(100 if case == "stdout closed after 100 bytes" else -1)
        proc.stdout.close()
        code = proc.wait(timeout=60)
    text = (tmp_path / "err").read_text()
    assert "Traceback" not in text and "Exception ignored" not in text, text
    errors = [line for line in text.splitlines() if line.startswith("error:")]
    if case == "stdout closed after 100 bytes":
        assert code in _STREAM_COMMANDS[command] and not errors
    elif case == "closed stderr" or case == "closed stdin" and argv[-1] != "-":
        assert code == 0 and not errors
    else:
        assert code == 3 and len(errors) == 1, errors


@pytest.mark.parametrize("executable", ["python", "shell script"])
@pytest.mark.parametrize("command, code, lines", [
    ("verify --m 2", 0, 8), ("eigen --sub /nonexistent", 3, 0), ("verify --m 1", 2, 0)])
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, executable, command, code, lines):
    """With stderr closed, a command exits with its own code and prints its
    data alone on stdout, whether the interpreter starts with no stderr or,
    started from a shell script, with the script open in its place."""
    script = tmp_path / "tmblocks.sh"
    script.write_text(f'exec "{sys.executable}" -m tmblocks "$@"\n')
    start = [sys.executable, "-m", "tmblocks"] if executable == "python" else ["sh", str(script)]
    cmd = ["sh", "-c", 'exec "$@" 2>&-', "sh", *start, *command.split()]
    proc = subprocess.run(cmd, env=_src_env(), stdout=subprocess.PIPE, timeout=60)
    out = proc.stdout.decode().splitlines()
    assert proc.returncode == code and len(out) == lines
    assert all(line.startswith("PASS m=2 ") for line in out)


class _CountingRaw(io.RawIOBase):
    """A writable raw stream that keeps each write it is given."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize("terminal", [False, True])
def test_verify_writes_its_lines_in_one_call_unless_on_a_terminal(monkeypatch, terminal):
    """Through a buffered stdout, verify's 16 lines go out in one write; on a
    terminal, which is line-buffered, one write a line, as ``print`` does."""
    raw = _CountingRaw()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", line_buffering=terminal)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert cli.main(["verify", "--m", "2..3"]) == 0
    assert len(raw.writes) == (16 if terminal else 1)
    assert b"".join(raw.writes).decode().splitlines() == [
        f"PASS m={m} {claim}" for m in (2, 3) for claim in claims.CLAIMS]
