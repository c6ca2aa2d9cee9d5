import copy
import hashlib
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import off_prefix
from tmblocks import claims, injectivize, nblock, thue_morse
from tmblocks.cli import run
from tmblocks.report import CheckEntry, VerificationReport
from tmblocks.substitution import Substitution
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
    for method in ("scan", "descend"):
        code, out, _ = _run(capsys, ["factors", "--m", str(m), "--method", method,
                                     "--format", "json"])
        assert code == 0
        assert out == json.dumps({"m": m, "words": words}) + "\n"
        code, out, _ = _run(capsys, ["factors", "--m", str(m), "--method", method])
        assert code == 0
        assert out == _whole_factor_table(m, words)


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
    monkeypatch.setattr(claims, "enumerate_by_scan", lambda m: off_prefix(scan(m)))
    code, out, err = _run(capsys, ["build", kind, "--m", "3"])
    assert code == 1 and out == ""
    assert err.startswith("error: nblock.images: mismatch at j=[1, 2, 3, 4, 5]")


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


def _count_theta_windows(monkeypatch):
    """Count the reads of the windows of θ(P) by (m, width): width N is the
    window check of θ_N, width 2N - 1 the descendants."""
    seen = Counter()
    theta_windows = thue_morse.FactorSet.theta_windows

    def counting(fs, width):
        seen[fs.m, width] += 1
        return theta_windows(fs, width)
    monkeypatch.setattr(thue_morse.FactorSet, "theta_windows", counting)
    return seen


def test_verify_builds_each_input_once_per_m(capsys, monkeypatch):
    scans = _count_calls(monkeypatch, "enumerate_by_scan", lambda m: m)
    blocks = _count_calls(monkeypatch, "thue_morse_block_system", lambda fs: fs.m)
    checks = _count_calls(monkeypatch, "verify_block_formula", lambda fs, nb: fs.m)
    windows = _count_theta_windows(monkeypatch)
    etas = _count_calls(monkeypatch, "build_eta", lambda m, nb: m)
    pairs = _count_calls(monkeypatch, "verify_pair_images", lambda m, nb, eta: m)
    fixed_points = _count_calls(monkeypatch, "verify_fixed_point",
                                lambda m, nb, eta, pairs: m)
    primitivity = Counter()
    is_primitive = Substitution.is_primitive

    def counting_is_primitive(sub):
        primitivity[sub.size] += 1
        return is_primitive(sub)
    monkeypatch.setattr(Substitution, "is_primitive", counting_is_primitive)
    code, out, _ = _run(capsys, ["verify", "--m", "2..6"])
    assert code == 0 and len(out.splitlines()) == 40
    assert scans == {m: 1 for m in range(2, 8)}
    assert blocks == {m: 1 for m in range(2, 7)}
    # nblock, pairs and primitivity read one window check of θ_N
    assert checks == {m: 1 for m in range(2, 7)}
    assert windows == {(m, 2 ** m + 1): 1 for m in range(2, 7)} | {
        (m, 2 ** (m + 1) + 1): 1 for m in range(2, 7)}
    assert etas == {m: 1 for m in range(2, 7)}
    # pairs and fixedpoint read one pairs report, fixedpoint and theorem
    # one fixed-point report
    assert pairs == {m: 1 for m in range(2, 7)}
    assert fixed_points == {m: 1 for m in range(2, 7)}
    assert primitivity == {3 * 2 ** m: 1 for m in range(2, 7)}


def test_pairs_alone_runs_the_window_check(capsys, monkeypatch):
    # the window check of θ_N is the premise of pairs, so it runs although
    # the nblock claim is not selected
    checks = _count_calls(monkeypatch, "verify_block_formula", lambda fs, nb: fs.m)
    windows = _count_theta_windows(monkeypatch)
    code, out, _ = _run(capsys, ["verify", "--m", "4", "--claims", "pairs"])
    assert code == 0 and out == "PASS m=4 pairs\n"
    assert checks == {4: 1} and windows == {(4, 17): 1}


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
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
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


@pytest.mark.parametrize("payload", [
    '{"alphabet": ["a", "b"], "images": [[1.9], [0]]}',
    '{"alphabet": ["a", "b"], "images": [[true], [0]]}',
    '{"alphabet": ["a", "b"], "images": [["0"], [0]]}',
    '{"alphabet": ["a"], "images": 5}',
    '{"alphabet": "ab", "images": [[0], [1]]}',
    '{"alphabet": ["a"], "images": [0]}',
    '{"alphabet": ["a", "a"], "images": [[0], [1]]}',
    '{"alphabet": [1, "1"], "images": [[0], [1]]}',
    '{"alphabet": [null, [1], {"a": 2}], "images": [[1], [2], [0]]}',
    '{"alphabet": ["a", "b"], "images": [[0]]}',
    '{"alphabet": [], "images": []}',
    "[" * 100_000,
])
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
    assert "tmblocks.substitution" in loaded
    for name in ("dataclasses", "tmblocks.thue_morse", "tmblocks.nblock",
                 "tmblocks.injectivize", "tmblocks.words", "tmblocks.report"):
        assert name not in loaded, name


def test_word_commands_load_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "from tmblocks.cli import main\n"
            "main(['verify', '--m', '2'])\n"
            "main(['factors', '--m', '2'])\n"
            "main(['build', 'theta', '--m', '2'])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("PASS m=2 qandf\n")
    loaded = set(result.stderr.split())
    assert {"tmblocks.claims", "tmblocks.thue_morse", "tmblocks.nblock"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


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

