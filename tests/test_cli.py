import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tmblocks.cli import MAX_DEPTH, run
from tmblocks.report import CheckEntry, VerificationReport
from tmblocks.thue_morse import MAX_M, enumerate_by_scan


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
    assert code == 2 and "1 <= m <= 12" in err


def test_factors_deterministic(capsys):
    _, first, _ = _run(capsys, ["factors", "--m", "4", "--format", "json"])
    _, second, _ = _run(capsys, ["factors", "--m", "4", "--format", "json"])
    assert first == second


def _whole_factor_table(fs):
    """Oracle: the factor table built as one list of lines and joined."""
    size = fs.size
    ncols = 4 if size % 4 == 0 else (2 if size % 2 == 0 else 1)
    rows = size // ncols
    width = len(str(size))
    lines = [f"m={fs.m} N={fs.word_length} count={size}"]
    for r in range(rows):
        cells = [f"w_{c * rows + r + 1:<{width}} = {fs.words[c * rows + r]}"
                 for c in range(ncols)]
        lines.append("   ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", range(1, 11))
def test_streamed_factors_match_whole_document_output(capsys, m):
    fs = enumerate_by_scan(m)
    code, out, _ = _run(capsys, ["factors", "--m", str(m), "--format", "json"])
    assert code == 0
    assert out == json.dumps({"m": m, "words": [str(w) for w in fs.words]}) + "\n"
    code, out, _ = _run(capsys, ["factors", "--m", str(m)])
    assert code == 0
    assert out == _whole_factor_table(fs)


def test_build_theta_text(capsys):
    code, out, _ = _run(capsys, ["build", "theta", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_5(w_1) = w_4 w_10"
    assert lines[6] == "theta_5(w_7) = w_7 w_1"


def test_build_theta_explicit_matches_windows(capsys):
    _, windows, _ = _run(capsys, ["build", "theta", "--m", "3"])
    _, explicit, _ = _run(capsys, ["build", "theta", "--m", "3", "--explicit"])
    assert windows == explicit
    code, _, _ = _run(capsys, ["build", "theta", "--m", "3", "--both"])
    assert code == 0


def test_build_theta_width_three(capsys):
    code, out, _ = _run(capsys, ["build", "theta", "--m", "1"])
    assert code == 0
    assert out.splitlines()[0] == "theta_3(w_1) = w_2 w_5"
    code, _, err = _run(capsys, ["build", "theta", "--m", "1", "--explicit"])
    assert code == 2 and "2..12" in err


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


def test_verify_rejects_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2..1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2", "--claims", "nonsense"])
    assert exc.value.code == 2
    code, _, err = _run(capsys, ["verify", "--m", "1..3"])
    assert code == 2 and "2 <= m" in err


@pytest.mark.parametrize("option", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--depth", "0"], ["--depth", "-3"], ["--claims", ","], ["--claims", " , ,"],
    ["--depth", str(MAX_DEPTH + 1)], ["--depth", "100"],
])
def test_verify_rejects_bad_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--m", "2", *option])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {option[0]}" in captured.err


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


def test_eigen_from_stdin(capsys, monkeypatch):
    _, payload, _ = _run(capsys, ["build", "eta", "--m", "3", "--format", "json"])
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = _run(capsys, ["eigen", "--sub", "-"])
    assert code == 0
    assert out == "PF ≈ 2.000000000, primitive: true\n"


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


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, tmblocks.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), timeout=60)
    assert result.returncode == 0


def test_eigen_loads_only_the_substitution_module(capsys, tmp_path):
    _, payload, _ = _run(capsys, ["fixture", "zeta5", "--format", "json"])
    path = tmp_path / "zeta5.json"
    path.write_text(payload)
    code = ("import sys\n"
            "from tmblocks.cli import main\n"
            "main(['eigen', '--sub', sys.argv[1]])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code, str(path)], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout == "PF ≈ 2.000000000, primitive: false\n"
    loaded = set(result.stderr.split())
    assert "tmblocks.substitution" in loaded
    for name in ("dataclasses", "tmblocks.thue_morse", "tmblocks.nblock",
                 "tmblocks.injectivize", "tmblocks.words", "tmblocks.report"):
        assert name not in loaded, name


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


def test_report_failure_rendering():
    rep = VerificationReport((CheckEntry(2, "demo.sub", False, "boom"),))
    assert not rep.ok
    assert rep.failed_count == 1
    assert rep.lines() == ["FAIL m=2 demo.sub  (boom)"]
    assert rep.entry("demo.sub").status == "FAIL"
    with pytest.raises(KeyError):
        rep.entry("other")
