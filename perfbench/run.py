#!/usr/bin/env python3
"""Benchmark of the tmblocks CLI: time to verdict, CPU and peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, summary each

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs building. Each workload is a closed loop with one
client: every operation is a fresh ``python -m tmblocks`` subprocess, started
after the previous one has ended, so it pays the interpreter and numpy
start-up and begins with cold ``lru_cache``s, as a user's call does. A pass
runs every operation of the workload once. Passes repeat while the last
pass still fits into the remaining seconds; at least one pass runs. A time
is summed over the operations of a pass, each taken as its median over the
passes of the run.

Every output is checked against facts the benchmark derives itself (see the
``*_check`` functions). An operation fails on a wrong output, an exit code
outside the documented 0-3, a traceback or a time-out. ``correct`` in the
result is false when any completed operation gave a wrong answer; a crash
counts in ``failed`` only.

With ``--trace 0`` the last line carries the end-to-end metrics, medians
over passes. With ``--trace 1`` the run makes one untraced and one traced
pass; the traced pass runs each operation through ``traced_cli.py``, and
the last line carries the per-layer metrics derived from its spans.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import eigen_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("verify_range", "words_m12", "eigen_mix")
CLAIMS = ("qandf", "quarters", "firsthalf", "nblock", "pairs",
          "fixedpoint", "primitivity", "theorem")
DOCUMENTED_EXITS = (0, 1, 2, 3)
# setup_s is the median CPU time over all set-ups of a run, SETUP_BATCH before
# the first pass and as many after each pass: the host's speed switches in
# phases of seconds, so the set-ups are spread over the run.
SETUP_BATCH = 3
RUN_DEADLINE_S = 165.0     # kill whatever still runs after this, and fail it
PF_REL_TOL = 1e-6
# One BLAS thread per child. On a shared host a multi-threaded matrix product
# waits for its slowest core: with 2 threads on 2 vCPUs, the run-to-run spread
# of the matrix-heavy ops was more than twice that with 1 thread.
BLAS_THREADS = 1

# A check returns None when the output is right, else what is wrong.
Check = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Outcome:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: str            # "ok", "crash" or "wrong"
    reason: str


# ---------------------------------------------------------------- checks

def pass_lines_check(ms: range, claims: tuple[str, ...], usage_error_ok: bool = False) -> Check:
    """stdout must be exactly one PASS line per (m, claim), in CLI order, with
    exit 0. With ``usage_error_ok``, exit 2 with an error message also passes."""
    want = "".join(f"PASS m={m} {c}\n" for m in ms for c in CLAIMS if c in claims)

    def check(code: int, out: str, err: str) -> str | None:
        if usage_error_ok and code == 2 and "error" in err:
            return None
        if code == 0 and out == want:
            return None
        return f"exit {code}; stdout is not the {want.count(chr(10))} expected PASS lines"
    return check


def thue_morse_prefix(n: int) -> str:
    """The length-n Thue-Morse prefix 0110..., letter i = parity of popcount(i)."""
    return "".join("01"[i.bit_count() & 1] for i in range(n))


def factors_check(m: int) -> Check:
    """The JSON must hold 3*2^m strictly increasing words of length n = 2^m+1,
    each a factor of Thue-Morse. Every factor of length n occurs in every
    window of length 11*2^(m-1) < 6n (the recurrence function of Thue-Morse),
    so the prefix of length 16n holds them all."""
    n, count = 2 ** m + 1, 3 * 2 ** m

    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            data = json.loads(out)
            words = data["words"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad JSON: {exc}"
        if data.get("m") != m or len(words) != count:
            return f"m={data.get('m')} with {len(words)} words, want m={m} with {count}"
        if any(not isinstance(w, str) or len(w) != n for w in words):
            return f"a word is not a string of length {n}"
        if any(a >= b for a, b in zip(words, words[1:])):
            return "words are not strictly increasing"
        text = thue_morse_prefix(16 * n)
        start = {hash(text[i:i + n]): i for i in range(len(text) - n + 1)}
        for w in words:
            i = start.get(hash(w))
            if i is None or text[i:i + n] != w:
                return f"{w[:20]}... is not a Thue-Morse factor"
        return None
    return check


EIGEN_LINE = re.compile(r"PF (?:≈ (\S+)|did not converge), primitive: (true|false)\n\Z")


def eigen_check(primitive: bool, pf: float) -> Check:
    """The primitive flag must match the construction; PF within PF_REL_TOL
    relative; 'did not converge' is accepted only on imprimitive inputs."""
    def check(code: int, out: str, err: str) -> str | None:
        match = EIGEN_LINE.match(out)
        if code != 0 or match is None:
            return f"exit {code}; unexpected output {out[:80]!r}"
        if (match[2] == "true") != primitive:
            return f"primitive: {match[2]}, want {str(primitive).lower()}"
        if match[1] is None:
            return None if not primitive else "PF did not converge on a primitive input"
        if not abs(float(match[1]) - pf) <= PF_REL_TOL * pf:  # also rejects nan
            return f"PF {match[1]}, want {pf}"
        return None
    return check


# ---------------------------------------------------------------- workloads

def build_ops(workload: str, seed: int, workdir: Path, env: dict[str, str]) -> list[Op]:
    if workload == "verify_range":
        # m=11 is left out: alone it is one 40 s call, too long to time more
        # than once in a run on a shared host
        return [Op(("verify", "--m", "2..10"), pass_lines_check(range(2, 11), CLAIMS))]
    if workload == "words_m12":
        m12 = range(12, 13)
        return [
            Op(("factors", "--m", "12", "--method", "both", "--format", "json"), factors_check(12)),
            Op(("verify", "--m", "12", "--claims", "qandf"), pass_lines_check(m12, ("qandf",))),
            # the N-block claims at m=12 are one 17 s call; m=11 does the
            # same language and window-hashing work in under a third of that
            Op(("verify", "--m", "11", "--claims", "nblock,pairs,fixedpoint"),
               pass_lines_check(range(11, 12), ("nblock", "pairs", "fixedpoint"))),
            # needs the level-13 factor set; counts as failed until the CLI
            # either passes it or refuses it with a usage error
            Op(("verify", "--m", "12", "--claims", "quarters,firsthalf"),
               pass_lines_check(m12, ("quarters", "firsthalf"), usage_error_ok=True)),
        ]
    if workload == "eigen_mix":
        entries = eigen_inputs.generate(seed, workdir, [sys.executable], env)
        return [Op(("eigen", "--sub", e["file"]), eigen_check(e["primitive"], e["pf"]))
                for e in entries]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- running

def child_env() -> dict[str, str]:
    # bytecode is cached, as in an installed package, but inside the checkout
    # and whatever the caller's environment says
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Launcher:
    """Runs commands through ``launch.py``, a small process started before
    this one grows, so that each child's peak RSS is its own."""

    def __init__(self, env: dict[str, str], workdir: Path) -> None:
        self.workdir = workdir
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], deadline: float) -> tuple[int, str, str, float, float, float]:
        """(exit code, stdout, stderr, wall s, CPU s, peak RSS MB) of ``cmd``,
        killed at ``deadline`` (time.monotonic())."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        request = {"cmd": cmd, "out": str(out), "err": str(err),
                   "timeout": max(0.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench: the launcher process died")
        r = json.loads(reply)
        stdout = out.read_bytes().decode("utf-8", "replace")
        stderr = err.read_bytes().decode("utf-8", "replace")
        out.unlink()
        err.unlink()
        return r["code"], stdout, stderr, r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_op(op: Op, cmd: list[str], launcher: Launcher, deadline: float) -> Outcome:
    code, out, err, wall, cpu, rss_mb = launcher.run([*cmd, *op.args], deadline)
    if code not in DOCUMENTED_EXITS or "Traceback (most recent call last)" in err:
        status = "crash"
        reason = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else 'no message'}"
    else:
        reason = op.check(code, out, err) or ""
        status = "wrong" if reason else "ok"
    return Outcome(op.args, wall, cpu, rss_mb, status, reason)


def run_pass(ops: list[Op], launcher: Launcher, deadline: float,
             spans_dir: Path | None = None) -> list[Outcome]:
    """Run every op once, in order; with ``spans_dir``, through the tracer,
    writing op i's spans to ``spans_dir/spans-i.json``."""
    outcomes = []
    for i, op in enumerate(ops):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "tmblocks"]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir / f"spans-{i}.json")]
        outcomes.append(run_op(op, cmd, launcher, deadline))
        if time.monotonic() >= deadline:
            break
    return outcomes


def check_import(launcher: Launcher, deadline: float) -> None:
    """Import the package once (warming the file cache and the bytecode
    cache) and check that it comes from this checkout."""
    code, out, err, *_ = launcher.run(
        [sys.executable, "-c", "import tmblocks.cli; print(tmblocks.cli.__file__)"], deadline)
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cannot import tmblocks from {SRC}: {err.strip()[-300:]}")


def set_up(launcher: Launcher, deadline: float) -> list[tuple[float, float]]:
    """SETUP_BATCH set-ups: (wall s, CPU s) of each fresh ``import tmblocks.cli``."""
    times = []
    for _ in range(SETUP_BATCH):
        code, _, err, wall, cpu, _ = launcher.run([sys.executable, "-c", "import tmblocks.cli"],
                                                  deadline)
        if code != 0:
            raise SystemExit(f"perfbench: import failed: {err.strip()[-300:]}")
        times.append((wall, cpu))
    return times


# ---------------------------------------------------------------- metrics

def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return f"n/a (n={len(xs)} < 11)"
    i = len(xs) - 11
    return f"p{100 * (i + 1) // len(xs)}={xs[i]:.4f} (n={len(xs)})"


def per_pass(passes: list[list[Outcome]]) -> dict[str, list[float]]:
    return {"wall_s": [sum(o.wall_s for o in p) for p in passes],
            "cpu_s": [sum(o.cpu_s for o in p) for p in passes],
            "peak_rss_mb": [max(o.rss_mb for o in p) for p in passes]}


def end_to_end(setup: list[tuple[float, float]],
               passes: list[list[Outcome]]) -> dict[str, float]:
    """Times are the pass's operations summed, each its median over the
    passes; a pass cut short by the time limit is left out. ``setup_s`` is
    the median CPU time of the set-ups, ``setup_wall_s`` their median wall
    time."""
    by_op = list(zip(*(p for p in passes if len(p) == len(passes[0]))))
    return {"setup_s": statistics.median(cpu for _, cpu in setup),
            "setup_wall_s": statistics.median(wall for wall, _ in setup),
            "wall_s": sum(statistics.median(o.wall_s for o in runs) for runs in by_op),
            "cpu_s": sum(statistics.median(o.cpu_s for o in runs) for runs in by_op),
            "peak_rss_mb": max(o.rss_mb for p in passes for o in p)}


TIMED_LAYERS = (
    "words.from_string", "substitution.apply", "substitution.language",
    "substitution.from_json", "substitution.incidence_matrix", "substitution.is_primitive",
    "substitution.image_length_sequence", "substitution.pf_eigenvalue",
    "thue_morse.apply_theta", "thue_morse.enumerate_by_scan",
    "thue_morse.enumerate_by_descendants", "thue_morse.verify_quarter_descendants",
    "thue_morse.verify_prefix_pairs", "nblock.build_nblock",
    "nblock.formula_block_substitution", "nblock.verify_block_formula",
    "injectivize.build_eta", "injectivize.verify_pair_images", "injectivize.verify_fixed_point",
    "injectivize.verify_primitivity_argument", "injectivize.theorem_report",
    "cli.import", "cli.main",
)
STAGES = ("cli.import", *(f"claim.{c}" for c in CLAIMS), "thue_morse.enumerate_by_scan",
          "thue_morse.enumerate_by_descendants", "substitution.from_json",
          "substitution.is_primitive", "substitution.incidence_matrix", "substitution.pf_eigenvalue")


def layer_metrics(traces: list[dict], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced operation. ``.s`` is
    self time, except ``claim.*.s``, which is the whole claim."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    value: Counter = Counter()
    rss_mb: dict[str, float] = defaultdict(float)
    rounds = quarter_descendants = quarter_words = 0
    caches: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    n_spans = 0
    for trace in traces:
        spans = trace["spans"]
        n_spans += len(spans)
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        claim_of: list[str | None] = []
        for i, (name, start, end, parent, val, rss_kb) in enumerate(spans):
            up = claim_of[parent] if parent is not None else None
            claim_of.append(name if name.startswith("claim.") else up)
            self_s[name] += end - start - child_s[i]
            total_s[name] += end - start
            calls[name] += 1
            value[name] += val or 0
            if rss_kb is not None:
                rss_mb[name] = max(rss_mb[name], rss_kb / 1024)
            if name == "substitution.apply" and parent is not None \
                    and spans[parent][0] == "substitution.language":
                rounds += 1
            if name == "thue_morse.descendants" and claim_of[i] == "claim.quarters":
                quarter_descendants += 1
            if name == "claim.quarters":
                quarter_words += 3 * 2 ** val
        for name, (hits, misses) in trace["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses

    out: dict[str, float] = {f"{name}.s": self_s[name] for name in TIMED_LAYERS}
    out.update({f"claim.{c}.s": total_s[f"claim.{c}"] for c in CLAIMS})
    out.update({f"{name}.rss_mb": rss_mb[name] for name in STAGES})
    for name in ("substitution.apply", "thue_morse.apply_theta", "words.from_string"):
        out[f"{name}.calls"] = calls[name]
    out["substitution.apply.letters"] = value["substitution.apply"]
    out["substitution.incidence_matrix.bytes"] = value["substitution.incidence_matrix"]
    out["substitution.language.rounds"] = rounds
    out["claim.quarters.descendants"] = quarter_descendants
    out["claim.quarters.words"] = quarter_words
    out["claim.quarters.descendants_per_word"] = (
        quarter_descendants / quarter_words if quarter_words else 0.0)
    for name in ("thue_morse.enumerate_by_scan", "nblock.thue_morse_block_system",
                 "injectivize.eta_system"):
        hits, misses = caches[name]
        out[f"{name}.cache_hits"] = hits
        out[f"{name}.cache_calls"] = hits + misses
        out[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["report.entries"] = calls["report.check"]
    out["report.failed"] = calls["report.check"] - value["report.check"]
    claimed = sum(total_s[f"claim.{c}"] for c in CLAIMS) + total_s["cli.import"]
    out["trace.wall_s"] = traced_wall
    out["trace.coverage_frac"] = claimed / traced_wall
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.spans"] = n_spans
    return out


# ---------------------------------------------------------------- driver

def load_trace(path: Path) -> dict:
    """An op's spans; none if the op was killed before it could write them."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {"spans": [], "caches": {}}


def environment() -> dict[str, str]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": str(len(os.sched_getaffinity(0))), "blas_threads": str(BLAS_THREADS),
            "commit": commit}


def declared_metrics(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def select(values: dict[str, float], kind: str) -> dict[str, dict]:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(kind)}


def print_summary(workload: str, seed: int, setup: list[tuple[float, float]],
                  passes: list[list[Outcome]], env_info: dict[str, str]) -> None:
    ops = [o for p in passes for o in p]
    failed = sum(o.status != "ok" for o in ops)
    e2e = end_to_end(setup, passes)
    units = {"setup_wall_s": "s", "wall_s": "s"} | {
        m["name"]: m["unit"] for m in declared_metrics("end_to_end")}
    print(f"== {workload} seed={seed} passes={len(passes)} ops={len(ops)} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, values in (("setup_s", [cpu for _, cpu in setup]),
                         ("setup_wall_s", [wall for wall, _ in setup])):
        print(f"  {name:<12} median {e2e[name]:.4f} {units[name]}  {high_percentile(values)}")
    for name, values in per_pass(passes).items():
        print(f"  {name:<12} {e2e[name]:.4f} {units[name]}  per pass: median "
              f"{statistics.median(values):.4f}, {high_percentile(values)}")
    print(f"  fail_frac    {failed / len(ops):.4f} ratio  ({failed} of {len(ops)} ops)")
    print(f"  op wall      median {statistics.median(o.wall_s for o in ops):.4f} s  "
          f"{high_percentile([o.wall_s for o in ops])}")
    for i, op_runs in enumerate(zip(*passes)):
        print(f"  op{i:<2} wall {statistics.median(o.wall_s for o in op_runs):8.4f} s  "
              f"cpu {statistics.median(o.cpu_s for o in op_runs):8.4f} s  "
              f"rss {max(o.rss_mb for o in op_runs):7.1f} MB  tmblocks {' '.join(op_runs[0].args)}")
    for o in ops:
        if o.status != "ok":
            print(f"  {o.status.upper()}: tmblocks {' '.join(o.args)}: {o.reason}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher, env: dict[str, str], env_info: dict[str, str]) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = launcher.workdir / workload
    workdir.mkdir()
    check_import(launcher, deadline)
    ops = build_ops(workload, seed, workdir, env)
    setup = set_up(launcher, deadline)
    passes: list[list[Outcome]] = []
    started = time.monotonic()
    while time.monotonic() < deadline:
        t = time.monotonic()
        passes.append(run_pass(ops, launcher, deadline))
        setup += set_up(launcher, deadline)
        used, last = time.monotonic() - started, time.monotonic() - t
        if trace or used + last > seconds:
            break
    print_summary(workload, seed, setup, passes, env_info)
    if trace:
        traced_pass = run_pass(ops, launcher, deadline, spans_dir=workdir)
        traces = [load_trace(workdir / f"spans-{i}.json") for i in range(len(traced_pass))]
        spans_out = WORK / f"spans-{workload}-seed{seed}.json"
        spans_out.write_text(json.dumps({
            "ops": [list(o.args) for o in traced_pass],
            "spans": [[op_id, *s] for op_id, t in enumerate(traces) for s in t["spans"]],
            "caches": [t["caches"] for t in traces]}))
        values = layer_metrics(traces, sum(o.wall_s for o in traced_pass),
                               sum(o.wall_s for o in passes[0]))
        passes.append(traced_pass)
        print(f"  traced pass: {values['trace.wall_s']:.4f} s, overhead "
              f"{values['trace.overhead_frac']:.4f}, spans in {spans_out.relative_to(ROOT)}")
        metrics = select(values, "per_layer")
    else:
        metrics = select(end_to_end(setup, passes), "end_to_end")
    ops_done = [o for p in passes for o in p]
    return {"correct": all(o.status != "wrong" for o in ops_done),
            "attempted": len(ops_done),
            "failed": sum(o.status != "ok" for o in ops_done),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tmblocks" / "cli.py").is_file():
        print(f"perfbench: no tmblocks sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    env_info = environment()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=WORK) as tmp:
        launcher = Launcher(env, Path(tmp))
        try:
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                       launcher, env, env_info)
                       for w in (WORKLOADS if args.workload == "all" else (args.workload,))}
        finally:
            launcher.close()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
