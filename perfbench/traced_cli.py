"""Run one tmblocks CLI command in this process, with spans recorded around
calls into each module's public functions.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_JSON ARGS...

ARGS are the CLI arguments, as for ``python -m tmblocks``; stdout, stderr and
the exit code are the CLI's own. The wrappers are installed from here, not in
the package: each listed function is replaced in every ``tmblocks`` module
that bound it, so calls made inside the package are caught too. For
``verify`` the claim spans are cut at the ``PASS``/``FAIL`` lines the CLI
prints, which does not depend on how the claims are dispatched.

Spans stay in memory and are written to SPANS_JSON when the command ends, as
``[name, start, end, parent, value, rss_kb]`` with times in seconds from the
start of the import. ``value`` is a count the wrapper measured (letters for
``apply``, k*k*8 bytes for ``incidence_matrix``, 1/0 for a passed/failed
report check, m for a claim). ``rss_kb`` is the process high-water mark at
the end of a span of depth 0 or 1 (the import, the CLI call, and the stages
directly under it).
"""

import time

T0 = time.perf_counter()
import tmblocks.cli  # noqa: E402  the import itself is the first span

T1 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# (module, function or Class.method, value measured from the result)
TARGETS = (
    ("words", "BinaryWord.from_string", None),
    ("substitution", "Substitution.apply", len),
    ("substitution", "Substitution.language", None),
    ("substitution", "Substitution.from_json", None),
    ("substitution", "Substitution.incidence_matrix", lambda mat: mat.size ** 2 * 8),
    ("substitution", "IncidenceMatrix.is_primitive", None),
    ("substitution", "IncidenceMatrix.image_length_sequence", None),
    ("substitution", "pf_eigenvalue", None),
    ("thue_morse", "apply_theta", None),
    ("thue_morse", "descendants", None),
    ("thue_morse", "enumerate_by_scan", None),
    ("thue_morse", "enumerate_by_descendants", None),
    ("thue_morse", "verify_quarter_minima", None),
    ("thue_morse", "verify_quarter_descendants", None),
    ("thue_morse", "verify_prefix_pairs", None),
    ("nblock", "build_nblock", None),
    ("nblock", "formula_block_substitution", None),
    ("nblock", "verify_block_formula", None),
    ("injectivize", "build_eta", None),
    ("injectivize", "verify_pair_images", None),
    ("injectivize", "verify_fixed_point", None),
    ("injectivize", "verify_primitivity_argument", None),
    ("injectivize", "theorem_report", None),
    ("report", "ReportBuilder.check", int),
)

# lru_cache'd builders whose public cache_info() is reported
CACHED = (
    ("thue_morse", "enumerate_by_scan"),
    ("nblock", "thue_morse_block_system"),
    ("injectivize", "eta_system"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = [["cli.import", 0.0, T1 - T0, None, None, _maxrss_kb()]]
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter() - T0, None, parent, None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, value=None, name: str | None = None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter() - T0
        if self.stack.pop() != sid:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if value is not None:
            span[4] = value
        if name is not None:
            span[0] = name
        if len(self.stack) <= 1:
            span[5] = _maxrss_kb()


def _traced(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        value = None
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                value = measure(result)
            return result
        finally:
            tracer.close(sid, value)
    return wrapper


def install(tracer: Tracer) -> None:
    modules = [mod for key, mod in sys.modules.items()
               if key == "tmblocks" or key.startswith("tmblocks.")]
    for module_name, attr, measure in TARGETS:
        module = importlib.import_module(f"tmblocks.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        span_name = f"{module_name}.{fn_name}"
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(fn_name) if owner is not None else None
            if raw is None:
                print(f"perfbench: no {module_name}.{attr} to trace", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, fn_name, classmethod(_traced(tracer, span_name, raw.__func__, measure)))
            else:
                setattr(owner, fn_name, _traced(tracer, span_name, raw, measure))
            continue
        original = getattr(module, fn_name, None)
        if original is None:
            print(f"perfbench: no {module_name}.{attr} to trace", file=sys.stderr)
            continue
        wrapper = _traced(tracer, span_name, original, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class ClaimLines:
    """stdout proxy that ends the open claim span at each PASS/FAIL line and
    opens the next one; a span still open at the end is ``claim.incomplete``."""

    LINE = re.compile(r"(PASS|FAIL) m=(\d+) (\w+)$")

    def __init__(self, stream, tracer: Tracer) -> None:
        self.stream = stream
        self.tracer = tracer
        self.partial = ""
        self.sid = tracer.open("claim.incomplete")

    def write(self, text: str) -> int:
        written = self.stream.write(text)
        self.partial += text
        while "\n" in self.partial:
            line, self.partial = self.partial.split("\n", 1)
            match = self.LINE.match(line)
            if match:
                self.tracer.close(self.sid, int(match[2]), f"claim.{match[3]}")
                self.sid = self.tracer.open("claim.incomplete")
        return written

    def finish(self) -> None:
        self.tracer.close(self.sid)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    cached = {f"{mod}.{fn}": getattr(importlib.import_module(f"tmblocks.{mod}"), fn, None)
              for mod, fn in CACHED}
    tracer = Tracer()
    install(tracer)
    root = tracer.open("cli.main")
    claims = ClaimLines(sys.stdout, tracer) if args[:1] == ["verify"] else None
    if claims is not None:
        sys.stdout = claims
    code = 1
    try:
        code = tmblocks.cli.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
    finally:
        if claims is not None:
            claims.finish()
            sys.stdout = claims.stream
        tracer.close(root)
        caches = {name: list(fn.cache_info()[:2]) for name, fn in cached.items()
                  if hasattr(fn, "cache_info")}
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "caches": caches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
