"""Command-line front end: enumeration, construction, verification, export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
parse failure. Output for a fixed command line is byte-identical across
runs; data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator

# Each command imports the modules it uses, so that start-up costs what the
# command needs: `eigen` loads substitution.py alone.
from .substitution import Substitution, pf_eigenvalue

# iterates checked by fixedpoint and theorem have 2^depth letters; at depth 20
# `verify --m 2` peaks at about 140 MB, and each further step doubles that
MAX_DEPTH = 20


def _m_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M or LO..HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _claim_list(text: str) -> tuple[str, ...]:
    from .claims import CLAIMS

    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for name in names:
        if name not in CLAIMS:
            raise argparse.ArgumentTypeError(
                f"unknown claim {name!r} (choose from {', '.join(CLAIMS)})")
    if not names:
        raise argparse.ArgumentTypeError(f"no claim named in {text!r}")
    return names


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return tol


def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        depth = 0
    if not 1 <= depth <= MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"expected an integer in 1..{MAX_DEPTH}, got {text!r}")
    return depth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmblocks",
        description="Enumerate Thue-Morse factors, build block substitutions and "
                    "their injective refinements, and verify the whole chain.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_factors = commands.add_parser("factors", help="enumerate the factor set A_m")
    p_factors.add_argument("--m", type=int, required=True)
    p_factors.add_argument("--method", choices=("scan", "descend", "both"), default="scan")
    p_factors.add_argument("--format", choices=("text", "json"), default="text")

    p_build = commands.add_parser("build", help="construct a substitution")
    build_kind = p_build.add_subparsers(dest="kind", required=True)
    p_theta = build_kind.add_parser("theta", help="the N-block substitution")
    p_theta.add_argument("--m", type=int, required=True)
    mode = p_theta.add_mutually_exclusive_group()
    mode.add_argument("--windows", action="store_true")
    mode.add_argument("--explicit", action="store_true")
    mode.add_argument("--both", action="store_true")
    p_theta.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_eta = build_kind.add_parser("eta", help="the injective refinement")
    p_eta.add_argument("--m", type=int, required=True)
    p_eta.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p_fixture = commands.add_parser("fixture", help="dump a hard-coded fixture")
    p_fixture.add_argument("name", choices=("zeta5",))
    p_fixture.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p_verify = commands.add_parser("verify", help="run claim verifiers over a range of m")
    p_verify.add_argument("--m", type=_m_range, required=True, metavar="M|LO..HI")
    p_verify.add_argument("--claims", type=_claim_list)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-9)
    p_verify.add_argument("--depth", type=_depth, default=12)

    p_eigen = commands.add_parser("eigen", help="dominant eigenvalue and primitivity "
                                                "of a substitution JSON file")
    p_eigen.add_argument("--sub", required=True, metavar="FILE|-")
    return parser


def _factor_table(fs: "FactorSet", header: str) -> Iterator[str]:
    """The factor table line by line, without line ends: at m = 12 it is
    50 MB of text, so it is written as it is formatted."""
    size = fs.size
    ncols = 4 if size % 4 == 0 else (2 if size % 2 == 0 else 1)
    rows = size // ncols
    width = len(str(size))
    yield header
    for r in range(rows):
        cells = []
        for c in range(ncols):
            i = c * rows + r
            cells.append(f"w_{i + 1:<{width}} = {fs.words[i]}")
        yield "   ".join(cells).rstrip()


def _sub_table(sub: Substitution, name: str) -> Iterator[str]:
    for j, img in enumerate(sub.images):
        yield f"{name}(w_{j + 1}) = {sub.format_word(img)}"


def _write_lines(lines: Iterable[str]) -> None:
    write = sys.stdout.write
    for line in lines:
        write(line)
        write("\n")


def _emit_substitution(sub: Substitution, name: str, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.writelines(sub.iter_json())
        print()
    elif fmt == "dot":
        sys.stdout.writelines(sub.iter_dot(name))
    else:
        _write_lines(_sub_table(sub, name))


def _cmd_factors(args: argparse.Namespace) -> int:
    from .thue_morse import MAX_M, enumerate_by_descendants, enumerate_by_scan

    if not 1 <= args.m <= MAX_M:
        print(f"error: factors requires 1 <= m <= {MAX_M}, got {args.m}", file=sys.stderr)
        return 2
    if args.method == "both":
        scan = enumerate_by_scan(args.m)
        desc = enumerate_by_descendants(args.m)
        if scan.words != desc.words:
            print("error: enumeration methods disagree", file=sys.stderr)
            return 1
        fs = scan
    else:
        fs = enumerate_by_scan(args.m) if args.method == "scan" else enumerate_by_descendants(args.m)
    if args.format == "json":
        # the bytes of json.dump({"m": m, "words": [...]}), written one word
        # at a time: a word is 0/1 text, so it needs quotes and no escapes
        write = sys.stdout.write
        write(f'{{"m": {fs.m}, "words": ["')
        for i, w in enumerate(fs.words):
            if i:
                write('", "')
            write(str(w))
        write('"]}\n')
    else:
        _write_lines(_factor_table(fs, f"m={fs.m} N={fs.word_length} count={fs.size}"))
    return 0


def _cmd_build_theta(args: argparse.Namespace) -> int:
    from .nblock import formula_block_substitution, thue_morse_block_system
    from .thue_morse import MAX_M, enumerate_by_scan

    explicit = args.explicit or args.both
    if not (2 if explicit else 1) <= args.m <= MAX_M:
        print(f"error: build theta requires m in "
              f"{'2' if explicit else '1'}..{MAX_M}, got {args.m}", file=sys.stderr)
        return 2
    n = 2 ** args.m + 1
    if args.both:
        built = thue_morse_block_system(args.m).block_sub
        formula = formula_block_substitution(enumerate_by_scan(args.m))
        if built != formula:
            print("error: window construction and closed form disagree", file=sys.stderr)
            return 1
        sub = built
    elif args.explicit:
        sub = formula_block_substitution(enumerate_by_scan(args.m))
    else:
        sub = thue_morse_block_system(args.m).block_sub
    _emit_substitution(sub, f"theta_{n}", args.format)
    return 0


def _cmd_build_eta(args: argparse.Namespace) -> int:
    from .injectivize import eta_system
    from .thue_morse import MAX_M

    if not 2 <= args.m <= MAX_M:
        print(f"error: build eta requires 2 <= m <= {MAX_M}, got {args.m}", file=sys.stderr)
        return 2
    sys_m = eta_system(args.m)
    _emit_substitution(sys_m.eta, f"eta_{2 ** args.m + 1}", args.format)
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    from .injectivize import zeta5_fixture

    _emit_substitution(zeta5_fixture(), "zeta_5", args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .claims import CLAIMS, levels
    from .thue_morse import MAX_M

    lo, hi = args.m
    if lo < 2 or hi > MAX_M:
        print(f"error: verify requires 2 <= m <= {MAX_M}, got {lo}..{hi}", file=sys.stderr)
        return 2
    claims = [c for c in CLAIMS if args.claims is None or c in args.claims]
    next_level = [c for c in claims if CLAIMS[c].needs_next_level]
    if next_level and hi + 1 > MAX_M:
        print(f"error: claims {', '.join(next_level)} need the factor set of level m+1, "
              f"so verify them with m <= {MAX_M - 1}, got {lo}..{hi}", file=sys.stderr)
        return 2
    failed = 0
    total = 0
    for level in levels(lo, hi, args.tol, args.depth):
        for claim in claims:
            rep = CLAIMS[claim].run(level)
            total += 1
            if rep.ok:
                print(f"PASS m={level.m} {claim}")
            else:
                failed += 1
                print(f"FAIL m={level.m} {claim}")
                for entry in rep:
                    if not entry.passed:
                        print(f"  {entry.claim}: {entry.detail or 'failed'}")
    print(f"{total - failed}/{total} claims passed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    try:
        if args.sub == "-":
            text = sys.stdin.read()
        else:
            with open(args.sub) as fh:
                text = fh.read()
        sub = Substitution.from_json(text)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: could not load substitution: {exc}", file=sys.stderr)
        return 3
    matrix = sub.incidence_matrix()
    primitive = "true" if matrix.is_primitive() else "false"
    try:
        value = pf_eigenvalue(matrix)
        print(f"PF ≈ {value:.9f}, primitive: {primitive}")
    except ArithmeticError:
        print(f"PF did not converge, primitive: {primitive}")
    return 0


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "factors":
        return _cmd_factors(args)
    if args.command == "build":
        return _cmd_build_theta(args) if args.kind == "theta" else _cmd_build_eta(args)
    if args.command == "fixture":
        return _cmd_fixture(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "eigen":
        return _cmd_eigen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`). What is still buffered would
        # raise again when the interpreter flushes stdout at exit, so stdout
        # goes to the null device from here on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
