"""Command-line front end: enumeration, construction, verification, export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
parse failure. Output for a fixed command line is byte-identical across
runs; data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator

# Each command imports the modules it uses, so that start-up costs what the
# command needs: `eigen` loads substitution.py alone.
from .substitution import Substitution, pf_eigenvalue


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
    p_factors.set_defaults(run=_cmd_factors)

    p_build = commands.add_parser("build", help="construct a substitution")
    build_kind = p_build.add_subparsers(dest="kind", required=True)
    for kind, what in (("theta", "the N-block substitution"), ("eta", "the injective refinement")):
        p_kind = build_kind.add_parser(kind, help=what)
        p_kind.add_argument("--m", type=int, required=True)
        p_kind.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p_kind.set_defaults(run=_cmd_build)

    p_fixture = commands.add_parser("fixture", help="dump a hard-coded fixture")
    p_fixture.add_argument("name", choices=("zeta5",))
    p_fixture.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_fixture.set_defaults(run=_cmd_fixture)

    p_verify = commands.add_parser("verify", help="run claim verifiers over a range of m")
    p_verify.add_argument("--m", type=_m_range, required=True, metavar="M|LO..HI")
    p_verify.add_argument("--claims", type=_claim_list)
    p_verify.set_defaults(run=_cmd_verify)

    p_eigen = commands.add_parser("eigen", help="dominant eigenvalue and primitivity "
                                                "of a substitution JSON file")
    p_eigen.add_argument("--sub", required=True, metavar="FILE|-")
    p_eigen.set_defaults(run=_cmd_eigen)
    return parser


def _factor_table(size: int, label: Callable[[int], str], header: str) -> Iterator[str]:
    """The factor table of the words ``label(0..size-1)`` line by line,
    without line ends: at m = 12 it is 50 MB of text, so it is written as it
    is formatted."""
    ncols = 4 if size % 4 == 0 else (2 if size % 2 == 0 else 1)
    rows = size // ncols
    width = len(str(size))
    yield header
    for r in range(rows):
        cells = []
        for c in range(ncols):
            i = c * rows + r
            cells.append(f"w_{i + 1:<{width}} = {label(i)}")
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
    if args.method == "descend":
        # the word-level oracle prints each word from its own bits
        words, n = enumerate_by_descendants(args.m), 2 ** args.m + 1
        size, label = len(words), lambda i: f"{words[i]:0{n}b}"
    else:
        # the oracle runs before the scan, so that its last two levels are
        # never held next to the scan's bits
        oracle = enumerate_by_descendants(args.m) if args.method == "both" else None
        fs = enumerate_by_scan(args.m)
        if oracle is not None and fs.bits != oracle:
            print("error: enumeration methods disagree", file=sys.stderr)
            return 1
        size, label = fs.size, fs.label
    if args.format == "json":
        # the bytes of json.dump({"m": m, "words": [...]}), written one word
        # at a time: a word is 0/1 text, so it needs quotes and no escapes
        write = sys.stdout.write
        write(f'{{"m": {args.m}, "words": ["')
        for i in range(size):
            if i:
                write('", "')
            write(label(i))
        write('"]}\n')
    else:
        _write_lines(_factor_table(size, label, f"m={args.m} N={2 ** args.m + 1} count={size}"))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .claims import Level
    from .thue_morse import MAX_M

    if not 2 <= args.m <= MAX_M:
        print(f"error: build {args.kind} requires 2 <= m <= {MAX_M}, got {args.m}",
              file=sys.stderr)
        return 2
    level = Level(args.m)
    # both are built on θ_N, the closed form, which must pass its window check
    failed = [f"{e.claim}: {e.detail}" for e in level.nblock_report.entries if not e.passed]
    if failed:
        print(f"error: {'; '.join(failed)}", file=sys.stderr)
        return 1
    sub = level.nblock if args.kind == "theta" else level.eta
    _emit_substitution(sub, f"{args.kind}_{2 ** args.m + 1}", args.format)
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
    for level in levels(lo, hi):
        for claim in claims:
            rep = CLAIMS[claim].run(level)
            total += 1
            if rep.ok:
                print(f"PASS m={level.m} {claim}")
            else:
                failed += 1
                print(f"FAIL m={level.m} {claim}")
                for entry in rep.entries:
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
    primitive = "true" if sub.is_primitive() else "false"
    try:
        value = pf_eigenvalue(sub)
        print(f"PF ≈ {value:.9f}, primitive: {primitive}")
    except ArithmeticError:
        print(f"PF did not converge, primitive: {primitive}")
    return 0


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


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
