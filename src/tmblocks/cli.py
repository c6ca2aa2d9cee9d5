"""Command-line front end: enumeration, construction, verification, export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
parse failure. Output for a fixed command line is byte-identical across
runs; data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from types import SimpleNamespace

# Each command imports the modules it uses, so that start-up costs what the
# command needs: `eigen` loads substitution.py and its JSON reader alone. A
# command line in the plain form `COMMAND [CHOICE] (--option VALUE)*` is
# parsed from the grammar table below without argparse, which with gettext
# and locale costs about 6 ms a call; argparse is loaded only for --help and
# usage errors, and for any other form of command line.
from .substitution import Substitution, pf_eigenvalue


def _m_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        error = f"expected M or LO..HI, got {text!r}"
    else:
        if lo <= hi:
            return lo, hi
        error = f"empty range {text!r}"
    import argparse

    raise argparse.ArgumentTypeError(error)


def _claim_list(text: str) -> tuple[str, ...]:
    from .claims import CLAIMS

    names = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = [name for name in names if name not in CLAIMS]
    if unknown:
        error = f"unknown claim {unknown[0]!r} (choose from {', '.join(CLAIMS)})"
    elif not names:
        error = f"no claim named in {text!r}"
    else:
        return names
    import argparse

    raise argparse.ArgumentTypeError(error)


# stdout is written in batches of about this many bytes: fewer system
# calls than one write per line, and each batch stays below glibc's 128 KiB
# mmap threshold
_WRITE_BATCH = 1 << 16


def _write_batched(pieces: Iterable[bytes]) -> None:
    """Write the concatenation of ``pieces``, each bytes or a memoryview of
    bytes, to stdout's binary buffer, joined into batches of about
    ``_WRITE_BATCH`` bytes, each written once. The buffer holds them until
    it is full or flushed, so that short outputs, such as verify's lines,
    go out in one system call."""
    write = sys.stdout.buffer.write
    batch: list[bytes] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_BATCH:
            write(b"".join(batch))
            batch.clear()
            size = 0
    write(b"".join(batch))


def _write_line(line: str) -> None:
    """Write ``line`` and a newline to stdout as UTF-8, whatever the locale,
    and flush it at once when stdout is a terminal, as ``print`` does."""
    _write_batched((line.encode(), b"\n"))
    if sys.stdout.line_buffering:
        sys.stdout.buffer.flush()


def _warn(message: str) -> None:
    """Print ``message`` and a newline to stderr. A closed or failing stderr
    loses it, and the exit code alone then tells the outcome."""
    if sys.stderr is None:  # the process started with stderr closed
        return
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _factor_table(size: int, label: Callable[[int], bytes], header: str) -> Iterator[bytes]:
    """The factor table of the words ``label(0..size-1)`` piece by piece: at
    m = 12 it is 50 MB of text, so it is written as it is formatted."""
    ncols = 4 if size % 4 == 0 else (2 if size % 2 == 0 else 1)
    rows = size // ncols
    width = len(str(size))
    yield f"{header}\n".encode()
    for r in range(rows):
        for c in range(ncols):
            i = c * rows + r
            if c:
                yield b"   "
            yield b"w_%-*d = " % (width, i + 1)
            yield label(i)
        yield b"\n"


def _factor_json(m: int, size: int, label: Callable[[int], bytes]) -> Iterator[bytes]:
    """The bytes of json.dump({"m": m, "words": [...]}) one word at a time:
    a word is 0/1 text, so it needs quotes and no escapes."""
    yield b'{"m": %d, "words": ["' % m
    for i in range(size):
        if i:
            yield b'", "'
        yield label(i)
    yield b'"]}\n'


def _sub_table(sub: Substitution, name: str) -> Iterator[str]:
    for j, img in enumerate(sub.iter_images()):
        yield f"{name}(w_{j + 1}) = {sub.format_word(img)}\n"


def _emit_substitution(sub: Substitution, name: str, fmt: str) -> None:
    if fmt == "json":
        pieces = chain(sub.iter_json(), ("\n",))
    elif fmt == "dot":
        pieces = sub.iter_dot(name)
    else:
        pieces = _sub_table(sub, name)
    _write_batched(map(str.encode, pieces))


def _cmd_factors(args: SimpleNamespace) -> int:
    from .thue_morse import (MAX_M, LevelFailed, enumerate_by_descendants, enumerate_by_scan,
                             matches_descendants)

    if not 1 <= args.m <= MAX_M:
        _warn(f"error: factors requires 1 <= m <= {MAX_M}, got {args.m}")
        return 2
    if args.method == "descend":
        # the word-level oracle prints each word from its own bits
        words, n = enumerate_by_descendants(args.m), 2 ** args.m + 1
        size, label = len(words), lambda i: f"{words[i]:0{n}b}".encode()
    else:
        try:
            fs = enumerate_by_scan(args.m)
        except LevelFailed as exc:
            _warn(f"error: {exc}")
            return 1
        # the oracle's blocks θ^d(u) are checked against slices of P, and
        # the level's windows are ordered on keys, so neither is held as words
        if args.method == "both" and not matches_descendants(fs):
            _warn("error: enumeration methods disagree")
            return 1
        # a label is a view of P's bytes, copied only into its batch
        text, offsets, n = memoryview(fs.prefix.encode()), fs.offsets, fs.word_length
        size, label = fs.size, lambda i: text[offsets[i]:offsets[i] + n]
    if args.format == "json":
        _write_batched(_factor_json(args.m, size, label))
    else:
        _write_batched(_factor_table(size, label, f"m={args.m} N={2 ** args.m + 1} count={size}"))
    return 0


def _cmd_build(args: SimpleNamespace) -> int:
    from .claims import Level
    from .thue_morse import MAX_M

    if not 2 <= args.m <= MAX_M:
        _warn(f"error: build {args.kind} requires 2 <= m <= {MAX_M}, got {args.m}")
        return 2
    level = Level(args.m)
    # both are built on θ_N, the closed form, which must pass its window check
    failed = [f"{e.claim}: {e.detail}" for e in level.report("nblock").entries if not e.passed]
    if failed:
        _warn(f"error: {'; '.join(failed)}")
        return 1
    sub = level.nblock if args.kind == "theta" else level.eta
    _emit_substitution(sub, f"{args.kind}_{2 ** args.m + 1}", args.format)
    return 0


def _cmd_fixture(args: SimpleNamespace) -> int:
    from .injectivize import zeta5_fixture

    _emit_substitution(zeta5_fixture(), "zeta_5", args.format)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from .claims import CLAIMS, levels
    from .thue_morse import MAX_M

    lo, hi = args.m
    if lo < 2 or hi > MAX_M:
        _warn(f"error: verify requires 2 <= m <= {MAX_M}, got {lo}..{hi}")
        return 2
    claims = [c for c in CLAIMS if args.claims is None or c in args.claims]
    next_level = [c for c in claims if CLAIMS[c].needs_next_level]
    if next_level and hi + 1 > MAX_M:
        _warn(f"error: claims {', '.join(next_level)} need the factor set of level m+1, "
              f"so verify them with m <= {MAX_M - 1}, got {lo}..{hi}")
        return 2
    failed = 0
    total = 0
    for level in levels(lo, hi):
        for claim in claims:
            rep = level.report(claim)
            total += 1
            if rep.ok:
                _write_line(f"PASS m={level.m} {claim}")
            else:
                failed += 1
                _write_line(f"FAIL m={level.m} {claim}")
                for entry in rep.entries:
                    if not entry.passed:  # a detail may name θ_N or η
                        _write_line(f"  {entry.claim}: {entry.detail or 'failed'}")
    _warn(f"{total - failed}/{total} claims passed")
    return 1 if failed else 0


def _read_substitution(path: str) -> Substitution:
    """The substitution in the JSON file ``path``, or on stdin for "-", read
    as UTF-8 (RFC 8259, section 8.1) whatever the locale."""
    if path == "-":
        if sys.stdin is None:  # the process started with stdin closed
            raise OSError("stdin is closed")
        sys.stdin.reconfigure(encoding="utf-8")
        return Substitution.read_json(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return Substitution.read_json(fh)


def _cmd_eigen(args: SimpleNamespace) -> int:
    try:
        sub = _read_substitution(args.sub)
    except (OSError, ValueError, RecursionError) as exc:
        _warn(f"error: could not load substitution: {exc}")
        return 3
    primitive = "true" if sub.is_primitive() else "false"
    try:
        line = f"PF ≈ {pf_eigenvalue(sub):.9f}, primitive: {primitive}"
    except ArithmeticError:
        line = f"PF did not converge, primitive: {primitive}"
    _write_line(line)
    return 0


_FORMATS = ("text", "json", "dot")
# The command grammar. A command is its help, its handler, its CHOICE and its
# options. CHOICE is None, or the name, the values and the help of each value
# of the word after the command: build's kind is a subcommand, with a help
# each, and fixture's name a positional, without. An option is its name and
# the keyword arguments of argparse's add_argument.
_GRAMMAR = {
    "factors": ("enumerate the factor set A_m", _cmd_factors, None, (
        ("--m", {"type": int, "required": True}),
        ("--method", {"choices": ("scan", "descend", "both"), "default": "scan"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}))),
    "build": ("construct a substitution", _cmd_build, ("kind", ("theta", "eta"), (
        "the N-block substitution", "the injective refinement")), (
        ("--m", {"type": int, "required": True}),
        ("--format", {"choices": _FORMATS, "default": "text"}))),
    "fixture": ("dump a hard-coded fixture", _cmd_fixture, ("name", ("zeta5",), None), (
        ("--format", {"choices": _FORMATS, "default": "text"}),)),
    "verify": ("run claim verifiers over a range of m", _cmd_verify, None, (
        ("--m", {"type": _m_range, "required": True, "metavar": "M|LO..HI"}),
        ("--claims", {"type": _claim_list}))),
    "eigen": ("dominant eigenvalue and primitivity of a substitution JSON file", _cmd_eigen,
              None, (("--sub", {"required": True, "metavar": "FILE|-"}),)),
}


def _build_parser():
    """The argparse parser of ``_GRAMMAR``, for what ``_parse_plain`` leaves:
    help, usage errors and the forms of command line it does not read."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tmblocks",
        description="Enumerate Thue-Morse factors, build block substitutions and "
                    "their injective refinements, and verify the whole chain.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (what, handler, choice, options) in _GRAMMAR.items():
        p_command = commands.add_parser(command, help=what)
        leaves = [p_command]
        if choice is not None:
            dest, values, helps = choice
            if helps is None:
                p_command.add_argument(dest, choices=values)
            else:
                kinds = p_command.add_subparsers(dest=dest, required=True)
                leaves = [kinds.add_parser(v, help=h) for v, h in zip(values, helps)]
        for leaf in leaves:
            for name, spec in options:
                leaf.add_argument(name, **spec)
            leaf.set_defaults(run=handler)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments that argparse would parse from ``argv`` when it is
    ``COMMAND [CHOICE] (--option VALUE)*``: each option named in full and at
    most once, no VALUE but "-" starting with "-", each VALUE valid and each
    required option given. Any other ``argv`` gives None, and argparse
    parses it, so that help and usage errors are argparse's own."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, handler, choice, options = _GRAMMAR[argv[0]]
    args = {"command": argv[0], "run": handler}
    tokens = argv[1:]
    if choice is not None:
        dest, values, _ = choice
        if not tokens or tokens[0] not in values:
            return None
        args[dest] = tokens.pop(0)
    given = dict(zip(tokens[::2], tokens[1::2]))
    if 2 * len(given) != len(tokens):  # a name without a value, or a name twice
        return None
    for name, spec in options:
        text = given.pop(name, None)
        if text is None:
            if spec.get("required"):
                return None
            args[name[2:]] = spec.get("default")
            continue
        if text.startswith("-") and text != "-":
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # ValueError or ArgumentTypeError: argparse calls the type again
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[name[2:]] = value
    return None if given else SimpleNamespace(**args)


def run(argv: list[str]) -> int:
    args = _parse_plain(argv)
    if args is None:
        args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    return args.run(args)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # the process started with stdout closed
        _warn("error: stdout is closed")
        return 3
    try:
        # what a caller printed before goes out before the command's bytes
        sys.stdout.flush()
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except OSError as exc:
        # the commands read no file but eigen's, whose faults it reports
        # itself, and ``_warn`` keeps stderr's own, so the fault is stdout's:
        # the reader closed it (`| head`), which needs no message, or it is
        # full. What is still buffered would raise again when the
        # interpreter flushes stdout at exit, so stdout goes to the null
        # device from here on.
        if not isinstance(exc, BrokenPipeError):
            _warn(f"error: could not write to stdout: {exc}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
