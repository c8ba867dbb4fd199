"""Command-line front end.

Matrices travel in the text format of :mod:`kidempotent.matrix01` and
decompositions in the serialization of :mod:`kidempotent.structure`;
both are read from a file argument or standard input, so commands can be
piped into each other. Exit codes: 0 for success, 1 for a mathematically
meaningful "no" (a rejected matrix, a failed theorem check, invalid
block parameters), 2 for usage or format errors. Malformed input never
exits 1, and identical invocations produce byte-identical output.

The CLI holds no argument rules of its own: each command parses, calls
the library and prints. Integer options follow ``matrix01._parse_decimal``,
the decimal rule of every input field. The library checks the order and
the exponent before it does any work and raises ``ArgumentRangeError``,
which :func:`main` maps to exit 2 with the library's message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import lru_cache

from .matrix01 import ArgumentRangeError, MatrixFormatError, _parse_decimal, from_text, to_text
from .oracle import census, serialize_census
from .structure import (
    CycleLengthInvalid,
    DecompositionFormatError,
    ProductNotZeroOne,
    StructureError,
    decompose,
    gamma,
    idempotency_index,
    parse_decomposition,
    power_failure,
    serialize_decomposition,
)

__all__ = ["main"]


def _read_input(path: str | None) -> str:
    """The text of a file or of stdin, read alike: ASCII only, with CRLF and CR line ends read as LF."""
    with nullcontext(sys.stdin) if path is None or path == "-" else open(path, encoding="ascii", newline="") as handle:
        text = handle.read()
    if not text.isascii():  # stdin text: each character before the first non-ASCII one was one byte
        text.encode("ascii")  # UnicodeEncodeError at that character, so its offset is the byte offset
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def cmd_check(args) -> int:
    matrix = from_text(_read_input(args.file))
    failure = power_failure(matrix, args.k)
    if failure is None:
        print("k-idempotent")
        return 0
    i, j = failure.witness
    print(f"not k-idempotent: witness ({i},{j})")
    return 1


def cmd_decompose(args) -> int:
    matrix = from_text(_read_input(args.file))
    result = decompose(matrix, args.k)
    if isinstance(result, StructureError):
        i, j = result.witness
        print(f"error={result.kind.value}")
        print(f"witness={i},{j}")
        return 1
    print(serialize_decomposition(result), end="")
    return 0


def cmd_compose(args) -> int:
    d = parse_decomposition(_read_input(args.file))
    if args.k is not None:
        d = replace(d, k=args.k)
    try:
        matrix = d.original_matrix()
    except CycleLengthInvalid as exc:
        print("error=CycleLengthInvalid")
        print(f"detail={exc}")
        return 1
    except ProductNotZeroOne as exc:
        i, j = exc.witness
        print("error=ProductNotZeroOne")
        print(f"witness={i},{j}")
        return 1
    print(to_text(matrix), end="")
    return 0


def cmd_gamma(args) -> int:
    print(gamma(args.n))
    return 0


def cmd_extremal(args) -> int:
    from .extremal import _families_text, _family_matrices  # the family enumerator loads on first use

    print(_families_text(args.n, args.k, _family_matrices(args.n, args.k)), end="")
    return 0


def cmd_census(args) -> int:
    report = census(args.n, args.k)
    print(serialize_census(report), end="")
    ok = report.characterization_ok and report.upper_triangular_ok and report.max_density_ok
    return 0 if ok else 1


def cmd_index(args) -> int:
    matrix = from_text(_read_input(args.file))
    value = idempotency_index(matrix)
    if value is None:
        print("none")
        return 1
    print(value)
    return 0


def _decimal(text: str) -> int:
    return _parse_decimal(text, "integer", argparse.ArgumentTypeError)


@lru_cache(maxsize=None)
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name, built once per process.

    Parsing leaves the parsers unchanged: every call gets a fresh
    namespace filled from the defaults, so in-process calls of
    :func:`main` can share them. The parser names the subcommand only;
    :func:`main` looks up its ``cmd_`` function at call time.
    """
    parser = argparse.ArgumentParser(
        prog="kidempotent",
        description="Analyze, decompose, build and verify k-idempotent 0-1 matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test whether A^k = A")
    p.add_argument("--k", type=_decimal, required=True)
    p.add_argument("file", nargs="?", help="matrix file (default: stdin)")

    p = sub.add_parser("decompose", help="recover the canonical block data")
    p.add_argument("--k", type=_decimal, required=True)
    p.add_argument("file", nargs="?")

    p = sub.add_parser("compose", help="rebuild a matrix from block data")
    p.add_argument("--k", type=_decimal, default=None, help="override the serialized k")
    p.add_argument("file", nargs="?")

    p = sub.add_parser("gamma", help="print the density ceiling gamma(n)")
    p.add_argument("--n", type=_decimal, required=True)

    p = sub.add_parser("extremal", help="list maximum-density families")
    p.add_argument("--n", type=_decimal, required=True)
    p.add_argument("--k", type=_decimal, required=True)

    p = sub.add_parser("census", help="exhaustively verify one (n, k) pair")
    p.add_argument("--n", type=_decimal, required=True)
    p.add_argument("--k", type=_decimal, required=True)

    p = sub.add_parser("index", help="print the minimal k with A^k = A")
    p.add_argument("file", nargs="?")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    # A known subcommand skips the top-level pass; the whole parser takes the rest and reports leftovers.
    sub = commands.get(argv[0]) if argv else None
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub else (None, True)
    args = parser.parse_args(argv) if extra else args
    try:
        return globals()["cmd_" + args.command](args)
    except ArgumentRangeError as exc:
        message = str(exc)
    except (MatrixFormatError, DecompositionFormatError) as exc:
        message = f"format error: {exc}"
    except UnicodeError as exc:  # a file or a stdin read, or the ASCII test of stdin text
        # a strict UTF-8 stdin may stop after the first non-ASCII byte, whose U+FFFD in ASCII with replacement is at its offset
        start = exc.object.decode("ascii", "replace").find("\ufffd") if isinstance(exc.object, bytes) else exc.start
        message = f"format error: non-ASCII byte at offset {start}"
    except OSError as exc:
        message = f"cannot read input: {exc}"
    print(message, file=sys.stderr)
    return 2
