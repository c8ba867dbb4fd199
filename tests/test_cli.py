import ast
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kidempotent
from kidempotent import cli
from kidempotent.cli import main
from kidempotent.extremal import _family_matrices, construct_extremal, extremal_families, family_line
from kidempotent.matrix01 import ArgumentRangeError, Matrix01, from_text, to_text
from kidempotent.oracle import census
from kidempotent.structure import decompose, gamma, parse_decomposition, power_failure

C3_TEXT = to_text(Matrix01.cycle(3))
ONES2_TEXT = to_text(Matrix01.ones(2))
WORKED_TEXT = to_text(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]))
WORKED_DECOMPOSITION = "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\n"


ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, stdin="", run=main):
    """Exit code (a SystemExit's code too), stdout and stderr of one in-process call of ``run``.

    A str stdin is read as text. Bytes are the raw bytes of stdin, read through a wrapper that
    keeps CR, as on a POSIX stdin.
    """
    old_stdin = sys.stdin
    if isinstance(stdin, bytes):
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", newline="\n")
    else:
        sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run_fresh(args, stdin=b"", **env):
    """Exit code, stdout and stderr, as bytes, of a new interpreter run with ``args`` on the source tree."""
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCheck:
    def test_accepts_cycle(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text(C3_TEXT)
        code, out, _ = run_cli(["check", "--k", "4", str(path)])
        assert code == 0
        assert out == "k-idempotent\n"

    def test_rejects_all_ones(self, tmp_path):
        path = tmp_path / "j2.txt"
        path.write_text(ONES2_TEXT)
        code, out, _ = run_cli(["check", "--k", "2", str(path)])
        assert code == 1
        assert out == "not k-idempotent: witness (0,0)\n"

    def test_k_below_two_is_usage_error(self):
        code, _, _ = run_cli(["check", "--k", "1"], stdin=C3_TEXT)
        assert code == 2

    def test_malformed_matrix_is_usage_error(self):
        code, _, _ = run_cli(["check", "--k", "2"], stdin="2\n01\n0x\n")
        assert code == 2

    def test_missing_file_is_usage_error(self):
        code, _, _ = run_cli(["check", "--k", "2", "/nonexistent/matrix.txt"])
        assert code == 2

    def test_reads_stdin(self):
        code, out, _ = run_cli(["check", "--k", "2"], stdin=WORKED_TEXT)
        assert code == 0


class TestDecomposeCompose:
    def test_decompose_worked_example(self):
        code, out, _ = run_cli(["decompose", "--k", "2"], stdin=WORKED_TEXT)
        assert code == 0
        assert out == WORKED_DECOMPOSITION

    def test_decompose_rejection_report(self):
        code, out, _ = run_cli(["decompose", "--k", "2"], stdin=ONES2_TEXT)
        assert code == 1
        assert out == "error=NotZeroOne\nwitness=0,0\n"

    def test_compose_rebuilds_matrix(self):
        code, out, _ = run_cli(["compose"], stdin=WORKED_DECOMPOSITION)
        assert code == 0
        assert out == WORKED_TEXT

    def test_compose_cycle_length_invalid(self):
        bad = "n=2\nk=4\nr=0\ns=0\ncycle_lengths=2\nsigma=0,1\nY=\nY=\n"
        code, out, _ = run_cli(["compose", "--k", "4"], stdin=bad)
        assert code == 1
        assert out.startswith("error=CycleLengthInvalid\n")

    def test_compose_corner_witness_is_canonical(self):
        # X P^T Y is 2 at corner (0, 0): the witness is that cell of the canonical layout, row 0 and
        # column r + m + 0 = 3, though the reversed sigma would put it at (3, 0) of the original labels
        bad = "n=4\nk=2\nr=1\ns=1\ncycle_lengths=1,1\nsigma=3,2,1,0\nX=11\nY=1\nY=1\n"
        assert run_cli(["compose"], stdin=bad) == (1, "error=ProductNotZeroOne\nwitness=0,3\n", "")

    def test_compose_rejects_malformed(self):
        code, _, _ = run_cli(["compose"], stdin="nonsense\n")
        assert code == 2

    def test_round_trip_fixed_point(self):
        # decompose | compose | decompose is the identity on serializations
        matrices = [
            Matrix01.cycle(2),
            Matrix01.identity(3),
            Matrix01.from_lists([[1, 0, 1], [0, 1, 1], [0, 0, 0]]),
            Matrix01(0, ()),
        ]
        for a in matrices:
            k = "3" if a is matrices[0] else "2"
            code, first, _ = run_cli(["decompose", "--k", k], stdin=to_text(a))
            assert code == 0
            code, rebuilt, _ = run_cli(["compose"], stdin=first)
            assert code == 0
            assert from_text(rebuilt) == a
            code, second, _ = run_cli(["decompose", "--k", k], stdin=rebuilt)
            assert code == 0
            assert second == first

    def test_compose_applies_relabeling(self):
        # a non-canonical matrix must come back in its original labeling
        a = Matrix01.from_lists([[0, 0, 0], [1, 1, 0], [1, 1, 0]])
        scrambled = to_text(a)
        code, serial, _ = run_cli(["decompose", "--k", "2"], stdin=scrambled)
        assert code == 0
        code, rebuilt, _ = run_cli(["compose"], stdin=serial)
        assert code == 0
        assert rebuilt == scrambled

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path):
        # The parser is built once per process; an earlier --k or usage
        # error must not carry over into a later call.
        path = tmp_path / "c3.dec"
        path.write_text("n=3\nk=4\nr=0\ns=0\ncycle_lengths=3\nsigma=0,1,2\nY=\nY=\nY=\n")
        code, out, _ = run_cli(["compose", "--k", "5", str(path)])
        assert code == 1
        assert out.startswith("error=CycleLengthInvalid\n")
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as info:
            main(["compose", "--k", "x", str(path)])
        assert info.value.code == 2
        code, out, _ = run_cli(["compose", str(path)])
        assert code == 0
        assert out == C3_TEXT
        code, out, _ = run_cli(["compose", "--k", "7", str(path)])
        assert code == 0
        assert out == C3_TEXT


class TestScalarCommands:
    def test_gamma(self):
        code, out, _ = run_cli(["gamma", "--n", "4"])
        assert code == 0
        assert out == "6\n"

    def test_gamma_rejects_zero(self):
        code, _, _ = run_cli(["gamma", "--n", "0"])
        assert code == 2

    def test_index_cycle(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text(to_text(Matrix01.cycle(2)))
        code, out, _ = run_cli(["index", str(path)])
        assert code == 0
        assert out == "3\n"

    def test_index_none(self):
        code, out, _ = run_cli(["index"], stdin="2\n01\n00\n")
        assert code == 1
        assert out == "none\n"


class TestExtremalCommand:
    def test_lists_families_with_matrices(self):
        code, out, _ = run_cli(["extremal", "--n", "3", "--k", "2"])
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 3
        first = blocks[0].splitlines()
        assert first[0].startswith("variant=A n=3 k=2 r=1 s=1 ")
        assert from_text("\n".join(first[1:]) + "\n") == Matrix01.from_lists(
            [[0, 1, 1], [0, 1, 1], [0, 0, 0]]
        )

    def test_deterministic(self):
        out1 = run_cli(["extremal", "--n", "4", "--k", "3"])
        out2 = run_cli(["extremal", "--n", "4", "--k", "3"])
        assert out1 == out2

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (10, 7, "b830062202b3c6ab5b1329d638af8379ba837865c56ee481f6eae877b4167f4b"),
            (12, 2, "79833a48c87c7c09916dde4288898df1c3ac23124c7e19369d5142344ca38f8b"),
        ],
    )
    def test_output_pinned(self, n, k, digest):
        code, out, _ = run_cli(["extremal", "--n", str(n), "--k", str(k)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (10, 7, "4c24d0f36f03b57840fdd11e79352586eacbc81a3e79cc241c896a2004792e4f"),
            (12, 2, "efe9273d3ef75d163a14a7d69c148b950e3f92d4554ed5d040328acdfdf6a741"),
        ],
    )
    def test_family_list_pinned(self, n, k, digest):
        fields = [(p.variant, p.source_count, p.sink_count, p.cycle_lengths, p.pattern) for p in extremal_families(n, k)]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(1, 9))
    def test_output_equals_per_family_rendering(self, n):
        # each block as family_line and to_text render a family built and checked by construct_extremal
        for k in (2, 3, 7):
            blocks = [family_line(n, k, p) + "\n" + to_text(construct_extremal(n, k, p)) for p in extremal_families(n, k)]
            assert run_cli(["extremal", "--n", str(n), "--k", str(k)]) == (0, "\n".join(blocks), "")


class TestCensusCommand:
    def test_small_census(self):
        code, out, _ = run_cli(["census", "--n", "3", "--k", "2"])
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["total_k_idempotent"] == "50"
        assert lines["max_nnz"] == "4"
        assert lines["characterization_ok"] == "true"

    def test_order_five_needs_no_flag(self):
        code, out, _ = run_cli(["census", "--n", "5", "--k", "2"])
        assert code == 0
        assert "total_k_idempotent=5682\n" in out

    @pytest.mark.parametrize("order", ["0", "6"])
    def test_order_out_of_range_names_the_census_range(self, order):
        # one check and one message below and above: orders 1 to 5
        code, out, err = run_cli(["census", "--n", order, "--k", "2"], b"")
        assert (code, out) == (2, "")
        assert "1 and 5" in err


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        code, out, _ = run_fresh(["-m", "kidempotent", "gamma", "--n", "5"])
        assert code == 0
        assert out == b"9\n"

    def test_usage_error_exit_code(self):
        code, _, _ = run_fresh(["-m", "kidempotent", "nonsense"])
        assert code == 2


# Subcommands that read a matrix or a decomposition, and those that read nothing.
READERS = [["check", "--k", "2"], ["decompose", "--k", "3"], ["compose"], ["index"]]
NON_READERS = [["gamma", "--n", "3"], ["extremal", "--n", "3", "--k", "2"], ["census", "--n", "2", "--k", "2"]]

LONG_ORDER_LINE = b"1" + b"0" * 4999 + b"\n"

VALID_INPUTS = [C3_TEXT, ONES2_TEXT, WORKED_TEXT, WORKED_DECOMPOSITION, "0\n"]


@st.composite
def input_bytes(draw):
    """Arbitrary bytes, or a valid input with a few bytes overwritten, inserted or cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    data = bytearray(draw(st.sampled_from(VALID_INPUTS)).encode())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["put", "insert", "cut"]))
        if edit == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=3))
        elif edit == "put" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        else:
            del data[pos : pos + 1]
    return bytes(data)


# The same bytes by stdin and as a file: a valid UTF-8 character that is not ASCII, CRLF line ends.
# The last input is a valid UTF-8 character, then an invalid byte: a strict UTF-8 stdin decoder stops at
# offset 2, after the first non-ASCII byte.
CHANNEL_INPUTS = [
    b"2\n1\xc3\xa9\n00\n",
    *(text.replace("\n", "\r\n").encode() for text in (C3_TEXT, WORKED_DECOMPOSITION)),
    b"\xc3\xa9\xff\n",
]
CHANNEL_IDS = ["non-ascii", "crlf-matrix", "crlf-decomposition", "utf8-then-invalid"]


def assert_contract(code, out, err, data, reads_input=True):
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err
    else:
        # A mathematical answer: printed, and only ever for ASCII input.
        assert out
        assert data.isascii() or not reads_input


# One CLI call per argument rule: (argv, stdin, the library call that owns the rule).
ARGUMENT_ERRORS = [
    (["check", "--k", "1"], C3_TEXT, lambda: power_failure(Matrix01.cycle(3), 1)),
    (["decompose", "--k", "1"], C3_TEXT, lambda: decompose(Matrix01.cycle(3), 1)),
    (["compose", "--k", "1"], WORKED_DECOMPOSITION,
     lambda: replace(parse_decomposition(WORKED_DECOMPOSITION), k=1).original_matrix()),
    (["gamma", "--n", "0"], "", lambda: gamma(0)),
    (["extremal", "--n", "0", "--k", "2"], "", lambda: _family_matrices(0, 2)),
    (["extremal", "--n", "3", "--k", "1"], "", lambda: _family_matrices(3, 1)),
    (["census", "--n", "0", "--k", "2"], "", lambda: census(0, 2)),
    (["census", "--n", "6", "--k", "2"], "", lambda: census(6, 2)),
    (["census", "--n", "3", "--k", "1"], "", lambda: census(3, 1)),
]


@pytest.mark.parametrize("argv, stdin, call", ARGUMENT_ERRORS, ids=[" ".join(c[0]) for c in ARGUMENT_ERRORS])
def test_argument_errors_exit_two_with_the_library_message(argv, stdin, call):
    with pytest.raises(ArgumentRangeError) as info:
        call()
    code, out, err = run_cli(argv, stdin.encode())
    assert (code, out) == (2, "")
    assert err == f"{info.value}\n"


# int() reads each as a number (30, 5, 5 and 10); an integer option, like every decimal field, refuses it.
NON_DECIMAL_OPTIONS = ["1_0", " +5", "\u0665", "010"]


@pytest.mark.parametrize("value", NON_DECIMAL_OPTIONS)
@pytest.mark.parametrize("argv", [["gamma", "--n"], ["census", "--n", "3", "--k"], ["compose", "--k"]])
def test_integer_options_follow_the_decimal_rule(argv, value):
    code, out, err = run_cli([*argv, value], WORKED_DECOMPOSITION)
    assert (code, out) == (2, "")
    assert err.endswith(f"bad integer {value!r} (length {len(value)})\n")


# A malformed field far longer than a message: the order line of a matrix, the k field of a decomposition.
LONG_FIELDS = [
    (["check", "--k", "2"], "1x" * 50000 + "\n"),
    (["check", "--k", "2"], "\x7f" * 100000 + "\n"),
    (["compose", "-"], "n=3\nk=" + "x" * 60000 + "\n"),
    (["compose", "-"], "n=" + "\x01" * 60000 + "\n"),
]


@pytest.mark.parametrize("argv, stdin", LONG_FIELDS, ids=["order", "order_control", "k", "n_control"])
def test_long_malformed_field_gives_a_short_message(argv, stdin):
    code, out, err = run_cli(argv, stdin.encode())
    assert (code, out) == (2, "")
    assert err.startswith("format error: bad ") and len(err.encode()) < 200


class TestArbitraryBytes:
    @settings(max_examples=150, deadline=None)
    @given(input_bytes(), st.sampled_from(READERS))
    @example(b"2\n0\xc3\xa9\n00\n", ["check", "--k", "2"])
    @example(b"\xc3\xa9\xff\n", ["index"])
    # Longer than CPython's default 4,300-digit int() limit, and malformed without it.
    @example(LONG_ORDER_LINE, ["check", "--k", "2"])
    @example(LONG_ORDER_LINE, ["decompose", "--k", "3"])
    @example(LONG_ORDER_LINE, ["index"])
    @example(b"n=" + LONG_ORDER_LINE, ["compose"])
    def test_readers_by_stdin_and_file(self, tmp_path_factory, data, command):
        code, out, err = run_cli(command, data)
        assert_contract(code, out, err, data)
        path = tmp_path_factory.mktemp("input") / "in.txt"
        path.write_bytes(data)
        file_code, file_out, file_err = run_cli([*command, str(path)], b"")
        assert (file_code, file_out, file_err) == (code, out, err)
        assert_contract(file_code, file_out, file_err, data)
        if not data.isascii():
            # both name the first non-ASCII byte, also where a strict UTF-8 stdin decoder stops later
            first = next(i for i, byte in enumerate(data) if byte > 127)
            assert err == f"format error: non-ASCII byte at offset {first}\n"

    @pytest.mark.parametrize("data", CHANNEL_INPUTS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("command", READERS, ids=[argv[0] for argv in READERS])
    def test_stdin_and_file_give_the_same_answer(self, tmp_path, command, data):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        assert run_cli(command, data) == run_cli([*command, str(path)], b"")

    def test_stdin_and_file_give_the_same_answer_in_a_fresh_process(self, tmp_path):
        # strict UTF-8 stdin, as under a UTF-8 locale
        path = tmp_path / "in.txt"
        for data in CHANNEL_INPUTS:
            path.write_bytes(data)
            for command in READERS:
                answers = [
                    run_fresh(["-m", "kidempotent", *argv], stdin, PYTHONIOENCODING="utf-8")
                    for argv, stdin in (([*command, "-"], data), ([*command, str(path)], b""))
                ]
                assert answers[0] == answers[1], (data, command)

    @settings(max_examples=20, deadline=None)
    @given(input_bytes(), st.sampled_from(NON_READERS))
    def test_non_readers_ignore_stdin(self, data, command):
        code, out, err = run_cli(command, data)
        assert_contract(code, out, err, data, reads_input=False)
        assert code == 0

    def test_non_ascii_file_is_format_error(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"2\n0\xe9\n00\n")
        code, out, err = run_cli(["check", "--k", "2", str(path)], b"")
        assert (code, out) == (2, "")
        assert err == "format error: non-ASCII byte at offset 3\n"

    def test_crlf_file_parses(self, tmp_path):
        for text, command, expected in (
            (C3_TEXT, ["check", "--k", "4"], 0),
            (WORKED_DECOMPOSITION, ["compose"], 0),
        ):
            path = tmp_path / "crlf.txt"
            path.write_bytes(text.replace("\n", "\r\n").encode())
            code, out, err = run_cli([*command, str(path)], b"")
            assert (code, err) == (expected, "")
            assert out == run_cli(command, text.encode())[1]

    def test_crlf_and_cr_stdin_in_a_fresh_process(self):
        # a real stdin keeps CR; the reader turns CRLF and CR into LF as for a file
        for command, text, expected in (
            (["check", "--k", "4"], C3_TEXT, b"k-idempotent\n"),
            (["compose"], WORKED_DECOMPOSITION, WORKED_TEXT.encode()),
        ):
            for end in (b"\r\n", b"\r"):
                answer = run_fresh(["-m", "kidempotent", *command, "-"], text.encode().replace(b"\n", end))
                assert answer == (0, expected, b"")

    def test_non_ascii_stdin_in_a_fresh_process(self):
        # strict UTF-8 stdin, as under a UTF-8 locale, where a text read raises
        for data in (b"2\n0\xe9\n00\n", b"\xff\xfe"):
            code, out, err = run_fresh(["-m", "kidempotent", "check", "--k", "2"], data, PYTHONIOENCODING="utf-8")
            assert code == 2
            assert out == b""
            assert b"Traceback" not in err


def parse_args_route(argv):
    """main with no subcommand known to it, so every argv takes the whole parser's route."""
    parser = cli.build_parser()[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: (parser, {}))
        return main(argv)


def dispatch_table(matrix, decomposition):
    commands = [["check", "--k", "2", matrix], ["decompose", "--k", "2", matrix], ["compose", decomposition],
                ["compose", "--k", "3", decomposition], ["compose", "-"], ["index", matrix], ["gamma", "--n", "5"],
                ["extremal", "--n", "4", "--k", "2"], ["census", "--n", "2", "--k", "2"]]
    names = sorted({argv[0] for argv in commands})
    return [
        *commands,
        *([name, flag] for name in names for flag in ("--help", "-h")),
        ["check", matrix], ["check", "--k"], ["check", "--k", "x", matrix], ["census", "--n", "2"],
        ["check", "--k", "2", "--bogus", matrix], ["gamma", "--n", "5", "extra"], ["index", matrix, matrix],
        ["check", "--k=2", matrix], ["check", "--k", "2", "--", matrix], ["check", "--he"], ["gamma", "--n", "-1"],
        ["-h", "check"], ["-h"], ["--help"], ["--k", "2", "check", matrix], [], ["nonsense"], ["nonsense", "--k", "2"],
        ["Check", "--k", "2", matrix], ["chec", "--k", "2", matrix],
    ]


def test_dispatch_matches_the_whole_parser(tmp_path):
    # A known subcommand goes straight to its own parser; every argv must still give the exit code,
    # stdout and stderr of the whole parser's route, usage errors and help included.
    matrix, decomposition = tmp_path / "m.txt", tmp_path / "d.txt"
    matrix.write_text(WORKED_TEXT)
    decomposition.write_text(WORKED_DECOMPOSITION)
    for argv in dispatch_table(str(matrix), str(decomposition)):
        direct = run_cli(list(argv), WORKED_DECOMPOSITION)
        assert direct == run_cli(list(argv), WORKED_DECOMPOSITION, parse_args_route), argv
        assert direct[0] != 0 or direct[1], argv


def test_dispatch_builds_the_whole_parsers_namespace(tmp_path, monkeypatch):
    seen = []
    for name in ("check", "decompose", "compose", "gamma", "extremal", "census", "index"):
        monkeypatch.setattr(cli, "cmd_" + name, lambda args: seen.append(vars(args)) or 0)
    for argv in dispatch_table(str(tmp_path / "m.txt"), str(tmp_path / "d.txt")):
        seen.clear()
        direct, whole = run_cli(list(argv), ""), run_cli(list(argv), "", parse_args_route)
        assert direct == whole, argv
        assert len(seen) == (2 if direct[0] == 0 and not direct[1] else 0), argv
        assert seen[:1] == seen[1:], argv


# The submodules the package exports; ``cli`` is imported only by name.
SUBMODULES = ("extremal", "matrix01", "oracle", "structure")
# What ``from kidempotent import *`` binds: the four submodules and the public names of the package.
STAR_NAMES = [
    "CanonicalDecomposition", "CensusReport", "ComposeError", "CycleLengthInvalid", "DecompositionFormatError",
    "ExtremalParams", "InvalidParams", "Matrix01", "MatrixFormatError", "Permutation", "ProductNotZeroOne",
    "StructureError", "StructureErrorKind", "ValidationFailed", "allowed_boundary_counts", "census", "censuses", "compose",
    "construct_extremal", "decompose", "enumerate_k_idempotent", "exact_power", "extremal", "extremal_families",
    "family_line", "from_text", "gamma", "idempotency_index", "is_extremal", "is_k_idempotent",
    "matches_maximum_form", "matrix01", "matrix_from_index", "nnz", "oracle", "parse_decomposition", "permute",
    "power_failure", "sat_power", "serialize_census", "serialize_decomposition", "structural_count", "structure",
    "to_text",
]  # fmt: skip


def fresh_interpreter(code, *args):
    """stdout of ``code`` run by a new interpreter on the source tree, after ``import sys``."""
    returncode, out, err = run_fresh(["-c", "import sys\n" + code, *args])
    assert returncode == 0, err.decode()
    return out.decode()


LOADED = "print('kidempotent.extremal' in sys.modules)\n"


class TestFamilyEnumeratorLoadsOnDemand:
    def test_census_and_every_other_command_leave_it_unloaded(self, tmp_path):
        (tmp_path / "m.txt").write_text(WORKED_TEXT)
        (tmp_path / "d.txt").write_text(WORKED_DECOMPOSITION)
        code = (
            "import io, contextlib, kidempotent, kidempotent.cli as cli\n"
            "kidempotent.census(3, 2)\n"
            "m, d = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in (['gamma', '--n', '5'], ['check', '--k', '2', m],\n"
            "             ['decompose', '--k', '2', m], ['compose', d], ['index', m], ['census', '--n', '3', '--k', '2'])]\n"
            "print(codes)\n" + LOADED
        )
        assert fresh_interpreter(code, str(tmp_path / "m.txt"), str(tmp_path / "d.txt")) == "[0, 0, 0, 0, 0, 0]\nFalse\n"

    def test_families_load_it(self):
        code = "import kidempotent\n" + LOADED + "kidempotent.extremal_families(3, 2)\n" + LOADED
        assert fresh_interpreter(code) == "False\nTrue\n"
        code = (
            "import io, contextlib, kidempotent.cli as cli\n" + LOADED
            + "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['extremal', '--n', '3', '--k', '2'])\n"
            "print(code)\n" + LOADED
        )
        assert fresh_interpreter(code) == "False\n0\nTrue\n"

    def test_star_import_binds_the_same_names(self):
        code = "from kidempotent import *\nprint(sorted(name for name in dir() if not name.startswith('_')))\n"
        assert fresh_interpreter(code) == f"{sorted(['sys', *STAR_NAMES])}\n"
        assert sorted(kidempotent.__all__) == STAR_NAMES

    @pytest.mark.parametrize("module", ["matrix01", "structure", "oracle", "extremal", "cli"])
    def test_submodule_star_import_binds_its_all(self, module):
        namespace = {}
        exec(f"from kidempotent.{module} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(getattr(kidempotent, module).__all__)

    def test_each_public_name_is_declared_once(self):
        # one submodule's __all__ declares each name, and the package lists the modules and their union
        lists = {module: getattr(kidempotent, module).__all__ for module in (*SUBMODULES, "cli")}
        names = [name for names in lists.values() for name in names]
        assert len(names) == len(set(names))
        exported = [name for module in SUBMODULES for name in lists[module]]
        assert sorted(kidempotent.__all__) == sorted([*SUBMODULES, *exported])

    def test_the_argument_rule_is_raised_in_one_place(self):
        # every order, index, exponent, power and block size check calls matrix01._require_int
        def raises_argument_range_error(node):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            return (getattr(exc, "id", None) or getattr(exc, "attr", None)) == "ArgumentRangeError"

        assert src_sites(raises_argument_range_error) == [("matrix01", "_require_int")]

    def test_the_int_sequence_and_row_packing_rules_are_written_once(self):
        # the exact-int test is written only in matrix01._require_int and _require_ints, which every
        # int argument and int sequence (Matrix01 rows too) calls; nested 0/1 rows go through matrix01._pack_rows
        def exact_int_test(node):
            return isinstance(node, ast.Compare) and re.fullmatch(r"type\(.*\) is not int", ast.unparse(node)) is not None

        assert src_sites(exact_int_test) == [("matrix01", "_require_int"), ("matrix01", "_require_ints")]
        assert ("matrix01", "__post_init__") not in src_sites(lambda node: isinstance(node, (ast.For, ast.comprehension)))
        assert src_sites(lambda node: isinstance(node, ast.Name) and node.id == "pack_row") == [("matrix01", "_pack_rows")]

    def test_lazy_names_are_extremal_all(self):
        # the names the package does not bind at import are the submodule and its __all__, read once loaded
        code = (
            "import kidempotent\n"
            "lazy = sorted(name for name in kidempotent.__all__ if name not in vars(kidempotent))\n" + LOADED
            + "print(lazy == sorted(['extremal', *kidempotent.extremal.__all__]))\n"
        )
        assert fresh_interpreter(code) == "False\nTrue\n"


def src_sites(match):
    """(module, enclosing function) of every node of src/kidempotent that ``match`` accepts; None outside a function."""
    sites = []
    for path in sorted((ROOT / "src" / "kidempotent").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in filter(match, ast.walk(tree)):
            while not isinstance(node, (ast.FunctionDef, ast.Module)):
                node = parents[node]
            sites.append((path.stem, getattr(node, "name", None)))
    return sites


def test_readme_library_tour():
    # each expression statement of the tour is evaluated, keyed by its source
    code = (ROOT / "README.md").read_text().split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for statement in ast.parse(code).body:
        if isinstance(statement, ast.Expr):
            values[ast.unparse(statement)] = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert values["is_k_idempotent(a, 2)"] is True
    assert values["permute(d.canonical_matrix(), d.sigma) == a"] is True
    assert values["idempotency_index(Matrix01.cycle(2))"] == 3
    assert values["gamma(5)"] == 9
    assert values["structural_count(5, 7)"] == 21702
