import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kidempotent import cli
from kidempotent.cli import main
from kidempotent.extremal import _family_matrices, construct_extremal, extremal_families, family_line, gamma
from kidempotent.matrix01 import Matrix01, from_text, to_text
from kidempotent.oracle import census
from kidempotent.structure import ArgumentRangeError, decompose, parse_decomposition, power_failure

C3_TEXT = to_text(Matrix01.cycle(3))
ONES2_TEXT = to_text(Matrix01.ones(2))
WORKED_TEXT = to_text(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]))
WORKED_DECOMPOSITION = "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\n"


def run_cli(args, stdin="", tmp_path=None):
    """Invoke main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


class TestCheck:
    def test_accepts_cycle(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text(C3_TEXT)
        code, out = run_cli(["check", "--k", "4", str(path)])
        assert code == 0
        assert out == "k-idempotent\n"

    def test_rejects_all_ones(self, tmp_path):
        path = tmp_path / "j2.txt"
        path.write_text(ONES2_TEXT)
        code, out = run_cli(["check", "--k", "2", str(path)])
        assert code == 1
        assert out == "not k-idempotent: witness (0,0)\n"

    def test_k_below_two_is_usage_error(self):
        code, _ = run_cli(["check", "--k", "1"], stdin=C3_TEXT)
        assert code == 2

    def test_malformed_matrix_is_usage_error(self):
        code, _ = run_cli(["check", "--k", "2"], stdin="2\n01\n0x\n")
        assert code == 2

    def test_missing_file_is_usage_error(self):
        code, _ = run_cli(["check", "--k", "2", "/nonexistent/matrix.txt"])
        assert code == 2

    def test_reads_stdin(self):
        code, out = run_cli(["check", "--k", "2"], stdin=WORKED_TEXT)
        assert code == 0


class TestDecomposeCompose:
    def test_decompose_worked_example(self):
        code, out = run_cli(["decompose", "--k", "2"], stdin=WORKED_TEXT)
        assert code == 0
        assert out == WORKED_DECOMPOSITION

    def test_decompose_rejection_report(self):
        code, out = run_cli(["decompose", "--k", "2"], stdin=ONES2_TEXT)
        assert code == 1
        assert out == "error=NotZeroOne\nwitness=0,0\n"

    def test_compose_rebuilds_matrix(self):
        code, out = run_cli(["compose"], stdin=WORKED_DECOMPOSITION)
        assert code == 0
        assert out == WORKED_TEXT

    def test_compose_cycle_length_invalid(self):
        bad = "n=2\nk=4\nr=0\ns=0\ncycle_lengths=2\nsigma=0,1\nY=\nY=\n"
        code, out = run_cli(["compose", "--k", "4"], stdin=bad)
        assert code == 1
        assert out.startswith("error=CycleLengthInvalid\n")

    def test_compose_corner_witness_is_canonical(self):
        # X P^T Y is 2 at corner (0, 0): the witness is that cell of the canonical layout, row 0 and
        # column r + m + 0 = 3, though the reversed sigma would put it at (3, 0) of the original labels
        bad = "n=4\nk=2\nr=1\ns=1\ncycle_lengths=1,1\nsigma=3,2,1,0\nX=11\nY=1\nY=1\n"
        assert run_cli(["compose"], stdin=bad) == (1, "error=ProductNotZeroOne\nwitness=0,3\n")

    def test_compose_rejects_malformed(self):
        code, _ = run_cli(["compose"], stdin="nonsense\n")
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
            code, first = run_cli(["decompose", "--k", k], stdin=to_text(a))
            assert code == 0
            code, rebuilt = run_cli(["compose"], stdin=first)
            assert code == 0
            assert from_text(rebuilt) == a
            code, second = run_cli(["decompose", "--k", k], stdin=rebuilt)
            assert code == 0
            assert second == first

    def test_compose_applies_relabeling(self):
        # a non-canonical matrix must come back in its original labeling
        a = Matrix01.from_lists([[0, 0, 0], [1, 1, 0], [1, 1, 0]])
        scrambled = to_text(a)
        code, serial = run_cli(["decompose", "--k", "2"], stdin=scrambled)
        assert code == 0
        code, rebuilt = run_cli(["compose"], stdin=serial)
        assert code == 0
        assert rebuilt == scrambled

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path):
        # The parser is built once per process; an earlier --k or usage
        # error must not carry over into a later call.
        path = tmp_path / "c3.dec"
        path.write_text("n=3\nk=4\nr=0\ns=0\ncycle_lengths=3\nsigma=0,1,2\nY=\nY=\nY=\n")
        code, out = run_cli(["compose", "--k", "5", str(path)])
        assert code == 1
        assert out.startswith("error=CycleLengthInvalid\n")
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as info:
            main(["compose", "--k", "x", str(path)])
        assert info.value.code == 2
        code, out = run_cli(["compose", str(path)])
        assert code == 0
        assert out == C3_TEXT
        code, out = run_cli(["compose", "--k", "7", str(path)])
        assert code == 0
        assert out == C3_TEXT


class TestScalarCommands:
    def test_gamma(self):
        code, out = run_cli(["gamma", "--n", "4"])
        assert code == 0
        assert out == "6\n"

    def test_gamma_rejects_zero(self):
        code, _ = run_cli(["gamma", "--n", "0"])
        assert code == 2

    def test_index_cycle(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text(to_text(Matrix01.cycle(2)))
        code, out = run_cli(["index", str(path)])
        assert code == 0
        assert out == "3\n"

    def test_index_none(self):
        code, out = run_cli(["index"], stdin="2\n01\n00\n")
        assert code == 1
        assert out == "none\n"


class TestExtremalCommand:
    def test_lists_families_with_matrices(self):
        code, out = run_cli(["extremal", "--n", "3", "--k", "2"])
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
        code, out = run_cli(["extremal", "--n", str(n), "--k", str(k)])
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
            assert run_cli(["extremal", "--n", str(n), "--k", str(k)]) == (0, "\n".join(blocks))


class TestCensusCommand:
    def test_small_census(self):
        code, out = run_cli(["census", "--n", "3", "--k", "2"])
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["total_k_idempotent"] == "50"
        assert lines["max_nnz"] == "4"
        assert lines["characterization_ok"] == "true"

    def test_order_five_needs_no_flag(self):
        code, out = run_cli(["census", "--n", "5", "--k", "2"])
        assert code == 0
        assert "total_k_idempotent=5682\n" in out


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kidempotent", "gamma", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "9\n"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kidempotent", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


def run_cli_bytes(args, data):
    """Invoke main() in-process with ``data`` as the raw bytes of stdin; CR is kept, as on a POSIX stdin."""
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


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
    code, out, err = run_cli_bytes(argv, stdin.encode())
    assert (code, out) == (2, "")
    assert err == f"{info.value}\n"


# A malformed field far longer than a message: the order line of a matrix, the k field of a decomposition.
LONG_FIELDS = [
    (["check", "--k", "2"], "1x" * 50000 + "\n"),
    (["check", "--k", "2"], "\x7f" * 100000 + "\n"),
    (["compose", "-"], "n=3\nk=" + "x" * 60000 + "\n"),
    (["compose", "-"], "n=" + "\x01" * 60000 + "\n"),
]


@pytest.mark.parametrize("argv, stdin", LONG_FIELDS, ids=["order", "order_control", "k", "n_control"])
def test_long_malformed_field_gives_a_short_message(argv, stdin):
    code, out, err = run_cli_bytes(argv, stdin.encode())
    assert (code, out) == (2, "")
    assert err.startswith("format error: bad ") and len(err.encode()) < 200


class TestArbitraryBytes:
    @settings(max_examples=150, deadline=None)
    @given(input_bytes(), st.sampled_from(READERS))
    @example(b"2\n0\xc3\xa9\n00\n", ["check", "--k", "2"])
    # Longer than CPython's default 4,300-digit int() limit, and malformed without it.
    @example(LONG_ORDER_LINE, ["check", "--k", "2"])
    @example(LONG_ORDER_LINE, ["decompose", "--k", "3"])
    @example(LONG_ORDER_LINE, ["index"])
    @example(b"n=" + LONG_ORDER_LINE, ["compose"])
    def test_readers_by_stdin_and_file(self, tmp_path_factory, data, command):
        code, out, err = run_cli_bytes(command, data)
        assert_contract(code, out, err, data)
        path = tmp_path_factory.mktemp("input") / "in.txt"
        path.write_bytes(data)
        # Valid UTF-8 that is not ASCII decodes from stdin and fails in the
        # parser instead, so only the exit code and stdout must agree.
        file_code, file_out, file_err = run_cli_bytes([*command, str(path)], b"")
        assert (file_code, file_out) == (code, out)
        assert_contract(file_code, file_out, file_err, data)

    @settings(max_examples=20, deadline=None)
    @given(input_bytes(), st.sampled_from(NON_READERS))
    def test_non_readers_ignore_stdin(self, data, command):
        code, out, err = run_cli_bytes(command, data)
        assert_contract(code, out, err, data, reads_input=False)
        assert code == 0

    def test_non_ascii_file_is_format_error(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"2\n0\xe9\n00\n")
        code, out, err = run_cli_bytes(["check", "--k", "2", str(path)], b"")
        assert (code, out) == (2, "")
        assert err == "format error: non-ASCII byte at offset 3\n"

    def test_crlf_file_parses(self, tmp_path):
        for text, command, expected in (
            (C3_TEXT, ["check", "--k", "4"], 0),
            (WORKED_DECOMPOSITION, ["compose"], 0),
        ):
            path = tmp_path / "crlf.txt"
            path.write_bytes(text.replace("\n", "\r\n").encode())
            code, out, err = run_cli_bytes([*command, str(path)], b"")
            assert (code, err) == (expected, "")
            assert out == run_cli_bytes(command, text.encode())[1]

    def test_crlf_and_cr_stdin_in_a_fresh_process(self):
        # a real stdin keeps CR; the reader turns CRLF and CR into LF as for a file
        for command, text, expected in (
            (["check", "--k", "4"], C3_TEXT, b"k-idempotent\n"),
            (["compose"], WORKED_DECOMPOSITION, WORKED_TEXT.encode()),
        ):
            for end in (b"\r\n", b"\r"):
                proc = subprocess.run(
                    [sys.executable, "-m", "kidempotent", *command, "-"],
                    input=text.encode().replace(b"\n", end),
                    capture_output=True,
                )
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")

    def test_non_ascii_stdin_in_a_fresh_process(self):
        # strict UTF-8 stdin, as under a UTF-8 locale, where a text read raises
        env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
        for data in (b"2\n0\xe9\n00\n", b"\xff\xfe"):
            proc = subprocess.run(
                [sys.executable, "-m", "kidempotent", "check", "--k", "2"],
                input=data,
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert b"Traceback" not in proc.stderr


def parse_args_route(argv):
    """main with no subcommand known to it, so every argv takes the whole parser's route."""
    parser = cli.build_parser()[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: (parser, {}))
        return main(argv)


def captured(run, argv, stdin):
    """Exit code (a SystemExit's code too), stdout and stderr of one in-process call."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


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
        direct = captured(main, list(argv), WORKED_DECOMPOSITION)
        assert direct == captured(parse_args_route, list(argv), WORKED_DECOMPOSITION), argv
        assert direct[0] != 0 or direct[1], argv


def test_dispatch_builds_the_whole_parsers_namespace(tmp_path, monkeypatch):
    seen = []
    for name in ("check", "decompose", "compose", "gamma", "extremal", "census", "index"):
        monkeypatch.setattr(cli, "cmd_" + name, lambda args: seen.append(vars(args)) or 0)
    for argv in dispatch_table(str(tmp_path / "m.txt"), str(tmp_path / "d.txt")):
        seen.clear()
        direct, whole = captured(main, list(argv), ""), captured(parse_args_route, list(argv), "")
        assert direct == whole, argv
        assert len(seen) == (2 if direct[0] == 0 and not direct[1] else 0), argv
        assert seen[:1] == seen[1:], argv
