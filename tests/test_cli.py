"""Command-line behaviour: outputs, exit codes, determinism."""

import io
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mvcodes
from mvcodes import (
    attach_bck,
    attach_mv,
    attach_wajsberg,
    chain_wajsberg,
    code_from_algebra,
    convert,
    enumerate_wajsberg,
    format_algebra,
    format_code,
    parse_algebra,
    transport_structure,
    verify,
)
from mvcodes import cli
from mvcodes.cli import run
from mvcodes.order import OrderIso

from conftest import (
    CODE_CYCLED,
    CODE_INTRANSITIVE,
    CODE_PROD23,
    CODE_PROD24,
    CODE_PROD32,
    CODE_PROD42,
    CODE_PROD222,
    CODE_SIX,
    CODE_TRIPLE,
    PROD23,
    PROD24,
    PROD32,
    PROD42,
    PROD222,
    SIX_CYCLED,
    SIX_IMPL,
    catalog_upto,
    code_of,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def six_bck_file(tmp_path, six_bck):
    path = tmp_path / "six.alg"
    path.write_text(format_algebra(six_bck))
    return path


@pytest.fixture
def six_code_file(tmp_path):
    path = tmp_path / "six.code"
    path.write_text(format_code(code_of(CODE_SIX)))
    return path


class TestVerify:
    def test_valid_bck(self, six_bck_file):
        status, out, _ = invoke(["verify", str(six_bck_file)])
        assert status == 0
        assert out == "valid: bounded commutative BCK\n"

    def test_valid_wajsberg(self, tmp_path):
        path = tmp_path / "w.alg"
        path.write_text(format_algebra(chain_wajsberg(3)))
        status, out, _ = invoke(["verify", str(path)])
        assert status == 0
        assert out == "valid: Wajsberg\n"

    def test_invalid_algebra_exits_2(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("kind: bck\norder: 2\nzero: 0 one: 1\n0 0\n1 1\n")
        status, out, _ = invoke(["verify", str(path)])
        assert status == 2
        assert out.startswith("invalid: bounded commutative BCK\n")
        assert "violated" in out

    @pytest.mark.parametrize("kind", ["bck", "mv", "wajsberg"])
    def test_order_zero_exits_1(self, tmp_path, kind):
        path = tmp_path / "empty.alg"
        path.write_text(f"kind: {kind}\norder: 0\n")
        assert invoke(["verify", str(path)]) == (1, "", "error: order must be at least 1\n")

    @pytest.mark.parametrize("command", [["verify"], ["convert", "--to", "mv"]], ids=["verify", "convert"])
    @pytest.mark.parametrize(
        "text, what",
        [
            (f"kind: mv\norder: {'1' * 5000}\n", "order line"),
            (f"kind: mv\norder: 1\nzero: {'1' * 5000}\nunary: 0\n0\n", "constants line"),
            (f"kind: bck\norder: 1\nzero: 0 one: {'1' * 5000}\n0\n", "constants line"),
            (f"kind: wajsberg\norder: 1\none: 0\nunary: {'1' * 5000}\n0\n", "unary row"),
            (f"kind: bck\norder: 1\nzero: 0 one: 0\n{'1' * 5000}\n", "table row 0"),
        ],
        ids=["order", "mv-zero", "bck-one", "unary", "cell"],
    )
    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, command, text, what):
        # int() refuses more than 4,300 digits by default, with a ValueError
        path = tmp_path / "long.alg"
        path.write_text(text)
        assert invoke([command[0], str(path), *command[1:]]) == (
            1,
            "",
            f"error: {what} holds an integer of 5000 digits, too long to read\n",
        )

    def test_missing_file_exits_1(self):
        status, _, err = invoke(["verify", "/nonexistent.alg"])
        assert status == 1
        assert "error" in err

    def test_non_utf8_file_exits_1(self, tmp_path):
        path = tmp_path / "latin1.alg"
        path.write_bytes("kind: bck\norder: 1\nzero: 0 one: 0\n0 # \u00e9\n".encode("latin-1"))
        status, _, err = invoke(["verify", str(path)])
        assert status == 1
        assert "not UTF-8" in err


PLAIN_BCK = "kind: bck\norder: 3\nzero: 0 one: 2\n0 0 0\n1 0 0\n2 1 0\n"


class TestParserTokenClasses:
    """Every class of malformed token or line exits 1 with one ``error:`` line
    that quotes the offending line, and no traceback."""

    @pytest.mark.parametrize(
        "text, what, line",
        [
            ("\ufeff" + PLAIN_BCK, "kind: bck|mv|wajsberg", "\ufeffkind: bck"),
            (PLAIN_BCK.replace("\n", "\r"), "kind: bck|mv|wajsberg", PLAIN_BCK.replace("\n", "\r")[:-1]),
            (PLAIN_BCK.replace("\n", "\u2028"), "kind: bck|mv|wajsberg", PLAIN_BCK.replace("\n", "\u2028")),
            (PLAIN_BCK.replace("1 0 0", "1\x0b0 0"), "table row 1 of 3 indices", "1\x0b0 0"),
            (PLAIN_BCK.replace("1 0 0", "1\xa00 0"), "table row 1 of 3 indices", "1\xa00 0"),
            (PLAIN_BCK.replace("2 1 0", "\u0662 1 0"), "table row 2 of 3 indices", "\u0662 1 0"),
            (PLAIN_BCK.replace("order: 3", "order: \uff13"), "order: <k>", "order: \uff13"),
            (PLAIN_BCK.replace("2 1 0", "\u00b2 1 0"), "table row 2 of 3 indices", "\u00b2 1 0"),
            (PLAIN_BCK.replace("2 1 0", "-1 1 0"), "table row 2 of 3 indices", "-1 1 0"),
            (PLAIN_BCK.replace("2 1 0", "+1 1 0"), "table row 2 of 3 indices", "+1 1 0"),
            (PLAIN_BCK.replace("2 1 0", "0_3 1 0"), "table row 2 of 3 indices", "0_3 1 0"),
            ("kind: bck\n" + PLAIN_BCK, "order: <k>", "kind: bck"),
            (PLAIN_BCK.replace("order: 3\n", "order: 3\norder: 3\n"), "zero: <i> one: <j>", "order: 3"),
            (PLAIN_BCK.replace("kind: bck\n", ""), "kind: bck|mv|wajsberg", "order: 3"),
            (PLAIN_BCK.replace("order: 3\n", ""), "order: <k>", "zero: 0 one: 2"),
            (PLAIN_BCK.replace("zero: 0 one: 2\n", ""), "zero: <i> one: <j>", "0 0 0"),
            (PLAIN_BCK.replace("2 1 0", "2 1"), "table row 2 of 3 indices", "2 1"),
            (PLAIN_BCK.replace("2 1 0", "2 1 0 0"), "table row 2 of 3 indices", "2 1 0 0"),
        ],
        ids=[
            "bom", "cr-only", "u2028", "vt", "nbsp", "arabic-2", "fullwidth-3", "superscript-2",
            "minus", "plus", "underscore", "kind-twice", "order-twice", "no-kind", "no-order",
            "no-constants", "short-row", "long-row",
        ],
    )
    @pytest.mark.parametrize("command", [["verify"], ["convert", "--to", "mv"]], ids=["verify", "convert"])
    def test_exits_1_quoting_the_line(self, tmp_path, command, text, what, line):
        path = tmp_path / "bad.alg"
        path.write_bytes(text.encode("utf-8"))
        assert invoke([command[0], str(path), *command[1:]]) == (1, "", f"error: expected {what}, got: {line!r}\n")

    @pytest.mark.parametrize(
        "text",
        [PLAIN_BCK.replace("\n", "\r\n"), PLAIN_BCK.replace(" ", "\t"), PLAIN_BCK.replace("\n", "\r\n").replace(" ", "\t")],
        ids=["crlf", "tabs", "crlf-and-tabs"],
    )
    @pytest.mark.parametrize(
        "command", [["verify"], ["convert", "--to", "wajsberg"], ["code"], ["skeleton"]], ids=["verify", "convert", "code", "skeleton"]
    )
    def test_crlf_and_tabs_read_as_the_plain_file(self, tmp_path, command, text):
        plain, variant = tmp_path / "plain.alg", tmp_path / "variant.alg"
        plain.write_bytes(PLAIN_BCK.encode("ascii"))
        variant.write_bytes(text.encode("ascii"))
        expected = invoke([command[0], str(plain), *command[1:]])
        assert expected[0] == 0 and expected[1]
        assert invoke([command[0], str(variant), *command[1:]]) == expected


PLAIN_CODE = "111\n011\n001\n"

CODE_COMMANDS = pytest.mark.parametrize(
    "command", [["mindist"], ["attach"], ["embed", "--max-order", "4"]], ids=["mindist", "attach", "embed"]
)


class TestCodeTokenClasses:
    """Every class of malformed code file exits 1 with one ``error:`` line,
    and no traceback; a bad line is quoted."""

    @pytest.mark.parametrize(
        "text, line",
        [
            ("\ufeff" + PLAIN_CODE, "\ufeff111"),
            (PLAIN_CODE.replace("\n", "\r"), "111\r011\r001"),
            (PLAIN_CODE.replace("\n", "\u2028"), PLAIN_CODE.replace("\n", "\u2028")),
            (PLAIN_CODE.replace("011", "0\x0b11"), "0\x0b11"),
            (PLAIN_CODE.replace("011", "011\xa0"), "011\xa0"),
            (PLAIN_CODE.replace("011", "0\x0011"), "0\x0011"),
            (PLAIN_CODE.replace("011", "01\uff11"), "01\uff11"),
            (PLAIN_CODE.replace("011", "021"), "021"),
            (PLAIN_CODE.replace("011", "0\t11"), "0\t11"),
            (PLAIN_CODE.replace("011", "0 11"), "0 11"),
            (PLAIN_CODE.replace("011", "011 # c"), "011 # c"),
        ],
        ids=["bom", "cr-only", "u2028", "vt", "nbsp", "nul", "fullwidth-1", "digit-2", "inner-tab", "inner-space", "comment-after"],
    )
    @CODE_COMMANDS
    def test_exits_1_quoting_the_line(self, tmp_path, command, text, line):
        path = tmp_path / "bad.code"
        path.write_bytes(text.encode("utf-8"))
        assert invoke([command[0], str(path), *command[1:]]) == (1, "", f"error: expected a bit string, got: {line!r}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (PLAIN_CODE.replace("011", "01"), "word lengths differ: 2 vs 3"),
            (PLAIN_CODE.replace("011", "111"), "repeated codeword"),
            ("", "code file holds no words"),
            ("# c\n\n  \n", "code file holds no words"),
        ],
        ids=["lengths", "repeated", "empty", "comments-only"],
    )
    @CODE_COMMANDS
    def test_bad_word_sets_exit_1(self, tmp_path, command, text, message):
        path = tmp_path / "bad.code"
        path.write_bytes(text.encode("utf-8"))
        assert invoke([command[0], str(path), *command[1:]]) == (1, "", f"error: {message}\n")

    @CODE_COMMANDS
    def test_non_utf8_exits_1(self, tmp_path, command):
        path = tmp_path / "latin1.code"
        path.write_bytes("111\n01\u00e9\n".encode("latin-1"))
        status, out, err = invoke([command[0], str(path), *command[1:]])
        assert (status, out) == (1, "") and err == f"error: {path} is not UTF-8 text: invalid continuation byte at byte 6\n"

    @pytest.mark.parametrize(
        "text",
        [PLAIN_CODE.replace("\n", "\r\n"), PLAIN_CODE.replace("\n", "\t\n"), PLAIN_CODE.replace("\n", "\t\r\n")],
        ids=["crlf", "trailing-tabs", "crlf-and-tabs"],
    )
    @CODE_COMMANDS
    def test_crlf_and_tabs_read_as_the_plain_file(self, tmp_path, command, text):
        plain, variant = tmp_path / "plain.code", tmp_path / "variant.code"
        plain.write_bytes(PLAIN_CODE.encode("ascii"))
        variant.write_bytes(text.encode("ascii"))
        expected = invoke([command[0], str(plain), *command[1:]])
        assert expected[0] == 0 and expected[1]
        assert invoke([command[0], str(variant), *command[1:]]) == expected


class TestConvert:
    def test_bck_to_wajsberg(self, six_bck_file):
        status, out, _ = invoke(["convert", str(six_bck_file), "--to", "wajsberg"])
        assert status == 0
        assert parse_algebra(out).circ.rows == SIX_IMPL

    def test_malformed_input_exits_1(self, tmp_path):
        path = tmp_path / "junk.alg"
        path.write_text("kind: nope\n")
        status, _, err = invoke(["convert", str(path), "--to", "mv"])
        assert status == 1
        assert "error" in err

    def test_unverifiable_input_exits_2(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("kind: bck\norder: 2\nzero: 0 one: 1\n0 0\n1 1\n")
        status, _, err = invoke(["convert", str(path), "--to", "mv"])
        assert status == 2


class TestCodeAndSkeleton:
    def test_code_output(self, six_bck_file):
        status, out, _ = invoke(["code", str(six_bck_file)])
        assert status == 0
        assert out == "\n".join(CODE_SIX) + "\n"

    def test_skeleton_output(self, six_bck_file):
        status, out, _ = invoke(["skeleton", str(six_bck_file)])
        assert status == 0
        assert out.splitlines()[0] == "######"
        assert out.splitlines()[1] == ".#.###"

    def test_distance(self, six_bck_file):
        status, out, _ = invoke(["distance", str(six_bck_file), "1", "2"])
        assert status == 0
        assert out == "3\n"

    @pytest.mark.parametrize("r, s", [(6, 0), (0, 6)])
    def test_distance_outside_the_carrier_exits_1(self, six_bck_file, r, s):
        assert invoke(["distance", str(six_bck_file), str(r), str(s)]) == (1, "", "error: elements must lie in [0,6)\n")

    def test_mindist(self, six_code_file):
        status, out, _ = invoke(["mindist", str(six_code_file)])
        assert status == 0
        assert out == "1\n"


def listed_enumeration(n):
    """The enumerate output as rendered from the list ``enumerate_wajsberg``
    returns: the stdout text and the files of ``--output``, by name."""
    entries = enumerate_wajsberg(n)
    files = {}
    for entry in entries:
        label = "chain" if len(entry.factors) == 1 else entry.factor_label()
        files[f"w{n}_{label.replace('x', '_')}.alg"] = f"# factors: {label}\n" + format_algebra(entry.algebra)
    head = f"n={n} pi={len(entries) - 1} total={len(entries)}\n"
    return head, head + "".join("---\n" + text for text in files.values()), files


class TestEnumerate:
    @pytest.mark.parametrize("n", [1, 2, 6, 48, 96, 240, 300])
    def test_streamed_output_matches_listed_rendering(self, n, tmp_path):
        # 300 takes the tuple rows beyond 256 elements
        head, stdout, files = listed_enumeration(n)
        assert invoke(["enumerate", str(n)]) == (0, stdout, "")
        assert invoke(["enumerate", str(n), "--output", str(tmp_path)]) == (0, head, "")
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == files

    def test_streams_one_entry_at_a_time(self):
        # the 38 entries of order 240 hold 2.2 MB of tables and 8.5 MB of text;
        # one entry, its text and the formatter's blocks stay well under 2 MB
        class Sink:
            def write(self, text):
                pass

        err = io.StringIO()
        tracemalloc.start()
        try:
            status = run(["enumerate", "240"], Sink(), err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (status, err.getvalue()) == (0, "")
        assert peak < 2 << 20

    def test_summary_line(self):
        status, out, _ = invoke(["enumerate", "6"])
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "n=6 pi=1 total=2"
        assert lines.count("---") == 2

    def test_output_directory(self, tmp_path):
        outdir = tmp_path / "algebras"
        status, out, _ = invoke(["enumerate", "6", "--output", str(outdir)])
        assert status == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["w6_2_3.alg", "w6_chain.alg"]
        parsed = parse_algebra((outdir / "w6_chain.alg").read_text())
        assert parsed == chain_wajsberg(6)

    def test_oversized_order_exits_1(self):
        status, out, err = invoke(["enumerate", "1000000000000"])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_exits_1(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        status, out, err = invoke(["enumerate", "4", "--output", str(blocker / "sub")])
        assert status == 1
        assert err == f"error: cannot write {blocker / 'sub'}: Not a directory\n"

    def test_existing_output_file_writes_nothing_to_stdout(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert invoke(["enumerate", "6", "--output", str(blocker)]) == (
            1,
            "",
            f"error: cannot write {blocker}: File exists\n",
        )
        assert invoke(["enumerate", "6", "--output", str(tmp_path / "dir")]) == (0, "n=6 pi=1 total=2\n", "")


class TestAttach:
    def test_attach_writes_algebra(self, six_code_file):
        status, out, _ = invoke(["attach", str(six_code_file)])
        assert status == 0
        body = out.split("---\n", 1)[1]
        assert parse_algebra(body).circ.rows == SIX_IMPL
        assert "# catalog: n=6 factors=2x3" in out
        assert "# relabeling: 0,1,3,2,4,5" in out

    def test_attach_to_bck(self, six_code_file):
        status, out, _ = invoke(["attach", str(six_code_file), "--to", "bck"])
        assert status == 0
        body = out.split("---\n", 1)[1]
        assert "kind: bck" in body

    def test_attach_unsorted_rows(self, tmp_path):
        path = tmp_path / "c.code"
        path.write_text("\n".join(CODE_CYCLED) + "\n")
        status, out, _ = invoke(["attach", str(path)])
        assert status == 0
        body = out.split("---\n", 1)[1]
        assert parse_algebra(body).circ.rows == SIX_CYCLED

    @pytest.mark.parametrize(
        "words,table",
        [
            (CODE_PROD23, PROD23),
            (CODE_SIX, SIX_IMPL),
            (CODE_CYCLED, SIX_CYCLED),
            (CODE_PROD32, PROD32),
            (CODE_PROD42, PROD42),
            (CODE_PROD24, PROD24),
            (CODE_PROD222, PROD222),
        ],
    )
    def test_every_fixture_code_end_to_end(self, tmp_path, words, table):
        path = tmp_path / "c.code"
        path.write_text("\n".join(words) + "\n")
        status, out, _ = invoke(["attach", str(path)])
        assert status == 0
        body = out.split("---\n", 1)[1]
        attached = parse_algebra(body)
        assert attached.circ.rows == table
        # write the attached algebra back out and verify it through the CLI
        alg_path = tmp_path / "attached.alg"
        alg_path.write_text(body)
        status, out, _ = invoke(["verify", str(alg_path)])
        assert status == 0
        assert out == "valid: Wajsberg\n"

    def test_rejection_exits_2(self, tmp_path):
        path = tmp_path / "r.code"
        path.write_text("\n".join(CODE_INTRANSITIVE) + "\n")
        status, out, err = invoke(["attach", str(path)])
        assert status == 2
        assert out == ""
        assert "transitivity-failure" in err
        assert "witness (1, 3, 4)" in err

    def test_non_square_exits_1(self, tmp_path):
        path = tmp_path / "r.code"
        path.write_text("011\n101\n")
        status, _, err = invoke(["attach", str(path)])
        assert status == 1

    def test_output_directory(self, tmp_path, six_code_file):
        outdir = tmp_path / "attached"
        status, out, _ = invoke(
            ["attach", str(six_code_file), "--output", str(outdir)]
        )
        assert status == 0
        assert out == ""
        (name,) = [p.name for p in outdir.iterdir()]
        assert name == "attached_1_wajsberg.alg"
        assert parse_algebra((outdir / name).read_text()).circ.rows == SIX_IMPL

    def test_output_onto_existing_file_exits_1(self, tmp_path, six_code_file):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        status, out, err = invoke(["attach", str(six_code_file), "--output", str(blocker)])
        assert status == 1
        assert out == ""
        assert err == f"error: cannot write {blocker}: File exists\n"
        assert blocker.read_text() == "kept"

    def test_all_matches_on_cube(self, tmp_path):
        path = tmp_path / "cube.code"
        path.write_text("\n".join(CODE_PROD222) + "\n")
        status, out, _ = invoke(["attach", str(path), "--all"])
        assert status == 0
        assert out.count("---") == 6  # six relabellings, one table
        tables = {
            parse_algebra(chunk).circ.rows
            for chunk in out.split("---\n")[1:]
        }
        assert tables == {PROD222}


class TestEmbed:
    def test_summary_and_host(self, tmp_path):
        path = tmp_path / "v.code"
        path.write_text("\n".join(CODE_TRIPLE) + "\n")
        status, out, _ = invoke(["embed", str(path)])
        assert status == 0
        lines = out.splitlines()
        assert lines[1] == "q=6 factors=2x3 columns=2,3,4"
        assert "# restricted code" in out
        tail = out.split("# restricted code\n", 1)[1]
        assert tail == "111\n011\n101\n010\n001\n000\n"

    def test_all_flag_reaches_two_orders(self, tmp_path):
        path = tmp_path / "v.code"
        path.write_text("011\n101\n")
        status, out, _ = invoke(["embed", str(path), "--all", "--max-order", "8"])
        assert status == 0
        qs = {line.split()[0] for line in out.splitlines() if line.startswith("q=")}
        assert {"q=4", "q=6", "q=8"} <= qs

    def test_exhausted_exits_2(self, tmp_path):
        path = tmp_path / "v.code"
        path.write_text("01\n10\n")
        status, _, err = invoke(["embed", str(path), "--max-order", "3"])
        assert status == 2
        assert "no embedding" in err

    def test_output_directory(self, tmp_path):
        path = tmp_path / "v.code"
        path.write_text("\n".join(CODE_TRIPLE) + "\n")
        outdir = tmp_path / "embeddings"
        status, _, _ = invoke(["embed", str(path), "--output", str(outdir)])
        assert status == 0
        body = (outdir / "embedding_1.txt").read_text()
        assert body.startswith("q=6 factors=2x3 columns=2,3,4\n")

    def test_long_code_exits_0(self, tmp_path):
        # a column search 1009 deep, past the interpreter's recursion limit
        n = 1009
        path = tmp_path / "long.code"
        path.write_text("1" * n + "\n" + "0" * (n - 1) + "1\n")
        status, out, err = invoke(["embed", str(path)])
        assert (status, err) == (0, "")
        assert out.startswith(f"---\nq={n} factors={n} columns={','.join(map(str, range(n)))}\n")


@pytest.fixture
def mvcodes_process():
    """Starts ``mvcodes argv`` in a new interpreter, as the console script runs
    it, with ``prelude`` run before ``cli.main``; kills what is left at the end."""
    procs = []

    def start(argv, prelude="", **kwargs):
        script = f"import sys\nfrom mvcodes import cli\n{prelude}\ncli.main()"
        env = dict(os.environ, PYTHONPATH=str(Path(mvcodes.__file__).parents[1]))
        procs.append(subprocess.Popen([sys.executable, "-c", script, *argv], env=env, **kwargs))
        return procs[-1]

    yield start
    for proc in procs:
        proc.kill()
        proc.communicate()


class TestProcessExit:
    """Failed writes to stdout and interrupts end in an exit code, never a traceback."""

    def test_closed_pipe_exits_quietly(self, mvcodes_process):
        proc = mvcodes_process(["enumerate", "240"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert head.startswith(b"n=240 pi=37 total=38\n---\n# factors: chain\n") and len(head) == 100
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1

    def test_full_device_gives_one_error_line(self, mvcodes_process, six_bck_file):
        with open("/dev/full", "wb") as full:
            proc = mvcodes_process(["code", str(six_bck_file)], stdout=full, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"error: cannot write output: No space left on device\n")

    def test_interrupt_exits_130(self, mvcodes_process, tmp_path):
        # a search of ~25 s: a 9-word code whose least host has order 60
        words = "0000101 0010110 0010111 0100110 1000001 1000100 1101010 1110011 1111101"
        path = tmp_path / "nine.code"
        path.write_text("\n".join(words.split()) + "\n")
        # SIGINT raises KeyboardInterrupt even where the parent ignores it
        prelude = "import signal\nsignal.signal(signal.SIGINT, signal.default_int_handler)\nprint(file=sys.stderr, flush=True)"
        argv = ["embed", str(path), "--max-order", "64"]
        proc = mvcodes_process(argv, prelude, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stderr.readline() == b"\n"  # the job starts
        try:
            proc.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (130, b"", b"")


# ``mvcodes -h`` and ``mvcodes COMMAND -h`` at COLUMNS=80, pinned byte for
# byte: argparse is built from the command table, and its help must not drift.
HELP_AT_80_COLUMNS = {
    "": (
        "usage: mvcodes [-h]\n"
        "               {verify,convert,code,distance,mindist,skeleton,enumerate,attach,embed}\n"
        "               ...\n"
        "\n"
        "Command-line front end over the algebra and code text formats. Exit codes: 0\n"
        "success, 1 malformed input or output that cannot be written (a closed pipe\n"
        "exits quietly), 2 domain rejection (invalid algebra, rejected attachment,\n"
        "exhausted embedding), 64 usage error, 130 interrupted (SIGINT). Output is\n"
        "deterministic: identical inputs produce byte-identical output. ``enumerate``\n"
        "builds, formats and writes one catalog entry at a time, so an interrupted run,\n"
        "or one whose stdout pipe closes, leaves the entries already written, and still\n"
        "exits 130, or quietly 1.\n"
        "\n"
        "positional arguments:\n"
        "  {verify,convert,code,distance,mindist,skeleton,enumerate,attach,embed}\n"
        "    verify              check the axioms of an algebra file\n"
        "    convert             translate an algebra to another presentation\n"
        "    code                print the block code generated by an algebra\n"
        "    distance            cut-set distance between two elements\n"
        "    mindist             minimum Hamming distance of a code file\n"
        "    skeleton            print the order skeleton of an algebra\n"
        "    enumerate           all Wajsberg algebras of a given order\n"
        "    attach              reconstruct the algebra behind a square code\n"
        "    embed               embed a code into a larger algebra's code\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "verify": (
        "usage: mvcodes verify [-h] algebra\n"
        "\n"
        "positional arguments:\n"
        "  algebra\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "convert": (
        "usage: mvcodes convert [-h] --to {bck,mv,wajsberg} algebra\n"
        "\n"
        "positional arguments:\n"
        "  algebra\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --to {bck,mv,wajsberg}\n"
    ),
    "code": (
        "usage: mvcodes code [-h] algebra\n"
        "\n"
        "positional arguments:\n"
        "  algebra\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "distance": (
        "usage: mvcodes distance [-h] algebra r s\n"
        "\n"
        "positional arguments:\n"
        "  algebra\n"
        "  r\n"
        "  s\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "mindist": (
        "usage: mvcodes mindist [-h] code\n"
        "\n"
        "positional arguments:\n"
        "  code\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "skeleton": (
        "usage: mvcodes skeleton [-h] algebra\n"
        "\n"
        "positional arguments:\n"
        "  algebra\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "enumerate": (
        "usage: mvcodes enumerate [-h] [--output OUTPUT] n\n"
        "\n"
        "positional arguments:\n"
        "  n\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --output OUTPUT\n"
    ),
    "attach": (
        "usage: mvcodes attach [-h] [--all] [--to {bck,mv,wajsberg}] [--output OUTPUT]\n"
        "                      code\n"
        "\n"
        "positional arguments:\n"
        "  code\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --all\n"
        "  --to {bck,mv,wajsberg}\n"
        "  --output OUTPUT\n"
    ),
    "embed": (
        "usage: mvcodes embed [-h] [--max-order MAX_ORDER] [--all] [--output OUTPUT]\n"
        "                     code\n"
        "\n"
        "positional arguments:\n"
        "  code\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-order MAX_ORDER\n"
        "  --all\n"
        "  --output OUTPUT\n"
    ),
}


class TestUsage:
    def test_unknown_command(self):
        status, _, err = invoke(["frobnicate"])
        assert status == 64
        assert "usage error" in err

    def test_missing_argument(self):
        status, _, _ = invoke(["verify"])
        assert status == 64

    def test_bad_flag_value(self, six_bck_file):
        status, _, _ = invoke(["convert", str(six_bck_file), "--to", "ring"])
        assert status == 64

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_goes_to_out_and_exits_0(self, flag):
        status, out, err = invoke(["verify", flag])
        assert (status, err) == (0, "")
        assert out.startswith("usage: mvcodes verify [-h] algebra\n")
        assert "show this help message and exit" in out
        status, out, err = invoke([flag])
        assert (status, err) == (0, "")
        assert out.startswith("usage: mvcodes [-h]")
        assert "check the axioms of an algebra file" in out

    @pytest.mark.parametrize("command", list(HELP_AT_80_COLUMNS))
    def test_help_text_is_unchanged(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert invoke([command, "-h"] if command else ["-h"]) == (0, HELP_AT_80_COLUMNS[command], "")

    def test_help_does_not_read_the_module_docstring(self, monkeypatch):
        # the module docstring holds notes for readers of the source; -h stays as pinned when they change
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "__doc__", "Notes for readers of the source.\n\nA second paragraph.\n")
        cli._build_parser.cache_clear()
        try:
            assert invoke(["-h"]) == (0, HELP_AT_80_COLUMNS[""], "")
        finally:
            cli._build_parser.cache_clear()

    def test_parser_is_shared_without_carrying_state(self, six_bck_file):
        first = invoke(["frobnicate"])
        assert invoke(["embed", "--help"])[0] == 0
        assert invoke(["verify", str(six_bck_file)]) == (0, "valid: bounded commutative BCK\n", "")
        assert invoke(["frobnicate"]) == first


def test_output_is_deterministic(six_bck_file, six_code_file):
    for argv in (
        ["code", str(six_bck_file)],
        ["enumerate", "8"],
        ["attach", str(six_code_file)],
    ):
        assert invoke(argv) == invoke(argv)


@st.composite
def algebra_like_text(draw):
    """Headers and rows shaped like an algebra file, entries possibly out of range."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["bck", "mv", "wajsberg"]))
    # an index is sometimes spelled with leading zeros, which the parser
    # reads as a number, as a run of digits too long for int(), as a signed
    # or underscored number, or with a non-ASCII digit
    index = st.integers(0, k).flatmap(
        lambda v: st.sampled_from(
            [str(v), f"00{v}", "1" * 4301, f"-{v}", f"+{v}", f"0_{v}", "\u0662", "\uff13", "\u00b2"]
        )
    )
    # sometimes a separator, line end, row length or header that the format
    # refuses
    space = draw(st.one_of(st.just(" "), st.sampled_from(["\t", "\xa0", "\x0b"])))
    end = draw(st.one_of(st.just("\n"), st.sampled_from(["\r\n", "\r", "\u2028"])))
    row = st.lists(index, min_size=k, max_size=k).map(space.join)
    lines = [f"kind: {kind}", f"order: {k}"]
    if kind == "bck":
        lines.append(f"zero: {draw(index)} one: {draw(index)}")
    else:
        lines.append(f"{'zero' if kind == 'mv' else 'one'}: {draw(index)}")
        lines.append("unary: " + draw(row))
    lines += [draw(row) for _ in range(k)]
    at = draw(st.integers(0, len(lines) - 1))
    if at > 2:  # a row one cell short or long
        lines[at] = draw(st.sampled_from([lines[at], lines[at].rpartition(space)[0], lines[at] + space + "0"]))
    else:  # a header line repeated or left out
        lines[at : at + 1] = draw(st.sampled_from([[lines[at]], [lines[at]] * 2, []]))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + end for line in lines)


@st.composite
def code_like_text(draw):
    """Bit strings one to a line, sometimes with a character, line end,
    separator, comment or word the code format refuses."""
    n = draw(st.integers(1, 4))
    word = st.text("01", min_size=n, max_size=n)
    odd = st.sampled_from(["\ufeff", "\u2028", "\x0b", "\xa0", "\x00", "\uff11", "2", "\t", " ", " # c"])
    spoilt = st.tuples(word, odd, st.integers(0, n)).map(lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :])
    lines = draw(st.lists(st.one_of(word, word, word, st.text("01", max_size=5), spoilt), min_size=1, max_size=6))
    if draw(st.booleans()):  # a repeated word
        lines.append(draw(st.sampled_from(lines)))
    lines += draw(st.sampled_from([[], ["# c"], [""]]))
    end = draw(st.one_of(st.just("\n"), st.sampled_from(["\r\n", "\t\n", "\r", "\u2028"])))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + end for line in lines)


@st.composite
def catalog_text_with_one_edit(draw):
    """A catalog algebra file with one character overwritten."""
    entry = draw(st.sampled_from([e for n in range(1, 7) for e in enumerate_wajsberg(n)]))
    text = format_algebra(entry.algebra)
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from("0123 \n")) + text[at + 1 :]


FUZZ_INPUTS = st.one_of(
    st.binary(max_size=120),
    st.text("01\n#", max_size=80).map(str.encode),
    st.text("0123456789 \n#:abdegiknorstuvwyz\u00b2\u0662\u00e9", max_size=120).map(str.encode),
    algebra_like_text().map(str.encode),
    code_like_text().map(str.encode),
    catalog_text_with_one_edit().map(str.encode),
)
FUZZ_COMMANDS = (
    ["verify"],
    ["skeleton"],
    ["code"],
    ["mindist"],
    ["attach"],
    ["embed", "--max-order", "6"],
    ["convert", "--to", "mv"],
    ["distance", "0", "0"],
)


@settings(max_examples=30, deadline=None)
@given(FUZZ_INPUTS)
def test_run_never_raises_on_arbitrary_files(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.input"
    path.write_bytes(data)
    for command in FUZZ_COMMANDS:
        status, _, _ = invoke([command[0], str(path), *command[1:]])
        assert status in (0, 1, 2, 64)


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Files the argv fuzz names: ``@``-keys mapped to paths."""
    base = tmp_path_factory.mktemp("argv")
    texts = {
        "@algebra": format_algebra(chain_wajsberg(4)),
        "@invalid": "kind: bck\norder: 2\nzero: 0 one: 1\n0 0\n1 1\n",
        "@code": format_code(code_of(CODE_SIX)),
        "@intransitive": format_code(code_of(CODE_INTRANSITIVE)),
        "@triple": format_code(code_of(CODE_TRIPLE)),
        "@file": "an existing regular file\n",
    }
    paths = {key: base / key[1:] for key in texts}
    for key, text in texts.items():
        paths[key].write_text(text)
    paths["@missing"] = base / "missing"
    paths["@dir"] = base / "out"
    return {key: str(path) for key, path in paths.items()}


def _argv(*fragments):
    """Concatenate drawn argv fragments, each a list of tokens."""
    return st.tuples(*fragments).map(lambda parts: [t for part in parts for t in part])


def _one(values):
    return values.map(lambda v: [v])


def _maybe(flag, values=None):
    if values is None:
        return st.sampled_from([[], [flag]])
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


ARGV_INPUTS = st.sampled_from(
    ["@algebra", "@invalid", "@code", "@intransitive", "@triple", "@missing", "@file"]
)
ARGV_OUTPUTS = st.sampled_from(["@file", "@dir"])
ARGV_KINDS = st.sampled_from(["bck", "mv", "wajsberg", "ring"])
ARGV_TOKENS = st.sampled_from(
    ["verify", "convert", "code", "distance", "mindist", "skeleton", "enumerate",
     "attach", "embed", "--to", "--all", "--output", "--max-order", "-h", "--help",
     "mv", "0", "1", "-2", "40", "@code", "@algebra", "@missing", "@file", "@dir"]
)
FUZZ_ARGV = st.one_of(
    _argv(_one(st.sampled_from(["verify", "code", "skeleton", "mindist"])), _one(ARGV_INPUTS)),
    _argv(st.just(["convert"]), _one(ARGV_INPUTS), _maybe("--to", ARGV_KINDS)),
    _argv(st.just(["distance"]), _one(ARGV_INPUTS), _one(_int(-2, 20)), _one(_int(-2, 20))),
    _argv(st.just(["enumerate"]), _one(_int(-3, 40)), _maybe("--output", ARGV_OUTPUTS)),
    _argv(
        st.just(["attach"]),
        _one(ARGV_INPUTS),
        _maybe("--all"),
        _maybe("--to", ARGV_KINDS),
        _maybe("--output", ARGV_OUTPUTS),
    ),
    _argv(
        st.just(["embed"]),
        _one(ARGV_INPUTS),
        _maybe("--max-order", _int(-1, 8)),
        _maybe("--all"),
        _maybe("--output", ARGV_OUTPUTS),
    ),
    st.lists(ARGV_TOKENS, max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(FUZZ_ARGV)
def test_run_never_raises_on_arbitrary_argv(argv_paths, argv):
    status, _, _ = invoke([argv_paths.get(token, token) for token in argv])
    assert status in (0, 1, 2, 64)


def _insert(argv_and_extras):
    argv, extras = argv_and_extras
    for at, token in extras:
        argv = argv[:at] + [token] + argv[at:]
    return argv


# argv of every shape: the fuzz shapes, their tails reordered, and tokens the
# table parser declines (abbreviations, ``--to=mv``, ``--``, ``-``, a negative
# number) or converts as ``int`` does (spaces, underscores, a non-ASCII digit,
# a number past the digit limit), inserted anywhere
PARSER_ARGV = st.one_of(
    FUZZ_ARGV,
    FUZZ_ARGV.flatmap(lambda argv: st.permutations(argv[1:]).map(lambda tail: argv[:1] + tail)),
    st.tuples(
        FUZZ_ARGV,
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.sampled_from(["--max", "--al", "--to=mv", "--", "-", "-2", "", " 4", "1_0", "\u0663", "7" * 5000]),
            ),
            min_size=1,
            max_size=2,
        ),
    ).map(_insert),
)


@settings(max_examples=150, deadline=None)
@given(PARSER_ARGV)
def test_table_parser_agrees_with_argparse(argv_paths, argv):
    argv = [argv_paths.get(token, token) for token in argv]
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_read_argv", lambda argv: None)
        through_argparse = invoke(argv)
    assert invoke(argv) == through_argparse


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["verify", "@algebra", "-h"],
        ["--help"],
        ["convert", "@algebra"],  # a required option left out
        ["convert", "@algebra", "--to", "ring"],
        ["convert", "@algebra", "--to=mv"],
        ["verify", "@algebra", "--to", "mv"],  # an option of another command
        ["embed", "@code", "--max", "6"],
        ["attach", "@code", "--al"],
        ["embed", "@code", "--max-order"],
        ["embed", "@code", "--max-order", "--all"],
        ["embed", "@code", "--max-order", "x"],
        ["verify", "--", "@algebra"],
        ["verify", "-"],
        ["enumerate", "-2"],
        ["enumerate", "7" * 5000],
        ["distance", "@algebra", "1"],
        ["distance", "@algebra", "1", "2", "3"],
        ["enumerate", "6", "--output"],
        ["attach", "c", "--output", "--all"],  # an option where its value belongs
    ],
)
def test_table_parser_declines_what_it_does_not_take(argv):
    assert cli._read_argv(argv) is None


def test_well_formed_runs_load_no_argparse(tmp_path, six_bck_file, six_code_file):
    script = (
        "import io, sys\n"
        "from mvcodes import cli\n"
        "algebra, code, out = sys.argv[1:]\n"
        "for argv in (\n"
        "    ['verify', algebra], ['convert', algebra, '--to', 'mv'], ['code', algebra],\n"
        "    ['distance', algebra, '1', '2'], ['mindist', code], ['skeleton', algebra],\n"
        "    ['enumerate', '6', '--output', out], ['attach', code, '--all', '--output', out],\n"
        "    ['embed', code, '--max-order', '7', '--output', out],\n"
        "):\n"
        "    print(cli.run(argv, io.StringIO(), io.StringIO()))\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mvcodes.__file__).parents[1]))
    argv = [sys.executable, "-c", script, str(six_bck_file), str(six_code_file), str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0\n" * 9 + "[]\n"


def test_well_formed_runs_load_no_dataclasses(tmp_path, six_bck_file, six_code_file):
    # python -S: no site module, so nothing but the package can load them
    bad = tmp_path / "bad.code"
    bad.write_text(format_code(code_of(CODE_INTRANSITIVE)))
    script = (
        "import io, sys\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "from mvcodes import cli\n"
        "algebra, code, bad, out = sys.argv[1:]\n"
        "for argv in (\n"
        "    ['verify', algebra], ['convert', algebra, '--to', 'wajsberg'], ['code', algebra],\n"
        "    ['distance', algebra, '0', '5'], ['mindist', code], ['skeleton', algebra],\n"
        "    ['enumerate', '12', '--output', out], ['attach', code, '--to', 'mv', '--all'],\n"
        "    ['attach', bad], ['embed', code, '--all'], ['embed', code, '--max-order', '3'],\n"
        "):\n"
        "    print(cli.run(argv, io.StringIO(), io.StringIO()))\n"
        "print(sorted(loaded), sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mvcodes.__file__).parents[1]))
    argv = [sys.executable, "-S", "-c", script, str(six_bck_file), str(six_code_file), str(bad), str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0\n" * 8 + "2\n0\n2\n" + "[] []\n"


def test_benchmark_job_shapes_build_no_parser(six_bck_file, six_code_file):
    algebra, code = str(six_bck_file), str(six_code_file)
    cli._build_parser.cache_clear()
    for argv in (
        ["verify", algebra],
        ["code", algebra],
        ["skeleton", algebra],
        ["convert", algebra, "--to", "bck"],
        ["convert", "--to", "wajsberg", algebra],
        ["distance", algebra, "1", "2"],
        ["mindist", code],
        ["enumerate", "12"],
        ["attach", code],
        ["attach", code, "--to", "mv", "--all"],
        ["attach", "--all", "--to", "bck", code],
        ["embed", code],
        ["embed", code, "--max-order", "7", "--all"],
        ["embed", "--all", "--max-order", "7", code],
    ):
        assert invoke(argv)[0] == 0, argv
    assert cli._build_parser.cache_info().misses == 0


def test_every_attach_output_verifies(tmp_path):
    # attach, attach_mv and attach_bck translate their result without
    # verifying it: it is a transport of a catalog entry, valid by
    # construction; every printed algebra of this sweep is verified here, and
    # must equal the verified conversion of the library's result
    path = tmp_path / "code.txt"
    for n, _, algebra in catalog_upto(24):
        inner = list(range(1, n - 1))
        random.Random(n).shuffle(inner)
        code = code_from_algebra(transport_structure(algebra, OrderIso([0, *inner, n - 1][:n])))
        path.write_text(format_code(code))
        results = attach_wajsberg(code, all_matches=True)
        assert attach_mv(code) == convert(results[0].algebra, "mv")
        assert attach_bck(code) == convert(results[0].algebra, "bck")
        for kind in ("wajsberg", "mv", "bck"):
            body = format_algebra(convert(results[0].algebra, kind))
            for argv in (["attach", str(path), "--to", kind], ["attach", str(path), "--to", kind, "--all"]):
                status, out, _ = invoke(argv)
                assert status == 0
                printed = out.split("---\n")[1:]
                assert len(printed) == (len(results) if "--all" in argv else 1)
                for text in printed:
                    assert verify(parse_algebra(text)).valid
                    assert text.endswith(body)
