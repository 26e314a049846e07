"""Text format round trips and strict parsing."""

import random
import re
from pathlib import Path

import pytest

from mvcodes import (
    BckAlgebra,
    CayleyTable,
    MalformedTable,
    MvAlgebra,
    ParseError,
    WajsbergAlgebra,
    chain_wajsberg,
    convert,
    format_algebra,
    format_code,
    parse_algebra,
    parse_code,
    verify,
)
from mvcodes.algebras import kind_of
from mvcodes.fileio import _format_bytes, _format_rows

from conftest import CODE_SIX, SIX_COMPLEMENT, SIX_PLUS, SIX_STAR, catalog_upto, code_of


def test_bck_round_trip(six_bck):
    text = format_algebra(six_bck)
    again = parse_algebra(text)
    assert again == six_bck
    assert text.splitlines()[:3] == ["kind: bck", "order: 6", "zero: 0 one: 5"]


def test_mv_round_trip(six_mv):
    text = format_algebra(six_mv)
    again = parse_algebra(text)
    assert again.oplus.rows == SIX_PLUS
    assert again.complement == SIX_COMPLEMENT
    assert "unary: 5 4 3 2 1 0" in text.splitlines()


def test_wajsberg_round_trip():
    w = chain_wajsberg(4)
    assert parse_algebra(format_algebra(w)) == w


def percent_format(algebra):
    """The row-by-row ``%d`` formatter: the oracle of ``format_algebra``."""
    row_format = " ".join(["%d"] * algebra.k)
    lines = [f"kind: {kind_of(algebra)}", f"order: {algebra.k}"]
    if isinstance(algebra, BckAlgebra):
        lines.append(f"zero: {algebra.zero} one: {algebra.one}")
        rows = algebra.table.rows
    elif isinstance(algebra, MvAlgebra):
        lines += [f"zero: {algebra.zero}", "unary: " + row_format % algebra.complement]
        rows = algebra.oplus.rows
    else:
        lines += [f"one: {algebra.one}", "unary: " + row_format % algebra.negation]
        rows = algebra.circ.rows
    return "\n".join(lines + [row_format % row for row in rows]) + "\n"


def test_format_matches_row_by_row_oracle():
    presented = [convert(a, kind) for _, _, a in catalog_upto(12) for kind in ("bck", "mv", "wajsberg")]
    for algebra in presented + [chain_wajsberg(240), chain_wajsberg(257)]:
        assert format_algebra(algebra) == percent_format(algebra)


@pytest.mark.parametrize("k", [1, 2, 9, 10, 11, 99, 100, 101, 256])
def test_byte_formatter_matches_scalar_formatter(k):
    # every value below k sits in the table, so k = 256 holds each byte value
    rng = random.Random(k)
    cells = list(range(k)) * k
    rng.shuffle(cells)
    table = CayleyTable([cells[i : i + k] for i in range(0, k * k, k)])
    assert _format_bytes(b"".join(table._rows), k) == _format_rows(table.rows, [str(v) for v in range(k)])
    unary = rng.sample(range(k), k)
    for algebra in (BckAlgebra(table, 0, k - 1), MvAlgebra(table, unary, 0), WajsbergAlgebra(table, unary, k - 1)):
        text = format_algebra(algebra)
        assert text == percent_format(algebra)
        assert parse_algebra(text) == algebra


def test_comments_and_blanks_ignored():
    text = "# a comment\n\nkind: wajsberg\norder: 2\n# more\none: 1\nunary: 1 0\n1 1\n0 1\n"
    assert parse_algebra(text) == chain_wajsberg(2)


@pytest.mark.parametrize(
    "text",
    [
        "kind: ring\norder: 1\nzero: 0 one: 0\n0",
        "kind: bck\norder: two\nzero: 0 one: 0\n0",
        "kind: bck\norder: 1\nzero: 0\n0",  # missing one
        "kind: mv\norder: 2\nzero: 0\n0 1\n1 1",  # missing unary line
        "kind: bck\norder: 2\nzero: 0 one: 1\n0 0\n1 0\nextra",
        "kind: bck\norder: 2\nzero: 0 one: 1\n0 0\n1 0 0",
        "kind: wajsberg\norder: 2\none: 1\nunary: 1 0\n1 1\n",  # missing row
        "size: 2\nkind: bck",
        "kind: bck\norder: 1\nzero: 0 one: 0\n\u00b2",  # superscript two passes str.isdigit
        "kind: bck\norder: \u0662\nzero: 0 one: 1\n0 0\n1 0",  # Arabic-Indic two
        "kind: wajsberg\norder: 2\none: 1\nunary: 1 0\n1\x1c1\n0 1",  # str.split breaks at \x1c
        "kind:\xa0wajsberg\norder: 2\none: 1\nunary: 1 0\n1 1\n0 1",  # no-break space
    ],
)
def test_malformed_algebra_files(text):
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_crlf_line_endings_and_tabs_parse():
    text = "kind: wajsberg\r\norder: 2\r\none:\t1\r\nunary: 1 0\r\n1\t1\r\n0 1\r\n"
    assert parse_algebra(text) == chain_wajsberg(2)
    assert parse_code("11\r\n01\r\n").word_strings() == ("11", "01")


def test_out_of_range_entries_are_table_errors():
    text = "kind: bck\norder: 2\nzero: 0 one: 1\n0 2\n1 0\n"
    with pytest.raises(MalformedTable):
        parse_algebra(text)


def test_leading_zeros_parse_as_their_value():
    text = format_algebra(chain_wajsberg(8))
    lines = text.splitlines()
    lines[3] = "unary: 007 " + lines[3].split(" ", 2)[2]
    lines[4] = lines[4].replace("7", "007")
    assert lines[3].startswith("unary: 007 6") and "007" in lines[4]
    assert parse_algebra("\n".join(lines)) == chain_wajsberg(8)


WAJSBERG_2 = "kind: wajsberg\norder: 2\none: 1\nunary: {unary}\n{row}\n0 1\n"


@pytest.mark.parametrize(
    "unary, row, error, message",
    [
        ("1 0", "1 2", MalformedTable, "entry (0,1) = 2 out of range [0,2)"),
        ("1 0", "002 1", MalformedTable, "entry (0,0) = 2 out of range [0,2)"),
        ("2 0", "1 1", MalformedTable, "unary entry 0 = 2 out of range [0,2)"),
        ("1 0", "1_0 1", ParseError, "expected table row 0 of 2 indices, got: '1_0 1'"),
        ("1 0", "+1 1", ParseError, "expected table row 0 of 2 indices, got: '+1 1'"),
        ("1 0", "\u0663 1", ParseError, "expected table row 0 of 2 indices, got: '\u0663 1'"),
        ("1_0 0", "1 1", ParseError, "expected unary row of 2 indices, got: '1_0 0'"),
        ("+1 0", "1 1", ParseError, "expected unary row of 2 indices, got: '+1 0'"),
        ("\u0663 0", "1 1", ParseError, "expected unary row of 2 indices, got: '\u0663 0'"),
    ],
)
def test_tokens_that_are_not_element_names(unary, row, error, message):
    # int() accepts '1_0', '+1' and the Arabic-Indic three; the format does not
    with pytest.raises(error) as exc:
        parse_algebra(WAJSBERG_2.format(unary=unary, row=row))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_huge_order_on_a_short_file_fails_fast():
    with pytest.raises(ParseError, match="expected unary row of 1000000000000 indices"):
        parse_algebra("kind: mv\norder: 1000000000000\nzero: 0\nunary: 1 0\n1 1\n0 1\n")


def test_code_round_trip():
    code = code_of(CODE_SIX)
    assert parse_code(format_code(code)) == code


def test_code_comments_allowed():
    assert parse_code("# words\n11\n01\n").word_strings() == ("11", "01")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "11\n0a\n",
        "11\n2\n",
        "# only comments\n",
        "11\x1c01",  # str.splitlines breaks lines at these three
        "11\u202801",
        "11\x8501",
    ],
)
def test_malformed_code_files(text):
    with pytest.raises(ParseError):
        parse_code(text)


@pytest.mark.parametrize(
    "text, bad",
    [("11\n0a\n2\n", "0a"), ("# c\n11\n01\n1 0\n", "1 0"), ("1\u00b9\n01\n", "1\u00b9"), ("x\n", "x")],
)
def test_first_bad_code_line_named(text, bad):
    with pytest.raises(ParseError) as exc:
        parse_code(text)
    assert str(exc.value) == f"expected a bit string, got: {bad!r}"


def test_bck_equality_via_parse(six_bck):
    clone = BckAlgebra(CayleyTable(SIX_STAR), 0, 5)
    assert clone == six_bck


def test_readme_algebra_example_parses_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("### File formats") :]
    example = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    algebra = parse_algebra(example)
    assert algebra.k == 6
    assert verify(algebra).valid


@pytest.mark.parametrize("kind", ["bck", "mv", "wajsberg"])
def test_order_zero_rejected(kind):
    with pytest.raises(ParseError, match=r"^order must be at least 1$"):
        parse_algebra(f"kind: {kind}\norder: 0\n")
