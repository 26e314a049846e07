"""Text format round trips and strict parsing."""

import re
from pathlib import Path

import pytest

from mvcodes import (
    BckAlgebra,
    CayleyTable,
    MalformedTable,
    ParseError,
    chain_wajsberg,
    format_algebra,
    format_code,
    parse_algebra,
    parse_code,
    verify,
)

from conftest import CODE_SIX, SIX_COMPLEMENT, SIX_PLUS, SIX_STAR, code_of


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
