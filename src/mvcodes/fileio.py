"""Strict text formats for algebras and block codes.

Algebra files:

    kind: bck|mv|wajsberg
    order: <k>
    zero: <i> one: <j>        (bck)
    zero: <i>                 (mv)
    one: <j>                  (wajsberg)
    unary: i0 i1 ... i(k-1)   (mv and wajsberg only)
    <k rows of k space-separated indices; row x, column y holds x.y>

Code files hold one bit string per line, all of equal length. Lines starting
with ``#`` and blank lines are ignored in both formats; anything else that
does not fit the schema is an error. Lines end in ``\n`` or ``\r\n``; fields
are separated, and lines padded, by ASCII spaces and tabs only, so no other
control or Unicode separator character is read as a break.

The rows of a table are read into the row format of ``algebras._cells`` and
written from it, without building the table's tuple rows: ``bytes`` rows in
blocks of whole rows of about 8 K cells, one ``translate`` per decimal digit
plane and block, so no temporary is much larger than a block; tuple rows by
one ``itemgetter`` gather of the element names per row.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .algebras import Algebra, CayleyTable, _cells, _make, _parts
from .codes import _BITS, BlockCode
from .errors import ParseError

__all__ = ["format_algebra", "format_code", "parse_algebra", "parse_code"]


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.split("\n"):
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _take(lines: list[str], what: str) -> str:
    if not lines:
        raise ParseError(f"unexpected end of file, expected {what}")
    return lines.pop(0)


def _match(line: str, pattern: str, what: str) -> tuple[str, ...]:
    m = re.fullmatch(pattern, line)
    if m is None:
        raise ParseError(f"expected {what}, got: {line!r}")
    return m.groups()


def _int(token: str, what: str) -> int:
    try:  # int() refuses a token of more than 4,300 digits by default
        return int(token)
    except ValueError:
        raise ParseError(f"{what} holds an integer of {len(token)} digits, too long to read") from None


def _int_row(line: str, k: int, values: dict[str, int], what: str, row: type):
    """The k indices of a row, built by ``row``, the row format of a k-element
    table; a tuple of ints when a token is no canonical element name, such as
    '007'."""
    parts = line.split()
    # split() also breaks at control characters such as \x1c, and isdigit also
    # accepts non-ASCII digits such as '²', which int() refuses: only ASCII
    # digits separated by spaces and tabs pass
    if len(parts) != k or not line.isascii() or not line.replace("\t", " ").isprintable():
        raise ParseError(f"expected {what} of {k} indices, got: {line!r}")
    try:
        return row(map(values.__getitem__, parts))
    except KeyError:  # a token such as '007', a value >= k, or no number at all
        if not all(map(str.isdigit, parts)):
            raise ParseError(f"expected {what} of {k} indices, got: {line!r}") from None
        return tuple(_int(part, what) for part in parts)


# Each presentation's constants line: pattern, usage text, the names it binds
_CONSTANTS = {
    "bck": (r"zero:[ \t]*([0-9]+)[ \t]+one:[ \t]*([0-9]+)", "zero: <i> one: <j>", ("zero", "one")),
    "mv": (r"zero:[ \t]*([0-9]+)", "zero: <i>", ("zero",)),
    "wajsberg": (r"one:[ \t]*([0-9]+)", "one: <j>", ("one",)),
}


def parse_algebra(text: str) -> Algebra:
    """Parse one algebra file; raises ParseError on any deviation."""
    lines = _content_lines(text)
    (kind,) = _match(_take(lines, "kind line"), r"kind:[ \t]*(bck|mv|wajsberg)", "kind: bck|mv|wajsberg")
    (order,) = _match(_take(lines, "order line"), r"order:[ \t]*([0-9]+)", "order: <k>")
    k = _int(order, "order line")
    if k < 1:
        raise ParseError("order must be at least 1")
    # the canonical token of each element; a file of k rows has at least k
    # lines left, so a huge order on a short file builds no huge lookup
    values = {str(v): v for v in range(min(k, len(lines)))}
    pattern, usage, names = _CONSTANTS[kind]
    digits = _match(_take(lines, "constants line"), pattern, usage)
    row, unary = _cells(k)[0], None
    if kind != "bck":
        unary = _int_row(
            _match(_take(lines, "unary line"), r"unary:[ \t]*(.+)", "unary: row")[0], k, values, "unary row", row
        )
    rows = tuple(_int_row(_take(lines, f"table row {i}"), k, values, f"table row {i}", row) for i in range(k))
    if lines:
        raise ParseError(f"trailing content: {lines[0]!r}")
    constants = {name: _int(c, "constants line") for name, c in zip(names, digits)}
    return _make(kind, CayleyTable(rows), unary, constants.get("zero"), constants.get("one"))


# Digit planes of a byte value: its hundreds, tens and ones digits in ASCII,
# with NUL for a leading zero, which ``_format_bytes`` deletes.
_HUNDREDS = bytes(48 + v // 100 if v >= 100 else 0 for v in range(256))
_TENS = bytes(48 + v // 10 % 10 if v >= 10 else 0 for v in range(256))
_ONES = bytes(48 + v % 10 for v in range(256))


# Cells per block of ``_format_bytes``: its buffers stay near 32 KB, below the
# size at which malloc hands out fresh pages for each one.
_BLOCK_CELLS = 8192


def _format_bytes(flat: bytes, k: int) -> list[str]:
    """Byte cells as decimal names, k to a line, each followed by a space or,
    at the end of its line, a newline, in blocks of whole rows of about
    ``_BLOCK_CELLS`` cells: per block one ``translate`` per digit plane,
    interleaved with the separators in one ``bytearray``."""
    step = k * max(1, _BLOCK_CELLS // k)
    lines = (b" " * (k - 1) + b"\n") * (step // k)
    blocks = []
    for i in range(0, len(flat), step):
        block = flat[i : i + step]
        out = bytearray(4 * len(block))
        out[0::4] = block.translate(_HUNDREDS)
        out[1::4] = block.translate(_TENS)
        out[2::4] = block.translate(_ONES)
        out[3::4] = lines[: len(block)]
        blocks.append(out.translate(None, b"\0").decode("ascii"))
    return blocks


def format_algebra(algebra: Algebra) -> str:
    """Serialise an algebra in the exact file format (no comments).

    The unary map and the table are formatted in the row format of
    ``_cells``: ``bytes`` by ``_format_bytes``, whose blocks and the head are
    joined once, into the text at its final size; tuples, which occur only
    above 256 elements, by one join per row of the names ``itemgetter``
    gathers."""
    kind, table, unary = _parts(algebra)
    k = algebra.k
    row, join, *_ = _cells(k)
    constants = " ".join(f"{name}: {getattr(algebra, name)}" for name in _CONSTANTS[kind][2])
    head, rows = f"kind: {kind}\norder: {k}\n{constants}\n", table._rows
    if kind != "bck":
        head, rows = head + "unary: ", (row(unary), *rows)
    if row is bytes:
        return "".join([head, *_format_bytes(join(rows), k)])
    names = [str(v) for v in range(k)]
    return head + "".join(" ".join(itemgetter(*cells)(names)) + "\n" for cells in rows)


def parse_code(text: str) -> BlockCode:
    """Parse one code file: equal-length bit strings, one per line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("code file holds no words")
    if "".join(lines).strip("01"):
        bad = next(line for line in lines if not re.fullmatch(r"[01]+", line))
        raise ParseError(f"expected a bit string, got: {bad!r}")
    return BlockCode(tuple(line.encode().translate(_BITS) for line in lines))


def format_code(code: BlockCode) -> str:
    return "\n".join(code.word_strings()) + "\n"
