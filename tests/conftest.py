"""Shared fixture algebras and codes.

SIX_* is a hand-entered six-element worked example carried through all three
presentations (elements indexed 0..5, least element 0, greatest 5). The
PROD* tables are direct products of chains on mixed-radix carriers; the
SIX_CYCLED table is the 2x3 product relabelled along a 3-cycle of the middle
elements. The CODE_* tuples are block codes whose attached algebras are the
correspondingly named tables.
"""

import functools

import pytest

from mvcodes import (
    BckAlgebra,
    BlockCode,
    CayleyTable,
    MvAlgebra,
    WajsbergAlgebra,
    enumerate_wajsberg,
)
from mvcodes.catalog import _chain_masks

SIX_STAR = (
    (0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0),
    (2, 2, 0, 2, 0, 0),
    (3, 1, 3, 0, 1, 0),
    (4, 2, 1, 2, 0, 0),
    (5, 4, 3, 2, 1, 0),
)
SIX_PLUS = (
    (0, 1, 2, 3, 4, 5),
    (1, 3, 4, 3, 5, 5),
    (2, 4, 2, 5, 4, 5),
    (3, 3, 5, 3, 5, 5),
    (4, 5, 4, 5, 5, 5),
    (5, 5, 5, 5, 5, 5),
)
SIX_COMPLEMENT = (5, 4, 3, 2, 1, 0)
SIX_IMPL = (
    (5, 5, 5, 5, 5, 5),
    (4, 5, 4, 5, 5, 5),
    (3, 3, 5, 3, 5, 5),
    (2, 4, 2, 5, 4, 5),
    (1, 3, 4, 3, 5, 5),
    (0, 1, 2, 3, 4, 5),
)

# 2x3 product on the mixed-radix carrier; SIX_IMPL is its relabelling along
# RELABEL_SWAP, SIX_CYCLED its relabelling along RELABEL_CYCLE3, and the 3x2
# product equals its relabelling along RELABEL_CYCLE4.
PROD23 = (
    (5, 5, 5, 5, 5, 5),
    (4, 5, 5, 4, 5, 5),
    (3, 4, 5, 3, 4, 5),
    (2, 2, 2, 5, 5, 5),
    (1, 2, 2, 4, 5, 5),
    (0, 1, 2, 3, 4, 5),
)
RELABEL_SWAP = (0, 1, 3, 2, 4, 5)
RELABEL_CYCLE3 = (0, 2, 4, 3, 1, 5)
RELABEL_CYCLE4 = (0, 2, 4, 1, 3, 5)
SIX_CYCLED = (
    (5, 5, 5, 5, 5, 5),
    (2, 5, 4, 1, 4, 5),
    (1, 5, 5, 1, 5, 5),
    (4, 5, 4, 5, 4, 5),
    (3, 1, 1, 3, 5, 5),
    (0, 1, 2, 3, 4, 5),
)
PROD32 = (
    (5, 5, 5, 5, 5, 5),
    (4, 5, 4, 5, 4, 5),
    (3, 3, 5, 5, 5, 5),
    (2, 3, 4, 5, 4, 5),
    (1, 1, 3, 3, 5, 5),
    (0, 1, 2, 3, 4, 5),
)
PROD22 = (
    (3, 3, 3, 3),
    (2, 3, 2, 3),
    (1, 1, 3, 3),
    (0, 1, 2, 3),
)
PROD42 = (
    (7, 7, 7, 7, 7, 7, 7, 7),
    (6, 7, 6, 7, 6, 7, 6, 7),
    (5, 5, 7, 7, 7, 7, 7, 7),
    (4, 5, 6, 7, 6, 7, 6, 7),
    (3, 3, 5, 5, 7, 7, 7, 7),
    (2, 3, 4, 5, 6, 7, 6, 7),
    (1, 1, 3, 3, 5, 5, 7, 7),
    (0, 1, 2, 3, 4, 5, 6, 7),
)
PROD24 = (
    (7, 7, 7, 7, 7, 7, 7, 7),
    (6, 7, 7, 7, 6, 7, 7, 7),
    (5, 6, 7, 7, 5, 6, 7, 7),
    (4, 5, 6, 7, 4, 5, 6, 7),
    (3, 3, 3, 3, 7, 7, 7, 7),
    (2, 3, 3, 3, 6, 7, 7, 7),
    (1, 2, 3, 3, 5, 6, 7, 7),
    (0, 1, 2, 3, 4, 5, 6, 7),
)
PROD222 = (
    (7, 7, 7, 7, 7, 7, 7, 7),
    (6, 7, 6, 7, 6, 7, 6, 7),
    (5, 5, 7, 7, 5, 5, 7, 7),
    (4, 5, 6, 7, 4, 5, 6, 7),
    (3, 3, 3, 3, 7, 7, 7, 7),
    (2, 3, 2, 3, 6, 7, 6, 7),
    (1, 1, 3, 3, 5, 5, 7, 7),
    (0, 1, 2, 3, 4, 5, 6, 7),
)

CODE_SIX = ("111111", "010111", "001011", "000101", "000011", "000001")
CODE_PROD23 = ("111111", "011011", "001001", "000111", "000011", "000001")
CODE_CYCLED = ("111111", "010001", "011011", "010101", "000011", "000001")
CODE_PROD32 = ("111111", "010101", "001111", "000101", "000011", "000001")
CODE_INTRANSITIVE = ("111111", "011101", "001101", "000111", "000011", "000001")
CODE_PROD42 = (
    "11111111",
    "01010101",
    "00111111",
    "00010101",
    "00001111",
    "00000101",
    "00000011",
    "00000001",
)
CODE_PROD24 = (
    "11111111",
    "01110111",
    "00110011",
    "00010001",
    "00001111",
    "00000111",
    "00000011",
    "00000001",
)
CODE_PROD222 = (
    "11111111",
    "01010101",
    "00110011",
    "00010001",
    "00001111",
    "00000101",
    "00000011",
    "00000001",
)
CODE_TRIPLE = ("011", "101", "010", "001", "000")
CODE_PAIR = ("011", "101")


@pytest.fixture
def six_bck():
    return BckAlgebra(CayleyTable(SIX_STAR), 0, 5)


@pytest.fixture
def six_mv():
    return MvAlgebra(CayleyTable(SIX_PLUS), SIX_COMPLEMENT, 0)


@pytest.fixture
def six_wajsberg():
    return WajsbergAlgebra(CayleyTable(SIX_IMPL), SIX_COMPLEMENT, 5)


@pytest.fixture
def boolean_mv():
    return MvAlgebra(CayleyTable(((0, 1), (1, 1))), (1, 0), 0)


def wajsberg_from_table(rows):
    """Build a Wajsberg algebra from a fixture table.

    Fixture tables all have element 0 as the least element, so the negation
    is the first column (x -> x.0) and the unit is the identity row.
    """
    one = next(i for i, row in enumerate(rows) if tuple(row) == tuple(range(len(rows))))
    negation = tuple(row[0] for row in rows)
    return WajsbergAlgebra(CayleyTable(rows), negation, one)


@functools.cache
def catalog_upto(max_n):
    """Every catalog entry of order 1..max_n as (n, factors, algebra).

    Built once per bound and shared; the entries are immutable.
    """
    out = []
    for n in range(1, max_n + 1):
        for entry in enumerate_wajsberg(n):
            out.append((n, entry.factors, entry.algebra))
    return tuple(out)


def chain_factors(poset):
    """The chain factors ``_chain_masks`` reads off ``poset``, or None."""
    chains = _chain_masks(poset.up, poset.down)
    return None if chains is None else tuple(c.bit_count() + 1 for c in chains) or (1,)


def code_of(strings):
    return BlockCode.from_strings(strings)
