"""Axiom verification, natural orders, and the MV derived operations."""

import dataclasses
import functools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from array import array
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mvcodes

from mvcodes import (
    BckAlgebra,
    CayleyTable,
    EquivalenceBroken,
    MalformedTable,
    MvAlgebra,
    NotAPoset,
    WajsbergAlgebra,
    attach_wajsberg,
    chain_wajsberg,
    code_from_algebra,
    convert,
    cut_subset,
    enumerate_wajsberg,
    evaluate_axiom,
    format_algebra,
    kind_of,
    mv_derived_ops,
    mv_leq_equivalences,
    natural_order,
    parse_algebra,
    product_wajsberg,
    skeleton,
    transport_structure,
    verify,
    verify_bck,
    verify_mv,
    verify_wajsberg,
)
from mvcodes.algebras import (
    AxiomReport,
    Violation,
    _assoc_first_slice,
    _generators,
    _make,
    _parts,
    _relabel,
    _TableView,
    _translate,
    axiom_suite,
    bck_axiom_suite,
)
from mvcodes.catalog import _fold_product
from mvcodes.order import OrderIso

from conftest import (
    PROD23,
    SIX_COMPLEMENT,
    SIX_IMPL,
    SIX_PLUS,
    SIX_STAR,
    catalog_upto,
    wajsberg_from_table,
)


def mutate(rows, i, j, value):
    out = [list(r) for r in rows]
    out[i][j] = value
    return tuple(tuple(r) for r in out)


def cell_walk(rows):
    """The cell-by-cell conversion and checks of ``CayleyTable``: the oracle of
    its fast test."""
    rows = tuple(tuple(map(int, row)) for row in rows)
    k = len(rows)
    if k == 0:
        raise MalformedTable("empty table")
    for i, row in enumerate(rows):
        if len(row) != k:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {k}")
        if min(row) < 0 or max(row) >= k:
            j = next(j for j, v in enumerate(row) if not 0 <= v < k)
            raise MalformedTable(f"entry ({i},{j}) = {row[j]} out of range [0,{k})")
    return rows


def table_rows(rows):
    return CayleyTable(rows).rows


def table_outcome(build, rows):
    """The rows built, or the type name and message of the exception raised."""
    try:
        return "ok", build(rows)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestCayleyTable:
    def test_rejects_non_square(self):
        with pytest.raises(MalformedTable):
            CayleyTable(((0, 1), (0,)))

    def test_rejects_out_of_range(self):
        with pytest.raises(MalformedTable):
            CayleyTable(((0, 2), (0, 1)))

    def test_rejects_empty(self):
        with pytest.raises(MalformedTable):
            CayleyTable(())

    @pytest.mark.parametrize(
        "rows,message",
        [
            (((0, 2), (0, 1)), "entry (0,1) = 2 out of range [0,2)"),
            (((0, 1), (-1, 5)), "entry (1,0) = -1 out of range [0,2)"),
            (((0, 1, 2), (0, 1, 2), (2, 0, 3)), "entry (2,2) = 3 out of range [0,3)"),
            (((0, 5), (0, 1, 1)), "entry (0,1) = 5 out of range [0,2)"),
            (((0, 1), (0, 1, 1)), "row 1 has length 3, expected 2"),
        ],
    )
    def test_first_bad_cell_named(self, rows, message):
        with pytest.raises(MalformedTable) as exc:
            CayleyTable(rows)
        assert str(exc.value) == message

    def test_entries_converted_to_int(self):
        assert CayleyTable(((True, False), ("1", 0))).rows == ((1, 0), (1, 0))

    def test_fast_test_matches_cell_walk_on_fixed_tables(self):
        import numpy as np

        zeros = (0,) * 256
        cases = [
            # array('b') and numpy rows must be read cell by cell, not from
            # their memory buffer, where -1 would pass as byte 255
            [zeros] * 3 + [array("b", [0] * 255 + [-1])] + [zeros] * 252,
            [np.array([0, 1], dtype=np.int64), np.array([1, 1], dtype=np.int64)],
            [np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)],
            [np.array([0.0, 1.0]), np.array([1.0, 1.5])],
            lambda: ((v for v in (0, 1)), (v for v in (1, 0))),
            lambda: ((v for v in (0, 1)), (v for v in (1, 0, 0))),
            lambda: (row for row in ((0, 1), (1, 1))),
            ("01", "10"),
            ("01", "1x"),
            (5, 6),
            ((True, False), ("1", 0)),
            [zeros] * 255 + [(255,) + zeros[1:]],
            [zeros] * 255 + [(256,) + zeros[1:]],
            [(0,) * 257] * 256 + [(256,) * 257],
            [(0,) * 257] * 256 + [(257,) * 257],
            [(0,) * 256] * 257,
            (),
            [],
        ]
        for rows in cases:  # generators are made afresh for each build
            outcomes = {
                kind: table_outcome(build, rows() if callable(rows) else rows)
                for kind, build in (("oracle", cell_walk), ("table", table_rows))
            }
            assert outcomes["oracle"] == outcomes["table"], outcomes
            if outcomes["table"][0] == "ok":
                assert {type(v) for row in outcomes["table"][1] for v in row} == {int}
        assert table_outcome(table_rows, cases[0]) == ("MalformedTable", "entry (3,255) = -1 out of range [0,256)")

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 1), (1,)),
            ((0, 1), (1, 2)),
            ((0, 1, 2), (1, 1, 2), (2, 2, 3)),
            ((0, 1), (1, 1, 0)),
            ((0, 1), (1, 0)),
        ],
    )
    def test_bytes_rows_match_tuple_rows(self, rows):
        for wrap in (bytes, bytearray):
            assert table_outcome(table_rows, [wrap(r) for r in rows]) == table_outcome(table_rows, rows)

    def test_signed_buffers_read_cell_by_cell(self):
        import numpy as np

        rows = [array("b", [0] * 255 + [-1])] * 256
        assert table_outcome(table_rows, rows) == ("MalformedTable", "entry (0,255) = -1 out of range [0,256)")
        rows = [np.array([0, 1], dtype=np.int8), np.array([1, -1], dtype=np.int8)]
        assert table_outcome(table_rows, rows) == ("MalformedTable", "entry (1,1) = -1 out of range [0,2)")

    @given(st.data())
    def test_fast_test_matches_cell_walk(self, data):
        k = data.draw(st.integers(0, 8))
        length = st.sampled_from([k, k, k, k, max(k - 1, 0), k + 1])
        cell = st.integers(-2, k + 1)
        rows = data.draw(
            st.lists(
                length.flatmap(lambda n: st.one_of(st.lists(cell, min_size=n, max_size=n), st.tuples(*[cell] * n))),
                min_size=k,
                max_size=k,
            )
        )
        assert table_outcome(cell_walk, rows) == table_outcome(table_rows, rows)

    @given(st.data())
    def test_tuple_fast_test_matches_cell_walk(self, data):
        # the fast test of the tuple rows of tables over 256 elements, forced onto small ones
        k = data.draw(st.integers(0, 8))
        length = st.sampled_from([k, k, k, k, max(k - 1, 0), k + 1])
        cell = st.one_of(st.integers(-2, k + 1), st.sampled_from([True, 1.0]))
        rows = data.draw(st.lists(length.flatmap(lambda n: st.tuples(*[cell] * n)), min_size=k, max_size=k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mvcodes.algebras, "_cells", lambda k: mvcodes.algebras._TUPLE_CELLS)
            got = table_outcome(lambda rows: CayleyTable(rows)._rows, rows)
        assert got == table_outcome(cell_walk, rows)
        if got[0] == "ok":
            assert {type(v) for row in got[1] for v in row} <= {int}

    def test_constants_must_be_elements(self):
        with pytest.raises(MalformedTable):
            BckAlgebra(CayleyTable(((0,),)), 0, 1)

    def test_unary_map_checked(self):
        with pytest.raises(MalformedTable):
            MvAlgebra(CayleyTable(((0, 1), (1, 1))), (1, 2), 0)


def itemgetter_relabel(table, rows, cols=None, cells=None):
    """Cell (x, y) is ``cells[t[rows[x]][cols[y]]]``, one ``itemgetter`` per
    row: the oracle of ``_relabel``'s byte path."""
    t = table.rows
    if len(t) == 1:  # itemgetter of one index returns a scalar, not a tuple
        return t
    out = map(t.__getitem__, rows)
    if cols is not None:
        out = map(itemgetter(*cols), out)
    if cells is not None:
        out = [itemgetter(*row)(cells) for row in out]
    return tuple(out)


class TestByteRows:
    """Up to 256 elements a table keeps its checked rows as ``bytes`` and
    builds the public tuple ``rows`` on first read; beyond, it holds tuples."""

    def test_every_input_form_gives_tuple_rows(self):
        expected = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        forms = [
            expected,
            [list(row) for row in expected],
            [bytes(row) for row in expected],
            [bytearray(row) for row in expected],
            ["012", "120", "201"],
            [[str(v) for v in row] for row in expected],
            [[bool(v) if v < 2 else v for v in row] for row in expected],
        ]
        for rows in forms:
            got = CayleyTable(rows).rows
            assert got == expected, rows
            assert {type(row) for row in got} == {tuple} and {type(v) for row in got for v in row} == {int}
        assert CayleyTable(((True, False), (False, True))).rows == CayleyTable([b"\1\0", b"\0\1"]).rows == ((1, 0), (0, 1))

    @pytest.mark.parametrize("k", [1, 2, 255, 256, 257])
    def test_value_semantics(self, k):
        expected = tuple(tuple((x + y) % k for y in range(k)) for x in range(k))
        table = CayleyTable(expected)
        same = CayleyTable(rows=[list(row) for row in expected])
        assert same.rows == expected  # read: one of the two has its tuple rows built
        assert table == same and hash(table) == hash(same) and len({table, same}) == 1
        assert table != expected and table.k == k and table.at(k - 1, k - 1) == expected[-1][-1]
        if k > 1:
            other = CayleyTable(expected[1:] + expected[:1])
            assert table != other and len({table, other}) == 2
        for copy in (pickle.loads(pickle.dumps(CayleyTable(expected))), pickle.loads(pickle.dumps(same))):
            assert copy == table and hash(copy) == hash(table) and copy.rows == expected
        assert repr(table) == f"CayleyTable(rows={expected!r})"
        for name in ("rows", "_rows", "k", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, expected)
        with pytest.raises(AttributeError):
            table.other
        assert table.rows == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 64, 256, 257])
    def test_relabel_matches_itemgetter_oracle(self, k):
        rng = random.Random(k)
        table = CayleyTable([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
        for _ in range(3):
            rows, cols, cells = ([rng.randrange(k) for _ in range(k)] for _ in range(3))
            for c, e in ((None, None), (cols, None), (None, cells), (cols, cells)):
                assert _relabel(table, rows, c, e).rows == itemgetter_relabel(table, rows, c, e)
                if k <= 256:  # maps given as byte rows, as ``_translate`` passes a BCK row ``one``
                    as_bytes = [None if m is None else bytes(m) for m in (c, e)]
                    assert _relabel(table, bytes(rows), *as_bytes) == _relabel(table, rows, c, e)


@pytest.fixture
def row_builds(monkeypatch):
    """The sizes of the tables whose tuple ``rows`` get built from byte rows."""
    builds = []
    lazy = CayleyTable.__getattr__

    def counted(self, name):
        if name == "rows":
            builds.append(self.k)
        return lazy(self, name)

    monkeypatch.setattr(CayleyTable, "__getattr__", counted)
    return builds


class TestNoTupleRows:
    """The package's own paths read byte rows and never build tuple rows."""

    def test_the_counter_sees_a_read(self, row_builds):
        table = CayleyTable([b"\0\1", b"\1\1"])
        assert table.rows == table.rows == ((0, 1), (1, 1))
        assert row_builds == [2]

    @pytest.mark.parametrize("n", [24, 48, 240])
    def test_enumerate_and_format(self, n, row_builds):
        for entry in enumerate_wajsberg(n):
            text = format_algebra(entry.algebra)
            assert parse_algebra(text) == entry.algebra
        assert row_builds == []

    @pytest.mark.parametrize("factors", [(2, 3, 4), (2, 2, 3), (240,)])
    def test_attach_accepted_code(self, factors, row_builds):
        (entry,) = [e for e in enumerate_wajsberg(math.prod(factors)) if e.factors == factors]
        inner = list(range(1, entry.order - 1))
        random.Random(entry.order).shuffle(inner)
        moved = transport_structure(entry.algebra, OrderIso([0, *inner, entry.order - 1]))
        code = code_from_algebra(moved)
        assert attach_wajsberg(code).algebra == moved
        assert all(r.algebra == moved for r in attach_wajsberg(code, all_matches=True))
        assert row_builds == []

    def test_convert_between_all_presentations(self, row_builds):
        (entry,) = [e for e in enumerate_wajsberg(24) if e.factors == (2, 3, 4)]
        presented = {kind: convert(entry.algebra, kind) for kind in ("wajsberg", "mv", "bck")}
        for source, target in product(presented, repeat=2):
            assert convert(presented[source], target) == presented[target]
        for algebra in presented.values():
            assert natural_order(algebra).leq == natural_order(entry.algebra).leq
            assert cut_subset(algebra, 1) == cut_subset(entry.algebra, 1)
        assert row_builds == []

    @pytest.mark.parametrize("factors", [(2, 3, 4), (16, 16), (2,) * 8])
    def test_package_tables_take_the_fast_test(self, factors):
        # a table that took the fast test has no tuple ``rows`` until one is
        # read; the cell walk sets them at once
        w = _fold_product(factors)
        k = w.k
        mv, bck = convert(w, "mv"), convert(w, "bck")
        moved = transport_structure(w, OrderIso([0, *reversed(range(1, k - 1)), k - 1]))
        tables = {
            "_fold_product": w.circ,
            "product_wajsberg": product_wajsberg(_fold_product(factors[:1]), _fold_product(factors[1:])).circ,
            "transport_structure": moved.circ,
            "convert to mv": mv.oplus,
            "convert to bck": bck.table,
            "convert bck to wajsberg": convert(bck, "wajsberg").circ,
            "mv_derived_ops product": mv_derived_ops(mv)[0],
            "mv_derived_ops difference": mv_derived_ops(mv)[1],
        }
        tables.update((f"parser, {kind_of(a)}", _parts(parse_algebra(format_algebra(a)))[1]) for a in (moved, mv, bck))
        for name, table in tables.items():
            assert table.k == k and "rows" not in vars(table), name
        assert "rows" in vars(CayleyTable(w.circ.rows))


class TestVerifyBck:
    def test_six_example_is_valid(self, six_bck):
        report = verify(six_bck)
        assert report.valid
        assert report.violations == ()

    def test_one_element_algebra(self):
        assert verify_bck(((0,),), 0, 0).valid

    def test_idempotence_violation_found(self):
        # x*x must give the least element; breaking one diagonal cell at (1,1)
        broken = mutate(SIX_STAR, 1, 1, 1)
        report = verify_bck(broken, 0, 5)
        assert not report.valid
        assert report.witness("bck3") == (1,)

    def test_all_violated_axioms_reported(self):
        broken = mutate(SIX_STAR, 1, 1, 1)
        report = verify_bck(broken, 0, 5)
        assert "bck3" in report.axioms()
        assert len(report.axioms()) == len(report.violations)

    def test_unbounded_table_flagged(self):
        # three elements, 1 and 2 incomparable: no greatest element
        rows = ((0, 0, 0), (1, 0, 1), (2, 2, 0))
        report = verify_bck(rows, 0, 2)
        assert "bounded" in report.axioms()

    def test_noncommutative_chain_flagged(self):
        rows = ((0, 0, 0), (1, 0, 0), (2, 2, 0))
        report = verify_bck(rows, 0, 2)
        assert report.axioms() == {"commutative"}
        assert report.witness("commutative") == (1, 2)


class TestVerifyMv:
    def test_six_example_is_valid(self, six_mv):
        assert verify(six_mv).valid

    def test_boolean_two_element(self, boolean_mv):
        assert verify(boolean_mv).valid

    def test_broken_complement_detected(self):
        complement = (5, 4, 2, 2, 1, 0)
        report = verify_mv(SIX_PLUS, complement, 0)
        assert not report.valid
        assert report.axioms() & {"double-complement", "lukasiewicz"}

    def test_witnesses_reproduce(self):
        complement = (5, 4, 2, 2, 1, 0)
        report = verify_mv(SIX_PLUS, complement, 0)
        algebra = MvAlgebra(CayleyTable(SIX_PLUS), complement, 0)
        for violation in report.violations:
            assert not evaluate_axiom(algebra, violation.axiom, violation.witness)


class TestVerifyWajsberg:
    def test_product_table_is_valid(self):
        assert verify(wajsberg_from_table(PROD23)).valid

    def test_two_element_implication(self):
        assert verify_wajsberg(((1, 1), (0, 1)), (1, 0), 1).valid

    def test_neg_is_implication_into_zero(self):
        w = wajsberg_from_table(PROD23)
        assert [w.neg(x) for x in range(6)] == [w.imp(x, w.zero) for x in range(6)] == list(w.negation)

    def test_perturbed_product_invalid(self):
        broken = mutate(PROD23, 1, 3, 5)
        report = verify_wajsberg(broken, tuple(r[0] for r in PROD23), 5)
        assert not report.valid

    def test_witnesses_reproduce_on_perturbation(self):
        broken = mutate(PROD23, 1, 3, 5)
        algebra = WajsbergAlgebra(
            CayleyTable(broken), tuple(r[0] for r in PROD23), 5
        )
        for violation in verify(algebra).violations:
            assert not evaluate_axiom(algebra, violation.axiom, violation.witness)


@given(
    i=st.integers(0, 5),
    j=st.integers(0, 5),
    v=st.integers(0, 5),
)
def test_wajsberg_witnesses_always_reproduce(i, j, v):
    """Any single-cell edit either keeps the table valid or every reported
    witness re-evaluates to a genuine violation."""
    rows = mutate(SIX_IMPL, i, j, v)
    algebra = WajsbergAlgebra(CayleyTable(rows), SIX_COMPLEMENT, 5)
    report = verify(algebra)
    for violation in report.violations:
        assert not evaluate_axiom(algebra, violation.axiom, violation.witness)


def with_rows(algebra, rows):
    """The same presentation and constants over another table."""
    table = CayleyTable(rows)
    if isinstance(algebra, BckAlgebra):
        return BckAlgebra(table, algebra.zero, algebra.one)
    if isinstance(algebra, MvAlgebra):
        return MvAlgebra(table, algebra.complement, algebra.zero)
    return WajsbergAlgebra(table, algebra.negation, algebra.one)


def rows_of(algebra):
    if isinstance(algebra, BckAlgebra):
        return algebra.table.rows
    if isinstance(algebra, MvAlgebra):
        return algebra.oplus.rows
    return algebra.circ.rows


def plain_scan(k, suite):
    """The least witness of each violated axiom, trying every element, pair or
    triple in order: the oracle of verify's byte filters and MV proof."""
    violations = []
    for name, arity, pred, _ in suite:
        witness = next((w for w in product(range(k), repeat=arity) if not pred(*w)), None)
        if witness:
            violations.append(Violation(name, witness))
    return AxiomReport(tuple(violations))


def first_slices(algebra):
    """Each filtered axiom's first flagged slice, or None, over one ``_TableView``."""
    view = _TableView(_parts(algebra)[1])
    return {name: first_slice(algebra, view) for name, _, _, first_slice in axiom_suite(algebra) if first_slice}


@pytest.fixture
def scans(monkeypatch):
    """The algebras passed to ``_scan``, one per call."""
    calls = []
    scan = mvcodes.algebras._scan
    monkeypatch.setattr(mvcodes.algebras, "_scan", lambda algebra: calls.append(algebra) or scan(algebra))
    return calls


def assert_matches_plain_scan(algebra):
    """verify's byte filters give the report of the triple-by-triple scan."""
    report = verify(algebra)
    assert report == plain_scan(algebra.k, axiom_suite(algebra))
    return report


@functools.cache
def presentations_upto_24():
    """Every catalog entry of order <= 24 in each of the three presentations."""
    return tuple(convert(w, kind) for _, _, w in catalog_upto(24) for kind in ("wajsberg", "mv", "bck"))


PRODUCTS_48_TO_64 = [((2, 4, 6), "wajsberg"), ((2, 4, 7), "mv"), ((2, 2, 4, 4), "bck")]

FILTERED = {"bck1", "bck2", "bck4", "commutative", "assoc", "comm", "lukasiewicz", "w2", "w3", "w4"}


class TestSliceFilters:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mutated_catalog_algebras(self, data):
        algebra = data.draw(st.sampled_from(presentations_upto_24()))
        k = algebra.k
        rows = rows_of(algebra)
        for _ in range(data.draw(st.integers(1, 5))):
            i, j, v = data.draw(st.tuples(*[st.integers(0, k - 1)] * 3))
            rows = mutate(rows, i, j, v)
        assert_matches_plain_scan(with_rows(algebra, rows))

    def test_every_single_cell_edit_up_to_order_4(self):
        flagged = set()
        for algebra in presentations_upto_24():
            k = algebra.k
            if k <= 4:
                for i, j, v in product(range(k), repeat=3):
                    flagged |= assert_matches_plain_scan(with_rows(algebra, mutate(rows_of(algebra), i, j, v))).axioms()
        # the sweep reaches every filter with a failing slice, not only clean ones
        assert flagged >= FILTERED

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_tables(self, data):
        k = data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.integers(0, k - 1), min_size=k * k + k + 2, max_size=k * k + k + 2))
        table = CayleyTable([cells[i : i + k] for i in range(0, k * k, k)])
        unary, first, second = cells[k * k : -2], cells[-2], cells[-1]
        assert_matches_plain_scan(BckAlgebra(table, first, second))
        assert_matches_plain_scan(MvAlgebra(table, unary, first))
        assert_matches_plain_scan(WajsbergAlgebra(table, unary, first))

    @pytest.mark.parametrize("factors, kind", PRODUCTS_48_TO_64)
    def test_products_of_order_48_to_64(self, factors, kind):
        (entry,) = [e for e in enumerate_wajsberg(math.prod(factors)) if e.factors == factors]
        algebra = convert(entry.algebra, kind)
        assert_matches_plain_scan(algebra)
        k = algebra.k
        i, j = 2 * k // 3, k // 3
        rows = rows_of(algebra)
        corrupted = with_rows(algebra, mutate(rows, i, j, (rows[i][j] + 1) % k))
        assert not verify(corrupted).valid
        assert_matches_plain_scan(corrupted)

    def test_assoc_failing_only_at_the_last_corner(self):
        # the one failing triple (x, k-1, k-1) sits where no single-cell edit
        # of a catalog algebra puts the only assoc failure
        m = MvAlgebra(CayleyTable(((0, 1, 0), (0, 1, 1), (0, 1, 0))), (2, 1, 0), 0)
        p = m.oplus.rows
        failing = [t for t in product(range(3), repeat=3) if p[p[t[0]][t[1]]][t[2]] != p[t[0]][p[t[1]][t[2]]]]
        assert failing == [(1, 2, 2)]
        assert verify(m).witness("assoc") == (1, 2, 2)
        assert_matches_plain_scan(m)

    @pytest.mark.parametrize(
        "algebra, axiom, failing",
        [
            (BckAlgebra(CayleyTable(((0, 0, 0), (1, 0, 0), (0, 1, 2))), 0, 2), "bck2", [(2, 2)]),
            (WajsbergAlgebra(CayleyTable(((0, 2, 1), (1, 2, 2), (2, 1, 2))), (2, 1, 0), 2), "w4", [(2, 2)]),
            # the other five fail in mirrored pairs, never on the diagonal, so
            # the last row and the last column each hold one failure
            (BckAlgebra(CayleyTable(((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 2, 0, 0))), 0, 3), "bck4", [(2, 3), (3, 2)]),
            (BckAlgebra(CayleyTable(((0, 0, 0), (2, 1, 0), (2, 1, 0))), 0, 2), "commutative", [(1, 2), (2, 1)]),
            (MvAlgebra(CayleyTable(((0, 1, 2), (1, 2, 1), (2, 2, 2))), (2, 1, 0), 0), "comm", [(1, 2), (2, 1)]),
            (MvAlgebra(CayleyTable(((0, 1, 2), (1, 0, 2), (2, 2, 2))), (2, 1, 0), 0), "lukasiewicz", [(1, 2), (2, 1)]),
            (WajsbergAlgebra(CayleyTable(((2, 2, 2), (1, 0, 2), (0, 1, 2))), (2, 1, 0), 2), "w3", [(1, 2), (2, 1)]),
        ],
    )
    def test_two_variable_failures_only_in_the_last_row_or_column(self, algebra, axiom, failing):
        (pred,) = [pred for name, _, pred, _ in axiom_suite(algebra) if name == axiom]
        assert [t for t in product(range(algebra.k), repeat=2) if not pred(*t)] == failing
        assert verify(algebra).witness(axiom) == failing[0]
        assert_matches_plain_scan(algebra)

    def test_bck1_filter_matches_unfiltered_scan(self):
        # once a slice is flagged the filter builds later columns only over
        # the rows above it; the first failing x must not change
        rng = random.Random(1)
        checked = set()
        for algebra in presentations_upto_24():
            if not isinstance(algebra, BckAlgebra):
                continue
            k = algebra.k
            edits = product(range(k), repeat=3) if k <= 4 else [[rng.randrange(k) for _ in range(3)] for _ in range(12)]
            for i, j, v in edits:
                mutated = with_rows(algebra, mutate(rows_of(algebra), i, j, v))
                bck1 = [axiom for axiom in bck_axiom_suite(mutated) if axiom[0] == "bck1"]
                witness = plain_scan(k, bck1).witness("bck1")
                assert bck1[0][3](mutated, _TableView(mutated.table)) == (witness and witness[0])
                checked.add(witness is not None and witness[0] > 0)
        assert checked == {False, True}

    def test_every_axiom_in_two_or_three_variables_is_filtered(self):
        for algebra in (chain_wajsberg(3), convert(chain_wajsberg(3), "mv"), convert(chain_wajsberg(3), "bck")):
            assert set(first_slices(algebra)) == {name for name, arity, _, _ in axiom_suite(algebra) if arity > 1}

    @pytest.mark.parametrize(
        "axiom, algebra",
        [
            # the negation is not an involution, so the MV proof fails and the
            # Wajsberg scan meets the w2 filter on an intact table
            ("w2", WajsbergAlgebra(chain_wajsberg(4).circ, (3, 2, 2, 0), 3)),
            # a valid input reaches only the filters of its MV translation
            ("assoc", chain_wajsberg(4)),
        ],
        ids=["w2", "assoc"],
    )
    def test_wrong_filter_raises_in_optimised_mode(self, axiom, algebra):
        # a filter that flags a clean slice must not yield an empty report,
        # even when python -O strips asserts
        mv = _translate(algebra, "mv")
        assert verify(mv).valid == (axiom == "assoc")
        (pred,) = [pred for name, _, pred, _ in axiom_suite(algebra if axiom == "w2" else mv) if name == axiom]
        assert all(pred(0, y, v) for y in range(4) for v in range(4))
        script = textwrap.dedent(
            f"""
            import mvcodes.algebras as algebras
            from mvcodes import CayleyTable, WajsbergAlgebra

            algebras._{axiom}_first_slice = lambda algebra, view: 0
            try:
                algebras.verify({algebra!r})
            except RuntimeError as exc:
                print(f"debug={{__debug__}} raised: {{exc}}")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mvcodes.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"debug=False raised: {axiom} filter flagged slice x = 0")


def first_nonassociative(rows):
    """The first x of a triple (x, y, w) with (x+y)+w != x+(y+w), trying every
    triple in order, or None: the oracle of the assoc filter."""
    k = len(rows)
    return next((x for x, y, w in product(range(k), repeat=3) if rows[rows[x][y]][w] != rows[x][rows[y][w]]), None)


def right_sum_closure(rows, gens):
    """Every element reached from ``gens`` by sums r -> rows[r][g], g in ``gens``."""
    reached, todo = set(gens), list(gens)
    while todo:
        r = todo.pop()
        for g in gens:
            if rows[r][g] not in reached:
                reached.add(rows[r][g])
                todo.append(rows[r][g])
    return reached


def assoc_filter(rows, complement, zero):
    m = MvAlgebra(CayleyTable(rows), complement, zero)
    return _assoc_first_slice(m, _TableView(m.oplus))


def every_element_a_generator(k):
    """Associative tables in which every element, or every one but the
    constant, is a generator: left and right projection, max, a constant."""
    cells = {"left": lambda x, y: x, "right": lambda x, y: y, "max": max, "constant": lambda x, y: k // 2}
    return {name: tuple(tuple(cell(x, y) for y in range(k)) for x in range(k)) for name, cell in cells.items()}


PRODUCTS_256 = [(4, 4, 4, 4), (2,) * 8, (256,)]


class TestAssocGenerators:
    """The assoc filter tests the slices of a generating set first (Light's
    test); the plain triple loop is its oracle."""

    def test_every_operation_on_up_to_three_elements(self):
        # 1 + 16 + 19,683 tables; the complement and zero only steer the order
        # in which the generators are picked
        flagged = 0
        for k in (1, 2, 3):
            complements = list(product(range(k), repeat=k))
            for n, cells in enumerate(product(range(k), repeat=k * k)):
                rows = tuple(cells[i : i + k] for i in range(0, k * k, k))
                first = first_nonassociative(rows)
                assert assoc_filter(rows, complements[n % len(complements)], n % k) == first, rows
                flagged += first is not None
        assert 0 < flagged < 1 + 16 + 19683

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        k = data.draw(st.integers(1, 6))
        element = st.integers(0, k - 1)
        rows = data.draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=k, max_size=k))
        complement, zero = data.draw(st.lists(element, min_size=k, max_size=k)), data.draw(element)
        assert assoc_filter(rows, complement, zero) == first_nonassociative(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_relabelled_catalog_tables_with_one_edit(self, data):
        # associative tables and near misses, whose first failing slice need
        # not be a generator
        _, _, w = data.draw(st.sampled_from(catalog_upto(12)))
        rows = rows_of(convert(w, "mv"))
        k = len(rows)
        perm = data.draw(st.permutations(range(k)))
        inverse = sorted(range(k), key=perm.__getitem__)
        rows = tuple(tuple(perm[rows[inverse[x]][inverse[y]]] for y in range(k)) for x in range(k))
        if data.draw(st.booleans()):
            rows = mutate(rows, *data.draw(st.tuples(*[st.integers(0, k - 1)] * 3)))
        complement = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        assert assoc_filter(rows, complement, data.draw(st.integers(0, k - 1))) == first_nonassociative(rows)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_every_element_a_generator(self, k):
        complement = tuple(reversed(range(k)))
        for name, rows in every_element_a_generator(k).items():
            m = MvAlgebra(CayleyTable(rows), complement, 0)
            # the constant is reached from the first generator
            expected = set(range(k)) - ({k // 2} if name == "constant" and k > 1 else set())
            assert set(_generators(m, _TableView(m.oplus))) == expected, name
            assert assoc_filter(rows, complement, 0) is None
            for i, j, v in product(range(k), repeat=3) if k <= 5 else [(k - 1, k - 2, 0), (3, 7, 11)]:
                edited = mutate(rows, i, j, v)
                assert assoc_filter(edited, complement, 0) == first_nonassociative(edited), (name, i, j, v)

    def test_every_element_a_generator_at_256(self):
        complement = tuple(reversed(range(256)))
        for rows in every_element_a_generator(256).values():
            assert assoc_filter(rows, complement, 0) is None

    def test_products_are_generated_by_zero_and_one_atom_per_factor(self):
        products = [(factors, w) for _, factors, w in catalog_upto(64)]
        products += [(e.factors, e.algebra) for e in enumerate_wajsberg(256) if e.factors in PRODUCTS_256]
        assert len(products) > 100 and {factors for factors, _ in products} >= set(PRODUCTS_256)
        for factors, w in products:
            m = convert(w, "mv")
            view = _TableView(m.oplus)
            gens = bytes(_generators(m, view))
            down = natural_order(m).down
            atoms = {x for x in range(m.k) if x != m.zero and down[x] == 1 << x | 1 << m.zero}
            # the trivial algebra, factors (1,), has no atom
            assert gens[0] == m.zero and len(gens) == 1 + len(factors) - factors.count(1), factors
            assert set(gens[1:]) == atoms, factors
            assert _assoc_first_slice(m, view) is None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_generators_reach_the_carrier(self, data):
        # each generator lies outside the sums of the ones before it, and all
        # of them together reach every element
        k = data.draw(st.integers(1, 8))
        element = st.integers(0, k - 1)
        rows = data.draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=k, max_size=k))
        m = MvAlgebra(CayleyTable(rows), data.draw(st.lists(element, min_size=k, max_size=k)), data.draw(element))
        gens = list(_generators(m, _TableView(m.oplus)))
        assert right_sum_closure(rows, gens) == set(range(k))
        for i, g in enumerate(gens):
            assert g not in right_sum_closure(rows, gens[:i])


def with_unary_and_constants(algebra, unary, first, second):
    """The same table under another unary map (Wajsberg, MV) and constants:
    ``one`` for Wajsberg, ``zero`` for MV, ``zero`` and ``one`` for BCK."""
    if isinstance(algebra, BckAlgebra):
        return BckAlgebra(algebra.table, first, second)
    if isinstance(algebra, MvAlgebra):
        return MvAlgebra(algebra.oplus, unary, first)
    return WajsbergAlgebra(algebra.circ, unary, first)


def unary_and_constants(algebra):
    if isinstance(algebra, BckAlgebra):
        return (), algebra.zero, algebra.one
    if isinstance(algebra, MvAlgebra):
        return algebra.complement, algebra.zero, None
    return algebra.negation, algebra.one, None


def valid_presentations():
    """Every catalog presentation up to order 24 and the products of order 48-64."""
    return presentations_upto_24() + tuple(
        convert(e.algebra, kind)
        for factors, kind in PRODUCTS_48_TO_64
        for e in enumerate_wajsberg(math.prod(factors))
        if e.factors == factors
    )


class TestMvProof:
    """verify proves Wajsberg and BCK inputs valid through their MV translation;
    the plain scan without filters is the oracle of every report."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_unary_maps_and_constants(self, data):
        algebra = data.draw(st.sampled_from(presentations_upto_24()))
        element = st.integers(0, algebra.k - 1)
        unary, first, second = unary_and_constants(algebra)
        unary = list(unary)
        for _ in range(data.draw(st.integers(0, 3)) if unary else 0):
            unary[data.draw(element)] = data.draw(element)
        first = data.draw(st.one_of(st.just(first), element))
        second = data.draw(st.one_of(st.just(second), element)) if second is not None else None
        assert_matches_plain_scan(with_unary_and_constants(algebra, unary, first, second))

    def test_every_unary_entry_and_constant_up_to_order_6(self):
        guarded = 0
        for algebra in presentations_upto_24():
            k = algebra.k
            if k > 6:
                continue
            unary, first, second = unary_and_constants(algebra)
            for i, v in product(range(len(unary)), range(k)):
                edited = list(unary)
                edited[i] = v
                assert_matches_plain_scan(with_unary_and_constants(algebra, edited, first, second))
            for a, b in product(range(k), range(k) if second is not None else (None,)):
                mutated = with_unary_and_constants(algebra, unary, a, b)
                assert_matches_plain_scan(mutated)
                guarded += isinstance(algebra, BckAlgebra) and _translate(mutated, "mv").one != mutated.one
        # BCK inputs with s[one][zero] != one, whose MV translation has another one
        assert guarded

    def test_every_edit_of_bck_row_one_up_to_order_8(self):
        guarded = 0
        for algebra in presentations_upto_24():
            if isinstance(algebra, BckAlgebra) and algebra.k <= 8:
                for j, v in product(range(algebra.k), repeat=2):
                    mutated = with_rows(algebra, mutate(rows_of(algebra), algebra.one, j, v))
                    assert_matches_plain_scan(mutated)
                    guarded += _translate(mutated, "mv").one != mutated.one
        assert guarded

    def test_cubic_filters_find_nothing_on_valid_tables(self):
        # verify no longer runs w2 and bck1 on valid tables; their filters
        # still clear every slice of one
        for algebra in valid_presentations():
            slices = first_slices(algebra)
            assert slices and set(slices.values()) == {None}, algebra

    @pytest.mark.parametrize("kind", ["mv", "wajsberg", "bck"])
    def test_verify_scans_twice_only_when_the_mv_proof_fails(self, kind, scans):
        # one scan proves a valid input, or reports on an MV one; any other
        # invalid input fails the proof and has its own axioms scanned
        valid = convert(chain_wajsberg(4), kind)
        invalid = with_rows(valid, mutate(rows_of(valid), 1, 2, (rows_of(valid)[1][2] + 1) % 4))
        for algebra in (valid, invalid):
            scans.clear()
            assert verify(algebra).valid == (algebra is valid)
            assert [kind_of(a) for a in scans] == (["mv"] if algebra is valid or kind == "mv" else ["mv", kind])

    @pytest.mark.parametrize("kind", ["wajsberg", "bck"])
    def test_failed_proof_stops_at_its_first_violation(self, kind, monkeypatch):
        # the translation fails assoc, its first axiom, so the MV filters of
        # the later axioms never run; the input's own scan gives the report
        valid = convert(chain_wajsberg(4), kind)
        invalid = with_rows(valid, mutate(rows_of(valid), 1, 2, (rows_of(valid)[1][2] + 1) % 4))
        mv = _translate(invalid, "mv")
        assert plain_scan(4, axiom_suite(mv)).violations[0].axiom == "assoc"
        calls = []
        for name in ("_comm_first_slice", "_lukasiewicz_first_slice"):
            monkeypatch.setattr(mvcodes.algebras, name, lambda algebra, view, name=name: calls.append(name))
        assert_matches_plain_scan(invalid)
        assert calls == []

    @pytest.mark.parametrize("kind", ["wajsberg", "bck"])
    def test_valid_product_skips_the_cubic_filters(self, kind, monkeypatch):
        (entry,) = [e for e in enumerate_wajsberg(64) if e.factors == (8, 8)]
        algebra = convert(entry.algebra, kind)
        calls = []
        for name in ("_w2_first_slice", "_bck1_first_slice"):
            monkeypatch.setattr(mvcodes.algebras, name, lambda algebra, view, name=name: calls.append(name))
        assert verify(algebra).valid
        assert calls == []


def test_verify_reads_no_order(monkeypatch):
    # the MV proof's generating set is picked off the table, never off the
    # order rows; reports are those of the unpatched verify
    rng = random.Random(0)
    algebras = list(presentations_upto_24())
    for algebra in presentations_upto_24():
        rows = rows_of(algebra)
        for _ in range(3):
            i, j = rng.randrange(algebra.k), rng.randrange(algebra.k)
            algebras.append(with_rows(algebra, mutate(rows, i, j, (rows[i][j] + 1) % algebra.k)))
    reports = list(map(verify, algebras))
    assert {r.valid for r in reports} == {False, True}

    def no_order(*args):
        raise AssertionError("verify read the natural order")

    monkeypatch.setattr(mvcodes.algebras, "_order_rows", no_order)
    assert list(map(verify, algebras)) == reports


class TestNaturalOrder:
    def test_six_example_strict_middle_pairs(self, six_wajsberg):
        poset = natural_order(six_wajsberg)
        middle = {
            (x, y)
            for (x, y) in poset.strict_pairs()
            if x != 0 and y != 5
        }
        assert middle == {(1, 3), (1, 4), (2, 4)}

    def test_product_strict_middle_pairs(self):
        poset = natural_order(wajsberg_from_table(PROD23))
        middle = {(x, y) for (x, y) in poset.strict_pairs() if x != 0 and y != 5}
        assert middle == {(1, 2), (3, 4), (1, 4)}

    def test_bounds_on_every_catalog_algebra(self):
        for n, _, algebra in catalog_upto(8):
            poset = natural_order(algebra)
            assert poset.bottom == algebra.zero
            assert poset.top == algebra.one

    def test_three_presentations_agree(self, six_bck, six_mv, six_wajsberg):
        assert (
            natural_order(six_bck).leq
            == natural_order(six_mv).leq
            == natural_order(six_wajsberg).leq
        )

    def test_garbage_table_raises(self):
        rows = ((0, 0, 0), (0, 0, 0), (2, 2, 0))  # 0 and 1 below each other
        with pytest.raises(NotAPoset):
            natural_order(BckAlgebra(CayleyTable(rows), 0, 2))


class TestMvDerivedOps:
    def test_difference_equals_bck_operation(self, six_mv):
        _, ominus = mv_derived_ops(six_mv)
        assert ominus.rows == SIX_STAR

    def test_top_product(self, six_mv):
        odot, _ = mv_derived_ops(six_mv)
        assert odot.rows[5][5] == 5

    def test_self_difference_is_zero(self, six_mv, boolean_mv):
        for m in (six_mv, boolean_mv):
            _, ominus = mv_derived_ops(m)
            assert all(ominus.rows[x][x] == m.zero for x in range(m.k))


class TestMvLeqEquivalences:
    def test_comparable_pair(self, six_mv):
        assert mv_leq_equivalences(six_mv, 1, 3) is True

    def test_incomparable_direction(self, six_mv):
        assert mv_leq_equivalences(six_mv, 3, 1) is False

    def test_reflexive(self, six_mv):
        assert all(mv_leq_equivalences(six_mv, x, x) for x in range(six_mv.k))

    def test_matches_natural_order_exhaustively(self, six_mv):
        poset = natural_order(six_mv)
        for x in range(six_mv.k):
            for y in range(six_mv.k):
                assert mv_leq_equivalences(six_mv, x, y) == poset.leq[x][y]

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (6, 0), (0, 6), (-7, 5)])
    def test_element_outside_carrier_rejected(self, six_mv, x, y):
        with pytest.raises(ValueError, match="leaves the carrier"):
            mv_leq_equivalences(six_mv, x, y)

    def test_broken_input_raises(self):
        oplus = CayleyTable(((0, 1), (1, 0)))  # not an MV sum
        m = MvAlgebra(oplus, (1, 0), 0)
        with pytest.raises(EquivalenceBroken):
            for x in range(2):
                for y in range(2):
                    mv_leq_equivalences(m, x, y)


def test_meet_commutes_on_verified_bck(six_bck):
    s = six_bck.table.rows
    k = six_bck.k
    for x in range(k):
        for y in range(k):
            assert s[y][s[y][x]] == s[x][s[x][y]]


@pytest.mark.parametrize(
    "call, error, args",
    [
        (lambda w: WajsbergAlgebra(w.circ, (2, 1), 2), MalformedTable, ("unary map has 2 entries, expected 3",)),
        (lambda w: WajsbergAlgebra(w.circ, (2, 5, 0), 2), MalformedTable, ("unary entry 1 = 5 out of range [0,3)",)),
        (lambda w: MvAlgebra(w.circ, (-1, 1, 0), 0), MalformedTable, ("unary entry 0 = -1 out of range [0,3)",)),
        (lambda w: WajsbergAlgebra(w.circ, (2, 1, 0), 3), MalformedTable, ("one = 3 out of range [0,3)",)),
        (lambda w: evaluate_axiom(w, "w2", (0, 1)), ValueError, ("w2 takes 3 variables",)),
        (lambda w: evaluate_axiom(w, "w5", (0,)), KeyError, ("w5",)),
        (lambda w: kind_of(42), TypeError, ("not an algebra: 42",)),
        (lambda w: axiom_suite(42), TypeError, ("not an algebra: 42",)),
    ],
    ids=[
        "unary-length", "unary-above", "unary-below", "one-above",
        "axiom-arity", "axiom-name", "kind-of-non-algebra", "suite-of-non-algebra",
    ],
)
def test_error_paths(call, error, args):
    with pytest.raises(error) as exc:
        call(chain_wajsberg(3))
    assert exc.type is error and exc.value.args == args


@pytest.mark.parametrize(
    "build, violations",
    [
        # all-zero table, identity negation, one 1
        (
            lambda: WajsbergAlgebra(CayleyTable([[0] * 257] * 257), tuple(range(257)), 1),
            {"w1": (1,), "w2": (0, 0, 0), "w4": (0, 0)},
        ),
        # all-one table, zero 0, one 1
        (
            lambda: BckAlgebra(CayleyTable([[1] * 257] * 257), 0, 1),
            {"bck1": (0, 0, 0), "bck2": (0, 0), "bck3": (0,), "bck5": (0,), "bounded": (0,)},
        ),
    ],
    ids=["wajsberg", "bck"],
)
def test_verify_over_256_elements_scans_own_axioms(build, violations, scans):
    # the MV proof fails, and the filters of the input's own axioms give the
    # report of the plain scan, as at every size
    algebra = build()
    report = verify(algebra)
    assert [kind_of(a) for a in scans] == ["mv", kind_of(algebra)]
    assert report == plain_scan(257, axiom_suite(algebra))
    assert {v.axiom: v.witness for v in report.violations} == violations


def shuffled_product(factors):
    """The chain product of ``factors`` on a carrier shuffled by its size."""
    w = _fold_product(factors)
    forward = list(range(w.k))
    random.Random(w.k).shuffle(forward)
    return transport_structure(w, OrderIso(forward))


@pytest.mark.parametrize("factors", [(257,), (2, 3, 43), (2, 3, 50)], ids=["257", "258", "300"])
def test_relabelled_products_over_256_elements_verify(factors):
    w = shuffled_product(factors)
    for kind in ("wajsberg", "mv", "bck"):
        assert verify(_translate(w, kind)).valid, kind


@pytest.mark.parametrize("cell", [(0, 1), (2, 0), (128, 256)])
@pytest.mark.parametrize("kind", ["wajsberg", "mv", "bck"])
def test_one_cell_edits_over_256_elements_match_plain_scan(kind, cell):
    # each edit of the shuffled 257-element chain breaks the axiom in three
    # variables at x <= 1, where the plain scan finds its witness early
    algebra = _translate(shuffled_product((257,)), kind)
    rows, (i, j) = rows_of(algebra), cell
    report = assert_matches_plain_scan(with_rows(algebra, mutate(rows, i, j, (rows[i][j] + 1) % 257)))
    ((x, *_),) = (v.witness for v in report.violations if len(v.witness) == 3)
    assert x <= 1


def small_cases():
    """Every order type of at most 12 elements, relabelled, in each
    presentation, and one-cell, unary-map and constant mutations of each:
    7 cases per presentation, as the arguments of ``_make``."""
    rng, cases = random.Random(12), []
    for _, factors, _ in catalog_upto(12):
        w = shuffled_product(factors)
        k = w.k
        for kind, constants in (("wajsberg", ("one", "one")), ("mv", ("zero", "zero")), ("bck", ("zero", "one"))):
            _, table, unary = _parts(_translate(w, kind))
            valid = {"kind": kind, "table": table.rows, "unary": tuple(unary), "zero": w.zero, "one": w.one}
            cells = [(rng.randrange(k), rng.randrange(k)) for _ in range(4 if kind == "bck" else 3)]
            cases += [valid, *({**valid, "table": mutate(table.rows, i, j, rng.randrange(k))} for i, j in cells)]
            if kind != "bck":  # a BCK unary map is a table row
                i = rng.randrange(k)
                cases.append({**valid, "unary": (*unary[:i], rng.randrange(k), *unary[i + 1 :])})
            cases += [{**valid, name: rng.randrange(k)} for name in constants]
    return cases


def observed(case):
    """The file text of a case, parsed back, and everything read off it: its
    report, its conversions as text, its code and its skeleton."""
    text = format_algebra(_make(**{**case, "table": CayleyTable(case["table"])}))
    algebra = parse_algebra(text)
    converted = [table_outcome(lambda a: format_algebra(convert(a, to)), algebra) for to in ("wajsberg", "mv", "bck")]
    return text, verify(algebra), converted, table_outcome(code_from_algebra, algebra), table_outcome(skeleton, algebra)


def test_tuple_rows_agree_with_byte_rows_on_small_tables(monkeypatch):
    # the tuple rows of tables over 256 elements, forced onto every table
    # through the one choice of the row format, give what the byte rows give
    cases = small_cases()
    assert len(cases) == 441
    expected = list(map(observed, cases))
    assert {report.valid for _, report, *_ in expected} == {False, True}
    for module in (mvcodes.algebras, sys.modules["mvcodes.catalog"], sys.modules["mvcodes.fileio"]):
        monkeypatch.setattr(module, "_cells", lambda k: mvcodes.algebras._TUPLE_CELLS)
    assert type(shuffled_product((2, 3)).circ._rows[0]) is tuple
    assert list(map(observed, cases)) == expected
    assert small_cases() == cases
