"""Presentation conversions: exactness, round trips, order preservation."""

import importlib
import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mvcodes import (
    BckAlgebra,
    CayleyTable,
    MvAlgebra,
    NotAnAlgebra,
    NotBounded,
    NotCommutative,
    WajsbergAlgebra,
    attach_bck,
    attach_wajsberg,
    bck_to_mv,
    chain_wajsberg,
    code_from_algebra,
    convert,
    enumerate_wajsberg,
    format_code,
    kind_of,
    mv_to_bck,
    mv_to_wajsberg,
    natural_order,
    transport_structure,
    verify,
    wajsberg_to_mv,
)
from mvcodes import algebras, cli
from mvcodes.algebras import _relabel, _translate
from mvcodes.order import OrderIso

from conftest import (
    SIX_COMPLEMENT,
    SIX_IMPL,
    SIX_PLUS,
    SIX_STAR,
    catalog_upto,
)

convert_module = importlib.import_module("mvcodes.convert")  # mvcodes.convert is the function


class TestSixElementExample:
    def test_bck_to_mv_exact(self, six_bck):
        mv = bck_to_mv(six_bck)
        assert mv.oplus.rows == SIX_PLUS
        assert mv.complement == SIX_COMPLEMENT
        assert mv.zero == 0

    def test_mv_to_wajsberg_exact(self, six_mv):
        w = mv_to_wajsberg(six_mv)
        assert w.circ.rows == SIX_IMPL
        assert w.negation == SIX_COMPLEMENT
        assert w.one == 5

    def test_difference_recovers_bck(self, six_bck):
        assert mv_to_bck(bck_to_mv(six_bck)).table.rows == SIX_STAR

    def test_wajsberg_to_mv_exact(self, six_wajsberg):
        mv = wajsberg_to_mv(six_wajsberg)
        assert mv.oplus.rows == SIX_PLUS
        assert mv.zero == 0

    def test_product_operation_consistent(self, six_wajsberg):
        # (x'+y')' computed in the output equals neg(x -> neg(y)) in the input
        from mvcodes import mv_derived_ops

        mv = wajsberg_to_mv(six_wajsberg)
        odot, _ = mv_derived_ops(mv)
        t, n = six_wajsberg.circ.rows, six_wajsberg.negation
        for x in range(6):
            for y in range(6):
                assert odot.rows[x][y] == n[t[x][n[y]]]

    def test_round_trip_identity_on_relabelled_table(self, six_wajsberg):
        assert (
            mv_to_wajsberg(wajsberg_to_mv(six_wajsberg)).circ.rows
            == six_wajsberg.circ.rows
        )


class TestTwoElementCase:
    def test_chain_to_boolean(self, boolean_mv):
        chain = BckAlgebra(CayleyTable(((0, 0), (1, 0))), 0, 1)
        mv = bck_to_mv(chain)
        assert mv.oplus.rows == boolean_mv.oplus.rows
        assert mv.complement == boolean_mv.complement

    def test_boolean_to_implication(self, boolean_mv):
        w = mv_to_wajsberg(boolean_mv)
        assert w.circ.rows == ((1, 1), (0, 1))


class TestPreconditions:
    def test_unbounded_rejected(self):
        rows = ((0, 0, 0), (1, 0, 1), (2, 2, 0))
        with pytest.raises(NotBounded):
            bck_to_mv(BckAlgebra(CayleyTable(rows), 0, 2))

    def test_noncommutative_rejected(self):
        rows = ((0, 0, 0), (1, 0, 0), (2, 2, 0))
        with pytest.raises(NotCommutative):
            bck_to_mv(BckAlgebra(CayleyTable(rows), 0, 2))


def catalog_mvs(max_n):
    return [
        (wajsberg_to_mv(algebra), algebra) for _, _, algebra in catalog_upto(max_n)
    ]


class TestRoundTrips:
    def test_catalog_round_trips_are_identities(self):
        for mv, w in catalog_mvs(12):
            assert mv_to_wajsberg(mv).circ.rows == w.circ.rows
            bck = mv_to_bck(mv)
            back = bck_to_mv(bck)
            assert back.oplus.rows == mv.oplus.rows
            assert back.complement == mv.complement

    def test_converted_algebras_verify(self):
        for mv, _ in catalog_mvs(12):
            assert verify(mv).valid
            assert verify(mv_to_bck(mv)).valid

    def test_order_preserved_by_every_conversion(self):
        for mv, w in catalog_mvs(12):
            order = natural_order(w).leq
            assert natural_order(mv).leq == order
            assert natural_order(mv_to_bck(mv)).leq == order

    def test_constants_map_through(self):
        for mv, w in catalog_mvs(12):
            bck = mv_to_bck(mv)
            assert (mv.zero, mv.one) == (w.zero, w.one) == (bck.zero, bck.one)


@st.composite
def relabeled_catalog_algebra(draw):
    entries = catalog_upto(8)
    _, _, algebra = draw(st.sampled_from(entries))
    perm = draw(st.permutations(list(range(algebra.k))))
    return transport_structure(algebra, OrderIso(tuple(perm)))


@given(relabeled_catalog_algebra())
def test_round_trip_on_relabeled_algebras(w):
    mv = wajsberg_to_mv(w)
    assert mv_to_wajsberg(mv).circ.rows == w.circ.rows
    assert mv_to_bck(mv).zero == w.zero
    assert natural_order(mv).leq == natural_order(w).leq


def test_convert_shortest_paths(six_bck, six_wajsberg):
    assert convert(six_bck, "wajsberg").circ.rows == SIX_IMPL
    assert convert(six_wajsberg, "bck").table.rows == SIX_STAR
    assert convert(six_bck, "bck").table.rows == SIX_STAR


# The composition of the public converters along each path.
PUBLIC_PATHS = {
    ("bck", "mv"): bck_to_mv,
    ("bck", "wajsberg"): lambda b: mv_to_wajsberg(bck_to_mv(b)),
    ("mv", "bck"): mv_to_bck,
    ("mv", "wajsberg"): mv_to_wajsberg,
    ("wajsberg", "mv"): wajsberg_to_mv,
    ("wajsberg", "bck"): lambda w: mv_to_bck(wajsberg_to_mv(w)),
}


def presentations(w):
    mv = wajsberg_to_mv(w)
    return {"wajsberg": w, "mv": mv, "bck": mv_to_bck(mv)}


def broken_presentations(w):
    """Each presentation of w with one table cell or one unary entry changed,
    rebuilt through its constructor."""
    k = w.k
    mv = wajsberg_to_mv(w)
    bck = mv_to_bck(mv)

    def bumped(table):
        rows = [list(r) for r in table.rows]
        rows[k // 2][k - 1] = (rows[k // 2][k - 1] + 1) % k
        return CayleyTable(rows)

    def merged(values):
        values = list(values)
        values[0] = values[1]
        return values

    return [
        ("wajsberg", WajsbergAlgebra(bumped(w.circ), w.negation, w.one)),
        ("wajsberg", WajsbergAlgebra(w.circ, merged(w.negation), w.one)),
        ("mv", MvAlgebra(bumped(mv.oplus), mv.complement, mv.zero)),
        ("mv", MvAlgebra(mv.oplus, merged(mv.complement), mv.zero)),
        ("bck", BckAlgebra(bumped(bck.table), bck.zero, bck.one)),
    ]


def refused(algebra):
    """The refusal of an input that fails verification and keeps its kind:
    NotAnAlgebra naming the failed axioms, with the report attached."""
    report = verify(algebra)
    raise NotAnAlgebra(f"{kind_of(algebra)} verification failed: {', '.join(sorted(report.axioms()))}", report)


def outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestConvertVerifiesOnce:
    @pytest.mark.parametrize("target", ["bck", "mv", "wajsberg"])
    @pytest.mark.parametrize("source", ["bck", "mv", "wajsberg"])
    def test_one_verify_per_convert(self, source, target, monkeypatch):
        calls = Counter()
        original = algebras.verify

        def counted(algebra):
            calls["verify"] += 1
            return original(algebra)

        cases = [presentations(w)[source] for _, _, w in catalog_upto(12)]
        expected = [PUBLIC_PATHS.get((source, target), lambda a: a)(a) for a in cases]
        monkeypatch.setattr(algebras, "verify", counted)
        monkeypatch.setattr(convert_module, "verify", counted)
        for algebra, want in zip(cases, expected):
            calls.clear()
            assert convert(algebra, target) == want
            assert calls["verify"] == 1

    @pytest.mark.parametrize("target", ["bck", "mv", "wajsberg"])
    def test_invalid_inputs_raise_as_the_public_path(self, target):
        for _, _, w in catalog_upto(8):
            if w.k < 3:
                continue
            for source, algebra in broken_presentations(w):
                assert not verify(algebra).valid
                public = PUBLIC_PATHS.get((source, target), refused)
                got = outcome(lambda: convert(algebra, target))
                assert isinstance(got, tuple) and got == outcome(lambda: public(algebra))


def two_step_translation(algebra, kind):
    """The translation through MV, one ``_relabel`` into MV and one out of it:
    the oracle of ``_translate``, which makes one in all."""
    if isinstance(algebra, WajsbergAlgebra):
        n = algebra.negation
        algebra = MvAlgebra(_relabel(algebra.circ, n, None, None), n, algebra.zero)
    elif isinstance(algebra, BckAlgebra) and kind != "bck":
        c = algebra.table.rows[algebra.one]
        algebra = MvAlgebra(_relabel(algebra.table, c, None, c), c, algebra.zero)
    if not isinstance(algebra, MvAlgebra) or kind == "mv":
        return algebra
    c = algebra.complement
    if kind == "bck":
        return BckAlgebra(_relabel(algebra.oplus, c, None, c), algebra.zero, algebra.one)
    return WajsbergAlgebra(_relabel(algebra.oplus, c, None, None), c, algebra.one)


def unverified_presentations(w):
    return {kind: two_step_translation(w, kind) for kind in ("wajsberg", "mv", "bck")}


KINDS = ("bck", "mv", "wajsberg")


class TestTranslate:
    @pytest.mark.parametrize("target", KINDS)
    @pytest.mark.parametrize("source", KINDS)
    def test_matches_two_step_oracle(self, source, target):
        for _, _, w in catalog_upto(12):
            algebra = presentations(w)[source]
            assert _translate(algebra, target) == two_step_translation(algebra, target)

    @pytest.mark.parametrize("target", KINDS)
    @pytest.mark.parametrize("source", KINDS)
    @pytest.mark.parametrize("n", [257, 258])
    def test_tuple_rows_match_two_step_oracle(self, n, source, target):
        # beyond 256 elements the rows are tuples and _relabel gathers with itemgetter
        for entry in enumerate_wajsberg(n)[:3]:
            algebra = unverified_presentations(entry.algebra)[source]
            assert _translate(algebra, target) == two_step_translation(algebra, target)

    def test_own_presentation_is_returned_as_is(self):
        for algebra in presentations(chain_wajsberg(5)).values():
            assert _translate(algebra, kind_of(algebra)) is algebra

    @pytest.fixture
    def relabels(self, monkeypatch):
        calls = Counter()
        original = algebras._relabel

        def counted(*args, **kwargs):
            calls["relabel"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(algebras, "_relabel", counted)
        return calls

    @pytest.mark.parametrize("source, target", [("wajsberg", "bck"), ("bck", "wajsberg")])
    def test_convert_makes_one_relabel_beyond_verify(self, source, target, relabels):
        for _, _, w in catalog_upto(12):
            algebra = presentations(w)[source]
            relabels.clear()
            assert verify(algebra).valid
            proof = relabels["relabel"]  # the MV proof of the input
            relabels.clear()
            assert convert(algebra, target) == two_step_translation(algebra, target)
            assert relabels["relabel"] == proof + 1

    def test_attach_to_bck_makes_one_relabel(self, relabels, tmp_path):
        w = catalog_upto(12)[-1][2]
        code = code_from_algebra(w)
        path = tmp_path / "code.txt"
        path.write_text(format_code(code))
        out = io.StringIO()
        assert cli.run(["attach", str(path), "--to", "bck"], out=out) == 0
        assert relabels["relabel"] == 1
        relabels.clear()
        assert attach_bck(code) == two_step_translation(attach_wajsberg(code).algebra, "bck")
        assert relabels["relabel"] == 1


WRONG_KINDS = [
    (converter, expected, given)
    for converter, expected in ((bck_to_mv, "bck"), (mv_to_bck, "mv"), (wajsberg_to_mv, "wajsberg"), (mv_to_wajsberg, "mv"))
    for given in ("bck", "mv", "wajsberg")
    if given != expected
]


@pytest.mark.parametrize(
    "converter, expected, given", WRONG_KINDS, ids=[f"{c.__name__}-{given}" for c, _, given in WRONG_KINDS]
)
def test_converter_refuses_other_kinds_before_verifying(converter, expected, given, monkeypatch):
    algebra = presentations(chain_wajsberg(3))[given]

    def no_verify(algebra):
        raise AssertionError("verified an input of the wrong kind")

    monkeypatch.setattr(convert_module, "verify", no_verify)
    with pytest.raises(TypeError) as exc:
        converter(algebra)
    assert exc.value.args == (f"expected a {expected} algebra, got a {given} algebra",)


@pytest.mark.parametrize(
    "call, error, args",
    [
        (lambda: convert(chain_wajsberg(3), "bogus"), ValueError, ("unknown kind: bogus",)),
        # fails bck4 only, so neither NotBounded nor NotCommutative
        (lambda: bck_to_mv(BckAlgebra(CayleyTable(((0, 0), (0, 0))), 0, 1)), NotAnAlgebra, ("input is not a BCK algebra",)),
        (lambda: bck_to_mv(42), TypeError, ("not an algebra: 42",)),
    ],
    ids=["unknown-kind", "bck4-only", "non-algebra"],
)
def test_error_paths(call, error, args):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and exc.value.args == args
