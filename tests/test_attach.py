"""Attaching algebras to codes, rejections, and embeddings."""

import io
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import mvcodes
import mvcodes.catalog as catalog
import mvcodes.cli
from mvcodes import (
    BlockCode,
    CodeRejected,
    NoEmbeddingFound,
    NonSquare,
    attach_bck,
    attach_mv,
    attach_wajsberg,
    chain_wajsberg,
    code_from_algebra,
    code_poset,
    convert,
    embed_code,
    enumerate_wajsberg,
    format_algebra,
    format_code,
    natural_order,
    validate_code_matrix,
)
from mvcodes.attach import _canonical_embedding, _closure_bounds, _covering_columns
from mvcodes.catalog import _fold_product, factorizations, transport_structure
from mvcodes.errors import InvalidSize, NotAPoset
from mvcodes.order import (
    OrderIso, Poset, _masks, _product_iso, _product_masks, _product_width, _up_down, poset_isomorphisms,
)

from conftest import (
    CODE_CYCLED,
    CODE_INTRANSITIVE,
    CODE_PAIR,
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
    SIX_PLUS,
    SIX_STAR,
    chain_factors,
    code_of,
)


class TestValidateCodeMatrix:
    def test_product_code_valid(self):
        assert validate_code_matrix(code_of(CODE_PROD23)).valid

    def test_single_cell(self):
        assert validate_code_matrix(code_of(("1",))).valid

    def test_intransitive_code_still_valid(self):
        # the boundary shape holds; rejection happens at the order check
        assert validate_code_matrix(code_of(CODE_INTRANSITIVE)).valid

    def test_unsorted_rows_still_valid(self):
        assert validate_code_matrix(code_of(CODE_CYCLED)).valid

    def test_failures_carry_positions(self):
        report = validate_code_matrix(code_of(("110", "010", "001")))
        conditions = {f.condition for f in report.failures}
        assert "first-row-ones" in conditions
        assert "last-column-ones" in conditions
        first_row = next(f for f in report.failures if f.condition == "first-row-ones")
        assert first_row.position == (0, 2)

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            validate_code_matrix(code_of(("01", "11", "10")))


EXACT_ATTACHMENTS = [
    (CODE_PROD23, PROD23, (6, (2, 3))),
    (CODE_SIX, SIX_IMPL, (6, (2, 3))),
    (CODE_CYCLED, SIX_CYCLED, (6, (2, 3))),
    (CODE_PROD32, PROD32, (6, (2, 3))),
    (CODE_PROD42, PROD42, (8, (2, 4))),
    (CODE_PROD24, PROD24, (8, (2, 4))),
    (CODE_PROD222, PROD222, (8, (2, 2, 2))),
]


class TestAttachWajsberg:
    @pytest.mark.parametrize("words,table,catalog_id", EXACT_ATTACHMENTS)
    def test_exact_tables(self, words, table, catalog_id):
        result = attach_wajsberg(code_of(words))
        assert result.algebra.circ.rows == table
        assert result.catalog_id == catalog_id

    def test_two_word_code_gives_chain(self):
        result = attach_wajsberg(code_of(("11", "01")))
        assert result.algebra.circ.rows == chain_wajsberg(2).circ.rows

    def test_attached_order_matches_code_order(self):
        for words, _, _ in EXACT_ATTACHMENTS:
            code = code_of(words)
            result = attach_wajsberg(code)
            assert natural_order(result.algebra).leq == code_poset(code).leq

    def test_regenerates_input_code(self):
        for words, _, _ in EXACT_ATTACHMENTS:
            code = code_of(words)
            assert code_from_algebra(attach_wajsberg(code).algebra).words == code.words

    def test_intransitive_code_rejected(self):
        with pytest.raises(CodeRejected) as exc:
            attach_wajsberg(code_of(CODE_INTRANSITIVE))
        reason = exc.value.reason
        assert reason.kind == "transitivity-failure"
        x, y, z = reason.witness
        words = code_of(CODE_INTRANSITIVE).words
        assert words[x][y] == 1 and words[y][z] == 1 and words[x][z] == 0

    def test_boundary_violation_rejected(self):
        # middle word ends in 0, so the last column is not all ones
        with pytest.raises(CodeRejected) as exc:
            attach_wajsberg(code_of(("111", "010", "001")))
        assert exc.value.reason.kind == "boundary-violation"
        assert exc.value.reason.witness == (1, 2)

    def test_antisymmetry_break_rejected(self):
        # rows 1 and 2 sit below each other in the matrix relation
        words = ("11111", "01101", "01111", "00011", "00001")
        with pytest.raises(CodeRejected) as exc:
            attach_wajsberg(code_of(words))
        assert exc.value.reason.kind == "not-a-poset"
        assert exc.value.reason.witness == (1, 2)

    def test_poset_without_catalog_match_rejected(self):
        # bottom, top, and three middle elements ordered 1 < 2 and 1 < 3:
        # a genuine order, but no five-element algebra has it
        words = ("11111", "01111", "00101", "00011", "00001")
        with pytest.raises(CodeRejected) as exc:
            attach_wajsberg(code_of(words))
        assert exc.value.reason.kind == "no-catalog-match"

    def test_all_matches_on_cube_code(self):
        results = attach_wajsberg(code_of(CODE_PROD222), all_matches=True)
        assert len(results) == 6
        tables = {r.algebra.circ.rows for r in results}
        assert tables == {PROD222}

    def test_all_matches_unique_for_rigid_order(self):
        results = attach_wajsberg(code_of(CODE_SIX), all_matches=True)
        assert len(results) == 1
        assert results[0].iso.forward == (0, 1, 3, 2, 4, 5)


class TestAttachAllTransportsOnce:
    """``--all`` transports, regenerates, converts and formats once per code.

    The path that did all of that once per match is the oracle: every match
    of a relabelled code with repeated factors must give the same tables and
    the same CLI output as before.
    """

    @pytest.mark.parametrize("kind", ["wajsberg", "mv", "bck"])
    @pytest.mark.parametrize("factors", [(2,) * 5, (2, 2, 3, 3), (3, 3, 4), (2, 2, 2, 6)])
    def test_against_per_match_path(self, factors, kind, tmp_path, monkeypatch):
        entry = _fold_product(factors)
        inner = list(range(1, entry.k - 1))  # bottom and top keep the boundary shape
        random.Random(entry.k).shuffle(inner)
        code = code_from_algebra(transport_structure(entry, OrderIso([0, *inner, entry.k - 1])))
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(mvcodes.attach, "transport_structure")
        counted(mvcodes.attach, "code_from_algebra")
        counted(mvcodes.cli, "convert")
        counted(mvcodes.cli, "_translate")

        results = attach_wajsberg(code, all_matches=True)
        assert calls == {"transport_structure": 1, "code_from_algebra": 1}
        isos = list(poset_isomorphisms(natural_order(entry), Poset(code.words)))
        assert [r.iso for r in results] == isos
        assert len(isos) > 1
        for r in results:
            assert r.algebra == transport_structure(entry, r.iso)

        path = tmp_path / "code.txt"
        path.write_text(format_code(code))
        out = io.StringIO()
        assert mvcodes.cli.run(["attach", str(path), "--all", "--to", kind], out=out) == 0
        # the attached algebra is valid by construction: translated once, never verified
        assert calls["convert"] == 0
        assert calls["_translate"] == 1
        label = "x".join(map(str, factors))
        assert out.getvalue() == "".join(
            f"---\n# catalog: n={entry.k} factors={label}\n"
            f"# relabeling: {','.join(map(str, iso.forward))}\n"
            + format_algebra(convert(transport_structure(entry, iso), kind))
            for iso in isos
        )


class TestAttachOtherKinds:
    def test_mv_presentation_of_six_example(self):
        mv = attach_mv(code_of(CODE_SIX))
        assert mv.oplus.rows == SIX_PLUS
        assert mv.complement == (5, 4, 3, 2, 1, 0)

    def test_pair_code_gives_boolean_mv(self):
        mv = attach_mv(code_of(("11", "01")))
        assert mv.oplus.rows == ((0, 1), (1, 1))

    def test_bck_round_trips_through_code(self):
        bck = attach_bck(code_of(CODE_PROD23))
        assert code_from_algebra(bck).word_strings() == CODE_PROD23

    def test_six_example_bck(self):
        assert attach_bck(code_of(CODE_SIX)).table.rows == SIX_STAR

    def test_rejection_propagates(self):
        with pytest.raises(CodeRejected):
            attach_mv(code_of(CODE_INTRANSITIVE))


class TestRoundTripOverCatalog:
    def test_attach_inverts_code_generation(self):
        for n in range(1, 13):
            for entry in enumerate_wajsberg(n):
                code = code_from_algebra(entry.algebra)
                result = attach_wajsberg(code)
                assert code_from_algebra(result.algebra).words == code.words
                assert result.algebra.circ.rows == entry.algebra.circ.rows


def catalog_scan(code):
    """Reference for ``attach_wajsberg(code, all_matches=True)``: every entry
    of the catalog of the code's order is tried, each by order isomorphism.
    Returns the (algebra, iso, factors) list or the rejection's fields."""
    report = validate_code_matrix(code)
    if not report.valid:
        first = report.failures[0]
        return ("boundary-violation", first.position, f"{first.condition} fails at {first.position}")
    try:
        word_order = Poset(code.words)
    except NotAPoset as exc:
        kind = "transitivity-failure" if exc.law == "transitivity" else "not-a-poset"
        return (kind, exc.witness, f"matrix relation breaks {exc.law} at {exc.witness}")
    matches = [
        (transport_structure(entry.algebra, iso), iso, entry.factors)
        for entry in enumerate_wajsberg(code.size)
        for iso in poset_isomorphisms(natural_order(entry.algebra), word_order)
    ]
    if not matches:
        detail = f"word order of the {code.size}-word code matches no product of chains"
        return ("no-catalog-match", (), detail)
    return matches


def attach_outcome(code):
    try:
        results = attach_wajsberg(code, all_matches=True)
    except CodeRejected as exc:
        reason = exc.reason
        return (reason.kind, reason.witness, reason.detail)
    return [(r.algebra, r.iso, r.source.factors) for r in results]


@st.composite
def relabelled_catalog_words(draw, max_n=48):
    """Words of a catalog code, carrier relabelled with bottom first, top last."""
    n = draw(st.integers(1, max_n))
    entry = draw(st.sampled_from(enumerate_wajsberg(n)))
    inner = draw(st.permutations(range(1, n - 1))) if n > 2 else []
    forward = (0, *inner, n - 1)[:n]
    algebra = transport_structure(entry.algebra, OrderIso(forward))
    return [list(w) for w in code_from_algebra(algebra).words]


@st.composite
def ordinal_sums(draw):
    """The code of a chain product stacked below the code of another."""
    lower, upper = (
        draw(st.sampled_from(enumerate_wajsberg(draw(st.integers(1, 24)))))
        for _ in range(2)
    )
    a, b = lower.order, upper.order
    words = tuple(w + (1,) * b for w in code_from_algebra(lower.algebra).words)
    words += tuple((0,) * a + w for w in code_from_algebra(upper.algebra).words)
    return lower, upper, BlockCode(words)


class TestAttachAgainstCatalogScan:
    @settings(max_examples=25, deadline=None)
    @given(relabelled_catalog_words())
    def test_relabelled_catalog_codes(self, words):
        code = BlockCode(tuple(map(tuple, words)))
        assert attach_outcome(code) == catalog_scan(code)

    @settings(max_examples=40, deadline=None)
    @given(relabelled_catalog_words(), st.data())
    def test_inner_bits_flipped(self, words, data):
        n = len(words)
        inner = st.integers(1, max(1, n - 2))
        for i, j in data.draw(st.lists(st.tuples(inner, inner), max_size=2 if n > 2 else 0)):
            words[i][j] ^= 1
        code_words = tuple(map(tuple, words))
        assume(len(set(code_words)) == n)
        code = BlockCode(code_words)
        assert attach_outcome(code) == catalog_scan(code)

    @settings(max_examples=25, deadline=None)
    @given(ordinal_sums())
    def test_ordinal_sums(self, case):
        lower, upper, code = case
        assert attach_outcome(code) == catalog_scan(code)
        factors = chain_factors(code_poset(code))
        if len(lower.factors) == len(upper.factors) == 1:
            assert factors == (code.size,)
        else:
            assert factors is None


def relabelled_code(factors, seed):
    """The code of the chain product, inner elements shuffled by ``seed``."""
    entry = _fold_product(factors)
    inner = list(range(1, entry.k - 1))
    random.Random(seed).shuffle(inner)
    return entry, code_from_algebra(transport_structure(entry, OrderIso([0, *inner, entry.k - 1])))


def inner_bit_flips(factors):
    """The codes of distinct words one inner bit away from a relabelled code
    of the chain product of ``factors``."""
    _, code = relabelled_code(factors, 4)
    k = code.size
    for i in range(1, k - 1):
        for j in range(1, k - 1):
            words = [list(w) for w in code.words]
            words[i][j] ^= 1
            if len(set(map(tuple, words))) == k:
                yield BlockCode(tuple(map(tuple, words)))


# Orders whose join-irreducibles form disjoint chains with a plausible factor
# multiset, but which are no product of chains: on the first two the
# Birkhoff coordinates are not a bijection, on the last two they are, but the
# transported algebra does not regenerate the code.
NOT_PRODUCTS = [
    ("11111111", "01011111", "00100111", "00011101", "00001101", "00000101", "00000011", "00000001"),
    ("11111111", "01001101", "00100111", "00011111", "00001101", "00000101", "00000011", "00000001"),
    ("11111111", "01110111", "00110101", "00010001", "00001111", "00000101", "00000011", "00000001"),
    ("111111111", "010011111", "001101111", "000100011", "000010101", "000001001", "000000101",
     "000000011", "000000001"),
]


class TestClosedForm:
    """The Birkhoff-coordinate isomorphism against the backtracking search."""

    @pytest.mark.parametrize(
        "factors,seed",
        [(f, s) for f in [(2,) * 5, (2, 2, 3, 3), (2, 2, 2, 6), (3, 3, 4), (12,)] for s in (1, 2)]
        + [((2,) * 6, 1)],
    )
    def test_first_map_and_full_list(self, factors, seed):
        entry, code = relabelled_code(factors, seed)
        isos = list(poset_isomorphisms(natural_order(entry), Poset(code.words)))
        assert _product_iso(code_poset(code).up, code_poset(code).down) == (factors, isos[0].forward)
        assert attach_wajsberg(code).iso == isos[0]
        assert [r.iso for r in attach_wajsberg(code, all_matches=True)] == isos

    @pytest.mark.parametrize("words", NOT_PRODUCTS)
    def test_plausible_factors_without_a_product(self, words):
        code = code_of(words)
        word_order = code_poset(code)
        assert chain_factors(word_order) is not None
        assert attach_outcome(code) == catalog_scan(code)
        assert attach_outcome(code)[0] == "no-catalog-match"

    @pytest.mark.parametrize("factors", [(2, 2, 3), (3, 4)])
    def test_every_inner_bit_flip(self, factors):
        kinds = Counter()
        for flipped in inner_bit_flips(factors):
            assert attach_outcome(flipped) == catalog_scan(flipped)
            kinds[attach_outcome(flipped)[0]] += 1
        assert {"not-a-poset", "transitivity-failure", "no-catalog-match"} <= set(kinds)

    def test_not_products_cover_both_failures(self):
        found = [_product_iso(p.up, p.down) for p in map(code_poset, map(code_of, NOT_PRODUCTS))]
        assert [f is None for f in found] == [True, True, False, False]

    def test_product_iso_has_one_shape(self):
        # None, or factors with a permutation; attach accepts exactly when
        # that permutation's up-set masks are the code's. The masks of the
        # one transpose equal the zip oracle's, on relations that are no
        # order too
        codes = [*map(code_of, NOT_PRODUCTS)]
        for factors in [(2, 2, 3), (3, 4)]:
            codes += [relabelled_code(factors, 4)[1], *inner_bit_flips(factors)]
        seen = set()
        for code in codes:
            up, down = _masks(code.words), _masks(zip(*code.words))
            assert _up_down(code._rows) == (up, down)
            found = _product_iso(up, down)
            if found is not None:
                factors, forward = found
                assert sorted(forward) == list(range(code.size))
            fits = found is not None and _product_masks(*found)[0] == up
            accepted = isinstance(attach_outcome(code), list)
            assert accepted == fits
            seen.add((found is None, accepted))
        assert seen == {(True, False), (False, False), (False, True)}

    @staticmethod
    def refuse_order_search(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("called by attach")

        for module in (mvcodes.attach, mvcodes.catalog, mvcodes.codes, mvcodes.order, mvcodes.algebras):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("factors", [(2, 2, 3), (2,) * 4, (30,)])
    def test_accept_path_runs_no_order_search(self, factors, monkeypatch):
        entry, code = relabelled_code(factors, 3)
        self.refuse_order_search(monkeypatch, "poset_isomorphisms", "natural_order", "Poset", "order_violation")
        assert attach_wajsberg(code).algebra == transport_structure(entry, attach_wajsberg(code).iso)
        assert len(attach_wajsberg(code, all_matches=True)) >= 1

    def test_reject_path_runs_no_isomorphism_search(self, monkeypatch):
        expected = [catalog_scan(code_of(words)) for words in NOT_PRODUCTS]
        self.refuse_order_search(monkeypatch, "poset_isomorphisms", "natural_order", "Poset")
        assert [attach_outcome(code_of(words)) for words in NOT_PRODUCTS] == expected

    @pytest.mark.parametrize("factors", [(2, 2, 3), (2,) * 4, (3, 4), (7,)])
    def test_product_iso_check_against_the_search(self, factors):
        entry, code = relabelled_code(factors, 5)
        up = code_poset(code).up
        isos = {iso.forward for iso in poset_isomorphisms(natural_order(entry), Poset(code.words))}
        rng = random.Random(6)
        maps = list(isos)
        for _ in range(40):
            forward = list(maps[0])
            i, j = rng.sample(range(entry.k), 2)
            forward[i], forward[j] = forward[j], forward[i]
            maps.append(tuple(forward))
        for forward in maps:
            assert (_product_masks(factors, forward)[0] == up) == (forward in isos)

    def test_two_to_the_seventh_lists_every_map(self):
        entry, code = relabelled_code((2,) * 7, 1)
        results = attach_wajsberg(code, all_matches=True)
        forwards = [r.iso.forward for r in results]
        assert len(forwards) == 5040 == len(set(forwards))
        assert forwards == sorted(forwards)
        assert all(r.algebra == results[0].algebra for r in results)
        source, target = natural_order(entry).up, code_poset(code).up
        for forward in forwards[::97]:
            def image(mask):
                return sum(1 << forward[y] for y in range(128) if mask >> y & 1)

            assert all(image(source[x]) == target[forward[x]] for x in range(128))


class TestEmbedding:
    def test_five_word_triple_code(self):
        result = embed_code(code_of(CODE_TRIPLE))
        assert result.q == 6
        assert result.factors == (2, 3)
        assert result.columns == (2, 3, 4)
        assert result.host.circ.rows == SIX_IMPL
        assert result.restriction.word_strings() == (
            "111",
            "011",
            "101",
            "010",
            "001",
            "000",
        )

    def test_single_all_ones_word(self):
        result = embed_code(code_of(("1",)))
        assert result.q == 1
        assert result.host.circ.rows == ((0,),)

    def test_pair_code_has_small_host_by_default(self):
        result = embed_code(code_of(CODE_PAIR))
        assert result.q == 4
        assert result.factors == (2, 2)
        assert set(code_of(CODE_PAIR).words) <= set(result.restriction.words)

    def test_pair_code_hosts_at_orders_six_and_eight(self):
        results = embed_code(code_of(CODE_PAIR), max_order=8, all_matches=True)
        orders = {r.q for r in results}
        assert {6, 8} <= orders

    def test_every_match_covers_the_input(self):
        for result in embed_code(code_of(CODE_PAIR), max_order=8, all_matches=True):
            assert set(code_of(CODE_PAIR).words) <= set(result.restriction.words)
            # restriction really is the host's code cut down to the columns
            host_words = code_from_algebra(result.host).words
            restricted = []
            for w in host_words:
                r = tuple(w[c] for c in result.columns)
                if r not in restricted:
                    restricted.append(r)
            assert tuple(restricted) == result.restriction.words

    def test_exhausted_search_raises(self):
        with pytest.raises(NoEmbeddingFound) as exc:
            embed_code(code_of(("01", "10")), max_order=3)
        assert exc.value.max_order == 3

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_unit_vector_codes_exhaust_quickly(self, m):
        # a scan of every injective column tuple needs minutes at m = 8
        code = BlockCode(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))
        with pytest.raises(NoEmbeddingFound) as exc:
            embed_code(code)
        assert exc.value.max_order == m + 4


def scan_columns(words, want, m):
    """Reference: every injective column tuple, kept when it covers ``want``."""
    q = len(words[0])
    return [
        cols
        for cols in permutations(range(q), m)
        if want <= {tuple(w[c] for c in cols) for w in words}
    ]


def scan_embed(code, max_order):
    """Reference for ``embed_code(code, max_order, all_matches=True)``."""
    want = set(code.words)
    results = []
    for q in range(max(code.length, code.size), max_order + 1):
        for entry in enumerate_wajsberg(q):
            words = code_from_algebra(entry.algebra).words
            for cols in scan_columns(words, want, code.length):
                results.append(_canonical_embedding(entry, cols, set(map(bytes, want))))
    return results


@st.composite
def host_and_wanted_words(draw):
    """A catalog entry of order <= 8 and a word set: part of its restriction
    to some column tuple, sometimes with one arbitrary word added."""
    q = draw(st.integers(1, 8))
    entry = draw(st.sampled_from(enumerate_wajsberg(q)))
    m = draw(st.integers(1, min(q, 5)))
    cols = draw(st.permutations(range(q)))[:m]
    words = code_from_algebra(entry.algebra).words
    restricted = sorted({tuple(w[c] for c in cols) for w in words})
    want = set(draw(st.lists(st.sampled_from(restricted), min_size=1, unique=True)))
    if draw(st.booleans()):
        want.add(tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))))
    return entry, m, want


@settings(max_examples=15, deadline=None)
@given(host_and_wanted_words())
def test_pruned_search_matches_full_scan(case):
    entry, m, want = case
    words = code_from_algebra(entry.algebra).words
    assert list(_covering_columns(_masks(zip(*words)), want, m)) == scan_columns(words, want, m)

    code = BlockCode(tuple(sorted(want, reverse=True)))
    max_order = max(entry.order, code.size)
    expected = scan_embed(code, max_order)
    if expected:
        assert embed_code(code, max_order=max_order, all_matches=True) == expected
    else:
        with pytest.raises(NoEmbeddingFound):
            embed_code(code, max_order=max_order, all_matches=True)


def test_search_matches_full_scan_on_short_codes():
    # every word set of length m <= 3 and a sample of length 4, against every
    # catalog entry of order m..6
    rng = random.Random(4)
    for m in range(5):
        words = list(product((0, 1), repeat=m))
        if m < 4:
            wants = [set(ws) for r in range(1, len(words) + 1) for ws in combinations(words, r)]
        else:
            wants = [set(rng.sample(words, rng.randint(1, 7))) for _ in range(60)]
        for q in range(max(m, 1), 7):
            for entry in enumerate_wajsberg(q):
                host = code_from_algebra(entry.algebra).words
                ones = _masks(zip(*host))
                for want in wants:
                    assert list(_covering_columns(ones, want, m)) == scan_columns(host, want, m), (entry, want)


def random_poset(rng, k):
    """The transitive closure of random edges that all go up one random
    linear order of k elements."""
    rank = rng.sample(range(k), k)
    leq = [[x == y or (rank[x] < rank[y] and rng.random() < 0.4) for y in range(k)] for x in range(k)]
    for z, x, y in product(range(k), repeat=3):
        leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
    return Poset(tuple(map(tuple, leq)))


def test_covering_columns_of_a_poset_are_its_isomorphisms():
    # covering tuples of the source's rows in the target's down masks are the
    # forward maps of poset_isomorphisms, in the same order; half the targets
    # relabel the source, so most of those pairs have an isomorphism
    rng = random.Random(34)
    isomorphic = 0
    for _ in range(400):
        k = rng.randint(0, 5)
        source = random_poset(rng, k)
        if rng.random() < 0.5:
            target = random_poset(rng, k)
        else:
            inv = rng.sample(range(k), k)
            target = Poset(tuple(tuple(source.leq[inv[a]][inv[b]] for b in range(k)) for a in range(k)))
        forwards = [iso.forward for iso in poset_isomorphisms(source, target)]
        assert list(_covering_columns(target.down, set(source._rows), k)) == forwards, (source.leq, target.leq)
        isomorphic += bool(forwards)
    assert isomorphic > 200


def test_invariant_checks_survive_optimised_mode():
    # attach re-derives the code from the transported algebra; a wrong
    # regeneration must be reported even when python -O strips asserts
    script = textwrap.dedent(
        """
        import mvcodes.attach as attach
        from mvcodes import BlockCode

        attach.code_from_algebra = lambda algebra: BlockCode(((1, 0), (1, 1)))
        try:
            attach.attach_wajsberg(BlockCode.from_strings(("11", "01")))
        except RuntimeError as exc:
            print(f"debug={__debug__} raised: {exc}")
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
    assert proc.stdout.startswith("debug=False raised: ")


class TestClosedFormEmbedding:
    def test_product_masks_are_the_natural_order(self):
        every = [(1,)] + [f for q in range(2, 65) for f in [(q,)] + factorizations(q)]
        for factors in every + [(2, 3, 43)]:  # 258 elements: tuple rows
            order = natural_order(_fold_product(factors))
            assert _product_masks(factors) == (order.up, order.down), factors

    @pytest.mark.parametrize(
        "factors, want",
        [
            ((2, 3), {(1, 0, 1)}),  # one wanted word
            ((1,), {(1,)}),  # q = 1
            ((2, 2, 2), {(1, 1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 0), (0, 0, 0)}),
            ((2, 4), {(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0), (1, 1, 0)}),
            ((3, 3), {(0, 1, 0), (1, 1, 1), (0, 0, 1)}),
            ((6,), {(1, 0), (0, 1)}),  # a chain's columns are nested: no tuple has both
        ],
    )
    def test_packed_search_matches_full_scan(self, factors, want):
        words = code_from_algebra(_fold_product(factors)).words
        m = len(next(iter(want)))
        found = list(_covering_columns(_product_masks(factors)[1], want, m))
        assert found == scan_columns(words, want, m)

    def test_embed_refuses_oversized_orders_like_enumerate(self, monkeypatch):
        # orders 2 and 3 fit 9 cells and hold no host; order 4 does not fit
        monkeypatch.setattr(catalog, "MAX_CATALOG_CELLS", 9)
        with pytest.raises(InvalidSize) as expected:
            enumerate_wajsberg(4)

        def never(*args):
            raise AssertionError("built a table")

        monkeypatch.setattr(mvcodes.attach, "_fold_product", never)
        monkeypatch.setattr(catalog, "_fold_product", never)
        with pytest.raises(InvalidSize) as exc:
            embed_code(code_of(("01", "10")))
        assert str(exc.value) == str(expected.value)

    def test_hosts_are_built_only_on_a_hit(self, monkeypatch):
        built = []
        monkeypatch.setattr(mvcodes.attach, "_fold_product", lambda f: built.append(f) or _fold_product(f))
        embed_code(code_of(CODE_PAIR), max_order=8, all_matches=True)
        hosts = {r.factors for r in scan_embed(code_of(CODE_PAIR), 8)}
        assert sorted(built) == sorted(hosts)
        with pytest.raises(NoEmbeddingFound):
            embed_code(code_of(("01", "10")), max_order=3)
        assert len(built) == len(hosts)


def test_embed_invariant_survives_optimised_mode():
    # embed reads each restriction off the code of the host it returns; one
    # that misses a wanted word must be reported even when python -O strips
    # asserts
    script = textwrap.dedent(
        """
        import mvcodes.attach as attach
        from mvcodes import BlockCode

        attach.code_from_algebra = lambda algebra: BlockCode(((0,),))
        try:
            attach.embed_code(BlockCode.from_strings(("1",)), max_order=2)
        except RuntimeError as exc:
            print(f"debug={__debug__} raised: {exc}")
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
    assert proc.stdout.startswith("debug=False raised: ")


@pytest.mark.parametrize("max_order", [0, 2])
def test_max_order_below_the_code_size_finds_nothing(max_order):
    with pytest.raises(NoEmbeddingFound) as exc:
        embed_code(code_of(["00", "01", "11"]), max_order=max_order)
    assert exc.value.max_order == max_order


def test_columns_that_miss_a_wanted_word_raise():
    # the 3-chain's code restricted to columns (0, 1) has 3 of the 4 words
    (entry,) = enumerate_wajsberg(3)
    want = {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(RuntimeError, match=r"^columns \(0, 1\) of host \(3,\) do not cover the code$"):
        _canonical_embedding(entry, (0, 1), set(map(bytes, want)))


def test_restrictions_are_the_returned_hosts_codes_at_their_columns():
    # every hit's restriction: the distinct words of its host's code cut to
    # its columns, in host order
    hits = 0
    for m, want in short_word_sets():
        if m > 3:
            break
        try:
            results = embed_code(BlockCode(tuple(sorted(want, reverse=True))), max_order=8, all_matches=True)
        except NoEmbeddingFound:
            continue
        for r in results:
            cut = [tuple(w[c] for c in r.columns) for w in code_from_algebra(r.host).words]
            assert r.restriction.words == tuple(dict.fromkeys(cut)), (want, r.factors, r.columns)
        hits += len(results)
    assert hits > 1000


def short_word_sets():
    """Every word set of length m <= 3, then 30 random sets each of length 4
    and 5, as (m, set of word tuples)."""
    rng = random.Random(28)
    for m in range(6):
        words = list(product((0, 1), repeat=m))
        if m < 4:
            yield from ((m, set(ws)) for r in range(1, len(words) + 1) for ws in combinations(words, r))
        else:
            yield from ((m, set(rng.sample(words, rng.randint(1, 7)))) for _ in range(30))


def rejects(want, m, factors, limit):
    """Whether embed's bounds skip the catalog entry of ``factors``."""
    size, width = _closure_bounds(want, m, limit)
    return prod(factors) < size or _product_width(factors) < width


class TestClosureBounds:
    def test_product_width_is_the_largest_antichain(self):
        for q in range(1, 11):
            for factors in catalog._order_types(q):
                up, down = _product_masks(factors)
                comparable = [u | d for u, d in zip(up, down)]
                # a subset s is an antichain when each member x meets s only in x
                antichains = [
                    s for s in range(1, 1 << q) if all(comparable[x] & s == 1 << x for x in range(q) if s >> x & 1)
                ]
                assert _product_width(factors) == max(map(int.bit_count, antichains)), factors

    def test_rejected_entries_have_no_covering_columns(self):
        # every entry of order <= 8 that the bounds reject yields no tuple
        entries = [(q, f, _product_masks(f)[1]) for q in range(1, 9) for f in catalog._order_types(q)]
        rejected = 0
        for m, want in short_word_sets():
            for q, factors, down in entries:
                if q >= m and rejects(want, m, factors, 8):
                    rejected += 1
                    assert next(_covering_columns(down, want, m), None) is None, (factors, want)
        assert rejected > 1000

    @pytest.mark.parametrize("lengths, extra", [((0, 1, 2, 3), 2), ((4, 5), 1)])
    def test_skipping_search_matches_full_scan(self, lengths, extra):
        for m, want in short_word_sets():
            if m in lengths:
                code = BlockCode(tuple(sorted(want, reverse=True)))
                max_order = min(8, max(m, code.size) + extra)
                expected = scan_embed(code, max_order)
                if expected:
                    assert embed_code(code, max_order=max_order, all_matches=True) == expected, want
                else:
                    with pytest.raises(NoEmbeddingFound):
                        embed_code(code, max_order=max_order, all_matches=True)

    @pytest.mark.parametrize(
        "words, max_order",
        [
            (["1000", "0100", "0010", "0001"], 8),
            (["10000", "01000", "00100", "00010", "00001"], 9),
            (["11000", "01100", "00110", "00011", "10001"], 9),  # weight-2 antichain
            (["1100", "0110", "0011", "1001"], 8),
            (["1100", "0110", "0011", "1001", "1010"], 9),
        ],
    )
    def test_exhausted_shapes_search_nothing(self, monkeypatch, tmp_path, words, max_order):
        calls = []
        monkeypatch.setattr(mvcodes.attach, "_covering_columns", lambda *args: calls.append(args) or iter(()))
        with pytest.raises(NoEmbeddingFound) as exc:
            embed_code(code_of(words))
        assert exc.value.max_order == max_order
        path = tmp_path / "code.txt"
        path.write_text(format_code(code_of(words)))
        out, err = io.StringIO(), io.StringIO()
        assert mvcodes.cli.run(["embed", str(path)], out=out, err=err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"no embedding found up to order {max_order}\n")
        assert calls == []

    def test_wide_closure_ends_the_search_at_once(self):
        # 10 words with one 0 each: closure 1,024 words, width 252
        code = code_of(["1" * i + "0" + "1" * (9 - i) for i in range(10)])
        assert _closure_bounds(set(code.words), 10, 1 << 10) == (1024, 252)
        start = time.perf_counter()
        with pytest.raises(NoEmbeddingFound) as exc:
            embed_code(code, max_order=60)
        assert time.perf_counter() - start < 1
        assert exc.value.max_order == 60


@settings(max_examples=30, deadline=None)
@given(host_and_wanted_words())
def test_closure_bounds_keep_the_drawn_host(case):
    # the drawn entry hosts the words cut from it; an added word may break that
    entry, m, want = case
    down = _product_masks(entry.factors)[1]
    if next(_covering_columns(down, want, m), None) is not None:
        assert not rejects(want, m, entry.factors, entry.order)
