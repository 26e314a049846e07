"""Code generation, the codeword order, distances, and skeletons."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mvcodes import (
    BckAlgebra,
    BlockCode,
    CayleyTable,
    DuplicateWord,
    MvAlgebra,
    LengthMismatch,
    MalformedTable,
    TooFewWords,
    chain_wajsberg,
    code_equivalent,
    code_from_algebra,
    code_poset,
    codeword_leq,
    cut_subset,
    distance_D,
    embed_code,
    evaluate_axiom,
    format_code,
    hamming,
    min_hamming_distance,
    mv_derived_ops,
    mv_sum_indicator,
    natural_order,
    parse_code,
    Skeleton,
    skeleton,
    bck_to_mv,
    mv_to_bck,
    mv_to_wajsberg,
    wajsberg_to_mv,
)

from conftest import (
    CODE_PAIR,
    CODE_PROD23,
    CODE_SIX,
    PROD23,
    catalog_upto,
    code_of,
    wajsberg_from_table,
)

SIX_SKELETON = "\n".join(
    [
        "######",
        ".#.###",
        "..#.##",
        "...#.#",
        "....##",
        ".....#",
    ]
)


def oracle_leq(algebra, x, y):
    """x <= y written out per presentation: x*y = 0, x'+y = 1, x->y = 1."""
    if isinstance(algebra, BckAlgebra):
        return algebra.star(x, y) == algebra.zero
    if isinstance(algebra, MvAlgebra):
        return algebra.plus(algebra.neg(x), y) == algebra.one
    return algebra.imp(x, y) == algebra.one


class TestCutSubsets:
    def test_middle_element(self, six_wajsberg):
        assert cut_subset(six_wajsberg, 1) == {1, 3, 4, 5}

    def test_bottom_cuts_everything(self, six_wajsberg):
        assert cut_subset(six_wajsberg, 0) == set(range(6))

    def test_top_cuts_itself(self, six_wajsberg):
        assert cut_subset(six_wajsberg, 5) == {5}

    def test_agrees_with_up_sets(self):
        for _, _, algebra in catalog_upto(8):
            poset = natural_order(algebra)
            for r in range(algebra.k):
                assert cut_subset(algebra, r) == poset.up_set(r)

    def test_order_readers_match_per_kind_formulas(self):
        for _, _, wajsberg in catalog_upto(12):
            mv = wajsberg_to_mv(wajsberg)
            for algebra in (wajsberg, mv, mv_to_bck(mv)):
                k = algebra.k
                cuts = [
                    frozenset(y for y in range(k) if oracle_leq(algebra, x, y))
                    for x in range(k)
                ]
                assert [cut_subset(algebra, x) for x in range(k)] == cuts
                rows = tuple(tuple(y in cut for y in range(k)) for cut in cuts)
                assert natural_order(algebra).leq == rows
                assert code_from_algebra(algebra).words == rows
                for r in range(k):
                    for s in range(k):
                        assert distance_D(algebra, r, s) == len(cuts[r] ^ cuts[s])

    def test_unverified_table_still_gives_sets(self):
        # the table of test_garbage_table_raises: natural_order rejects it
        garbage = BckAlgebra(CayleyTable(((0, 0, 0), (0, 0, 0), (2, 2, 0))), 0, 2)
        assert cut_subset(garbage, 0) == cut_subset(garbage, 1) == {0, 1, 2}
        with pytest.raises(DuplicateWord):
            code_from_algebra(garbage)


class TestCodeFromAlgebra:
    def test_six_example_words(self, six_bck, six_mv, six_wajsberg):
        for algebra in (six_bck, six_mv, six_wajsberg):
            assert code_from_algebra(algebra).word_strings() == CODE_SIX

    def test_two_element_chain(self):
        assert code_from_algebra(chain_wajsberg(2)).word_strings() == ("11", "01")

    def test_product_code(self):
        words = code_from_algebra(wajsberg_from_table(PROD23)).word_strings()
        assert words == CODE_PROD23

    def test_generated_codes_come_out_sorted(self):
        # carrier order of a catalog algebra lists words in descending
        # lexicographic order
        for _, _, algebra in catalog_upto(12):
            code = code_from_algebra(algebra)
            assert code.words == code.sorted_desc().words


class TestCodeEquivalence:
    def test_across_presentations(self, six_bck):
        mv = bck_to_mv(six_bck)
        assert code_equivalent(six_bck, mv)
        assert code_equivalent(six_bck, mv_to_wajsberg(mv))

    def test_reflexive(self, six_wajsberg):
        assert code_equivalent(six_wajsberg, six_wajsberg)

    def test_different_order_types_differ(self, six_wajsberg):
        assert not code_equivalent(six_wajsberg, wajsberg_from_table(PROD23))


class TestCodewordOrder:
    def test_all_ones_is_least(self):
        assert codeword_leq((1, 1, 1, 1, 1, 1), (0, 1, 0, 1, 1, 1))

    def test_reflexive(self):
        w = (0, 1, 0, 1, 1, 1)
        assert codeword_leq(w, w)

    def test_incomparable_pair(self):
        assert not codeword_leq((0, 1, 0, 1, 1, 1), (0, 0, 1, 0, 1, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            codeword_leq((0, 1), (0, 1, 1))


class TestCodePoset:
    def test_six_example_pairs(self):
        poset = code_poset(code_of(CODE_SIX))
        middle = {(x, y) for (x, y) in poset.strict_pairs() if x != 0 and y != 5}
        assert middle == {(1, 3), (1, 4), (2, 4)}

    def test_product_code_pairs(self):
        poset = code_poset(code_of(CODE_PROD23))
        middle = {(x, y) for (x, y) in poset.strict_pairs() if x != 0 and y != 5}
        assert middle == {(1, 2), (3, 4), (1, 4)}

    def test_singleton(self):
        assert code_poset(code_of(("1",))).k == 1

    def test_order_isomorphic_to_algebra(self):
        for _, _, algebra in catalog_upto(12):
            assert natural_order(algebra).leq == code_poset(code_from_algebra(algebra)).leq


class TestBlockCode:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateWord):
            code_of(("01", "01"))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            code_of(("01", "011"))

    def test_non_binary_string_rejected(self):
        # the strings reach __post_init__ as they are; its int() pass reads them
        assert code_of(("10", "01")).words == ((1, 0), (0, 1))
        with pytest.raises(MalformedTable, match=r"non-binary word: \(0, 1, 2\)"):
            code_of(("012", "110"))
        with pytest.raises(ValueError, match="invalid literal"):
            code_of(("0a", "11"))


def old_block_code_words(words):
    """The ``BlockCode`` constructor body before its ``bytes`` test: the
    words it stores, or the exception it raises."""
    words = tuple(tuple(map(int, w)) for w in words)
    if not words:
        raise MalformedTable("a block code needs at least one word")
    n = len(words[0])
    for w in words:
        if len(w) != n:
            raise LengthMismatch(f"word lengths differ: {len(w)} vs {n}")
        if not set(w) <= {0, 1}:
            raise MalformedTable(f"non-binary word: {w}")
    if len(set(words)) != len(words):
        raise DuplicateWord("repeated codeword")
    return words


def outcome(build, words):
    try:
        return build(words)
    except Exception as exc:
        return type(exc), str(exc)


ODD_CHARS = ("0", "1", "\x00", "\x01", "\uff10", "\uff11", " ", "2", "a")
ODD_ENTRIES = (0, 1, True, False, 0.0, 1.0, 2, -1, 256, 1.5)
entries = st.one_of(
    st.lists(st.sampled_from(ODD_CHARS), max_size=4).map("".join),
    st.lists(st.sampled_from(ODD_ENTRIES), max_size=4).map(tuple),
    st.lists(st.integers(0, 1), min_size=3, max_size=3).map(tuple),
    st.lists(st.sampled_from("01"), min_size=3, max_size=3).map("".join),
)


class TestBlockCodeFastPath:
    @given(st.lists(entries, max_size=5))
    def test_matches_the_int_walk(self, words):
        assert outcome(lambda w: BlockCode(w).words, words) == outcome(old_block_code_words, words)

    @pytest.mark.parametrize(
        "words",
        [
            ("\x01\x00", "\x00\x01"),
            ("\uff11\uff10", "01"),
            (" 1", "01"),
            ((1.0, 0.0), (0, 1)),
            ((True, False), (0, 1)),
            ((2, 0), (0, 1)),
            ((-1, 0), (0, 1)),
            ((256, 0), (0, 1)),
            ("01", "0"),
            ("10", (1, 0)),
            ("", ""),
            ("",),
            (),
            (b"\x01\x00", b"\x00\x01"),
            (b"10", b"01"),
            ([1, 0], "01"),
        ],
    )
    def test_awkward_words(self, words):
        assert outcome(lambda w: BlockCode(w).words, words) == outcome(old_block_code_words, words)

    def test_generator_words_are_read_once(self):
        assert BlockCode((iter((1, 0)), iter((0, 1)))).words == ((1, 0), (0, 1))

    def test_package_codes_take_the_fast_test(self, monkeypatch):
        # every package builder hands BlockCode ``bytes`` words
        algebra = chain_wajsberg(5)
        text = format_code(code_from_algebra(algebra))
        pair = code_of(CODE_PAIR)
        types = []
        init = BlockCode.__post_init__

        def record(code):
            types.extend(map(type, code.words))
            init(code)

        monkeypatch.setattr(BlockCode, "__post_init__", record)
        builds = {
            "parse_code": lambda: parse_code(text),
            "code_from_algebra": lambda: code_from_algebra(algebra),
            "embed": lambda: embed_code(pair),
            "embed --all": lambda: embed_code(pair, max_order=6, all_matches=True),
        }
        seen = {}
        for name, build in builds.items():
            types.clear()
            build()
            seen[name] = set(types)
        assert seen == dict.fromkeys(builds, {bytes})


class TestDistance:
    def test_self_distance_zero(self, six_wajsberg):
        assert all(distance_D(six_wajsberg, r, r) == 0 for r in range(6))

    def test_middle_pair(self, six_wajsberg):
        assert distance_D(six_wajsberg, 1, 2) == 3

    def test_distance_to_bottom_counts_missing_elements(self, six_wajsberg):
        # cut(1) has four elements out of six; the bottom cuts all six
        assert distance_D(six_wajsberg, 1, 0) == 2
        for r in range(6):
            assert distance_D(six_wajsberg, r, 0) == 6 - len(cut_subset(six_wajsberg, r))
            assert distance_D(six_wajsberg, r, 5) == len(cut_subset(six_wajsberg, r)) - 1

    def test_equals_hamming_distance(self):
        for _, _, algebra in catalog_upto(8):
            words = code_from_algebra(algebra).words
            for r in range(algebra.k):
                for s in range(algebra.k):
                    assert distance_D(algebra, r, s) == hamming(words[r], words[s])

    def test_separation_and_triangle(self):
        for _, _, algebra in catalog_upto(8):
            k = algebra.k
            for r in range(k):
                for s in range(k):
                    d = distance_D(algebra, r, s)
                    assert (d == 0) == (r == s)
                    for t in range(k):
                        assert d <= distance_D(algebra, r, t) + distance_D(algebra, t, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: evaluate_axiom(w, "w1", (-1,)),
        lambda w: evaluate_axiom(w, "w1", (4,)),
        lambda w: evaluate_axiom(w, "w2", (0, 4, 1)),
        lambda w: cut_subset(w, -1),
        lambda w: cut_subset(w, 4),
        lambda w: distance_D(w, 0, -1),
        lambda w: distance_D(w, 4, 0),
    ],
    ids=["axiom-(-1)", "axiom-(4)", "axiom-(0,4,1)", "cut-(-1)", "cut-(4)", "distance-(0,-1)", "distance-(4,0)"],
)
def test_element_outside_carrier_rejected(call):
    # -1 would silently read element k-1 and k would raise IndexError
    with pytest.raises(ValueError, match=r"\[0,4\)"):
        call(chain_wajsberg(4))


class TestMinHamming:
    def test_six_example(self):
        assert min_hamming_distance(code_of(CODE_SIX)) == 1

    def test_two_complementary_words(self):
        assert min_hamming_distance(code_of(("00", "11"))) == 2

    def test_chains(self):
        for k in range(2, 9):
            assert min_hamming_distance(code_from_algebra(chain_wajsberg(k))) == 1

    def test_too_few_words(self):
        with pytest.raises(TooFewWords):
            min_hamming_distance(code_of(("1",)))

    @given(
        st.integers(1, 12).flatmap(
            lambda m: st.lists(
                st.tuples(*[st.integers(0, 1)] * m), min_size=2, max_size=24, unique=True
            )
        )
    )
    def test_matches_pairwise_hamming(self, words):
        expected = min(hamming(a, b) for a, b in combinations(words, 2))
        assert min_hamming_distance(BlockCode(tuple(words))) == expected


class TestSkeleton:
    def test_six_example_render(self, six_bck, six_wajsberg):
        assert skeleton(six_bck).render() == SIX_SKELETON
        assert skeleton(six_wajsberg).render() == SIX_SKELETON

    def test_one_element(self):
        assert skeleton(chain_wajsberg(1)).render() == "#"

    @pytest.mark.parametrize("k", [1, 2, 64, 257])
    def test_marks_and_render_match_cell_by_cell(self, k):
        rng = random.Random(k)
        cells = [[rng.choice((0, 1, 2, True, False, None)) for _ in range(k)] for _ in range(k)]
        marks = Skeleton(cells)
        assert marks.black == tuple(tuple(bool(v) for v in row) for row in cells)
        assert all(type(v) is bool for row in marks.black for v in row)
        assert marks.render() == "\n".join("".join("#" if v else "." for v in row) for row in cells)
        assert skeleton(chain_wajsberg(k)).render() == "\n".join("." * x + "#" * (k - x) for x in range(k))

    def test_mv_indicator_is_reversed_skeleton(self, six_bck):
        mv = bck_to_mv(six_bck)
        indicator = mv_sum_indicator(mv)
        reversed_rows = tuple(reversed(skeleton(mv).black))
        assert indicator.black == reversed_rows

    def test_mv_indicator_is_complement_permuted_skeleton(self):
        from mvcodes import wajsberg_to_mv

        for _, _, algebra in catalog_upto(8):
            mv = wajsberg_to_mv(algebra)
            assert mv_sum_indicator(mv).black == skeleton(mv).permute_rows(mv.complement).black


class TestOrderProperties:
    def test_code_map_is_order_isomorphism(self):
        for _, _, algebra in catalog_upto(12):
            words = code_from_algebra(algebra).words
            assert len(set(words)) == algebra.k
            order = natural_order(algebra)
            for r in range(algebra.k):
                for s in range(algebra.k):
                    assert order.leq[r][s] == codeword_leq(words[r], words[s])

    def test_monotone_cuts_and_converse(self):
        for _, _, algebra in catalog_upto(8):
            order = natural_order(algebra)
            for r in range(algebra.k):
                for s in range(algebra.k):
                    contains = cut_subset(algebra, s) <= cut_subset(algebra, r)
                    assert order.leq[r][s] == contains

    def test_element_is_maximum_of_its_cutters(self):
        for _, _, algebra in catalog_upto(8):
            order = natural_order(algebra)
            for x in range(algebra.k):
                cutters = [r for r in range(algebra.k) if x in cut_subset(algebra, r)]
                assert x in cutters
                assert all(order.leq[r][x] for r in cutters)

    def test_cut_closure_under_mv_product(self):
        from mvcodes import wajsberg_to_mv

        for _, _, algebra in catalog_upto(8):
            mv = wajsberg_to_mv(algebra)
            odot, _ = mv_derived_ops(mv)
            for r in range(mv.k):
                for s in range(mv.k):
                    union = cut_subset(mv, r) | cut_subset(mv, s)
                    assert union <= cut_subset(mv, odot.rows[r][s])


@pytest.mark.parametrize("wx, wy", [((0, 1), (0,)), ((1,), (1, 0))])
def test_hamming_of_different_lengths_rejected(wx, wy):
    with pytest.raises(LengthMismatch, match=rf"^word lengths differ: {len(wx)} vs {len(wy)}$"):
        hamming(wx, wy)
