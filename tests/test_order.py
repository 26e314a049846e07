"""Poset validation and the order-isomorphism backtracking search."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mvcodes import (
    BlockCode,
    NotAPoset,
    NotAnOrderIso,
    OrderIso,
    Poset,
    SizeMismatch,
    chain_wajsberg,
    code_poset,
    codeword_leq,
    natural_order,
    poset_isomorphism,
    poset_isomorphisms,
    product_wajsberg,
)

from conftest import PROD23, SIX_IMPL, catalog_upto, wajsberg_from_table


def poset_of(rows):
    return natural_order(wajsberg_from_table(rows))


def triple_loop_violation(leq):
    """The order-law check on bool rows, kept as the oracle of the bitmask one."""
    k = len(leq)
    for x in range(k):
        if not leq[x][x]:
            return ("reflexivity", (x,))
    for x in range(k):
        for y in range(k):
            if x != y and leq[x][y] and leq[y][x]:
                return ("antisymmetry", (x, y))
    for x in range(k):
        for y in range(k):
            if not leq[x][y]:
                continue
            for z in range(k):
                if leq[y][z] and not leq[x][z]:
                    return ("transitivity", (x, y, z))
    return None


def verdict(rows):
    """``(law, witness)`` of the NotAPoset that Poset raises, or None."""
    try:
        Poset(rows)
    except NotAPoset as exc:
        return (exc.law, exc.witness)
    return None


def flip(rows, i, j):
    rows = [list(row) for row in rows]
    rows[i][j] = not rows[i][j]
    return rows


@st.composite
def near_orders(draw):
    """A random order on k <= 10 elements with 0-2 cells flipped."""
    k = draw(st.integers(1, 10))
    rank = draw(st.permutations(range(k)))
    leq = [[x == y for y in range(k)] for x in range(k)]
    for x, y in product(range(k), repeat=2):
        if rank[x] < rank[y] and draw(st.booleans()):
            leq[x][y] = True
    for z, x, y in product(range(k), repeat=3):  # transitive closure
        leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
    for _ in range(draw(st.integers(0, 2))):
        leq = flip(leq, draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)))
    return leq


class TestPoset:
    def test_reflexivity_enforced(self):
        with pytest.raises(NotAPoset) as exc:
            Poset(((False, True), (False, True)))
        assert exc.value.law == "reflexivity"
        assert exc.value.witness == (0,)

    def test_antisymmetry_enforced(self):
        with pytest.raises(NotAPoset) as exc:
            Poset(((True, True), (True, True)))
        assert exc.value.law == "antisymmetry"

    def test_transitivity_enforced(self):
        rows = (
            (True, True, False),
            (False, True, True),
            (False, False, True),
        )
        with pytest.raises(NotAPoset) as exc:
            Poset(rows)
        assert exc.value.law == "transitivity"
        assert exc.value.witness == (0, 1, 2)

    def test_bounds_and_up_sets(self):
        p = poset_of(PROD23)
        assert p.bottom == 0
        assert p.top == 5
        assert p.up_set(1) == {1, 2, 4, 5}
        assert p.down_set(4) == {0, 1, 3, 4}
        assert not p.is_total()

    def test_chain_is_total(self):
        assert natural_order(chain_wajsberg(5)).is_total()


class TestOrderIso:
    def test_rejects_non_permutation(self):
        with pytest.raises(NotAnOrderIso):
            OrderIso((0, 0, 1))

    def test_inverse(self):
        iso = OrderIso((2, 0, 1))
        assert iso.inverse == (1, 2, 0)
        assert iso(0) == 2


class TestPosetIsomorphism:
    def test_expected_relabelling_found_first(self):
        iso = poset_isomorphism(poset_of(PROD23), poset_of(SIX_IMPL))
        assert iso is not None
        assert iso.forward == (0, 1, 3, 2, 4, 5)

    def test_identity_on_self(self):
        p = poset_of(PROD23)
        iso = poset_isomorphism(p, p)
        assert iso.forward == (0, 1, 2, 3, 4, 5)

    def test_chain_vs_square_product(self):
        square = natural_order(product_wajsberg(chain_wajsberg(2), chain_wajsberg(2)))
        chain = natural_order(chain_wajsberg(4))
        assert poset_isomorphism(chain, square) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            poset_isomorphism(
                natural_order(chain_wajsberg(2)), natural_order(chain_wajsberg(3))
            )

    def test_isomorphism_preserves_order_both_ways(self):
        source = poset_of(PROD23)
        target = poset_of(SIX_IMPL)
        for iso in poset_isomorphisms(source, target):
            f = iso.forward
            for x in range(source.k):
                for y in range(source.k):
                    assert source.leq[x][y] == target.leq[f[x]][f[y]]

    def test_square_order_has_automorphisms(self):
        p = natural_order(product_wajsberg(chain_wajsberg(2), chain_wajsberg(2)))
        autos = list(poset_isomorphisms(p, p))
        assert len(autos) == 2  # identity and the middle swap
        assert autos[0].forward == (0, 1, 2, 3)

    def test_empty_poset_has_the_empty_isomorphism(self):
        empty = Poset(())
        assert list(poset_isomorphisms(empty, empty)) == [OrderIso(())]
        assert poset_isomorphism(empty, empty) == OrderIso(())
        assert OrderIso(()).inverse == ()


class TestBitmaskCore:
    """The mask-based order core against the bool-row formulas."""

    def test_every_relation_up_to_three_elements(self):
        for k in range(1, 4):
            for cells in product((False, True), repeat=k * k):
                rows = [cells[i : i + k] for i in range(0, k * k, k)]
                assert verdict(rows) == triple_loop_violation(rows)

    @settings(max_examples=200, deadline=None)
    @given(near_orders())
    def test_near_orders(self, rows):
        assert verdict(rows) == triple_loop_violation(rows)

    def test_catalog_orders_and_one_flipped_cell(self):
        rng = random.Random(0)
        for n, _, algebra in catalog_upto(64):
            rows = natural_order(algebra).leq
            assert triple_loop_violation(rows) is None
            flipped = flip(rows, rng.randrange(n), rng.randrange(n))
            assert verdict(flipped) == triple_loop_violation(flipped)

    @settings(max_examples=60, deadline=None)
    @given(near_orders())
    def test_masks_bounds_and_totality_match_rows(self, rows):
        if verdict(rows) is not None:
            return
        p = Poset(rows)
        k = p.k
        assert p.up == tuple(sum(1 << j for j in range(k) if p.leq[x][j]) for x in range(k))
        assert p.down == tuple(sum(1 << j for j in range(k) if p.leq[j][x]) for x in range(k))
        assert p.bottom == next((x for x in range(k) if all(p.leq[x])), None)
        assert p.top == next((x for x in range(k) if all(row[x] for row in p.leq)), None)
        assert p.is_total() == all(p.leq[x][y] or p.leq[y][x] for x in range(k) for y in range(k))
        for x in range(k):
            assert p.up_set(x) == {y for y in range(k) if rows[x][y]}
            assert p.down_set(x) == {y for y in range(k) if rows[y][x]}
        assert p.strict_pairs() == {(x, y) for x in range(k) for y in range(k) if x != y and rows[x][y]}

    def test_masks_take_no_part_in_equality(self):
        p = natural_order(chain_wajsberg(3))
        assert p == Poset(p.leq) and hash(p) == hash(Poset(p.leq))
        assert repr(p) == f"Poset(leq={p.leq!r})"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12)
    ))
    def test_code_poset_matches_pairwise_codeword_order(self, words):
        code = BlockCode(tuple(sorted(words)))
        w = code.words
        expected = tuple(tuple(codeword_leq(a, b) for b in w) for a in w)
        assert code_poset(code).leq == expected


@pytest.mark.parametrize("leq", [((True, False),), ((True,), (True,)), ((True, False), (True,))])
def test_non_square_relation_rejected(leq):
    with pytest.raises(NotAPoset) as exc:
        Poset(leq)
    assert (exc.value.law, exc.value.witness) == ("shape", ())
