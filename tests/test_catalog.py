"""Chains, products, factorization counts, enumeration, and transports."""

import importlib
import random
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, strategies as st

from mvcodes import (
    AxiomReport,
    BlockCode,
    CayleyTable,
    InvalidSize,
    NotAnOrderIso,
    SizeMismatch,
    WajsbergAlgebra,
    bck_to_mv,
    chain_wajsberg,
    code_poset,
    enumerate_wajsberg,
    factorizations,
    mv_derived_ops,
    mv_to_bck,
    mv_to_wajsberg,
    natural_order,
    pi_count,
    poset_isomorphism,
    poset_isomorphisms,
    product_wajsberg,
    transport_structure,
    verify,
    wajsberg_isomorphic,
    wajsberg_isomorphisms,
    wajsberg_to_mv,
)
from mvcodes import catalog
from mvcodes.catalog import _fold_product, _order_types
from mvcodes.order import OrderIso

from conftest import (
    PROD22,
    PROD23,
    PROD24,
    PROD32,
    PROD42,
    PROD222,
    RELABEL_CYCLE3,
    RELABEL_CYCLE4,
    RELABEL_SWAP,
    SIX_CYCLED,
    SIX_IMPL,
    catalog_upto,
    chain_factors,
    wajsberg_from_table,
)

convert_module = importlib.import_module("mvcodes.convert")  # mvcodes.convert is the function


class TestChains:
    def test_two_element_is_classical_implication(self):
        w = chain_wajsberg(2)
        assert w.circ.rows == ((1, 1), (0, 1))
        assert w.negation == (1, 0)

    def test_three_element_middle_self_negating(self):
        assert chain_wajsberg(3).negation[1] == 1

    def test_four_element_swaps_middle_pair(self):
        neg = chain_wajsberg(4).negation
        assert neg[1] == 2 and neg[2] == 1

    def test_verify_and_totality_up_to_sixteen(self):
        for k in range(1, 17):
            w = chain_wajsberg(k)
            assert verify(w).valid
            order = natural_order(w)
            assert order.is_total()
            assert all(order.leq[i][j] == (i <= j) for i in range(k) for j in range(k))

    def test_zero_elements_rejected(self):
        with pytest.raises(InvalidSize):
            chain_wajsberg(0)


class TestChainUniqueness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unique_structure_on_a_total_order(self, k):
        """Exactly one table induces the standard total order and verifies.

        The order condition forces x->y to be the top exactly when x <= y, so
        the search ranges over every assignment of the below-diagonal cells.
        """
        top = k - 1
        below = [(i, j) for i in range(k) for j in range(k) if i > j]
        found = []
        for values in iproduct(range(top), repeat=len(below)):
            rows = [[top if i <= j else None for j in range(k)] for i in range(k)]
            for (i, j), v in zip(below, values):
                rows[i][j] = v
            rows = tuple(tuple(r) for r in rows)
            negation = tuple(rows[i][0] for i in range(k))
            w = WajsbergAlgebra(CayleyTable(rows), negation, top)
            if verify(w).valid:
                found.append(rows)
        assert found == [chain_wajsberg(k).circ.rows]


class TestProducts:
    def test_two_by_three(self):
        w = product_wajsberg(chain_wajsberg(2), chain_wajsberg(3))
        assert w.circ.rows == PROD23

    def test_three_by_two(self):
        w = product_wajsberg(chain_wajsberg(3), chain_wajsberg(2))
        assert w.circ.rows == PROD32

    def test_two_by_two(self):
        w = product_wajsberg(chain_wajsberg(2), chain_wajsberg(2))
        assert w.circ.rows == PROD22

    def test_four_by_two(self):
        w = product_wajsberg(chain_wajsberg(4), chain_wajsberg(2))
        assert w.circ.rows == PROD42

    def test_two_by_four(self):
        w = product_wajsberg(chain_wajsberg(2), chain_wajsberg(4))
        assert w.circ.rows == PROD24

    def test_two_cubed(self):
        w = product_wajsberg(
            product_wajsberg(chain_wajsberg(2), chain_wajsberg(2)), chain_wajsberg(2)
        )
        assert w.circ.rows == PROD222

    def test_unit_factor_is_isomorphic_copy(self):
        w = chain_wajsberg(4)
        left = product_wajsberg(chain_wajsberg(1), w)
        assert left.circ.rows == w.circ.rows

    def test_products_verify_and_order_componentwise(self):
        pairs = [
            (a, b)
            for a in range(1, 9)
            for b in range(1, 9)
            if a * b <= 16
        ]
        for a, b in pairs:
            w = product_wajsberg(chain_wajsberg(a), chain_wajsberg(b))
            assert verify(w).valid
            order = natural_order(w)
            for x1 in range(a):
                for x2 in range(b):
                    for y1 in range(a):
                        for y2 in range(b):
                            expected = x1 <= y1 and x2 <= y2
                            assert order.leq[x1 * b + x2][y1 * b + y2] == expected

    def test_swapped_factors_isomorphic(self):
        pairs = [(a, b) for a in range(2, 9) for b in range(2, 9) if a * b <= 16]
        for a, b in pairs:
            w1 = product_wajsberg(chain_wajsberg(a), chain_wajsberg(b))
            w2 = product_wajsberg(chain_wajsberg(b), chain_wajsberg(a))
            swap = tuple(
                (x % b) * a + (x // b) for x in range(a * b)
            )
            # the coordinate swap is itself an isomorphism
            t1, t2 = w1.circ.rows, w2.circ.rows
            assert all(
                swap[t1[x][y]] == t2[swap[x]][swap[y]]
                for x in range(a * b)
                for y in range(a * b)
            )
            assert wajsberg_isomorphic(w1, w2) is not None


def cellwise_product(w1, w2):
    """Componentwise product on the mixed-radix carrier, cell by cell: the
    oracle of ``_product_rows``, which ``product_wajsberg`` and
    ``_fold_product`` share."""
    k1, k2 = w1.k, w2.k
    t1, t2 = w1.circ.rows, w2.circ.rows
    rows = tuple(
        tuple(t1[a][c] * k2 + t2[b][d] for c in range(k1) for d in range(k2)) for a in range(k1) for b in range(k2)
    )
    negation = tuple(w1.negation[a] * k2 + w2.negation[b] for a in range(k1) for b in range(k2))
    return WajsbergAlgebra(CayleyTable(rows), negation, w1.one * k2 + w2.one)


def assert_same_algebra(got, want, label):
    assert got.circ.rows == want.circ.rows, label
    assert got.negation == want.negation, label
    assert got.one == want.one, label


def closed_chain(k):
    """The k-element chain from its closed form, x->y = min(top, top - x + y),
    cell by cell: no code of the package builds its rows."""
    top = k - 1
    rows = tuple(tuple(min(top, top - x + y) for y in range(k)) for x in range(k))
    return WajsbergAlgebra(CayleyTable(rows), tuple(range(top, -1, -1)), top)


def assert_fold_matches_products(factors):
    folded = chain_wajsberg(factors[0])
    oracle = closed_chain(factors[0])
    for f in factors[1:]:
        folded = product_wajsberg(folded, chain_wajsberg(f))
        oracle = cellwise_product(oracle, closed_chain(f))
    built = _fold_product(factors)
    assert_same_algebra(built, folded, factors)
    assert_same_algebra(built, oracle, factors)


class TestProductStep:
    def test_every_pair_up_to_order_12_matches_cellwise_oracle(self):
        entries = catalog_upto(12)
        for (_, f1, w1), (_, f2, w2) in iproduct(entries, entries):
            assert_same_algebra(product_wajsberg(w1, w2), cellwise_product(w1, w2), (f1, f2))

    def test_tuple_rows_match_cellwise_oracle(self):
        # 3 * 86 = 258 elements: the product is built in tuples of ints
        w1, w2 = chain_wajsberg(3), chain_wajsberg(86)
        assert_same_algebra(product_wajsberg(w1, w2), cellwise_product(w1, w2), (3, 86))

    @pytest.mark.parametrize("factors", [(43, 3, 2), (86, 3)])
    def test_fold_above_256_in_descending_order(self, factors):
        # test_large_products_fold[258] covers the ascending factor tuples, (2, 3, 43) among them
        assert_fold_matches_products(factors)


class TestOnePassProducts:
    def test_chains_match_closed_form_up_to_64(self):
        for k in range(1, 65):
            w = chain_wajsberg(k)
            top = k - 1
            assert w.circ.rows == tuple(
                tuple(top if i <= j else top - i + j for j in range(k)) for i in range(k)
            )
            assert w.negation == tuple(top - i for i in range(k))
            assert w.one == top

    @pytest.mark.parametrize("k", [128, 240, 256, 257, 300])
    def test_large_chains_match_closed_form(self, k):
        # 256 is the largest chain built in bytes; 257 and 300 are built in tuples
        top = k - 1
        assert chain_wajsberg(k).circ.rows == tuple(
            tuple(top if i <= j else top - i + j for j in range(k)) for i in range(k)
        )

    def test_equal_product_folds_up_to_64(self):
        for n in range(4, 65):
            for factors in factorizations(n):
                assert_fold_matches_products(factors)

    @pytest.mark.parametrize("n", [128, 240, 256, 258])
    def test_large_products_fold(self, n):
        # up to 2**8 = 256 the rows are folded in bytes; 2*3*43 = 258 takes the tuple fold;
        # every order type, the chain included, against the closed-form chains' cellwise fold
        for factors in _order_types(n):
            assert_fold_matches_products(factors)


class TestChainFactors:
    def test_read_off_every_entry_up_to_64(self):
        for n in range(1, 65):
            for entry in enumerate_wajsberg(n):
                assert chain_factors(natural_order(entry.algebra)) == entry.factors

    def test_irreducibles_not_disjoint_chains(self):
        # 0 < 1 < {2, 3} < 4: 1 is comparable to 2 and 3, which are not
        words = ("11111", "01111", "00101", "00011", "00001")
        assert chain_factors(code_poset(BlockCode.from_strings(words))) is None

    def test_factor_product_not_the_order(self):
        # 0 < {1, 2, 3} < 4: three one-element chains, but 2 * 2 * 2 != 5
        words = ("11111", "01001", "00101", "00011", "00001")
        assert chain_factors(code_poset(BlockCode.from_strings(words))) is None


def bruteforce_factor_multisets(n):
    """Oracle: collect sorted factor tuples from unconstrained ordered DFS."""
    found = set()

    def walk(rest, acc):
        for d in range(2, rest):
            if rest % d == 0:
                walk(rest // d, acc + [d])
        if len(acc) >= 1 and 2 <= rest < n:
            found.add(tuple(sorted(acc + [rest])))

    walk(n, [])
    return found


class TestFactorizations:
    def test_twelve(self):
        assert factorizations(12) == [(2, 2, 3), (2, 6), (3, 4)]

    def test_prime_has_none(self):
        assert factorizations(5) == []

    def test_eight(self):
        assert set(factorizations(8)) == {(2, 4), (2, 2, 2)}
        assert pi_count(8) == 2

    def test_known_counts(self):
        assert [pi_count(n) for n in (4, 6, 8, 9, 10, 12)] == [1, 1, 2, 1, 1, 3]

    def test_matches_bruteforce_oracle_up_to_64(self):
        for n in range(2, 65):
            result = factorizations(n)
            assert len(set(result)) == len(result)
            assert set(result) == bruteforce_factor_multisets(n)
            assert result == sorted(result)

    def test_rejects_tiny_input(self):
        with pytest.raises(InvalidSize):
            factorizations(1)


class TestEnumeration:
    def test_order_six(self):
        entries = enumerate_wajsberg(6)
        assert [e.factors for e in entries] == [(6,), (2, 3)]

    def test_prime_order_only_chain(self):
        entries = enumerate_wajsberg(7)
        assert len(entries) == 1
        assert natural_order(entries[0].algebra).is_total()

    def test_order_eight(self):
        assert [e.factors for e in enumerate_wajsberg(8)] == [(8,), (2, 2, 2), (2, 4)]

    def test_every_entry_verifies(self):
        for n in range(1, 13):
            for entry in enumerate_wajsberg(n):
                assert verify(entry.algebra).valid

    def test_entries_pairwise_nonisomorphic_orders(self):
        for n in range(1, 13):
            entries = enumerate_wajsberg(n)
            posets = [natural_order(e.algebra) for e in entries]
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    assert poset_isomorphism(posets[i], posets[j]) is None

    def test_count_is_pi_plus_one(self):
        for n in range(2, 13):
            assert len(enumerate_wajsberg(n)) == pi_count(n) + 1

    def test_huge_order_is_refused_before_factoring(self, monkeypatch):
        def never(*args):
            raise AssertionError("built or factored an oversized catalog")

        monkeypatch.setattr(catalog, "factorizations", never)
        monkeypatch.setattr(catalog, "_fold_product", never)
        with pytest.raises(InvalidSize):
            enumerate_wajsberg(10**18)

    def test_cell_bound_counts_every_entry(self, monkeypatch):
        # 1440 fits the bound as a single table but not with its 171 entries;
        # 720 (98 entries, 50.8 M cells) still fits
        monkeypatch.setattr(catalog, "_fold_product", lambda factors: None)
        assert 1440 * 1440 <= catalog.MAX_CATALOG_CELLS
        with pytest.raises(InvalidSize):
            enumerate_wajsberg(1440)
        assert len(enumerate_wajsberg(720)) == 98


class TestTransport:
    def test_swap_produces_six_example(self):
        w = wajsberg_from_table(PROD23)
        assert transport_structure(w, OrderIso(RELABEL_SWAP)).circ.rows == SIX_IMPL

    def test_cycle_produces_cycled_table(self):
        w = wajsberg_from_table(PROD23)
        assert transport_structure(w, OrderIso(RELABEL_CYCLE3)).circ.rows == SIX_CYCLED

    def test_cycle4_produces_swapped_product(self):
        w = wajsberg_from_table(PROD23)
        assert transport_structure(w, OrderIso(RELABEL_CYCLE4)).circ.rows == PROD32

    def test_identity_transport(self):
        w = wajsberg_from_table(PROD23)
        assert transport_structure(w, OrderIso((0, 1, 2, 3, 4, 5))).circ.rows == PROD23

    def test_transport_is_isomorphic_via_the_map(self):
        w = wajsberg_from_table(PROD23)
        for perm in permutations(range(3)):
            full = (0,) + tuple(p + 1 for p in perm) + (4, 5)
            moved = transport_structure(w, OrderIso(full))
            assert verify(moved).valid
            t1, t2 = w.circ.rows, moved.circ.rows
            assert all(
                full[t1[x][y]] == t2[full[x]][full[y]]
                for x in range(6)
                for y in range(6)
            )
            assert wajsberg_isomorphic(w, moved) is not None


@pytest.mark.parametrize("factors", [(2, 4), (2,) * 8, (16, 16), (257,), (1,), (2,) * 6])
def test_transport_matches_cell_formula(factors, monkeypatch):
    # Every derived table is one _relabel call; the per-cell formulas it
    # replaced are the oracles here, in all three presentations. The rows take
    # CayleyTable's fast test in either row format. Verification is tested
    # elsewhere.
    monkeypatch.setattr(convert_module, "verify", lambda algebra: AxiomReport(()))
    w = _fold_product(factors)
    k = w.k
    forward = list(range(k))
    random.Random(k).shuffle(forward)
    f = tuple(forward)
    inv = OrderIso(f).inverse
    t = w.circ.rows
    moved = transport_structure(w, OrderIso(f))
    assert moved.circ.rows == tuple(tuple(f[t[inv[x]][inv[y]]] for y in range(k)) for x in range(k))
    assert moved.negation == tuple(f[w.negation[inv[x]]] for x in range(k))
    assert moved.one == f[w.one]

    t, n = moved.circ.rows, moved.negation
    mv = wajsberg_to_mv(moved)
    assert mv.oplus.rows == tuple(tuple(t[n[x]][y] for y in range(k)) for x in range(k))
    p, c = mv.oplus.rows, mv.complement
    assert mv_to_wajsberg(mv).circ.rows == tuple(tuple(p[c[x]][y] for y in range(k)) for x in range(k)) == t
    odot, ominus = mv_derived_ops(mv)
    assert odot.rows == tuple(tuple(c[p[c[x]][c[y]]] for y in range(k)) for x in range(k))
    assert ominus.rows == tuple(tuple(c[p[c[x]][y]] for y in range(k)) for x in range(k))
    bck = mv_to_bck(mv)
    assert bck.table == ominus
    s, comp = bck.table.rows, bck.table.rows[bck.one]
    assert bck_to_mv(bck).oplus.rows == tuple(tuple(comp[s[comp[x]][y]] for y in range(k)) for x in range(k)) == p


@given(st.integers(1, 10), st.data())
def test_transport_along_random_permutation(n, data):
    entries = enumerate_wajsberg(n)
    entry = data.draw(st.sampled_from(entries))
    perm = tuple(data.draw(st.permutations(list(range(n)))))
    moved = transport_structure(entry.algebra, OrderIso(perm))
    assert verify(moved).valid
    assert wajsberg_isomorphic(entry.algebra, moved) is not None


class TestWajsbergIsomorphism:
    def test_self_isomorphism_is_identity(self):
        w = wajsberg_from_table(PROD23)
        assert wajsberg_isomorphic(w, w) == (0, 1, 2, 3, 4, 5)

    def test_relabelled_tables_isomorphic(self):
        assert (
            wajsberg_isomorphic(
                wajsberg_from_table(PROD23), wajsberg_from_table(SIX_IMPL)
            )
            == RELABEL_SWAP
        )

    def test_cycled_table_still_isomorphic(self):
        # transports along any order bijection stay isomorphic as algebras
        assert (
            wajsberg_isomorphic(
                wajsberg_from_table(PROD23), wajsberg_from_table(SIX_CYCLED)
            )
            is not None
        )

    def test_different_order_types_not_isomorphic(self):
        assert (
            wajsberg_isomorphic(chain_wajsberg(4), wajsberg_from_table(PROD22)) is None
        )

    def test_long_chain_takes_no_recursion(self):
        # the order search holds no frame per element: 1,100 elements would
        # exceed the default recursion limit
        w = chain_wajsberg(1100)
        assert wajsberg_isomorphic(w, w) == tuple(range(1100))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            wajsberg_isomorphic(chain_wajsberg(2), chain_wajsberg(3))

    def test_matches_morphism_oracle_up_to_24(self):
        # Each entry against a relabelled copy, a copy with one cell changed
        # (same order, not isomorphic) and the other entries of its order.
        for n, _, w in catalog_upto(24):
            f = list(range(n))
            random.Random(n).shuffle(f)
            copy = transport_structure(w, OrderIso(f))
            others = [copy] + [other for m, _, other in catalog_upto(24) if m == n and other is not w]
            if n >= 3:  # move a non-unit cell to another non-unit value
                rows = [list(row) for row in copy.circ.rows]
                x, y = next((x, y) for x in range(n) for y in range(n) if rows[x][y] != copy.one)
                rows[x][y] = next(v for v in range(n) if v not in (rows[x][y], copy.one))
                others.append(WajsbergAlgebra(CayleyTable(rows), copy.negation, copy.one))
            for other in others:
                isos = poset_isomorphisms(natural_order(w), natural_order(other))
                expected = [iso.forward for iso in isos if _is_wajsberg_morphism(w, other, iso.forward)]
                assert list(wajsberg_isomorphisms(w, other)) == expected
            assert list(wajsberg_isomorphisms(w, copy))  # the relabelling itself is one
            if n >= 3:
                assert list(wajsberg_isomorphisms(w, others[-1])) == []


def _is_wajsberg_morphism(w1, w2, f):
    """Whether f maps zero to zero and commutes with negation and implication."""
    t1, t2 = w1.circ.rows, w2.circ.rows
    n1, n2 = w1.negation, w2.negation
    if f[w1.zero] != w2.zero:
        return False
    k = w1.k
    if any(f[n1[x]] != n2[f[x]] for x in range(k)):
        return False
    return all(f[t1[x][y]] == t2[f[x]][f[y]] for x in range(k) for y in range(k))


@pytest.mark.parametrize(
    "call, error, args",
    [
        (lambda: enumerate_wajsberg(0), InvalidSize, ("enumeration needs n >= 1, got 0",)),
        (lambda: transport_structure(chain_wajsberg(3), OrderIso((1, 0))), NotAnOrderIso, ("map size 2 does not match carrier 3",)),
    ],
    ids=["enumerate-0", "transport-size"],
)
def test_error_paths(call, error, args):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and exc.value.args == args
