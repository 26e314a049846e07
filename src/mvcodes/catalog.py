"""Chains, direct products, and the catalog of all finite Wajsberg algebras.

Every finite Wajsberg algebra is order-isomorphic to a direct product of
totally ordered ones, so the algebras of order n fall into one class per
unordered factorization of n into factors >= 2, plus the chain itself.
``enumerate_wajsberg`` materialises one canonical representative per class;
``transport_structure`` relabels a representative onto any order-isomorphic
carrier.

A representative is built in one pass on the mixed-radix carrier, the last
factor the least significant digit: the componentwise Łukasiewicz
implication is tabulated factor by factor from the last digit up, with no
intermediate algebra per factor. The last factor's chain rows are written
down directly; each factor before it is one ``_product_rows``, the one
product step, which ``product_wajsberg`` also takes: in the row format of
``algebras._cells``, a shifted block one ``translate`` and a row one ``join``.
``_chain_products`` builds the entries one at a time as they are drawn:
``enumerate_wajsberg`` lists them, and the CLI writes each one out before it
builds the next.

A representative's factors, and its order isomorphisms onto a relabelled
carrier, are read back off its order in closed form by the Birkhoff
coordinates of ``order``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .algebras import CayleyTable, WajsbergAlgebra, _cells, _relabel, natural_order
from .errors import InvalidSize, NotAnOrderIso, SizeMismatch
from .order import OrderIso, _Record, poset_isomorphisms

__all__ = [
    "ChainProduct", "chain_wajsberg", "enumerate_wajsberg", "factorizations", "pi_count", "product_wajsberg",
    "transport_structure", "wajsberg_isomorphic", "wajsberg_isomorphisms",
]

MAX_CATALOG_CELLS = 1 << 26  # per enumerate_wajsberg; n = 720: 98 entries, 50.8 M cells


def chain_wajsberg(k: int) -> WajsbergAlgebra:
    """The unique Wajsberg structure on a k-element total order.

    With elements 0 < 1 < .. < k-1: x->y is the top when x <= y and element
    (k-1) - x + y otherwise; negation reverses the chain.
    """
    if k < 1:
        raise InvalidSize(f"chain needs at least one element, got {k}")
    return _fold_product((k,))


def product_wajsberg(w1: WajsbergAlgebra, w2: WajsbergAlgebra) -> WajsbergAlgebra:
    """Componentwise product on the mixed-radix carrier (a, b) -> a*|w2| + b;
    its implication is ``_product_rows`` of the factors' tables."""
    k2 = w2.k
    negation = tuple(a * k2 + b for a in w1.negation for b in w2.negation)
    return WajsbergAlgebra(CayleyTable(_product_rows(w1.circ._rows, w2.circ._rows)), negation, w1.one * k2 + w2.one)


def factorizations(n: int) -> list[tuple[int, ...]]:
    """All multisets of factors in [2, n-1] with product n, size >= 2.

    Each multiset appears once, factors ascending, and the list is in
    ascending lexicographic order. The count is empty exactly when n is prime
    (or n < 4).
    """
    if n < 2:
        raise InvalidSize(f"factorizations need n >= 2, got {n}")
    out: list[tuple[int, ...]] = []

    def descend(rest: int, lo: int, acc: list[int]) -> None:
        d = lo
        while d * d <= rest:
            if rest % d == 0:
                acc.append(d)
                descend(rest // d, d, acc)
                acc.pop()
            d += 1
        if acc and rest >= lo:
            out.append(tuple(acc) + (rest,))

    descend(n, 2, [])
    return out


class ChainProduct(_Record):
    """A catalog entry: the chain sizes and the algebra they generate."""

    def __init__(self, factors: tuple[int, ...], algebra: WajsbergAlgebra):
        self.__dict__.update(factors=factors, algebra=algebra)

    @property
    def order(self) -> int:
        return self.algebra.k

    def factor_label(self) -> str:
        return "x".join(str(f) for f in self.factors)


def _product_rows(t1, t2) -> list:
    """Rows of the componentwise product of the tables with rows t1 and t2.

    Cell (a*k + r, c*k + s) is t1[a][c]*k + t2[r][s], k = |t2|: row r of t2
    shifted by m*k is block m, and row a of t1 joins its blocks by c. In the
    row format of ``_cells``, a shift is a ``translate`` through the lookup
    of the identity from m*k on."""
    k, n = len(t2), len(t1) * len(t2)
    _, join, lookup, translate, identity = _cells(n)
    shifts = [lookup(identity[s:]) for s in range(0, n, k)]
    blocks = [list(map(shift, shifts)) for shift in map(translate.__get__, t2)]
    return [join(map(b.__getitem__, p)) for p in t1 for b in blocks]


def _chain_rows(f: int) -> list:
    """Rows of the f-element chain, x->y = min(top, top - x + y), in the row
    format of ``_cells``: row a is (0, .., top - 1, top, .., top) from top - a on."""
    row, top = _cells(f)[0], f - 1
    cells = row(range(top)) + row((top,)) * f
    return [cells[top - a : top - a + f] for a in range(f)]


def _fold_product(factors: tuple[int, ...]) -> WajsbergAlgebra:
    """The chain product, equal to folding ``product_wajsberg`` left to right:
    the last factor's chain rows, then one ``_product_rows`` per factor
    before it."""
    *outer, last = factors
    rows = _chain_rows(last)
    for f in reversed(outer):
        rows = _product_rows(_chain_rows(f), rows)
    k = len(rows)
    return WajsbergAlgebra(CayleyTable(rows), tuple(range(k - 1, -1, -1)), k - 1)


def _order_types(n: int) -> list[tuple[int, ...]]:
    """The factors of each catalog entry of order n, in enumeration order: the
    chain, then ``factorizations(n)``. Raises InvalidSize, before factoring,
    when the entries would hold more than ``MAX_CATALOG_CELLS`` table cells."""
    if n < 1:
        raise InvalidSize(f"enumeration needs n >= 1, got {n}")
    # n * n is checked before factorizations, which takes minutes for n near 10**18
    every = [(n,)] + (factorizations(n) if 2 <= n and n * n <= MAX_CATALOG_CELLS else [])
    if len(every) * n * n > MAX_CATALOG_CELLS:
        raise InvalidSize(f"enumeration of order {n} needs more than {MAX_CATALOG_CELLS} table cells")
    return every


def _chain_products(types: list[tuple[int, ...]]) -> Iterator[ChainProduct]:
    """The catalog entries of ``_order_types``, built one at a time as they
    are drawn, so a caller that drops each entry holds one table at a time."""
    return (ChainProduct(factors, _fold_product(factors)) for factors in types)


def enumerate_wajsberg(n: int) -> list[ChainProduct]:
    """One algebra per order type of size n: the chain, then one per
    factorization, pairwise non-isomorphic as ordered sets. Raises
    InvalidSize, building nothing, over ``MAX_CATALOG_CELLS`` table cells."""
    return list(_chain_products(_order_types(n)))


def pi_count(n: int) -> int:
    """Number of proper factorizations of n (order types beyond the chain)."""
    return len(factorizations(n))


def transport_structure(w: WajsbergAlgebra, iso: OrderIso) -> WajsbergAlgebra:
    """Carry the structure of w onto a relabelled carrier.

    The new operation is x->y = iso(inv(x) -> inv(y)); negation and the unit
    move the same way, so iso becomes an isomorphism onto the result and the
    result's natural order is the image of w's.
    """
    if iso.k != w.k:
        raise NotAnOrderIso(f"map size {iso.k} does not match carrier {w.k}")
    f, inv = iso.forward, iso.inverse
    negation = tuple(f[w.negation[x]] for x in inv)
    return WajsbergAlgebra(_relabel(w.circ, inv, inv, f), negation, f[w.one])


def wajsberg_isomorphisms(
    w1: WajsbergAlgebra, w2: WajsbergAlgebra
) -> Iterator[tuple[int, ...]]:
    """All algebra isomorphisms, in lexicographic order of the forward maps.

    An algebra isomorphism is in particular an order isomorphism, so the
    search runs over those and keeps each map that carries w1 onto w2: its
    ``transport_structure`` of w1 is w2, implication, negation and unit.
    """
    if w1.k != w2.k:
        raise SizeMismatch(f"algebra sizes differ: {w1.k} vs {w2.k}")
    p1, p2 = natural_order(w1), natural_order(w2)
    for iso in poset_isomorphisms(p1, p2):
        if transport_structure(w1, iso) == w2:
            yield iso.forward


def wajsberg_isomorphic(
    w1: WajsbergAlgebra, w2: WajsbergAlgebra
) -> Optional[tuple[int, ...]]:
    """First algebra isomorphism found, or None."""
    return next(wajsberg_isomorphisms(w1, w2), None)
