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
intermediate algebra per factor. Each step is ``_product_rows``, the one
product step, which ``product_wajsberg`` also takes: up to 256 elements in
``bytes``, a shifted block one ``translate`` and a row one ``join``.

A representative's factors can be read back off its order (Birkhoff): the
join-irreducibles, the elements with exactly one lower cover, form one chain
of n - 1 elements per factor n, and the number of members of each chain
below an element is its digit for that factor, so an order isomorphism from
the product comes in closed form (``_product_iso``). So do the up-sets and
down-sets of a product, the rows and columns of its code, read off the
digits without building its table (``_product_masks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import prod
from operator import itemgetter, or_
from typing import Iterator, Optional

from .algebras import _BYTES, CayleyTable, WajsbergAlgebra, _relabel, natural_order
from .errors import InvalidSize, NotAnOrderIso, SizeMismatch
from .order import OrderIso, poset_isomorphisms

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


@dataclass(frozen=True)
class ChainProduct:
    """A catalog entry: the chain sizes and the algebra they generate."""

    factors: tuple[int, ...]
    algebra: WajsbergAlgebra

    @property
    def order(self) -> int:
        return self.algebra.k

    def factor_label(self) -> str:
        return "x".join(str(f) for f in self.factors)


def _product_rows(t1, t2) -> list:
    """Rows of the componentwise product of the tables with rows t1 and t2.

    Cell (a*k + r, c*k + s) is t1[a][c]*k + t2[r][s], k = |t2|: row r of t2
    shifted by m*k is block m, and row a of t1 picks its blocks by c. Up to
    256 elements a shift is a ``translate`` through a rotated identity table
    and a row is ``bytes``; beyond, a tuple of ints."""
    k = len(t2)
    if len(t1) * k <= 256:
        shifts = [_BYTES[s:] + _BYTES[:s] for s in range(0, len(t1) * k, k)]
        blocks = [list(map(row.translate, shifts)) for row in t2]
        return [b"".join(map(b.__getitem__, p)) for p in t1 for b in blocks]
    blocks = [[tuple(map((k * m).__add__, row)) for m in range(len(t1))] for row in t2]
    return [tuple(chain.from_iterable(map(b.__getitem__, p))) for p in t1 for b in blocks]


def _fold_product(factors: tuple[int, ...]) -> WajsbergAlgebra:
    """The chain product, equal to folding ``product_wajsberg`` left to right;
    a chain's table is x->y = min(top, top - x + y)."""
    rows = [b"\0"]
    for f in reversed(factors):
        top = f - 1
        rows = _product_rows([[*range(top - a, top), *[top] * (f - a)] for a in range(f)], rows)
    k = len(rows)
    return WajsbergAlgebra(CayleyTable(rows), tuple(range(k - 1, -1, -1)), k - 1)


def _chain_masks(up, down) -> Optional[list[int]]:
    """The join-irreducibles of the order with up-set / down-set masks ``up``
    / ``down``, as one chain mask per factor, most significant digit first.

    An element x is join-irreducible when its strict down-set is the down-set
    of one element, its one lower cover. In a product of chains these
    elements split into disjoint chains, one of n - 1 elements per factor n,
    and the factors multiply to k; otherwise the result is None. A finite
    distributive lattice is fixed by its join-irreducibles (Birkhoff), so no
    product with other factors has this order. The chains are sorted by
    size, and among equal sizes the chain whose atom (least member) has the
    larger label comes first.
    """
    below = set(down)
    irreducible = [x for x, d in enumerate(down) if d ^ 1 << x in below]
    mask = sum(1 << x for x in irreducible)
    # The irreducibles comparable to x: these sets partition the
    # irreducibles exactly when they are disjoint chains.
    chain_of = {x: (up[x] | down[x]) & mask for x in irreducible}
    chains = set(chain_of.values())
    if sum(c.bit_count() for c in chains) != len(irreducible) or prod(c.bit_count() + 1 for c in chains) != len(down):
        return None
    atom = {c: x for x, c in chain_of.items() if down[x] & c == 1 << x}
    return sorted(chains, key=lambda c: (c.bit_count(), -atom.get(c, 0)))


def _product_iso(up, down) -> Optional[tuple[tuple[int, ...], Optional[tuple[int, ...]]]]:
    """Factors and forward map of the least order isomorphism from the chain
    product onto the order of masks ``up`` / ``down``; None without
    ``_chain_masks``, and the map None when it is no bijection.

    Element x is the image of the mixed-radix number whose digits are
    ``|down(x) & chain|`` over the chains of ``_chain_masks``. Product
    element 1 goes to the least atom that the least significant digit may
    take, and so on up, so on a product of chains the map is the least
    isomorphism in lexicographic order of forward maps. On any other
    relation the caller checks it.
    """
    chains = _chain_masks(up, down)
    if chains is None:
        return None
    factors = [c.bit_count() + 1 for c in chains]
    inverse = []
    for d in down:
        i = 0
        for f, c in zip(factors, chains):
            i = i * f + (d & c).bit_count()
        inverse.append(i)
    bijective = len(set(inverse)) == len(inverse)
    return tuple(factors) or (1,), tuple(sorted(range(len(inverse)), key=inverse.__getitem__)) if bijective else None


def _product_masks(factors: tuple[int, ...], forward=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up-set and down-set masks of the order of the chain product of
    ``factors``, its element x labelled ``forward[x]`` (x itself by default).

    x <= y when every digit of x is at most y's, so the up-set of x is the
    meet, over the digits, of the elements whose digit is at least x's, and
    the down-set the meet of those whose digit is at most x's. These sets are
    built once per digit value: O(k * factors) mask operations, no table.
    Column c of the product's code is the down-set of c, and row c its up-set.
    """
    k = stride = prod(factors)
    labels = range(k) if forward is None else forward
    up, down = [(1 << k) - 1] * k, [(1 << k) - 1] * k
    for f in factors:
        stride //= f
        digits = [x // stride % f for x in range(k)]
        at = [0] * f
        for v, y in zip(digits, labels):
            at[v] |= 1 << y
        at_most = list(accumulate(at, or_))
        at_least = list(accumulate(reversed(at), or_))[::-1]
        for v, y in zip(digits, labels):
            up[y] &= at_least[v]
            down[y] &= at_most[v]
    return tuple(up), tuple(down)


def _is_product_iso(factors: tuple[int, ...], forward: tuple[int, ...], up) -> bool:
    """Whether ``forward`` is an order isomorphism from the chain product of
    ``factors`` onto the order with up-set masks ``up``."""
    return _product_masks(factors, forward)[0] == tuple(up)


def _all_isos(factors: tuple[int, ...], forward: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``forward`` composed with every order automorphism of the chain product
    of ``factors``, in lexicographic order: all the order isomorphisms when
    ``forward`` is one.

    The automorphisms permute the digits of equal factors. Every one of them
    is, once, a product of one swap per digit, with itself (the identity) or
    a more significant digit of the same factor; a composition is one
    ``itemgetter`` gather.
    """
    k = len(forward)
    strides = [prod(factors[p + 1 :]) for p in range(len(factors))]
    out = [forward]
    for q, f in enumerate(factors):
        sq = strides[q]
        swaps = [
            itemgetter(*(e + (e // sq % f - e // sp % f) * (sp - sq) for e in range(k)))
            for sp, g in zip(strides[:q], factors)
            if g == f
        ]
        out += [swap(iso) for swap in swaps for iso in out]
    return sorted(out)


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


def enumerate_wajsberg(n: int) -> list[ChainProduct]:
    """One algebra per order type of size n: the chain, then one per
    factorization, pairwise non-isomorphic as ordered sets. Raises
    InvalidSize, building nothing, over ``MAX_CATALOG_CELLS`` table cells."""
    return [ChainProduct(factors, _fold_product(factors)) for factors in _order_types(n)]


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
