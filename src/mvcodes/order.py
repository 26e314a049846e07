"""Finite partial orders as relation matrices of ``bytes`` rows of 0 / 1,
the one representation of an order or a code; isomorphism search; and the
Birkhoff coordinates of products of chains.

``Poset``, ``codes.Skeleton``, ``codes.BlockCode`` and ``CayleyTable`` keep
their checked rows behind a public tuple view built on first read
(``_LazyRows``). Rows become up-set ``int`` bitmasks in ``_masks``, columns
down-set ones only in ``_up_down``, as strided slices of the rows joined.
``order_violation`` checks each law as its definition: one mask test per
element, and each up-set equal to the OR of its members' up-sets.

A finite MV algebra is a product of Łukasiewicz chains
(Cignoli-D'Ottaviano-Mundici 2000), and its order, a finite distributive
lattice, is fixed by its join-irreducibles (Birkhoff). The elements with
exactly one lower cover form one chain of n - 1 elements per factor n
(``_chain_masks``), and the number of members of each chain below an element
is its digit for that factor: its Birkhoff coordinates. Read as a
mixed-radix number, they give the least order isomorphism from the chain
product (``_product_iso``); every other one permutes the digits of equal
factors (``_all_isos``). A product's up-sets and down-sets, its code's rows
and columns, are read off the digits with no table (``_product_masks``).
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, compress
from math import prod
from operator import itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAnOrderIso, NotAPoset, SizeMismatch

__all__ = ["OrderIso", "Poset", "poset_isomorphism", "poset_isomorphisms"]

_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _Record:
    """A frozen record: the one base of the package's records, which keeps
    ``import mvcodes.cli`` clear of ``dataclasses`` and what it loads.

    A record's fields are its constructor's parameters, in order, read once
    per class from the code of ``__init__``: an inherited ``__init__`` gives
    inherited fields, and one with no code (``object.__init__``) none.
    ``__match_args__`` is their tuple. Each ``__init__`` checks its fields
    where the class checks them and writes its state into ``__dict__``. Any
    later assignment or deletion raises ``dataclasses.FrozenInstanceError``.
    Equality (same class, equal ``_key``), hash and repr (``Name(field=value,
    ..)``) are those of the fields; pickling stores the ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = getattr(cls.__init__, "__code__", None)
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount] if code else ()

    def _key(self):
        """What equality and hash compare: the values of the fields."""
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)


def _frozen(verb: str, name: str):
    # imported here: only a caller's mistake reaches this line
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class _LazyRows(_Record):
    """A frozen record with its checked rows in ``_rows``, behind its one
    field: a tuple of tuples of ``_cell`` values. ``__init__`` checks its
    argument and writes ``_rows`` into ``__dict__``; the view is built from
    ``_rows`` on its first read and cached in ``__dict__``, where later reads
    find it. Equality and hash are those of the rows, and ``k`` is their
    number."""

    _cell = int

    @property
    def k(self) -> int:
        return len(self._rows)

    def __getattr__(self, name):
        # only the view is looked up here, and only until its first read
        if (name,) != self._fields:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = self.__dict__[name] = tuple(tuple(map(self._cell, row)) for row in self._rows)
        return view

    def _key(self):
        return self._rows


def _byte_rows(rows: tuple) -> bool:
    """Whether ``rows`` is not empty and every row is ``bytes`` of 0 / 1."""
    return set(map(type, rows)) == {bytes} and not b"".join(rows).translate(None, b"\0\1")


def _masks(rows: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """One ``int`` per row of 0 / 1 entries, with bit j set when entry j is 1:
    the reversed row read as a binary numeral."""
    return tuple(int(bytes(row)[::-1].translate(_DIGITS) or b"0", 2) for row in rows)


def _up_down(rows: Sequence[bytes]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up-set and down-set masks of a square matrix of ``bytes`` rows of 0 / 1:
    the ``_masks`` of its rows and of its columns, ``flat[x::k]`` of the rows joined."""
    k, flat = len(rows), b"".join(rows)
    return _masks(rows), _masks(flat[x::k] for x in range(k))


def order_violation(rows: Sequence[Sequence[int]], up: Sequence[int], down: Sequence[int]):
    """First broken order law of 0 / 1 ``rows`` and their masks, as (law, witness), or None.

    Laws are checked in the order reflexivity, antisymmetry (one mask test per
    element), transitivity (each up-set is the OR of its members' up-sets);
    within each law the lexicographically least witness is returned.
    """
    for x, ux in enumerate(up):
        if not ux >> x & 1:
            return ("reflexivity", (x,))
    for x, (ux, dx) in enumerate(zip(up, down)):
        both = ux & dx & ~(1 << x)
        if both:
            return ("antisymmetry", (x, (both & -both).bit_length() - 1))
    for x, (row, ux) in enumerate(zip(rows, up)):
        if reduce(or_, compress(up, row), 0) != ux:
            y = next(y for y in compress(range(len(up)), row) if up[y] & ~ux)
            missing = up[y] & ~ux
            return ("transitivity", (x, y, (missing & -missing).bit_length() - 1))
    return None


class Poset(_LazyRows):
    """A reflexive, antisymmetric, transitive relation on ``{0, .., k-1}``, as
    ``order_violation`` checks it; rows kept as ``bytes`` of 0 / 1 (square rows
    of that kind pass one fast test, any others are read with ``bool``), and
    ``up`` / ``down`` its rows / columns as ``_masks`` bitmasks."""

    _cell = bool

    def __init__(self, leq: tuple[tuple[bool, ...], ...]):
        rows = tuple(leq)
        k = len(rows)
        if not (_byte_rows(rows) and set(map(len, rows)) == {k}):
            rows = tuple(bytes(map(bool, row)) for row in rows)
            if any(len(row) != k for row in rows):
                raise NotAPoset("shape", ())
        up, down = _up_down(rows)
        bad = order_violation(rows, up, down)
        if bad is not None:
            raise NotAPoset(*bad)
        self.__dict__.update(_rows=rows, up=up, down=down)

    def up_set(self, x: int) -> frozenset[int]:
        return frozenset(compress(range(self.k), self._rows[x]))

    def down_set(self, x: int) -> frozenset[int]:
        d = self.down[x]
        return frozenset(y for y in range(self.k) if d >> y & 1)

    @property
    def bottom(self) -> Optional[int]:
        return next((x for x, u in enumerate(self.up) if u.bit_count() == self.k), None)

    @property
    def top(self) -> Optional[int]:
        return next((x for x, d in enumerate(self.down) if d.bit_count() == self.k), None)

    def is_total(self) -> bool:
        return all((u | d).bit_count() == self.k for u, d in zip(self.up, self.down))

    def strict_pairs(self) -> frozenset[tuple[int, int]]:
        k = self.k
        return frozenset((x, y) for x, row in enumerate(self._rows) for y in compress(range(k), row) if x != y)


class OrderIso(_Record):
    """A carrier relabelling; ``forward[x]`` is the image of element ``x``."""

    def __init__(self, forward: tuple[int, ...]):
        fwd = self.__dict__["forward"] = tuple(forward)
        if sorted(fwd) != list(range(len(fwd))):
            raise NotAnOrderIso(f"not a permutation: {fwd}")

    @property
    def k(self) -> int:
        return len(self.forward)

    @property
    def inverse(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.k), key=self.forward.__getitem__))

    def __call__(self, x: int) -> int:
        return self.forward[x]


def _signatures(p: Poset) -> list[tuple[int, int]]:
    return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]


def poset_isomorphisms(source: Poset, target: Poset) -> Iterator[OrderIso]:
    """All order isomorphisms from ``source`` onto ``target``.

    Backtracks over carrier elements in index order trying candidate images in
    ascending order, so isomorphisms come out in lexicographic order of their
    forward maps. Candidates are pruned by (down-set, up-set) size signatures.
    The search keeps its own stack, so an order of any size takes no recursion.
    """
    if source.k != target.k:
        raise SizeMismatch(f"poset sizes differ: {source.k} vs {target.k}")
    k = source.k
    sig_s = _signatures(source)
    sig_t = _signatures(target)
    if sorted(sig_s) != sorted(sig_t):
        return
    candidates = [[j for j in range(k) if sig_t[j] == sig_s[i]] for i in range(k)]
    if k == 0:
        yield OrderIso(())
        return
    p, q = source._rows, target._rows
    forward, used = [], [False] * k
    # one frame per element placed or being placed: its untried candidates
    frames = [iter(candidates[0])]
    while frames:
        i = len(forward)
        for j in frames[-1]:
            if not used[j] and all(p[i][a] == q[j][forward[a]] and p[a][i] == q[forward[a]][j] for a in range(i)):
                break
        else:
            frames.pop()
            if forward:
                used[forward.pop()] = False
            continue
        if i + 1 == k:
            yield OrderIso((*forward, j))
        else:
            forward.append(j)
            used[j] = True
            frames.append(iter(candidates[i + 1]))


def poset_isomorphism(source: Poset, target: Poset) -> Optional[OrderIso]:
    """First order isomorphism under lexicographic backtracking, or None."""
    return next(poset_isomorphisms(source, target), None)


def _chain_masks(up, down) -> Optional[list[int]]:
    """The join-irreducibles of the order with up-set / down-set masks ``up``
    / ``down``, as one chain mask per factor, most significant digit first;
    None unless they split into disjoint chains whose sizes plus one
    multiply to k, since then no product of chains has this order.

    An element x is join-irreducible when its strict down-set is the down-set
    of one element, its one lower cover. The chains are sorted by size, and
    among equal sizes the chain whose atom (least member) has the larger
    label comes first.
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


def _product_iso(up, down) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Factors and forward map of the least order isomorphism from the chain
    product onto the order of masks ``up`` / ``down``; None without
    ``_chain_masks``, or when the map is no bijection.

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
    if len(set(inverse)) != len(inverse):
        return None
    return tuple(factors) or (1,), tuple(sorted(range(len(inverse)), key=inverse.__getitem__))


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


def _product_width(factors: tuple[int, ...]) -> int:
    """The width of the chain product of ``factors``: its largest rank level
    (it is Sperner: de Bruijn, Tengbergen and Kruyswijk 1951), the largest
    coefficient of the product of the polynomials 1 + t + ... + t^(f - 1)."""
    levels = [1]
    for f in factors:
        levels = [sum(levels[max(r - f + 1, 0) : r + 1]) for r in range(len(levels) + f - 1)]
    return max(levels)
