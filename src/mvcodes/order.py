"""Finite partial orders as relation matrices of ``bytes`` rows of 0 / 1,
the one representation of an order or a code, plus isomorphism search.

``Poset``, ``codes.Skeleton``, ``codes.BlockCode`` and ``CayleyTable`` keep
their checked rows behind a public tuple view built on first read
(``_LazyRows``). Order queries read up-set / down-set ``int`` bitmasks built
by ``_masks``, the one place rows, columns or codewords become bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAnOrderIso, NotAPoset, SizeMismatch

_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _LazyRows:
    """The checked rows of a frozen dataclass in ``_rows``, behind its one
    public field, named by ``_view``: a tuple of tuples of ``_cell`` values,
    built from ``_rows`` on its first read and cached. Equality, hash and
    repr are those of the rows, and ``k`` is their number."""

    _view = "rows"
    _cell = int

    @property
    def k(self) -> int:
        return len(self._rows)

    def _keep(self, rows) -> None:
        """Hold ``rows`` as the checked rows, and drop the view until it is read."""
        object.__setattr__(self, "_rows", rows)
        del self.__dict__[self._view]

    def __getattr__(self, name):
        # only the view is looked up here, and only until its first read
        if name != self._view:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = tuple(tuple(map(self._cell, row)) for row in self._rows)
        object.__setattr__(self, name, view)
        return view

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"{type(self).__name__}({self._view}={getattr(self, self._view)!r})"


def _byte_rows(rows: tuple, allowed: bytes = b"\0\1") -> bool:
    """Whether ``rows`` is not empty and every row is ``bytes`` of values in ``allowed``."""
    return set(map(type, rows)) == {bytes} and not b"".join(rows).translate(None, allowed)


def _masks(rows: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """One ``int`` per row of 0 / 1 entries, with bit j set when entry j is 1:
    the reversed row read as a binary numeral."""
    return tuple(int(bytes(row)[::-1].translate(_DIGITS) or b"0", 2) for row in rows)


def order_violation(up: Sequence[int], down: Sequence[int]):
    """First broken order law of up-set / down-set masks, as (law, witness), or None.

    Laws are checked in the order reflexivity, antisymmetry, transitivity;
    within each law the lexicographically least witness is returned.
    """
    for x, ux in enumerate(up):
        if not ux >> x & 1:
            return ("reflexivity", (x,))
    for x, (ux, dx) in enumerate(zip(up, down)):
        both = ux & dx & ~(1 << x)
        if both:
            return ("antisymmetry", (x, (both & -both).bit_length() - 1))
    for x, ux in enumerate(up):
        rest = ux
        while rest:  # y runs over up(x) in ascending order
            y = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            missing = up[y] & ~ux
            if missing:
                return ("transitivity", (x, y, (missing & -missing).bit_length() - 1))
    return None


@dataclass(frozen=True, eq=False, repr=False)
class Poset(_LazyRows):
    """A reflexive, antisymmetric, transitive relation on ``{0, .., k-1}``;
    its rows are kept as ``bytes`` of 0 / 1 (square rows of that kind pass
    one fast test, any others are read with ``bool``), and ``up`` / ``down``
    hold the rows / columns of ``leq`` as ``_masks`` bitmasks."""

    leq: tuple[tuple[bool, ...], ...]
    up: tuple[int, ...] = field(init=False)
    down: tuple[int, ...] = field(init=False)
    _view = "leq"
    _cell = bool

    def __post_init__(self):
        rows = tuple(self.leq)
        k = len(rows)
        if not (_byte_rows(rows) and set(map(len, rows)) == {k}):
            rows = tuple(bytes(map(bool, row)) for row in rows)
            if any(len(row) != k for row in rows):
                raise NotAPoset("shape", ())
        self._keep(rows)
        object.__setattr__(self, "up", _masks(rows))
        object.__setattr__(self, "down", _masks(zip(*rows)))
        bad = order_violation(self.up, self.down)
        if bad is not None:
            raise NotAPoset(*bad)

    def up_set(self, x: int) -> frozenset[int]:
        return frozenset(compress(range(self.k), self._rows[x]))

    def down_set(self, x: int) -> frozenset[int]:
        return frozenset(y for y in range(self.k) if self._rows[y][x])

    @property
    def bottom(self) -> Optional[int]:
        return next((x for x, u in enumerate(self.up) if u.bit_count() == self.k), None)

    @property
    def top(self) -> Optional[int]:
        return next((x for x, d in enumerate(self.down) if d.bit_count() == self.k), None)

    def is_total(self) -> bool:
        return all((u | d).bit_count() == self.k for u, d in zip(self.up, self.down))

    def strict_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x, y)
            for x in range(self.k)
            for y in range(self.k)
            if x != y and self._rows[x][y]
        )


@dataclass(frozen=True)
class OrderIso:
    """A carrier relabelling; ``forward[x]`` is the image of element ``x``."""

    forward: tuple[int, ...]

    def __post_init__(self):
        fwd = tuple(self.forward)
        object.__setattr__(self, "forward", fwd)
        if sorted(fwd) != list(range(len(fwd))):
            raise NotAnOrderIso(f"not a permutation: {fwd}")

    @property
    def k(self) -> int:
        return len(self.forward)

    @property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.k
        for x, y in enumerate(self.forward):
            inv[y] = x
        return tuple(inv)

    def __call__(self, x: int) -> int:
        return self.forward[x]


def _signatures(p: Poset) -> list[tuple[int, int]]:
    return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]


def poset_isomorphisms(source: Poset, target: Poset) -> Iterator[OrderIso]:
    """All order isomorphisms from ``source`` onto ``target``.

    Backtracks over carrier elements in index order trying candidate images in
    ascending order, so isomorphisms come out in lexicographic order of their
    forward maps. Candidates are pruned by (down-set, up-set) size signatures.
    """
    if source.k != target.k:
        raise SizeMismatch(f"poset sizes differ: {source.k} vs {target.k}")
    k = source.k
    sig_s = _signatures(source)
    sig_t = _signatures(target)
    if sorted(sig_s) != sorted(sig_t):
        return
    candidates = [[j for j in range(k) if sig_t[j] == sig_s[i]] for i in range(k)]
    p, q = source._rows, target._rows
    forward = [-1] * k
    used = [False] * k

    def backtrack(i: int) -> Iterator[OrderIso]:
        if i == k:
            yield OrderIso(tuple(forward))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            if all(
                p[i][a] == q[j][forward[a]] and p[a][i] == q[forward[a]][j]
                for a in range(i)
            ):
                forward[i] = j
                used[j] = True
                yield from backtrack(i + 1)
                used[j] = False
                forward[i] = -1

    yield from backtrack(0)


def poset_isomorphism(source: Poset, target: Poset) -> Optional[OrderIso]:
    """First order isomorphism under lexicographic backtracking, or None."""
    return next(poset_isomorphisms(source, target), None)
