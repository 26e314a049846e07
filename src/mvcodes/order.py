"""Finite partial orders as boolean relation matrices, plus isomorphism search.

Order queries read up-set / down-set ``int`` bitmasks built by ``_masks``, the
one place rows, columns or codewords become bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAnOrderIso, NotAPoset, SizeMismatch

LeqRows = tuple[tuple[bool, ...], ...]


def _masks(rows: Iterable[Sequence]) -> tuple[int, ...]:
    """One ``int`` per row, with bit j set when entry j of the row is truthy."""
    rows = tuple(rows)
    bits = [1 << j for j in range(max(map(len, rows), default=0))]
    return tuple(sum(compress(bits, row)) for row in rows)


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


@dataclass(frozen=True)
class Poset:
    """A reflexive, antisymmetric, transitive relation on ``{0, .., k-1}``;
    ``up`` / ``down`` hold the rows / columns of ``leq`` as ``_masks`` bitmasks."""

    leq: LeqRows
    up: tuple[int, ...] = field(init=False, repr=False, compare=False)
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(map(bool, row)) for row in self.leq)
        object.__setattr__(self, "leq", rows)
        k = len(rows)
        if any(len(row) != k for row in rows):
            raise NotAPoset("shape", ())
        object.__setattr__(self, "up", _masks(rows))
        object.__setattr__(self, "down", _masks(zip(*rows)))
        bad = order_violation(self.up, self.down)
        if bad is not None:
            raise NotAPoset(*bad)

    @property
    def k(self) -> int:
        return len(self.leq)

    def up_set(self, x: int) -> frozenset[int]:
        return frozenset(y for y in range(self.k) if self.leq[x][y])

    def down_set(self, x: int) -> frozenset[int]:
        return frozenset(y for y in range(self.k) if self.leq[y][x])

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
            if x != y and self.leq[x][y]
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
    p, q = source.leq, target.leq
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
