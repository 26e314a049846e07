"""Binary block codes generated by finite algebras via cut subsets.

Each element r of a verified algebra yields one codeword: bit i is set when
element i lies in the cut subset of r (the up-set of r in the natural order).
Codeword, cut subset and row r of the order and of the skeleton are one
object, row r as read by ``algebras._order_rows`` (the single reader that
``natural_order`` also uses), in one representation: ``bytes`` of 0 and 1.
``BlockCode`` and ``Skeleton`` keep those rows as they come and build their
public tuples only when read (``order._LazyRows``); distances and the code
order read their ``_masks``. Cut subsets, codewords and skeletons skip
natural_order's Poset validation, so an unverified table still gives sets,
words and marks here.

The word order of a BlockCode is meaningful: it is the construction order,
which doubles as the row order of the associated matrix and as the carrier
indexing when an algebra is attached back onto a code. Codes generated from
an algebra list words in carrier order, which for the canonical chain-product
algebras coincides with descending lexicographic order.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .algebras import Algebra, MvAlgebra, _marks, _order_rows
from .errors import DuplicateWord, LengthMismatch, MalformedTable, TooFewWords
from .order import _DIGITS, Poset, _byte_rows, _LazyRows, _masks

__all__ = [
    "BlockCode", "Skeleton", "code_equivalent", "code_from_algebra", "code_poset", "codeword_leq", "cut_subset",
    "distance_D", "hamming", "min_hamming_distance", "mv_sum_indicator", "skeleton",
]

Word = tuple[int, ...]

_BITS = bytes.maketrans(b"01", b"\0\1")
_MARKS = bytes.maketrans(b"\0\1", b".#")


class BlockCode(_LazyRows):
    """A sequence of distinct equal-length bit words, kept as ``bytes`` of 0 / 1.

    One fast test comes first, as in ``CayleyTable``, for the words the
    package builds: words of one length n > 0 that are all ``bytes`` of 0 /
    1 (the parser, ``_order_rows``, embed restrictions). Every other input,
    strings of ``0`` / ``1`` too, is converted entry by entry with ``int()``
    and checked in turn, which names the first bad word.
    """

    def __init__(self, words: tuple[Word, ...]):
        words = tuple(words)
        if not (_byte_rows(words) and len(set(map(len, words))) == 1 and words[0]):
            words = tuple(tuple(map(int, w)) for w in words)
            if not words:
                raise MalformedTable("a block code needs at least one word")
            n = len(words[0])
            for w in words:
                if len(w) != n:
                    raise LengthMismatch(f"word lengths differ: {len(w)} vs {n}")
                if not set(w) <= {0, 1}:
                    raise MalformedTable(f"non-binary word: {w}")
            words = tuple(map(bytes, words))
        if len(set(words)) != len(words):
            raise DuplicateWord("repeated codeword")
        self.__dict__["_rows"] = words

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "BlockCode":
        return cls(tuple(strings))

    @property
    def length(self) -> int:
        return len(self._rows[0])

    @property
    def size(self) -> int:
        return len(self._rows)

    def word_strings(self) -> tuple[str, ...]:
        return tuple(w.translate(_DIGITS).decode() for w in self._rows)

    def sorted_desc(self) -> "BlockCode":
        """The same word set listed in descending lexicographic order."""
        return BlockCode(tuple(sorted(self._rows, reverse=True)))


def cut_subset(algebra: Algebra, r: int) -> frozenset[int]:
    """Elements x with r*x = 0 / r'+x = 1 / r->x = 1: the up-set of r."""
    if not 0 <= r < algebra.k:
        raise ValueError(f"element {r} outside the carrier [0,{algebra.k})")
    return frozenset(compress(range(algebra.k), _order_rows(algebra, (r,))[0]))


def code_from_algebra(algebra: Algebra) -> BlockCode:
    """One codeword per element, in carrier order; bit i flags i in the cut.

    Distinct elements of a verified algebra always have distinct cuts, so the
    words are distinct; a DuplicateWord error here means the input never
    passed verification.
    """
    return BlockCode(_order_rows(algebra, range(algebra.k)))


def code_equivalent(a1: Algebra, a2: Algebra) -> bool:
    """True when both algebras generate the same set of codewords."""
    return set(code_from_algebra(a1)._rows) == set(code_from_algebra(a2)._rows)


def codeword_leq(wx: Word, wy: Word) -> bool:
    """Reverse-componentwise order: wx precedes wy iff wy's bits fit under wx's."""
    if len(wx) != len(wy):
        raise LengthMismatch(f"word lengths differ: {len(wx)} vs {len(wy)}")
    return all(b <= a for a, b in zip(wx, wy))


def code_poset(code: BlockCode) -> Poset:
    """The order ``codeword_leq`` of the code's words, over their listed positions."""
    masks = _masks(code._rows)
    return Poset(tuple(bytes(not mj & ~mi for mj in masks) for mi in masks))


def hamming(wx: Word, wy: Word) -> int:
    if len(wx) != len(wy):
        raise LengthMismatch(f"word lengths differ: {len(wx)} vs {len(wy)}")
    return sum(a != b for a, b in zip(wx, wy))


def distance_D(algebra: Algebra, r: int, s: int) -> int:
    """Size of the symmetric difference of the two cut subsets.

    Equals the Hamming distance of the codewords of r and s.
    """
    return len(cut_subset(algebra, r) ^ cut_subset(algebra, s))


def min_hamming_distance(code: BlockCode) -> int:
    """The least Hamming distance between two words. Words are distinct, so
    no distance is below 1, and the scan stops at the first pair at 1."""
    if code.size < 2:
        raise TooFewWords("minimum distance needs at least two words")
    masks = _masks(code._rows)
    best = code.length
    for i, a in enumerate(masks[:-1]):
        best = min(best, *map(int.bit_count, map(a.__xor__, masks[i + 1 :])))
        if best == 1:
            break
    return best


class Skeleton(_LazyRows):
    """Square boolean matrix, a mark at (i, j) iff element i <= element j; rows
    are ``bytes`` of 0 / 1 (others read with ``bool``); a ragged one raises ``MalformedTable``."""

    _cell = bool

    def __init__(self, black: tuple[tuple[bool, ...], ...]):
        rows = tuple(black)
        rows = rows if _byte_rows(rows) else tuple(bytes(map(bool, row)) for row in rows)
        if not set(map(len, rows)) <= {len(rows)}:
            i = next(i for i, row in enumerate(rows) if len(row) != len(rows))
            raise MalformedTable(f"row {i} has length {len(rows[i])}, expected {len(rows)}")
        self.__dict__["_rows"] = rows

    def render(self) -> str:
        return b"\n".join(self._rows).translate(_MARKS).decode()

    def permute_rows(self, perm: Sequence[int]) -> "Skeleton":
        return Skeleton(tuple(self._rows[perm[i]] for i in range(self.k)))


def skeleton(algebra: Algebra) -> Skeleton:
    """The natural order of the algebra rendered as a square mark matrix: its
    rows as ``_order_rows`` reads them, unchecked, as for ``code_from_algebra``.
    An unverified table whose relation is no order gives that relation's
    marks, where ``natural_order`` raises NotAPoset."""
    return Skeleton(_order_rows(algebra, range(algebra.k)))


def mv_sum_indicator(m: MvAlgebra) -> Skeleton:
    """Marks pairs (r, x) whose sum is the top element.

    Equals the skeleton with rows permuted by the complement map.
    """
    return Skeleton(_marks(m.oplus._rows, m.one, m.k))
