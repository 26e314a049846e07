"""Binary block codes generated by finite algebras via cut subsets.

Each element r of a verified algebra yields one codeword: bit i is set when
element i lies in the cut subset of r (the up-set of r in the natural order).
Codeword, cut subset and row r of the order and of the skeleton are one
object, row r as read by ``algebras._order_rows`` (the single reader that
``natural_order`` also uses), in one representation: ``bytes`` of 0 and 1.
``BlockCode`` and ``Skeleton`` keep those rows as they come and build their
public tuples only when read (``order._LazyRows``); distances and the code
order read their ``_masks``. Cut subsets and codewords skip natural_order's
Poset validation, so an unverified table still gives sets and words here.

The word order of a BlockCode is meaningful: it is the construction order,
which doubles as the row order of the associated matrix and as the carrier
indexing when an algebra is attached back onto a code. Codes generated from
an algebra list words in carrier order, which for the canonical chain-product
algebras coincides with descending lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Sequence

from .algebras import Algebra, MvAlgebra, _marks, _order_rows, natural_order
from .errors import DuplicateWord, LengthMismatch, MalformedTable, TooFewWords
from .order import _DIGITS, Poset, _byte_rows, _LazyRows, _masks

Word = tuple[int, ...]

_BITS = bytes.maketrans(b"01", b"\0\1")
_MARKS = bytes.maketrans(b"\0\1", b".#")


@dataclass(frozen=True, eq=False, repr=False)
class BlockCode(_LazyRows):
    """A sequence of distinct equal-length bit words, kept as ``bytes`` of 0 / 1.

    One fast test comes first, as in ``CayleyTable``, for the words the
    package builds: words of one length n > 0 that are all ``bytes`` of 0 /
    1 (the parser, ``_order_rows``, embed restrictions). Every other input,
    strings of ``0`` / ``1`` too, is converted entry by entry with ``int()``
    and checked in turn, which names the first bad word.
    """

    words: tuple[Word, ...]
    _view = "words"

    def __post_init__(self):
        words = tuple(self.words)
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
        self._keep(words)

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
    if code.size < 2:
        raise TooFewWords("minimum distance needs at least two words")
    masks = _masks(code._rows)
    return min((a ^ b).bit_count() for a, b in combinations(masks, 2))


@dataclass(frozen=True, eq=False, repr=False)
class Skeleton(_LazyRows):
    """Boolean matrix with a mark at (i, j) iff element i <= element j; its
    rows are kept as ``bytes`` of 0 / 1, any other rows read with ``bool``."""

    black: tuple[tuple[bool, ...], ...]
    _view = "black"
    _cell = bool

    def __post_init__(self):
        rows = tuple(self.black)
        self._keep(rows if _byte_rows(rows) else tuple(bytes(map(bool, row)) for row in rows))

    def render(self) -> str:
        return b"\n".join(self._rows).translate(_MARKS).decode()

    def permute_rows(self, perm: Sequence[int]) -> "Skeleton":
        return Skeleton(tuple(self._rows[perm[i]] for i in range(self.k)))


def skeleton(algebra: Algebra) -> Skeleton:
    """The natural order of the algebra rendered as a square mark matrix."""
    return Skeleton(natural_order(algebra)._rows)


def mv_sum_indicator(m: MvAlgebra) -> Skeleton:
    """Marks pairs (r, x) whose sum is the top element.

    Equals the skeleton with rows permuted by the complement map.
    """
    return Skeleton(_marks(m.oplus._rows, m.one, m.k))
