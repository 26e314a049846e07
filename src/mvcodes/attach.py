"""Attaching algebras to binary block codes, and embedding under-sized codes.

A square code whose matrix has the right boundary shape carries a candidate
order: the matrix read as a relation, bit (i,j) saying row i is below row j.
When that relation is an order, row i is the up-set of i, so the relation is
also the reverse-componentwise order of the words. Its Birkhoff coordinates
(see ``order``) give the one candidate chain product and the first order
isomorphism from it in closed form; only that product is built, and its
structure is transported onto the code's rows once. When that algebra
regenerates the code, the relation is the product's order and no order law
needs checking. Otherwise the order laws are checked and give the witness
(for instance of a broken transitivity), and an order that passes them is
no product of chains: on a product the coordinates would be an order
isomorphism, and no search over maps is needed. Every other isomorphism
only permutes the digits of equal factors, an algebra automorphism, so all
of them transport to the same algebra.

Embedding searches the same products without building them: column c of a
product's code is the down-set of c, read off the digits
(``order._product_masks``). As in attach, the closed form only steers the
search: a host's table is folded only for an entry that has a hit, once, and
each hit's restriction is read off, and checked on, the code of the host
table returned with it. Entries too small or too narrow to host the code
(``_closure_bounds``) are not searched.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import not_
from typing import Iterator, Optional, Union

from .algebras import BckAlgebra, MvAlgebra, WajsbergAlgebra, _translate
from .catalog import ChainProduct, _fold_product, _order_types, transport_structure
from .codes import BlockCode, code_from_algebra
from .errors import AlgebraError, NoEmbeddingFound, NonSquare
from .order import (
    OrderIso, _all_isos, _masks, _product_iso, _product_masks, _product_width, _Record, _up_down, order_violation,
)

__all__ = [
    "AttachmentResult", "CodeRejected", "EmbeddingResult", "MatrixReport", "RejectionReason", "attach_bck",
    "attach_mv", "attach_wajsberg", "embed_code", "validate_code_matrix",
]


class MatrixCheck(_Record):
    def __init__(self, condition: str, position: tuple[int, int]):
        self.__dict__.update(condition=condition, position=position)


class MatrixReport(_Record):
    """Boundary-shape checks of a square code matrix, with failure positions."""

    def __init__(self, failures: tuple[MatrixCheck, ...]):
        self.__dict__["failures"] = failures

    @property
    def valid(self) -> bool:
        return not self.failures


class RejectionReason(_Record):
    """Why a code is rejected: ``kind`` is boundary-violation, not-a-poset,
    transitivity-failure or no-catalog-match."""

    def __init__(self, kind: str, witness: tuple[int, ...], detail: str):
        self.__dict__.update(kind=kind, witness=witness, detail=detail)


class CodeRejected(AlgebraError):
    """No algebra of the requested kind reproduces the given code."""

    def __init__(self, reason: RejectionReason):
        super().__init__(f"{reason.kind}: {reason.detail}")
        self.reason = reason


class AttachmentResult(_Record):
    """An algebra on the code's row positions, with its catalog provenance."""

    def __init__(self, algebra: WajsbergAlgebra, iso: OrderIso, source: ChainProduct):
        self.__dict__.update(algebra=algebra, iso=iso, source=source)

    @property
    def catalog_id(self) -> tuple[int, tuple[int, ...]]:
        return (self.source.order, self.source.factors)


def validate_code_matrix(code: BlockCode) -> MatrixReport:
    """Check the five boundary conditions of an attachable square matrix.

    First row and last column all ones, last row 0..01, first column 10..0,
    diagonal all ones. Every failed condition is reported with the
    lexicographically least offending position.
    """
    k = code.size
    if code.length != k:
        raise NonSquare(f"{code.size} words of length {code.length}")
    flat = b"".join(code._rows)
    # each condition's cells as a slice of the flattened matrix, and the bit they hold
    checks = [
        ("first-row-ones", slice(0, k, 1), 1),
        ("last-column-ones", slice(k - 1, k * k, k), 1),
        ("last-row-unit", slice(k * k - k, k * k - 1, 1), 0),
        ("first-column-unit", slice(k, k * k, k), 0),
        ("diagonal-ones", slice(0, k * k, k + 1), 1),
    ]
    failures = []
    for name, cells, want in checks:
        n = flat[cells].find(1 - want)
        if n >= 0:
            failures.append(MatrixCheck(name, divmod(cells.start + n * cells.step, k)))
    return MatrixReport(tuple(failures))


def attach_wajsberg(
    code: BlockCode, all_matches: bool = False
) -> Union[AttachmentResult, list[AttachmentResult]]:
    """Reconstruct the Wajsberg algebra whose code is exactly ``code``.

    Rows of the code become carrier elements in their listed order. Raises
    CodeRejected with a re-checkable witness when the matrix fails the
    boundary shape, its relation is not an order, or the word order matches
    no catalog entry. The one candidate entry, and the least order
    isomorphism from it, are read off the relation's Birkhoff coordinates
    (``order._product_iso``); catalog entries are pairwise non-isomorphic,
    so no other entry can match. The entry's structure is transported once,
    and the code is accepted when that algebra regenerates it. Only a code
    that is not accepted has its order laws checked; an order that passes
    them is no product of chains, since on one the coordinates are an order
    isomorphism (the ``order._product_masks`` of the map are the code's
    up-sets), whose transport regenerates the code. With ``all_matches``
    every order isomorphism from that entry is listed, in lexicographic
    order, each with that one algebra: the isomorphisms differ by
    automorphisms of the entry, so their transported tables coincide.
    """
    report = validate_code_matrix(code)
    if not report.valid:
        first = report.failures[0]
        raise CodeRejected(
            RejectionReason(
                "boundary-violation",
                first.position,
                f"{first.condition} fails at {first.position}",
            )
        )
    up, down = _up_down(code._rows)
    found = _product_iso(up, down)
    if found is not None:
        factors, forward = found
        entry, iso = ChainProduct(factors, _fold_product(factors)), OrderIso(forward)
        algebra = transport_structure(entry.algebra, iso)
        # equal codes prove that the relation is the product's order
        if code_from_algebra(algebra) == code:
            if not all_matches:
                return AttachmentResult(algebra, iso, entry)
            return [AttachmentResult(algebra, OrderIso(f), entry) for f in _all_isos(factors, forward)]
    bad = order_violation(code._rows, up, down)
    if bad is not None:
        law, witness = bad
        kind = "transitivity-failure" if law == "transitivity" else "not-a-poset"
        raise CodeRejected(RejectionReason(kind, witness, f"matrix relation breaks {law} at {witness}"))
    # coordinates that are an order isomorphism transport to an algebra with this code
    if found is not None and _product_masks(*found)[0] == up:
        raise RuntimeError(
            f"the code's order is isomorphic to catalog entry {found[0]}, but the algebra "
            "transported along its Birkhoff coordinates does not regenerate the code"
        )
    raise CodeRejected(
        RejectionReason(
            "no-catalog-match",
            (),
            f"word order of the {code.size}-word code matches no product of chains",
        )
    )


def attach_mv(code: BlockCode) -> MvAlgebra:
    """The MV presentation of the attached algebra; same rejection behaviour.
    The attached algebra is valid by construction and is not verified again."""
    return _translate(attach_wajsberg(code).algebra, "mv")


def attach_bck(code: BlockCode) -> BckAlgebra:
    """The BCK presentation of the attached algebra; same rejection behaviour.
    The attached algebra is valid by construction and is not verified again."""
    return _translate(attach_wajsberg(code).algebra, "bck")


class EmbeddingResult(_Record):
    """A host algebra whose code, cut down to ``columns``, covers the input."""

    def __init__(
        self, q: int, host: WajsbergAlgebra, factors: tuple[int, ...], columns: tuple[int, ...], restriction: BlockCode
    ):
        self.__dict__.update(q=q, host=host, factors=factors, columns=columns, restriction=restriction)

    factor_label = ChainProduct.factor_label


def _canonical_embedding(entry: ChainProduct, cols: tuple[int, ...], want: set) -> EmbeddingResult:
    """The hit ``cols`` in ``entry``, its host relabelled so that the selected
    columns sit in ascending positions; the restriction set is unchanged and
    the host stays a catalog transport. The restriction is read off the
    host's code at those columns, its words distinct and in host order, and
    checked to cover ``want``."""
    forward = list(range(entry.order))
    ordered = sorted(cols)
    for a, b in zip(cols, ordered):
        forward[a] = b
    host = transport_structure(entry.algebra, OrderIso(tuple(forward)))
    words = (bytes(map(row.__getitem__, ordered)) for row in code_from_algebra(host)._rows)
    restriction = BlockCode(tuple(dict.fromkeys(words)))
    if not want.issubset(restriction._rows):
        raise RuntimeError(f"columns {cols} of host {entry.factors} do not cover the code")
    return EmbeddingResult(entry.order, host, entry.factors, tuple(ordered), restriction)


def _covering_columns(ones: tuple[int, ...], want: set, m: int) -> Iterator[tuple[int, ...]]:
    """Injective column tuples of length ``m`` on which a square code of q
    words covers ``want``; ``ones[c]`` is the mask of the words with a 1 in
    column c.

    Yields them in the order of ``itertools.permutations(range(q), m)``,
    depth first, trying unused columns (a bitmask) in ascending order, on a
    stack of its own, so a code of any length takes no recursion. For each
    wanted word a q-bit mask marks the code words that agree with it on the
    columns chosen so far, and a prefix with an empty mask is dropped.
    The masks sit in lanes of q + 1 bits of one ``int``, the top bit of each
    lane a guard, and for each depth and column one packed mask holds, per
    lane, the words with the wanted word's bit in that column. A candidate
    column costs one AND, and one addition of q ones per lane, which carries
    into a lane's guard exactly when that lane is not empty.
    """
    if m == 0:  # words of length 0: the empty tuple covers them
        yield ()
        return
    q, full = len(ones), (1 << len(ones)) - 1
    lanes = [1 << t * (q + 1) for t in range(len(want))]  # bit 0 of each lane
    spread = sum(lanes)
    low, guard = spread * full, spread << q
    spread_ones = [o * spread for o in ones]
    # at depth d, a lane whose wanted word has a 0 there takes the complement
    zeros = [sum(compress(lanes, map(not_, bits))) * full for bits in zip(*want)]
    packed = [[s ^ z for s in spread_ones] for z in zeros]
    chosen, used = [], 0
    # one frame per depth: the live masks of the chosen prefix, the packed
    # masks of the depth, and the columns the depth has yet to try
    frames = [(low, packed[0], iter(range(q)))]
    while frames:
        live, by_column, columns = frames[-1]
        for c in columns:
            if used >> c & 1:
                continue
            narrowed = live & by_column[c]
            if (narrowed + low) & guard == guard:
                break
        else:
            frames.pop()
            if chosen:
                used ^= 1 << chosen.pop()
            continue
        if len(chosen) + 1 == m:
            yield (*chosen, c)
        else:
            chosen.append(c)
            used |= 1 << c
            frames.append((narrowed, packed[len(chosen)], iter(range(q))))


def _closure_bounds(want: set, m: int, limit: int) -> tuple[int, int]:
    """A least order and a least width of any host of the words ``want`` of
    length m: the size of C, the AND-closure of ``want`` and 1^m, built a
    word at a time and stopped once over ``limit`` words; and the most words
    of C of equal weight. In a host, element x gives the word whose bit i is
    [x <= c_i] for columns c; joins go to ANDs and the bottom to 1^m, so the
    image is AND-closed, holds C, has at most q words, and its words of equal
    weight, being incomparable, come from an antichain of the host."""
    closure = {(1 << m) - 1}
    for v in _masks(want):
        closure |= {c & v for c in closure}
        if len(closure) > limit:
            break
    return len(closure), max(Counter(map(int.bit_count, closure)).values())


def embed_code(
    code: BlockCode,
    max_order: Optional[int] = None,
    all_matches: bool = False,
) -> Union[EmbeddingResult, list[EmbeddingResult]]:
    """Find hosts whose restricted code contains every word of ``code``.

    Searches orders q ascending from max(words, length), catalog entries in
    enumeration order, and injective column tuples in lexicographic order.
    Column tuples are ordered, not merely ascending sets: relabelled hosts
    are exactly the column permutations of catalog codes, and each hit is
    canonicalised by sorting its columns through a host relabelling.

    An entry's code columns are read off its factors in closed form, and
    the tuples are searched depth first by ``_covering_columns``. Pruning
    drops only prefixes that no covering tuple extends, so the hits, and
    the ``all_matches`` list, come in the same lexicographic order as a scan
    of every tuple. An entry smaller than the AND-closure of the words and
    1^m, or narrower than its largest weight level, has no hit and is skipped
    (``_closure_bounds``). An entry's table is built only when it has a hit,
    and each hit's restriction is read off the code of its returned host.
    Raises NoEmbeddingFound when the search space up to ``max_order`` is
    exhausted, and InvalidSize, as ``enumerate_wajsberg`` does, on reaching
    an order whose catalog would exceed ``MAX_CATALOG_CELLS`` table cells.
    """
    m = code.length
    n = code.size
    lo = max(m, n)
    if max_order is None:
        max_order = lo + 4
    want = set(code._rows)
    size, width = _closure_bounds(want, m, max_order)
    results = []
    for q in range(lo, max_order + 1):
        for factors in _order_types(q):
            if q < size or _product_width(factors) < width:
                continue
            entry = None
            for cols in _covering_columns(_product_masks(factors)[1], want, m):
                entry = entry or ChainProduct(factors, _fold_product(factors))
                result = _canonical_embedding(entry, cols, want)
                if not all_matches:
                    return result
                results.append(result)
    if not results:
        raise NoEmbeddingFound(max_order)
    return results
