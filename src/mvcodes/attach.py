"""Attaching algebras to binary block codes, and embedding under-sized codes.

A square code whose matrix has the right boundary shape carries a candidate
order: the matrix read as a relation, bit (i,j) saying row i is below row j.
When that relation is an order, row i is the up-set of i, so the relation is
also the reverse-componentwise order of the words. A finite MV algebra is a
product of chains (Cignoli-D'Ottaviano-Mundici 2000), and its order, a
distributive lattice, is fixed by its join-irreducibles (Birkhoff). They
form one chain per factor, and the number of members of each chain below an
element is its digit for that factor. So the factors and the first order
isomorphism are read off the relation in closed form, only that one chain
product is built, and its structure is transported onto the code's rows
once. When that algebra regenerates the code, the relation is the product's
order and no order law needs checking. Otherwise the order laws are checked
and give the witness (for instance of a broken transitivity), and an order
that passes them is no product of chains: on a product the coordinates
would be an order isomorphism, and no search over maps is needed. Every
other isomorphism differs from the first by an order automorphism of the
product, which only permutes the digits of equal factors and so is an
algebra automorphism: all of them transport to the same algebra.

Embedding searches the same products without building them. The code of a
chain product is closed form in the digits: column c is the down-set of c,
the elements whose every digit is at most c's (``catalog._product_masks``).
The column search reads those masks, and a host's table is folded only for
an entry that has a hit, once, and checked against its closed-form columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Iterator, Optional, Union

from .algebras import BckAlgebra, MvAlgebra, WajsbergAlgebra, _translate
from .catalog import (
    ChainProduct,
    _all_isos,
    _fold_product,
    _order_types,
    _product_iso,
    _product_masks,
    transport_structure,
)
from .codes import BlockCode, code_from_algebra
from .errors import AlgebraError, NoEmbeddingFound, NonSquare
from .order import OrderIso, _masks, order_violation


@dataclass(frozen=True)
class MatrixCheck:
    condition: str
    position: tuple[int, int]


@dataclass(frozen=True)
class MatrixReport:
    """Boundary-shape checks of a square code matrix, with failure positions."""

    failures: tuple[MatrixCheck, ...]

    @property
    def valid(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class RejectionReason:
    kind: str  # boundary-violation | not-a-poset | transitivity-failure | no-catalog-match
    witness: tuple[int, ...]
    detail: str


class CodeRejected(AlgebraError):
    """No algebra of the requested kind reproduces the given code."""

    def __init__(self, reason: RejectionReason):
        super().__init__(f"{reason.kind}: {reason.detail}")
        self.reason = reason


@dataclass(frozen=True)
class AttachmentResult:
    """An algebra on the code's row positions, with its catalog provenance."""

    algebra: WajsbergAlgebra
    iso: OrderIso
    source: ChainProduct

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
    no catalog entry. The one candidate entry is the chain product whose
    factors are read off the join-irreducibles of the relation; catalog
    entries are pairwise non-isomorphic, so no other entry can match. Its
    structure is transported along the least order isomorphism, read off
    the same join-irreducibles (``catalog._product_iso``), once per code; the
    code is accepted when that algebra regenerates it. Only a code that is
    not accepted has its order laws checked; an order that passes them is
    no product of chains, since on one the Birkhoff coordinates are an order
    isomorphism (the ``catalog._product_masks`` of the map are the code's
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
    up, down = _masks(code._rows), _masks(zip(*code._rows))
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
    bad = order_violation(up, down)
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


@dataclass(frozen=True)
class EmbeddingResult:
    """A host algebra whose code, cut down to ``columns``, covers the input."""

    q: int
    host: WajsbergAlgebra
    factors: tuple[int, ...]
    columns: tuple[int, ...]
    restriction: BlockCode

    def factor_label(self) -> str:
        return "x".join(str(f) for f in self.factors)


def _canonical_embedding(
    entry: ChainProduct, cols: tuple[int, ...], want: set, down: tuple[int, ...]
) -> EmbeddingResult:
    """The hit ``cols`` in ``entry``, its host relabelled so that the selected
    columns sit in ascending positions; the restriction set is unchanged and
    the host stays a catalog transport. The restriction is read off ``down``,
    the down-set masks of ``entry``'s order (its code's columns)."""
    q = entry.order
    forward, inverse = list(range(q)), list(range(q))
    ordered = sorted(cols)
    for a, b in zip(cols, ordered):
        forward[a], inverse[b] = b, a
    host = transport_structure(entry.algebra, OrderIso(tuple(forward)))
    # Host word p is the word of entry element inverse[p], and host column
    # ordered[i] is entry column cols[i]: byte i of the word of element r is
    # bit r of that column's mask.
    masks = [down[c] for c in cols]
    words = (bytes(d >> r & 1 for d in masks) for r in inverse)
    restriction = BlockCode(tuple(dict.fromkeys(words)))
    if not want.issubset(restriction._rows):
        raise RuntimeError(f"columns {cols} of host {entry.factors} do not cover the code")
    return EmbeddingResult(q, host, entry.factors, tuple(ordered), restriction)


def _covering_columns(ones: tuple[int, ...], want: set, m: int) -> Iterator[tuple[int, ...]]:
    """Injective column tuples of length ``m`` on which a square code of q
    words covers ``want``; ``ones[c]`` is the mask of the words with a 1 in
    column c.

    Yields them in the order of ``itertools.permutations(range(q), m)``,
    depth first, trying unused columns (a bitmask) in ascending order. For
    each wanted word a q-bit mask marks the code words that agree with it on
    the columns chosen so far, and a prefix with an empty mask is dropped.
    The masks sit in lanes of q + 1 bits of one ``int``, the top bit of each
    lane a guard, and for each depth and column one packed mask holds, per
    lane, the words with the wanted word's bit in that column. A candidate
    column costs one AND, and one addition of q ones per lane, which carries
    into a lane's guard exactly when that lane is not empty.
    """
    q, full = len(ones), (1 << len(ones)) - 1
    lanes = [1 << t * (q + 1) for t in range(len(want))]  # bit 0 of each lane
    spread = sum(lanes)
    low, guard = spread * full, spread << q
    spread_ones = [o * spread for o in ones]
    # at depth d, a lane whose wanted word has a 0 there takes the complement
    zeros = [sum(compress(lanes, map(not_, bits))) * full for bits in zip(*want)]
    packed = [[s ^ z for s in spread_ones] for z in zeros]
    chosen = []

    def extend(live, used, depth):
        if depth == m:
            yield tuple(chosen)
            return
        by_column = packed[depth]
        for c in range(q):
            if used >> c & 1:
                continue
            narrowed = live & by_column[c]
            if (narrowed + low) & guard == guard:
                chosen.append(c)
                yield from extend(narrowed, used | 1 << c, depth + 1)
                chosen.pop()

    return extend(low, 0, 0)


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
    of every tuple. An entry's table is built only when it has a hit. Raises
    NoEmbeddingFound when the search space up to ``max_order`` is exhausted,
    and InvalidSize, as ``enumerate_wajsberg`` does, on reaching an order
    whose catalog would exceed ``MAX_CATALOG_CELLS`` table cells.
    """
    m = code.length
    n = code.size
    lo = max(m, n)
    if max_order is None:
        max_order = lo + 4
    want = set(code._rows)
    results = []
    for q in range(lo, max_order + 1):
        for factors in _order_types(q):
            down, entry = _product_masks(factors)[1], None
            for cols in _covering_columns(down, want, m):
                if entry is None:
                    entry = ChainProduct(factors, _fold_product(factors))
                    if _masks(zip(*code_from_algebra(entry.algebra)._rows)) != down:
                        raise RuntimeError(f"closed-form columns of {factors} differ from the code of its table")
                result = _canonical_embedding(entry, cols, want, down)
                if not all_matches:
                    return result
                results.append(result)
    if not results:
        raise NoEmbeddingFound(max_order)
    return results
