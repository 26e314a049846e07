"""Attaching algebras to binary block codes, and embedding under-sized codes.

A square code whose matrix has the right boundary shape carries a candidate
order in two guises: the matrix read as a relation (bit (i,j) says row i is
below row j), and the reverse-componentwise comparison of the words. For
codes generated by an algebra the two coincide; when the matrix relation is
not transitive they cannot, and no algebra reproduces the code. Otherwise the
catalog of chain products is searched for an order-isomorphic entry and its
structure is transported onto the code's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .algebras import BckAlgebra, MvAlgebra, WajsbergAlgebra, natural_order
from .catalog import ChainProduct, enumerate_wajsberg, transport_structure
from .codes import BlockCode, code_from_algebra, code_poset
from .convert import mv_to_bck, wajsberg_to_mv
from .errors import AlgebraError, NoEmbeddingFound, NonSquare
from .order import OrderIso, Poset, order_violation, poset_isomorphisms


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
    words = code.words
    failures = []

    def first_bad(cells, want):
        for i, j in cells:
            if words[i][j] != want:
                return (i, j)
        return None

    checks = [
        ("first-row-ones", [(0, j) for j in range(k)], 1),
        ("last-column-ones", [(i, k - 1) for i in range(k)], 1),
        ("last-row-unit", [(k - 1, j) for j in range(k - 1)], 0),
        ("first-column-unit", [(i, 0) for i in range(1, k)], 0),
        ("diagonal-ones", [(i, i) for i in range(k)], 1),
    ]
    for name, cells, want in checks:
        pos = first_bad(cells, want)
        if pos is not None:
            failures.append(MatrixCheck(name, pos))
    return MatrixReport(tuple(failures))


def _matrix_relation_poset(code: BlockCode) -> Poset:
    """The matrix read as an order relation; rejects when it is not one."""
    words = code.words
    k = code.size
    rows = tuple(tuple(words[i][j] == 1 for j in range(k)) for i in range(k))
    bad = order_violation(rows)
    if bad is not None:
        law, witness = bad
        kind = "transitivity-failure" if law == "transitivity" else "not-a-poset"
        raise CodeRejected(
            RejectionReason(kind, witness, f"matrix relation breaks {law} at {witness}")
        )
    return Poset(rows)


def attach_wajsberg(
    code: BlockCode, all_matches: bool = False
) -> Union[AttachmentResult, list[AttachmentResult]]:
    """Reconstruct the Wajsberg algebra whose code is exactly ``code``.

    Rows of the code become carrier elements in their listed order. Raises
    CodeRejected with a re-checkable witness when the matrix fails the
    boundary shape, its relation is not an order, or the word order matches
    no catalog entry. With ``all_matches`` every (catalog entry, order
    isomorphism) pair is returned; the transported tables all coincide, so
    the default first match is canonical.
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
    relation = _matrix_relation_poset(code)
    word_order = code_poset(code)
    # With ones on the diagonal and distinct rows, a transitive matrix
    # relation always equals the word order; anything else is a logic bug.
    if relation.leq != word_order.leq:
        raise RuntimeError("matrix relation and word order of the code differ")

    matches = []
    for entry in enumerate_wajsberg(code.size):
        entry_order = natural_order(entry.algebra)
        for iso in poset_isomorphisms(entry_order, word_order):
            algebra = transport_structure(entry.algebra, iso)
            regenerated = code_from_algebra(algebra)
            if regenerated.words != code.words:
                raise RuntimeError(
                    f"algebra transported from catalog entry {entry.factors} "
                    "does not regenerate the code"
                )
            result = AttachmentResult(algebra, iso, entry)
            if not all_matches:
                return result
            matches.append(result)
    if not matches:
        raise CodeRejected(
            RejectionReason(
                "no-catalog-match",
                (),
                f"word order of the {code.size}-word code matches no product of chains",
            )
        )
    return matches


def attach_mv(code: BlockCode) -> MvAlgebra:
    """The MV presentation of the attached algebra; same rejection behaviour."""
    return wajsberg_to_mv(attach_wajsberg(code).algebra)


def attach_bck(code: BlockCode) -> BckAlgebra:
    """The BCK presentation of the attached algebra; same rejection behaviour."""
    return mv_to_bck(attach_mv(code))


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
    entry: ChainProduct, cols: tuple[int, ...], want: set
) -> EmbeddingResult:
    # Relabel the host so the selected columns sit in ascending positions;
    # the restriction set is unchanged and the host stays a catalog transport.
    q = entry.order
    forward = list(range(q))
    ordered = sorted(cols)
    for a, b in zip(cols, ordered):
        forward[a] = b
    host = transport_structure(entry.algebra, OrderIso(tuple(forward)))
    host_words = code_from_algebra(host).words
    seen = []
    for w in host_words:
        restricted = tuple(w[c] for c in ordered)
        if restricted not in seen:
            seen.append(restricted)
    restriction = BlockCode(tuple(seen))
    if not want <= set(restriction.words):
        raise RuntimeError(f"columns {cols} of host {entry.factors} do not cover the code")
    return EmbeddingResult(q, host, entry.factors, tuple(ordered), restriction)


def _covering_columns(
    words: tuple[tuple[int, ...], ...], want: set, m: int
) -> Iterator[tuple[int, ...]]:
    """Injective column tuples of length ``m`` on which ``words`` cover ``want``.

    Yields them in the order of ``itertools.permutations(range(q), m)``. For
    each wanted word, a bitmask over ``words`` marks those that agree with it
    on the columns chosen so far; a prefix with an empty mask is dropped.
    """
    q = len(words[0])
    full = (1 << len(words)) - 1
    split = []  # per column: (words with bit 0, words with bit 1) as bitmasks
    for c in range(q):
        ones = sum(1 << i for i, w in enumerate(words) if w[c])
        split.append((full ^ ones, ones))
    targets = tuple(want)
    chosen = []

    def extend(live):
        depth = len(chosen)
        if depth == m:
            yield tuple(chosen)
            return
        bits = [w[depth] for w in targets]
        for c in range(q):
            if c in chosen:
                continue
            by_bit = split[c]
            narrowed = []
            for mask, bit in zip(live, bits):
                mask &= by_bit[bit]
                if not mask:
                    break
                narrowed.append(mask)
            else:
                chosen.append(c)
                yield from extend(narrowed)
                chosen.pop()

    return extend([full] * len(targets))


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

    The tuples are searched depth first, one column position at a time,
    trying unused columns in ascending order. For every input word the
    search keeps the set of host words that agree with it on the columns
    chosen so far, and abandons a prefix as soon as one of these sets is
    empty. Pruning drops only prefixes that no covering tuple extends, so
    the hits, and the ``all_matches`` list, come in the same lexicographic
    order as a scan of every tuple. Raises NoEmbeddingFound when the search
    space up to ``max_order`` is exhausted.
    """
    m = code.length
    n = code.size
    lo = max(m, n)
    if max_order is None:
        max_order = lo + 4
    if max_order < lo:
        raise NoEmbeddingFound(max_order)
    want = set(code.words)
    results = []
    for q in range(lo, max_order + 1):
        for entry in enumerate_wajsberg(q):
            words = code_from_algebra(entry.algebra).words
            for cols in _covering_columns(words, want, m):
                result = _canonical_embedding(entry, cols, want)
                if not all_matches:
                    return result
                results.append(result)
    if not results:
        raise NoEmbeddingFound(max_order)
    return results
