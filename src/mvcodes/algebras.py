"""Finite algebras as Cayley tables, with exhaustive axiom verification.

Three presentations of the same kind of structure are supported: bounded
commutative BCK algebras (difference-like operation ``*`` with least element
``zero`` and greatest element ``one``), MV algebras (truncated addition ``+``
with an involutive complement), and Wajsberg algebras (implication ``->`` with
an involutive negation). Carriers are always ``{0, .., k-1}``; any element
names live in calling code. The three differ only in the field that holds
the table, the unary map u that goes with it (the negation, the complement,
or BCK row ``one``, as x' = 1*x) and the constants they name: ``_parts``
reads the kind, table and u off a presentation and ``_make`` builds one, the
package's only dispatch on the three classes.

A table of at most 256 elements keeps its checked rows as ``bytes`` from
build to print: every function in the package that builds a table hands
``CayleyTable`` byte rows, which its one fast test accepts, and any other
rows are checked cell by cell. The axiom suites, the byte filters,
``_relabel`` and ``_order_rows`` read the byte rows, and the public
tuple-of-int ``rows`` are built only when a caller reads them
(``order._LazyRows``). Larger tables hold tuples of ints.

Verification checks every axiom over the whole carrier and reports the
lexicographically least witness per violated axiom. Up to 256 elements a
Wajsberg or BCK table is first checked through its MV translation, made by
``_translate`` like every change of presentation: when that verifies, every
axiom of the input holds, and only otherwise are the input's own axioms
scanned for witnesses. Both are one call of ``_scan``, the package's one
axiom search, which yields one violation at a time, so the proof stops at
the first.

Each row of a ``*_axiom_suite`` is the one definition of an axiom: its name,
arity, predicate and byte filter. For carriers of at most 256 elements, whose
table rows fit byte strings, ``_scan`` first runs every axiom in two or three
variables through its filter, which finds the first x whose slice (x, ...)
holds a failing pair or triple, with C-level ``bytes`` work over the one
``_ByteView`` of the call (``translate`` as table lookup, strided slices as
transposes); the predicate is run only over that slice, so it still picks
the witness. The assoc filter, the one axiom in three variables of the MV
proof, first tests only the slices of a set S that generates the carrier
(Light's test), picked off the table itself with no read of the order: a
valid table costs O(|S| k^2) byte operations instead of O(k^3), and on a
product of chains |S| is 1 + the number of factors. The axioms in one
variable, and every axiom of a larger carrier, are scanned element by
element, pair by pair or triple by triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import EquivalenceBroken, MalformedTable, NotAnAlgebra
from .order import Poset, _byte_rows, _LazyRows, _masks

Rows = tuple[tuple[int, ...], ...]

_BYTES = bytes(range(256))


@dataclass(frozen=True, eq=False, repr=False)
class CayleyTable(_LazyRows):
    """A k-by-k operation table closed over ``{0, .., k-1}``.

    Every table is checked. One fast test comes first, for the rows the
    package builds: k <= 256 rows, each ``bytes`` of length k, with every
    byte below k. Every other input (tuples, lists, ``bytearray``, arrays,
    generators, strings) is walked cell by cell with ``int()``, which
    converts what it can and names the first bad row or cell.

    ``_rows`` holds the checked rows: ``bytes`` up to 256 elements, tuples of
    ints beyond. A walked table keeps its tuple ``rows``; one that passed the
    fast test builds them from the byte rows on first read (``_LazyRows``).
    """

    rows: Rows

    def __post_init__(self):
        rows = tuple(self.rows)
        k = len(rows)
        # k rows of ``bytes`` of length k, as ``_product_rows``, ``_relabel`` and the parser build them
        if k <= 256 and _byte_rows(rows, _BYTES[:k]) and set(map(len, rows)) == {k}:
            self._keep(rows)
            return
        rows = tuple(tuple(map(int, row)) for row in rows)
        object.__setattr__(self, "rows", rows)
        if k == 0:
            raise MalformedTable("empty table")
        for i, row in enumerate(rows):
            if len(row) != k:
                raise MalformedTable(f"row {i} has length {len(row)}, expected {k}")
            if min(row) < 0 or max(row) >= k:
                j = next(j for j, v in enumerate(row) if not 0 <= v < k)
                raise MalformedTable(f"entry ({i},{j}) = {row[j]} out of range [0,{k})")
        object.__setattr__(self, "_rows", tuple(map(bytes, rows)) if k <= 256 else rows)

    def at(self, x: int, y: int) -> int:
        return self._rows[x][y]


def _relabel(table: CayleyTable, rows, cols, cells) -> CayleyTable:
    """The table whose cell (x, y) is ``cells[t[rows[x]][cols[y]]]``; ``cols``
    or ``cells`` given as None is the identity; ``rows`` is always a map.
    Up to 256 elements each gathered row is mapped through ``cells`` by one
    ``translate``, and its columns gathered by a second one, of
    ``bytes(cols)`` through the row; beyond, each row is gathered by one
    ``itemgetter`` call."""
    t = table._rows
    out = map(t.__getitem__, rows)
    if table.k > 256:
        if cols is not None:
            out = map(itemgetter(*cols), out)
        if cells is not None:
            out = [itemgetter(*row)(cells) for row in out]
        return CayleyTable(tuple(out))
    if cells is not None:
        out = map(bytes.translate, out, repeat(_lookup(bytes(cells))))
    if cols is not None:
        out = map(bytes(cols).translate, map(_lookup, out))
    return CayleyTable(list(out))


def _check_unary(values, k: int) -> tuple[int, ...]:
    vals = tuple(map(int, values))
    if len(vals) != k:
        raise MalformedTable(f"unary map has {len(vals)} entries, expected {k}")
    for i, v in enumerate(vals):
        if not 0 <= v < k:
            raise MalformedTable(f"unary entry {i} = {v} out of range [0,{k})")
    return vals


def _check_constant(name: str, value: int, k: int) -> int:
    value = int(value)
    if not 0 <= value < k:
        raise MalformedTable(f"{name} = {value} out of range [0,{k})")
    return value


@dataclass(frozen=True)
class BckAlgebra:
    """Bounded commutative BCK presentation: operation ``*``, constants 0 and 1."""

    table: CayleyTable
    zero: int
    one: int

    def __post_init__(self):
        object.__setattr__(self, "zero", _check_constant("zero", self.zero, self.k))
        object.__setattr__(self, "one", _check_constant("one", self.one, self.k))

    @property
    def k(self) -> int:
        return self.table.k

    def star(self, x: int, y: int) -> int:
        return self.table._rows[x][y]


@dataclass(frozen=True)
class MvAlgebra:
    """MV presentation: truncated sum, involutive complement, least element."""

    oplus: CayleyTable
    complement: tuple[int, ...]
    zero: int

    def __post_init__(self):
        object.__setattr__(self, "complement", _check_unary(self.complement, self.k))
        object.__setattr__(self, "zero", _check_constant("zero", self.zero, self.k))

    @property
    def k(self) -> int:
        return self.oplus.k

    @property
    def one(self) -> int:
        return self.complement[self.zero]

    def plus(self, x: int, y: int) -> int:
        return self.oplus._rows[x][y]

    def neg(self, x: int) -> int:
        return self.complement[x]


@dataclass(frozen=True)
class WajsbergAlgebra:
    """Wajsberg presentation: implication, involutive negation, unit."""

    circ: CayleyTable
    negation: tuple[int, ...]
    one: int

    def __post_init__(self):
        object.__setattr__(self, "negation", _check_unary(self.negation, self.k))
        object.__setattr__(self, "one", _check_constant("one", self.one, self.k))

    @property
    def k(self) -> int:
        return self.circ.k

    @property
    def zero(self) -> int:
        return self.negation[self.one]

    def imp(self, x: int, y: int) -> int:
        return self.circ._rows[x][y]

    def neg(self, x: int) -> int:
        return self.negation[x]


Algebra = Union[BckAlgebra, MvAlgebra, WajsbergAlgebra]


def _parts(algebra: Algebra) -> tuple[str, CayleyTable, Sequence[int]]:
    """The kind, the table and the unary map u of a presentation: u is the
    negation, the complement, or row ``one`` of BCK (x' = 1*x)."""
    if isinstance(algebra, BckAlgebra):
        return "bck", algebra.table, algebra.table._rows[algebra.one]
    if isinstance(algebra, MvAlgebra):
        return "mv", algebra.oplus, algebra.complement
    if isinstance(algebra, WajsbergAlgebra):
        return "wajsberg", algebra.circ, algebra.negation
    raise TypeError(f"not an algebra: {algebra!r}")


def _make(kind: str, table: CayleyTable, unary, zero, one) -> Algebra:
    """Presentation ``kind`` of ``table``; the unary map or constant that
    ``kind`` does not hold is ignored."""
    if kind == "bck":
        return BckAlgebra(table, zero, one)
    if kind == "mv":
        return MvAlgebra(table, unary, zero)
    return WajsbergAlgebra(table, unary, one)


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a verification run; valid iff no violations."""

    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def axioms(self) -> frozenset[str]:
        return frozenset(v.axiom for v in self.violations)

    def witness(self, axiom: str):
        for v in self.violations:
            if v.axiom == axiom:
                return v.witness
        return None


AxiomSuite = list[tuple[str, int, Callable[..., bool], Optional[Callable[..., Optional[int]]]]]


def bck_axiom_suite(b: BckAlgebra) -> AxiomSuite:
    """Axioms of a bounded commutative BCK algebra as (name, arity, predicate,
    byte filter); the filter is None for an axiom in one variable."""
    s = b.table._rows
    z, o = b.zero, b.one
    return [
        ("bck1", 3, lambda x, y, w: s[s[s[x][y]][s[x][w]]][s[w][y]] == z, _bck1_first_slice),
        ("bck2", 2, lambda x, y: s[s[x][s[x][y]]][y] == z, _bck2_first_slice),
        ("bck3", 1, lambda x: s[x][x] == z, None),
        ("bck4", 2, lambda x, y: not (s[x][y] == z and s[y][x] == z) or x == y, _bck4_first_slice),
        ("bck5", 1, lambda x: s[z][x] == z, None),
        ("bounded", 1, lambda x: s[x][o] == z, None),
        ("commutative", 2, lambda x, y: s[y][s[y][x]] == s[x][s[x][y]], _commutative_first_slice),
    ]


def mv_axiom_suite(m: MvAlgebra) -> AxiomSuite:
    """Monoid laws, the MV axioms, and the derived law x + x' = 1."""
    p = m.oplus._rows
    c = m.complement
    z, o = m.zero, m.one
    return [
        ("assoc", 3, lambda x, y, w: p[p[x][y]][w] == p[x][p[y][w]], _assoc_first_slice),
        ("comm", 2, lambda x, y: p[x][y] == p[y][x], _comm_first_slice),
        ("identity", 1, lambda x: p[z][x] == x and p[x][z] == x, None),
        ("double-complement", 1, lambda x: c[c[x]] == x, None),
        ("top-absorbing", 1, lambda x: p[x][o] == o, None),
        ("lukasiewicz", 2, lambda x, y: p[c[p[c[x]][y]]][y] == p[c[p[c[y]][x]]][x], _lukasiewicz_first_slice),
        ("excluded-middle", 1, lambda x: p[x][c[x]] == o, None),
    ]


def wajsberg_axiom_suite(w: WajsbergAlgebra) -> AxiomSuite:
    """The four Wajsberg axioms plus the derived involution of negation."""
    t = w.circ._rows
    n = w.negation
    o = w.one
    return [
        ("w1", 1, lambda x: t[o][x] == x, None),
        ("w2", 3, lambda x, y, v: t[t[x][y]][t[t[y][v]][t[x][v]]] == o, _w2_first_slice),
        ("w3", 2, lambda x, y: t[t[x][y]][y] == t[t[y][x]][x], _w3_first_slice),
        ("w4", 2, lambda x, y: t[t[n[x]][n[y]]][t[y][x]] == o, _w4_first_slice),
        ("involution", 1, lambda x: n[n[x]] == x, None),
    ]


def axiom_suite(algebra: Algebra) -> AxiomSuite:
    suites = {"bck": bck_axiom_suite, "mv": mv_axiom_suite, "wajsberg": wajsberg_axiom_suite}
    return suites[kind_of(algebra)](algebra)


def _lookup(values: bytes) -> bytes:
    """Values as a ``bytes.translate`` table: byte i maps to values[i]."""
    return values.ljust(256, b"\0")


class _ByteView:
    """A table's rows, columns and the rows joined, as bytes, with a ``translate``
    lookup per row and per column; built once per ``_scan`` call and read by
    every filter."""

    def __init__(self, table: CayleyTable):
        self.rows = table._rows
        k = len(self.rows)
        self.flat = b"".join(self.rows)
        self.cols = [self.flat[y::k] for y in range(k)]
        self.lookups = [_lookup(row) for row in self.rows]
        self.col_lookups = [_lookup(col) for col in self.cols]


def _first_asymmetric(flat: bytes, k: int) -> Optional[int]:
    """First x where row x of a flattened k-by-k matrix differs from column x;
    the transpose gives the same x, so either order of flattening serves."""
    return next((x for x in range(k) if flat[x * k : x * k + k] != flat[x::k]), None)


def _w2_first_slice(w: WajsbergAlgebra, view: _ByteView) -> Optional[int]:
    """First x with t[t[x][y]][t[t[y][v]][t[x][v]]] != 1 for some y, v."""
    k = len(view.rows)
    row_of = [slice(y, None, k) for y in range(k)]
    ones = bytes([w.one]) * k
    for x, tx in enumerate(view.rows):
        # Column v, over y, of t[t[y][v]][t[x][v]]; its row y is every k-th byte.
        inner = b"".join(map(bytes.translate, view.cols, map(view.col_lookups.__getitem__, tx)))
        outer = map(bytes.translate, map(inner.__getitem__, row_of), map(view.lookups.__getitem__, tx))
        if not all(map(ones.__eq__, outer)):
            return x
    return None


def _w3_first_slice(w: WajsbergAlgebra, view: _ByteView) -> Optional[int]:
    """First x with t[t[x][y]][y] != t[t[y][x]][x] for some y."""
    # Column y, over x, of t[t[x][y]][y].
    return _first_asymmetric(b"".join(map(bytes.translate, view.cols, view.col_lookups)), w.k)


def _w4_first_slice(w: WajsbergAlgebra, view: _ByteView) -> Optional[int]:
    """First x with t[t[n[x]][n[y]]][t[y][x]] != 1 for some y."""
    n = bytes(w.negation)
    ones = bytes([w.one]) * w.k
    for x, col in enumerate(view.cols):
        # Row x, over y, of t[a][b] with a = t[n[x]][n[y]] and b = t[y][x].
        if bytes(map(getitem, map(view.rows.__getitem__, n.translate(view.lookups[n[x]])), col)) != ones:
            return x
    return None


def _bck1_first_slice(b: BckAlgebra, view: _ByteView) -> Optional[int]:
    """First x with s[s[s[x][y]][s[x][w]]][s[w][y]] != 0 for some y, w.

    Scanned by y: with y and w fixed, d = s[w][y] is the same for every x, so
    a whole column over x is checked against column d of s in one translate.
    Once a slice ``first`` is flagged, later columns are built only over the
    rows x < first.
    """
    k = len(view.rows)
    # fails[d] maps u to 1 where s[u][d] != 0, else to 0.
    nonzero = _lookup(bytes(u != b.zero for u in range(k)))
    fails = [_lookup(col.translate(nonzero)) for col in view.cols]
    col_of = [slice(w, None, k) for w in range(k)]
    first = k
    for coly in view.cols:
        # Row x < first, over w, of u = s[s[x][y]][s[x][w]].
        u = b"".join(map(bytes.translate, view.rows[:first], map(view.lookups.__getitem__, coly[:first])))
        # Byte w*n + x is 1 where (x, y, w) fails, n = first.
        marks = b"".join(map(bytes.translate, map(u.__getitem__, col_of), map(fails.__getitem__, coly)))
        if 1 in marks:
            n = first
            first = next(x for x in range(n) if 1 in marks[x::n])
            if first == 0:
                break
    return first if first < k else None


def _meets(view: _ByteView) -> bytes:
    """s[x][s[x][y]], flattened row by row."""
    return b"".join(map(bytes.translate, view.rows, view.lookups))


def _bck2_first_slice(b: BckAlgebra, view: _ByteView) -> Optional[int]:
    """First x with s[s[x][s[x][y]]][y] != 0 for some y."""
    meets, k = _meets(view), b.k
    # Column y, over x, of s[s[x][s[x][y]]][y]; its row x is every k-th byte.
    marks = b"".join(map(bytes.translate, (meets[y::k] for y in range(k)), view.col_lookups))
    zeros = bytes([b.zero]) * k
    return next((x for x in range(k) if marks[x::k] != zeros), None)


def _bck4_first_slice(b: BckAlgebra, view: _ByteView) -> Optional[int]:
    """First x with s[x][y] = s[y][x] = 0 for some y != x."""
    up = _masks(_marks(view.rows, b.zero, b.k))
    down = _masks(_marks(view.cols, b.zero, b.k))
    return next((x for x, (u, d) in enumerate(zip(up, down)) if u & d & ~(1 << x)), None)


def _commutative_first_slice(b: BckAlgebra, view: _ByteView) -> Optional[int]:
    """First x with s[y][s[y][x]] != s[x][s[x][y]] for some y."""
    return _first_asymmetric(_meets(view), b.k)


def _generators(m: MvAlgebra, view: _ByteView) -> Iterator[int]:
    """A set S that generates the carrier under p, each element yielded as
    it joins S, so a caller that stops early skips the rest of the walk.

    The elements are walked by ascending down-set size (ties by label), and
    each one not yet reached joins S. In an MV algebra x+y = 1 iff y >= x',
    so row x of the table holds as many ``one``s as the down-set of x has
    elements, and the walk reads no order rows. The reached set is closed
    under right sums r -> p[r][g], g in S, and each (element, generator) sum
    is taken once: a new generator with every element reached before it, in
    one ``translate`` of its column, and a newly reached element with every
    generator so far, in one ``translate`` of its row. On a product of
    chains S is ``zero`` and one atom per factor.
    """
    downs = list(map(bytes.count, view.rows, repeat(m.one)))
    gens = seen = b""
    for x in sorted(range(m.k), key=downs.__getitem__):
        if x in seen:
            continue
        yield x
        gens += bytes([x])
        frontier = gens[-1:] + seen.translate(view.col_lookups[x])
        while frontier := bytes(dict.fromkeys(frontier.translate(None, seen))):
            seen += frontier
            frontier = b"".join(map(gens.translate, map(view.lookups.__getitem__, frontier)))


def _assoc_first_slice(m: MvAlgebra, view: _ByteView) -> Optional[int]:
    """First x with p[p[x][y]][w] != p[x][p[y][w]] for some y, w.

    Light's test (Clifford-Preston 1961, 1.2): the slice of x holds for
    every y, w only when it holds for every x in a generating set S of
    ``_generators``, so S is tested first, and the slices from 0 up only
    after some x in S fails. The x whose slice holds are closed under p: if a and
    b hold, then ((a+b)+y)+w = (a+(b+y))+w = a+((b+y)+w) = a+(b+(y+w)) =
    (a+b)+(y+w). So when the slices of S hold, every slice does.
    """

    def fails(x: int) -> bool:
        return view.flat.translate(view.lookups[x]) != b"".join(map(view.rows.__getitem__, view.rows[x]))

    if not any(map(fails, _generators(m, view))):
        return None
    return next(filter(fails, range(m.k)))


def _comm_first_slice(m: MvAlgebra, view: _ByteView) -> Optional[int]:
    """First x with p[x][y] != p[y][x] for some y."""
    return _first_asymmetric(view.flat, m.k)


def _lukasiewicz_first_slice(m: MvAlgebra, view: _ByteView) -> Optional[int]:
    """First x with p[c[p[c[x]][y]]][y] != p[c[p[c[y]][x]]][x] for some y."""
    c = bytes(m.complement)
    # Column y, over x, of c[p[c[x]][y]], then of p[c[p[c[x]][y]]][y].
    inner = map(bytes.translate, map(c.translate, view.col_lookups), repeat(_lookup(c)))
    return _first_asymmetric(b"".join(map(bytes.translate, inner, view.col_lookups)), m.k)


def _scan(algebra: Algebra) -> Iterator[Violation]:
    """The lexicographically least witness of each violated axiom, yielded
    in suite order.

    Up to 256 elements each axiom with a byte filter is skipped when its
    filter flags no slice, and searched only in the flagged slice (x, ...)
    otherwise, over one ``_ByteView``; the predicate finds the witness in it.
    """
    k = algebra.k
    view = _ByteView(_parts(algebra)[1]) if k <= 256 else None
    for name, arity, pred, first_slice in axiom_suite(algebra):
        first_slice = first_slice if view else None
        if first_slice:
            x = first_slice(algebra, view)
            if x is None:
                continue
        for witness in product((x,) if first_slice else range(k), *repeat(range(k), arity - 1)):
            if not pred(*witness):
                yield Violation(name, witness)
                break
        else:
            if first_slice:
                raise RuntimeError(f"{name} filter flagged slice x = {x}, but every pair or triple there holds")


def _translate(algebra: Algebra, kind: str) -> Algebra:
    """The algebra in presentation ``kind`` (the input itself if it is one),
    unverified. Through the unary map u (negation, complement, or row ``one``
    of BCK), x+y = u(x)->y, x*y = u(x'+y) and x*y = u(x->y): one ``_relabel``,
    rows through u when one side is MV, cells when one side is BCK."""
    src, table, u = _parts(algebra)
    if src == kind:
        return algebra
    out = _relabel(table, u if "mv" in (src, kind) else range(algebra.k), None, u if "bck" in (src, kind) else None)
    return _make(kind, out, u, algebra.zero, algebra.one)


def verify(algebra: Algebra) -> AxiomReport:
    """Exhaustively check every axiom of the algebra's kind.

    Up to 256 elements a Wajsberg or BCK input is first proved valid through
    its MV translation, which is term-equivalent (Font-Rodriguez-Torrens 1984,
    Mundici 1986): when that verifies, ``_translate`` maps it back to the
    input exactly (a valid translation of a BCK table has 1*0 = 1, so its
    ``one`` is the input's), and the input is valid. The proof stops at the
    first violation, and only then are the input's own axioms scanned, which
    finds the witnesses: two calls of ``_scan`` at most, one for an MV input
    or beyond 256 elements.
    """
    mv = _translate(algebra, "mv") if algebra.k <= 256 else algebra
    if mv is not algebra and next(_scan(mv), None) is None:
        return AxiomReport(())
    return AxiomReport(tuple(_scan(algebra)))


def verify_bck(table, zero: int, one: int) -> AxiomReport:
    table = table if isinstance(table, CayleyTable) else CayleyTable(table)
    return verify(BckAlgebra(table, zero, one))


def verify_mv(oplus, complement, zero: int) -> AxiomReport:
    oplus = oplus if isinstance(oplus, CayleyTable) else CayleyTable(oplus)
    return verify(MvAlgebra(oplus, tuple(complement), zero))


def verify_wajsberg(circ, negation, one: int) -> AxiomReport:
    circ = circ if isinstance(circ, CayleyTable) else CayleyTable(circ)
    return verify(WajsbergAlgebra(circ, tuple(negation), one))


def evaluate_axiom(algebra: Algebra, axiom: str, witness: Sequence[int]) -> bool:
    """Re-evaluate one named axiom at a specific witness tuple."""
    for name, arity, pred, _ in axiom_suite(algebra):
        if name == axiom:
            if len(witness) != arity:
                raise ValueError(f"{axiom} takes {arity} variables")
            if not all(0 <= v < algebra.k for v in witness):
                raise ValueError(f"witness {tuple(witness)} leaves the carrier [0,{algebra.k})")
            return pred(*witness)
    raise KeyError(axiom)


def kind_of(algebra: Algebra) -> str:
    """The presentation's name: "bck", "mv" or "wajsberg"; raises TypeError
    for anything else."""
    return _parts(algebra)[0]


def ensure_verified(algebra: Algebra) -> None:
    """Raise NotAnAlgebra (with the report attached) unless verification passes."""
    report = verify(algebra)
    if not report.valid:
        axioms = ", ".join(sorted(report.axioms()))
        raise NotAnAlgebra(f"{kind_of(algebra)} verification failed: {axioms}", report)


def _order_rows(algebra: Algebra, xs: Iterable[int]) -> tuple[bytes, ...]:
    """Rows xs of the natural order: for each x, which y satisfy x*y = 0 /
    x'+y = 1 / x->y = 1, as ``bytes`` of 0 and 1 (``_marks``).

    The one place the order is read off a presentation; row x is the up-set
    of x, i.e. its cut subset.
    """
    kind, table, u = _parts(algebra)
    rows = map(table._rows.__getitem__, map(u.__getitem__, xs) if kind == "mv" else xs)
    return _marks(rows, algebra.zero if kind == "bck" else algebra.one, algebra.k)


def _marks(rows: Iterable, value: int, k: int) -> tuple[bytes, ...]:
    """Each row of a k-element table as ``bytes`` of 0 and 1, 1 where it
    holds ``value``: up to 256 elements one ``translate`` per row."""
    if k <= 256:
        return tuple(map(bytes.translate, rows, repeat(bytes(value) + b"\1" + bytes(255 - value))))
    return tuple(bytes([v == value for v in row]) for row in rows)


def natural_order(algebra: Algebra) -> Poset:
    """The order x <= y given by x*y = 0 / x'+y = 1 / x->y = 1 per kind.

    Its rows come from ``_order_rows``, the single reader of the order that
    cut subsets and codewords also use. Raises NotAPoset when the relation
    breaks an order law, which signals an unverified input table.
    """
    return Poset(_order_rows(algebra, range(algebra.k)))


def mv_derived_ops(m: MvAlgebra) -> tuple[CayleyTable, CayleyTable]:
    """The product x.y = (x'+y')' and difference x-y = (x'+y)', tabulated."""
    c = m.complement
    return _relabel(m.oplus, c, c, c), _translate(m, "bck").table


def mv_leq_equivalences(m: MvAlgebra, x: int, y: int) -> bool:
    """Evaluate the four equivalent characterisations of x <= y and agree.

    Conditions: x'+y = 1; x.y' = 0; y = x + (y-x); some z has x+z = y.
    Raises EquivalenceBroken when they disagree, which can only happen for an
    input that is not actually an MV algebra.
    """
    if not (0 <= x < m.k and 0 <= y < m.k):
        raise ValueError(f"({x},{y}) leaves the carrier [0,{m.k})")
    p, c = m.oplus._rows, m.complement
    z, o = m.zero, m.one
    cond1 = p[c[x]][y] == o
    cond2 = c[p[c[x]][c[c[y]]]] == z
    cond3 = y == p[x][c[p[c[y]][x]]]
    cond4 = any(p[x][t] == y for t in range(m.k))
    if not cond1 == cond2 == cond3 == cond4:
        raise EquivalenceBroken(
            f"order characterisations disagree at ({x},{y}): "
            f"{(cond1, cond2, cond3, cond4)}"
        )
    return cond1
