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

A table keeps its checked rows, from build to print, in the row format that
``_cells`` picks from its size, the package's one choice of it: ``bytes`` up
to 256 elements, tuples of ints beyond. Every site that builds or reads rows
is written against the format's four operations (build a row, join rows,
make a lookup, ``translate``): C-level ``bytes`` work, or ``itemgetter``
gathers. Every function in the package that builds a table hands
``CayleyTable`` rows of the format, which its one fast test accepts, and any
other rows are checked cell by cell. The axiom suites, the filters,
``_relabel`` and ``_order_rows`` read those rows, and the public tuple-of-int
``rows`` are built only when a caller reads them (``order._LazyRows``).

Verification checks every axiom over the whole carrier and reports the
lexicographically least witness per violated axiom. A Wajsberg or BCK table
is first checked through its MV translation, made by ``_translate`` like
every change of presentation: when that verifies, every axiom of the input
holds, and only otherwise are the input's own axioms scanned for witnesses.
Both are one call of ``_scan``, the package's one axiom search, which yields
one violation at a time, so the proof stops at the first.

Each row of a ``*_axiom_suite`` is the one definition of an axiom: its name,
arity, predicate and filter. ``_scan`` first runs every axiom in two or
three variables through its filter, which finds the first x whose slice
(x, ...) holds a failing pair or triple, with whole-row work over the one
``_TableView`` of the call (``translate`` as table lookup, strided slices as
transposes); the predicate is run only over that slice, so it still picks
the witness, and an axiom that first fails at x costs O(x k^2) row work. The
assoc filter, the one axiom in three variables of the MV proof, first tests
only the slices of a set S that generates the carrier (Light's test), picked
off the table itself with no read of the order: a valid table costs
O(|S| k^2) row operations instead of O(k^3), and on a product of chains |S|
is 1 + the number of factors. The axioms in one variable are scanned element
by element.
"""

from __future__ import annotations

import sys
from itertools import chain, product, repeat
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import EquivalenceBroken, MalformedTable
from .order import Poset, _LazyRows, _Record, _up_down

__all__ = [
    "Algebra", "AxiomReport", "BckAlgebra", "CayleyTable", "MvAlgebra", "Violation", "WajsbergAlgebra",
    "evaluate_axiom", "kind_of", "mv_derived_ops", "mv_leq_equivalences", "natural_order", "verify", "verify_bck",
    "verify_mv", "verify_wajsberg",
]

Rows = tuple[tuple[int, ...], ...]


def _gather(data, table, *delete):
    """``bytes.translate`` on tuple rows: ``table`` at each cell of ``data``,
    of any length, as ``bytes`` when ``table`` is; with no table, ``data``
    without its int cells in ``delete``, one sequence if given."""
    if table is None:
        drop = set(*delete)
        return tuple(v for v in data if type(v) is not int or v not in drop)
    cells = itemgetter(*data)(table) if len(data) > 1 else tuple(map(table.__getitem__, data))
    return bytes(cells) if type(table) is bytes else cells


# (row, join, lookup, translate, identity) of each row format; see ``_cells``
_BYTE_CELLS = (bytes, b"".join, lambda cells: cells.ljust(256, b"\0"), bytes.translate, bytes(range(256)))
_TUPLE_CELLS = (tuple, lambda rows: tuple(chain.from_iterable(rows)), lambda cells: cells, _gather, range(sys.maxsize))


def _cells(k: int):
    """The row format of a k-element table, the package's one choice of it:
    ``bytes`` up to 256 elements, tuples of ints beyond. Its operations
    build a row from ints, join rows into one, make a row a lookup, and
    ``translate`` a row through a lookup, or delete cells when the lookup is
    None; ``translate.__get__(x)`` is ``x.translate``. The identity maps
    each cell to itself, so its slice from s, as a lookup, adds s to a cell."""
    return _BYTE_CELLS if k <= 256 else _TUPLE_CELLS


class CayleyTable(_LazyRows):
    """A k-by-k operation table closed over ``{0, .., k-1}``.

    Every table is checked. One fast test comes first, for the rows the
    package builds: k rows in the row format of ``_cells``, each of length
    k, with every cell an int below k. Every other input (lists,
    ``bytearray``, arrays, generators, strings, rows of the other format) is
    walked cell by cell with ``int()``, which converts what it can and names
    the first bad row or cell.

    ``_rows`` holds the checked rows in the row format. A walked table keeps
    its tuple ``rows``; one that passed the fast test builds them from
    ``_rows`` on first read (``_LazyRows``).
    """

    def __init__(self, rows: Rows):
        rows = tuple(rows)
        k = len(rows)
        form, join, _, translate, identity = _cells(k)
        # k rows of the format, of length k, as ``_product_rows``, ``_relabel`` and the parser build them
        fast = set(map(type, rows)) == {form} and not translate(join(rows), None, identity[:k])
        if fast and set(map(len, rows)) == {k}:
            self.__dict__["_rows"] = rows
            return
        rows = tuple(tuple(map(int, row)) for row in rows)
        if k == 0:
            raise MalformedTable("empty table")
        for i, row in enumerate(rows):
            if len(row) != k:
                raise MalformedTable(f"row {i} has length {len(row)}, expected {k}")
            if min(row) < 0 or max(row) >= k:
                j = next(j for j, v in enumerate(row) if not 0 <= v < k)
                raise MalformedTable(f"entry ({i},{j}) = {row[j]} out of range [0,{k})")
        self.__dict__.update(rows=rows, _rows=tuple(map(form, rows)))

    def at(self, x: int, y: int) -> int:
        return self._rows[x][y]


def _relabel(table: CayleyTable, rows, cols, cells) -> CayleyTable:
    """The table whose cell (x, y) is ``cells[t[rows[x]][cols[y]]]``; ``cols``
    or ``cells`` given as None is the identity; ``rows`` is always a map.
    In the row format of ``_cells``, each gathered row is mapped through
    ``cells`` by one ``translate``, and its columns gathered by a second
    one, of ``cols`` through the row."""
    row, _, lookup, translate, _ = _cells(table.k)
    out = map(table._rows.__getitem__, rows)
    if cells is not None:
        out = map(translate, out, repeat(lookup(row(cells))))
    if cols is not None:
        out = map(translate.__get__(row(cols)), map(lookup, out))
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


class BckAlgebra(_Record):
    """Bounded commutative BCK presentation: operation ``*``, constants 0 and 1."""

    def __init__(self, table: CayleyTable, zero: int, one: int):
        k = table.k
        self.__dict__.update(table=table, zero=_check_constant("zero", zero, k), one=_check_constant("one", one, k))

    @property
    def k(self) -> int:
        return self.table.k

    def star(self, x: int, y: int) -> int:
        return self.table._rows[x][y]


class MvAlgebra(_Record):
    """MV presentation: truncated sum, involutive complement, least element."""

    def __init__(self, oplus: CayleyTable, complement: tuple[int, ...], zero: int):
        k = oplus.k
        self.__dict__.update(oplus=oplus, complement=_check_unary(complement, k), zero=_check_constant("zero", zero, k))

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


class WajsbergAlgebra(_Record):
    """Wajsberg presentation: implication, involutive negation, unit."""

    def __init__(self, circ: CayleyTable, negation: tuple[int, ...], one: int):
        k = circ.k
        self.__dict__.update(circ=circ, negation=_check_unary(negation, k), one=_check_constant("one", one, k))

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


class Violation(_Record):
    def __init__(self, axiom: str, witness: tuple[int, ...]):
        self.__dict__.update(axiom=axiom, witness=witness)


class AxiomReport(_Record):
    """Outcome of a verification run; valid iff no violations."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.__dict__["violations"] = violations

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


class _TableView:
    """A table's rows, columns and the rows joined, in the row format of
    ``_cells``, whose operations it holds, with a ``translate`` lookup per
    row and per column; built once per ``_scan`` call and read by every
    filter."""

    def __init__(self, table: CayleyTable):
        self.rows = table._rows
        k = len(self.rows)
        self.row, self.join, self.lookup, self.translate, _ = _cells(k)
        self.flat = self.join(self.rows)
        self.cols = [self.flat[y::k] for y in range(k)]
        self.lookups = [self.lookup(row) for row in self.rows]
        self.col_lookups = [self.lookup(col) for col in self.cols]


def _first_asymmetric(flat: bytes, k: int) -> Optional[int]:
    """First x where row x of a flattened k-by-k matrix differs from column x;
    the transpose gives the same x, so either order of flattening serves."""
    return next((x for x in range(k) if flat[x * k : x * k + k] != flat[x::k]), None)


def _w2_first_slice(w: WajsbergAlgebra, view: _TableView) -> Optional[int]:
    """First x with t[t[x][y]][t[t[y][v]][t[x][v]]] != 1 for some y, v."""
    k, join, translate = len(view.rows), view.join, view.translate
    row_of = [slice(y, None, k) for y in range(k)]
    ones = view.row((w.one,)) * k
    for x, tx in enumerate(view.rows):
        # Column v, over y, of t[t[y][v]][t[x][v]]; its row y is every k-th cell.
        inner = join(map(translate, view.cols, map(view.col_lookups.__getitem__, tx)))
        outer = map(translate, map(inner.__getitem__, row_of), map(view.lookups.__getitem__, tx))
        if not all(map(ones.__eq__, outer)):
            return x
    return None


def _w3_first_slice(w: WajsbergAlgebra, view: _TableView) -> Optional[int]:
    """First x with t[t[x][y]][y] != t[t[y][x]][x] for some y."""
    # Column y, over x, of t[t[x][y]][y].
    return _first_asymmetric(view.join(map(view.translate, view.cols, view.col_lookups)), w.k)


def _w4_first_slice(w: WajsbergAlgebra, view: _TableView) -> Optional[int]:
    """First x with t[t[n[x]][n[y]]][t[y][x]] != 1 for some y."""
    row, translate = view.row, view.translate
    n = row(w.negation)
    ones = row((w.one,)) * w.k
    for x, col in enumerate(view.cols):
        # Row x, over y, of t[a][b] with a = t[n[x]][n[y]] and b = t[y][x].
        if row(map(getitem, map(view.rows.__getitem__, translate(n, view.lookups[n[x]])), col)) != ones:
            return x
    return None


def _bck1_first_slice(b: BckAlgebra, view: _TableView) -> Optional[int]:
    """First x with s[s[s[x][y]][s[x][w]]][s[w][y]] != 0 for some y, w.

    Scanned by y: with y and w fixed, d = s[w][y] is the same for every x, so
    a whole column over x is checked against column d of s in one translate.
    Once a slice ``first`` is flagged, later columns are built only over the
    rows x < first.
    """
    k, join, lookup, translate = len(view.rows), view.join, view.lookup, view.translate
    # fails[d] maps u to 1 where s[u][d] != 0, else to 0.
    nonzero = lookup(view.row(u != b.zero for u in range(k)))
    fails = [lookup(translate(col, nonzero)) for col in view.cols]
    col_of = [slice(w, None, k) for w in range(k)]
    first = k
    for coly in view.cols:
        # Row x < first, over w, of u = s[s[x][y]][s[x][w]].
        u = join(map(translate, view.rows[:first], map(view.lookups.__getitem__, coly[:first])))
        # Cell w*n + x is 1 where (x, y, w) fails, n = first.
        marks = join(map(translate, map(u.__getitem__, col_of), map(fails.__getitem__, coly)))
        if 1 in marks:
            n = first
            first = next(x for x in range(n) if 1 in marks[x::n])
            if first == 0:
                break
    return first if first < k else None


def _meets(view: _TableView):
    """s[x][s[x][y]], flattened row by row."""
    return view.join(map(view.translate, view.rows, view.lookups))


def _bck2_first_slice(b: BckAlgebra, view: _TableView) -> Optional[int]:
    """First x with s[s[x][s[x][y]]][y] != 0 for some y."""
    meets, k = _meets(view), b.k
    # Column y, over x, of s[s[x][s[x][y]]][y]; its row x is every k-th cell.
    marks = view.join(map(view.translate, (meets[y::k] for y in range(k)), view.col_lookups))
    zeros = view.row((b.zero,)) * k
    return next((x for x in range(k) if marks[x::k] != zeros), None)


def _bck4_first_slice(b: BckAlgebra, view: _TableView) -> Optional[int]:
    """First x with s[x][y] = s[y][x] = 0 for some y != x."""
    up, down = _up_down(_marks(view.rows, b.zero, b.k))
    return next((x for x, (u, d) in enumerate(zip(up, down)) if u & d & ~(1 << x)), None)


def _commutative_first_slice(b: BckAlgebra, view: _TableView) -> Optional[int]:
    """First x with s[y][s[y][x]] != s[x][s[x][y]] for some y."""
    return _first_asymmetric(_meets(view), b.k)


def _generators(m: MvAlgebra, view: _TableView) -> Iterator[int]:
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
    row, translate = view.row, view.translate
    downs = list(map(row.count, view.rows, repeat(m.one)))
    gens = seen = row()
    for x in sorted(range(m.k), key=downs.__getitem__):
        if x in seen:
            continue
        yield x
        gens += row((x,))
        frontier = gens[-1:] + translate(seen, view.col_lookups[x])
        while frontier := row(dict.fromkeys(translate(frontier, None, seen))):
            seen += frontier
            frontier = view.join(map(translate.__get__(gens), map(view.lookups.__getitem__, frontier)))


def _assoc_first_slice(m: MvAlgebra, view: _TableView) -> Optional[int]:
    """First x with p[p[x][y]][w] != p[x][p[y][w]] for some y, w.

    Light's test (Clifford-Preston 1961, 1.2): the slice of x holds for
    every y, w only when it holds for every x in a generating set S of
    ``_generators``, so S is tested first, and the slices from 0 up only
    after some x in S fails. The x whose slice holds are closed under p: if a and
    b hold, then ((a+b)+y)+w = (a+(b+y))+w = a+((b+y)+w) = a+(b+(y+w)) =
    (a+b)+(y+w). So when the slices of S hold, every slice does.
    """

    def fails(x: int) -> bool:
        return view.translate(view.flat, view.lookups[x]) != view.join(map(view.rows.__getitem__, view.rows[x]))

    if not any(map(fails, _generators(m, view))):
        return None
    return next(filter(fails, range(m.k)))


def _comm_first_slice(m: MvAlgebra, view: _TableView) -> Optional[int]:
    """First x with p[x][y] != p[y][x] for some y."""
    return _first_asymmetric(view.flat, m.k)


def _lukasiewicz_first_slice(m: MvAlgebra, view: _TableView) -> Optional[int]:
    """First x with p[c[p[c[x]][y]]][y] != p[c[p[c[y]][x]]][x] for some y."""
    c, translate = view.row(m.complement), view.translate
    # Column y, over x, of c[p[c[x]][y]], then of p[c[p[c[x]][y]]][y].
    inner = map(translate, map(translate.__get__(c), view.col_lookups), repeat(view.lookup(c)))
    return _first_asymmetric(view.join(map(translate, inner, view.col_lookups)), m.k)


def _scan(algebra: Algebra) -> Iterator[Violation]:
    """The lexicographically least witness of each violated axiom, yielded
    in suite order.

    Each axiom with a filter is skipped when its filter flags no slice, and
    searched only in the flagged slice (x, ...) otherwise, over one
    ``_TableView``; the predicate finds the witness in it. Every table size
    takes this one path.
    """
    k = algebra.k
    view = _TableView(_parts(algebra)[1])
    for name, arity, pred, first_slice in axiom_suite(algebra):
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

    At every size a Wajsberg or BCK input is first proved valid through its
    MV translation, which is term-equivalent (Font-Rodriguez-Torrens 1984,
    Mundici 1986): when that verifies, ``_translate`` maps it back to the
    input exactly (a valid translation of a BCK table has 1*0 = 1, so its
    ``one`` is the input's), and the input is valid. The proof stops at the
    first violation, and only then are the input's own axioms scanned, which
    finds the witnesses: two calls of ``_scan`` at most, one for an MV input.
    """
    mv = _translate(algebra, "mv")
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


def _order_rows(algebra: Algebra, xs: Iterable[int]) -> tuple[bytes, ...]:
    """Rows xs of the natural order: for each x, which y satisfy x*y = 0 /
    x'+y = 1 / x->y = 1, as ``bytes`` of 0 and 1 (``_marks``).

    The one place the order is read off a presentation outside ``verify``,
    whose filters read only their ``_TableView`` (the bck4 filter marks the
    same rows there with ``_marks``); row x is the up-set of x, i.e. its cut
    subset.
    """
    kind, table, u = _parts(algebra)
    rows = map(table._rows.__getitem__, map(u.__getitem__, xs) if kind == "mv" else xs)
    return _marks(rows, algebra.zero if kind == "bck" else algebra.one, algebra.k)


def _marks(rows: Iterable, value: int, k: int) -> tuple[bytes, ...]:
    """Each row of a k-element table as ``bytes`` of 0 and 1, 1 where it
    holds ``value``: one ``translate`` per row, through a ``bytes`` lookup."""
    _, _, lookup, translate, _ = _cells(k)
    return tuple(map(translate, rows, repeat(lookup(bytes(value) + b"\1" + bytes(k - 1 - value)))))


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
