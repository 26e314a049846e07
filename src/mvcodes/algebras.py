"""Finite algebras as Cayley tables, with exhaustive axiom verification.

Three presentations of the same kind of structure are supported: bounded
commutative BCK algebras (difference-like operation ``*`` with least element
``zero`` and greatest element ``one``), MV algebras (truncated addition ``+``
with an involutive complement), and Wajsberg algebras (implication ``->`` with
an involutive negation). Carriers are always ``{0, .., k-1}``; any element
names live in calling code.

Verification checks every axiom over the whole carrier and reports the
lexicographically least witness per violated axiom. The predicates of the
``*_axiom_suite`` functions are the one definition of each axiom. The
three-variable axioms (w2, bck1, assoc) cost O(k^3): for carriers of at most
256 elements, whose table rows fit byte strings, a byte filter finds the first
x whose slice (x, ., .) holds a failing triple with C-level ``bytes`` work
(``translate`` as table lookup, strided slices as transposes), and the
predicate is run only over that slice, so it still picks the witness. Larger
carriers and the axioms in one or two variables are scanned triple by triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Callable, Optional, Sequence, Union

from .errors import EquivalenceBroken, MalformedTable, NotAnAlgebra
from .order import Poset

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CayleyTable:
    """A k-by-k operation table closed over ``{0, .., k-1}``."""

    rows: Rows

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        k = len(rows)
        if k == 0:
            raise MalformedTable("empty table")
        for i, row in enumerate(rows):
            if len(row) != k:
                raise MalformedTable(f"row {i} has length {len(row)}, expected {k}")
            if min(row) < 0 or max(row) >= k:
                j = next(j for j, v in enumerate(row) if not 0 <= v < k)
                raise MalformedTable(f"entry ({i},{j}) = {row[j]} out of range [0,{k})")

    @property
    def k(self) -> int:
        return len(self.rows)

    def at(self, x: int, y: int) -> int:
        return self.rows[x][y]


def _check_unary(values, k: int) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
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
        return self.table.rows[x][y]


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
        return self.oplus.rows[x][y]

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
        return self.circ.rows[x][y]

    def neg(self, x: int) -> int:
        return self.negation[x]


Algebra = Union[BckAlgebra, MvAlgebra, WajsbergAlgebra]


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


AxiomSuite = list[tuple[str, int, Callable[..., bool]]]


def bck_axiom_suite(b: BckAlgebra) -> AxiomSuite:
    """Axioms of a bounded commutative BCK algebra as (name, arity, predicate)."""
    s = b.table.rows
    z, o = b.zero, b.one
    return [
        ("bck1", 3, lambda x, y, w: s[s[s[x][y]][s[x][w]]][s[w][y]] == z),
        ("bck2", 2, lambda x, y: s[s[x][s[x][y]]][y] == z),
        ("bck3", 1, lambda x: s[x][x] == z),
        ("bck4", 2, lambda x, y: not (s[x][y] == z and s[y][x] == z) or x == y),
        ("bck5", 1, lambda x: s[z][x] == z),
        ("bounded", 1, lambda x: s[x][o] == z),
        ("commutative", 2, lambda x, y: s[y][s[y][x]] == s[x][s[x][y]]),
    ]


def mv_axiom_suite(m: MvAlgebra) -> AxiomSuite:
    """Monoid laws, the MV axioms, and the derived law x + x' = 1."""
    p = m.oplus.rows
    c = m.complement
    z, o = m.zero, m.one
    return [
        ("assoc", 3, lambda x, y, w: p[p[x][y]][w] == p[x][p[y][w]]),
        ("comm", 2, lambda x, y: p[x][y] == p[y][x]),
        ("identity", 1, lambda x: p[z][x] == x and p[x][z] == x),
        ("double-complement", 1, lambda x: c[c[x]] == x),
        ("top-absorbing", 1, lambda x: p[x][o] == o),
        ("lukasiewicz", 2, lambda x, y: p[c[p[c[x]][y]]][y] == p[c[p[c[y]][x]]][x]),
        ("excluded-middle", 1, lambda x: p[x][c[x]] == o),
    ]


def wajsberg_axiom_suite(w: WajsbergAlgebra) -> AxiomSuite:
    """The four Wajsberg axioms plus the derived involution of negation."""
    t = w.circ.rows
    n = w.negation
    o = w.one
    return [
        ("w1", 1, lambda x: t[o][x] == x),
        ("w2", 3, lambda x, y, v: t[t[x][y]][t[t[y][v]][t[x][v]]] == o),
        ("w3", 2, lambda x, y: t[t[x][y]][y] == t[t[y][x]][x]),
        ("w4", 2, lambda x, y: t[t[n[x]][n[y]]][t[y][x]] == o),
        ("involution", 1, lambda x: n[n[x]] == x),
    ]


def axiom_suite(algebra: Algebra) -> AxiomSuite:
    if isinstance(algebra, BckAlgebra):
        return bck_axiom_suite(algebra)
    if isinstance(algebra, MvAlgebra):
        return mv_axiom_suite(algebra)
    if isinstance(algebra, WajsbergAlgebra):
        return wajsberg_axiom_suite(algebra)
    raise TypeError(f"not an algebra: {algebra!r}")


def _byte_rows(table: CayleyTable) -> list[bytes]:
    return [bytes(row) for row in table.rows]


def _lookup(values: bytes) -> bytes:
    """Values as a ``bytes.translate`` table: byte i maps to values[i]."""
    return values.ljust(256, b"\0")


def _w2_first_slice(w: WajsbergAlgebra) -> Optional[int]:
    """First x with t[t[x][y]][t[t[y][v]][t[x][v]]] != 1 for some y, v."""
    t = _byte_rows(w.circ)
    k = len(t)
    lookups = [_lookup(row) for row in t]
    cols = [bytes(col) for col in zip(*t)]
    col_lookups = [_lookup(col) for col in cols]
    row_of = [slice(y, None, k) for y in range(k)]
    ones = bytes([w.one]) * k
    for x, tx in enumerate(t):
        # Column v, over y, of t[t[y][v]][t[x][v]]; its row y is every k-th byte.
        inner = b"".join(map(bytes.translate, cols, map(col_lookups.__getitem__, tx)))
        outer = map(bytes.translate, map(inner.__getitem__, row_of), map(lookups.__getitem__, tx))
        if not all(map(ones.__eq__, outer)):
            return x
    return None


def _bck1_first_slice(b: BckAlgebra) -> Optional[int]:
    """First x with s[s[s[x][y]][s[x][w]]][s[w][y]] != 0 for some y, w.

    Scanned by y: with y and w fixed, d = s[w][y] is the same for every x, so
    a whole column over x is checked against column d of s in one translate.
    """
    s = _byte_rows(b.table)
    k = len(s)
    lookups = [_lookup(row) for row in s]
    cols = [bytes(col) for col in zip(*s)]
    # fails[d] maps u to 1 where s[u][d] != 0, else to 0.
    nonzero = _lookup(bytes(v != b.zero for v in range(k)))
    fails = [_lookup(col.translate(nonzero)) for col in cols]
    col_of = [slice(w, None, k) for w in range(k)]
    first = k
    for coly in cols:
        # Row x, over w, of u = s[s[x][y]][s[x][w]].
        u = b"".join(map(bytes.translate, s, map(lookups.__getitem__, coly)))
        # Byte w*k + x is 1 where (x, y, w) fails.
        marks = b"".join(map(bytes.translate, map(u.__getitem__, col_of), map(fails.__getitem__, coly)))
        if 1 in marks:
            first = next((x for x in range(first) if 1 in marks[x::k]), first)
            if first == 0:
                break
    return first if first < k else None


def _assoc_first_slice(m: MvAlgebra) -> Optional[int]:
    """First x with p[p[x][y]][w] != p[x][p[y][w]] for some y, w."""
    p = _byte_rows(m.oplus)
    flat = b"".join(p)
    for x, px in enumerate(p):
        if flat.translate(_lookup(px)) != b"".join(map(p.__getitem__, px)):
            return x
    return None


def _first_slices(algebra: Algebra) -> dict[str, Optional[int]]:
    """Map the cubic axiom of the algebra's kind to the first x whose slice
    (x, ., .) holds a failing triple, or to None when no slice does.

    Byte filters decide this exactly, in C-level ``bytes`` operations, while
    the table's values fit a byte; larger carriers get no entry and are
    scanned triple by triple.
    """
    if algebra.k > 256:
        return {}
    if isinstance(algebra, BckAlgebra):
        return {"bck1": _bck1_first_slice(algebra)}
    if isinstance(algebra, MvAlgebra):
        return {"assoc": _assoc_first_slice(algebra)}
    return {"w2": _w2_first_slice(algebra)}


def _scan(
    k: int, suite: AxiomSuite, first_slices: Optional[dict[str, Optional[int]]] = None
) -> AxiomReport:
    """The lexicographically least witness of every violated axiom.

    An axiom named in ``first_slices`` is searched only in the x-slice given
    there (skipped for None); the predicate finds the witness in it.
    """
    first_slices = first_slices or {}
    violations = []
    for name, arity, pred in suite:
        if name in first_slices:
            x = first_slices[name]
            if x is None:
                continue
            candidates = product((x,), *repeat(range(k), arity - 1))
        else:
            candidates = product(range(k), repeat=arity)
        for witness in candidates:
            if not pred(*witness):
                violations.append(Violation(name, witness))
                break
        else:
            if name in first_slices:
                raise RuntimeError(f"{name} filter flagged slice x = {x}, but every triple there holds")
    return AxiomReport(tuple(violations))


def verify(algebra: Algebra) -> AxiomReport:
    """Exhaustively check every axiom of the algebra's kind."""
    return _scan(algebra.k, axiom_suite(algebra), _first_slices(algebra))


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
    for name, arity, pred in axiom_suite(algebra):
        if name == axiom:
            if len(witness) != arity:
                raise ValueError(f"{axiom} takes {arity} variables")
            return pred(*witness)
    raise KeyError(axiom)


def kind_of(algebra: Algebra) -> str:
    if isinstance(algebra, BckAlgebra):
        return "bck"
    if isinstance(algebra, MvAlgebra):
        return "mv"
    return "wajsberg"


def ensure_verified(algebra: Algebra) -> None:
    """Raise NotAnAlgebra (with the report attached) unless verification passes."""
    report = verify(algebra)
    if not report.valid:
        axioms = ", ".join(sorted(report.axioms()))
        raise NotAnAlgebra(f"{kind_of(algebra)} verification failed: {axioms}", report)


def _order_row(algebra: Algebra, x: int) -> tuple[bool, ...]:
    """Row x of the natural order: which y satisfy x*y = 0 / x'+y = 1 / x->y = 1.

    The one place the order is read off a presentation; row x is the up-set
    of x, i.e. its cut subset.
    """
    if isinstance(algebra, BckAlgebra):
        row, target = algebra.table.rows[x], algebra.zero
    elif isinstance(algebra, MvAlgebra):
        row, target = algebra.oplus.rows[algebra.complement[x]], algebra.one
    else:
        row, target = algebra.circ.rows[x], algebra.one
    return tuple([v == target for v in row])


def natural_order(algebra: Algebra) -> Poset:
    """The order x <= y given by x*y = 0 / x'+y = 1 / x->y = 1 per kind.

    Its rows come from ``_order_row``, the single reader of the order that
    cut subsets and codewords also use. Raises NotAPoset when the relation
    breaks an order law, which signals an unverified input table.
    """
    return Poset(tuple(_order_row(algebra, x) for x in range(algebra.k)))


def mv_derived_ops(m: MvAlgebra) -> tuple[CayleyTable, CayleyTable]:
    """The product x.y = (x'+y')' and difference x-y = (x'+y)', tabulated."""
    p, c = m.oplus.rows, m.complement
    k = m.k
    odot = [[c[p[c[x]][c[y]]] for y in range(k)] for x in range(k)]
    ominus = [[c[p[c[x]][y]] for y in range(k)] for x in range(k)]
    return CayleyTable(odot), CayleyTable(ominus)


def mv_leq_equivalences(m: MvAlgebra, x: int, y: int) -> bool:
    """Evaluate the four equivalent characterisations of x <= y and agree.

    Conditions: x'+y = 1; x.y' = 0; y = x + (y-x); some z has x+z = y.
    Raises EquivalenceBroken when they disagree, which can only happen for an
    input that is not actually an MV algebra.
    """
    p, c = m.oplus.rows, m.complement
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
