"""Pairwise translations between the BCK, MV and Wajsberg presentations.

Every conversion keeps the carrier indexing, so converting back yields the
identical tables and table comparisons in tests can be exact. Inputs are
verified first and unverified tables are refused: the translation formulas
produce garbage on non-algebras and the failure would otherwise surface far
from its cause.
"""

from __future__ import annotations

from .algebras import (
    Algebra,
    BckAlgebra,
    CayleyTable,
    MvAlgebra,
    WajsbergAlgebra,
    ensure_verified,
    kind_of,
    mv_derived_ops,
    verify,
)
from .errors import NotAnAlgebra, NotBounded, NotCommutative


def bck_to_mv(b: BckAlgebra) -> MvAlgebra:
    """Rebuild the MV presentation: x' = 1*x and x+y = (x'*y)'."""
    report = verify(b)
    if not report.valid:
        axioms = report.axioms()
        if "bounded" in axioms:
            raise NotBounded("input BCK algebra is not bounded", report)
        if "commutative" in axioms:
            raise NotCommutative("input BCK algebra is not commutative", report)
        raise NotAnAlgebra("input is not a BCK algebra", report)
    s = b.table.rows
    k = b.k
    complement = tuple(s[b.one][x] for x in range(k))
    oplus = [
        [complement[s[complement[x]][y]] for y in range(k)] for x in range(k)
    ]
    return MvAlgebra(CayleyTable(oplus), complement, b.zero)


def mv_to_bck(m: MvAlgebra) -> BckAlgebra:
    """Rebuild the BCK presentation; the operation is the MV difference."""
    ensure_verified(m)
    _, ominus = mv_derived_ops(m)
    return BckAlgebra(ominus, m.zero, m.one)


def wajsberg_to_mv(w: WajsbergAlgebra) -> MvAlgebra:
    """Rebuild the MV presentation: x+y = neg(x)->y, complement = negation."""
    ensure_verified(w)
    t, n = w.circ.rows, w.negation
    k = w.k
    oplus = [[t[n[x]][y] for y in range(k)] for x in range(k)]
    return MvAlgebra(CayleyTable(oplus), n, w.zero)


def mv_to_wajsberg(m: MvAlgebra) -> WajsbergAlgebra:
    """Rebuild the Wajsberg presentation: x->y = x'+y, negation = complement."""
    ensure_verified(m)
    p, c = m.oplus.rows, m.complement
    k = m.k
    circ = [[p[c[x]][y] for y in range(k)] for x in range(k)]
    return WajsbergAlgebra(CayleyTable(circ), c, m.one)


def convert(algebra: Algebra, kind: str) -> Algebra:
    """Convert to the named presentation along the shortest translation path."""
    src = kind_of(algebra)
    if kind not in ("bck", "mv", "wajsberg"):
        raise ValueError(f"unknown kind: {kind}")
    if src == kind:
        ensure_verified(algebra)
        return algebra
    if src == "bck":
        mv = bck_to_mv(algebra)
        return mv if kind == "mv" else mv_to_wajsberg(mv)
    if src == "wajsberg":
        mv = wajsberg_to_mv(algebra)
        return mv if kind == "mv" else mv_to_bck(mv)
    return mv_to_bck(algebra) if kind == "bck" else mv_to_wajsberg(algebra)
