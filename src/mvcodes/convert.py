"""Pairwise translations between the BCK, MV and Wajsberg presentations.

Every conversion keeps the carrier indexing, so converting back yields the
identical tables and table comparisons in tests can be exact. Inputs are
verified first and unverified tables are refused: the translation formulas
produce garbage on non-algebras and the failure would otherwise surface far
from its cause. Each translation is one ``_relabel`` of a table: rows through
the negation (Wajsberg and MV), or rows and cells through the complement (MV
and BCK). The translations into MV are ``algebras._mv_translation``, the one
that ``verify`` also proves Wajsberg and BCK tables valid through.
"""

from __future__ import annotations

from .algebras import (
    Algebra,
    BckAlgebra,
    MvAlgebra,
    WajsbergAlgebra,
    _mv_translation,
    _relabel,
    ensure_verified,
    kind_of,
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
    return _mv_translation(b)


def _mv_to_bck(m: MvAlgebra) -> BckAlgebra:
    c = m.complement
    return BckAlgebra(_relabel(m.oplus, c, cells=c), m.zero, m.one)


def _mv_to_wajsberg(m: MvAlgebra) -> WajsbergAlgebra:
    return WajsbergAlgebra(_relabel(m.oplus, m.complement), m.complement, m.one)


def mv_to_bck(m: MvAlgebra) -> BckAlgebra:
    """Rebuild the BCK presentation; the operation is the MV difference."""
    ensure_verified(m)
    return _mv_to_bck(m)


def wajsberg_to_mv(w: WajsbergAlgebra) -> MvAlgebra:
    """Rebuild the MV presentation: x+y = neg(x)->y, complement = negation."""
    ensure_verified(w)
    return _mv_translation(w)


def mv_to_wajsberg(m: MvAlgebra) -> WajsbergAlgebra:
    """Rebuild the Wajsberg presentation: x->y = x'+y, negation = complement."""
    ensure_verified(m)
    return _mv_to_wajsberg(m)


def convert(algebra: Algebra, kind: str) -> Algebra:
    """Convert to the named presentation along the shortest translation path.

    The input is verified once, by the first public converter of the path;
    the step out of MV that may follow is valid by construction."""
    src = kind_of(algebra)
    if kind not in ("bck", "mv", "wajsberg"):
        raise ValueError(f"unknown kind: {kind}")
    if src == kind:
        ensure_verified(algebra)
        return algebra
    if src == "mv":
        return mv_to_bck(algebra) if kind == "bck" else mv_to_wajsberg(algebra)
    mv = bck_to_mv(algebra) if src == "bck" else wajsberg_to_mv(algebra)
    return mv if kind == "mv" else _mv_to_bck(mv) if kind == "bck" else _mv_to_wajsberg(mv)
