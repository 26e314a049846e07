"""Pairwise translations between the BCK, MV and Wajsberg presentations.

Every conversion keeps the carrier indexing, so converting back yields the
identical tables and table comparisons in tests can be exact. Inputs are
verified first and unverified tables are refused: the translation formulas
produce garbage on non-algebras and the failure would otherwise surface far
from its cause. Each translation, between any two presentations, is one
``_relabel`` of a table in ``algebras._translate``, the one that ``verify``
also proves Wajsberg and BCK tables valid through.
"""

from __future__ import annotations

from .algebras import Algebra, BckAlgebra, MvAlgebra, WajsbergAlgebra, _translate, kind_of, verify
from .errors import NotAnAlgebra, NotBounded, NotCommutative

__all__ = ["bck_to_mv", "convert", "mv_to_bck", "mv_to_wajsberg", "wajsberg_to_mv"]


def _convert_kind(algebra: Algebra, src: str, kind: str) -> Algebra:
    """``convert(algebra, kind)`` for an input of kind ``src``; raises
    TypeError, before any verification, for another kind."""
    if kind_of(algebra) != src:
        raise TypeError(f"expected a {src} algebra, got a {kind_of(algebra)} algebra")
    return convert(algebra, kind)


def bck_to_mv(b: BckAlgebra) -> MvAlgebra:
    """Rebuild the MV presentation: x' = 1*x and x+y = (x'*y)'."""
    return _convert_kind(b, "bck", "mv")


def mv_to_bck(m: MvAlgebra) -> BckAlgebra:
    """Rebuild the BCK presentation; the operation is the MV difference."""
    return _convert_kind(m, "mv", "bck")


def wajsberg_to_mv(w: WajsbergAlgebra) -> MvAlgebra:
    """Rebuild the MV presentation: x+y = neg(x)->y, complement = negation."""
    return _convert_kind(w, "wajsberg", "mv")


def mv_to_wajsberg(m: MvAlgebra) -> WajsbergAlgebra:
    """Rebuild the Wajsberg presentation: x->y = x'+y, negation = complement."""
    return _convert_kind(m, "mv", "wajsberg")


def convert(algebra: Algebra, kind: str) -> Algebra:
    """Convert any presentation to the named one in one table relabelling.

    The input is verified once, and one that fails raises with its report:
    a BCK input leaving BCK raises NotBounded, NotCommutative or
    NotAnAlgebra, in that order of precedence, and any other input
    NotAnAlgebra naming the failed axioms."""
    src = kind_of(algebra)
    if kind not in ("bck", "mv", "wajsberg"):
        raise ValueError(f"unknown kind: {kind}")
    report = verify(algebra)
    if report.valid:
        return _translate(algebra, kind)
    axioms = report.axioms()
    if src != "bck" or kind == "bck":
        raise NotAnAlgebra(f"{src} verification failed: {', '.join(sorted(axioms))}", report)
    if "bounded" in axioms:
        raise NotBounded("input BCK algebra is not bounded", report)
    if "commutative" in axioms:
        raise NotCommutative("input BCK algebra is not commutative", report)
    raise NotAnAlgebra("input is not a BCK algebra", report)
