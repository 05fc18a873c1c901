"""Polynomial factorization over Q(i), delegated to sympy's QQ_I domain."""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys.domains import QQ_I

from .field import GaussRational, UniPoly, Q

__all__ = ["irreducible_factors"]

_X = sympy.symbols("__redform_x")


def _to_sympy(p: UniPoly):
    coeffs = [
        QQ_I.new(
            QQ_I.dom.new(int(c.re.numerator), int(c.re.denominator)),
            QQ_I.dom.new(int(c.im.numerator), int(c.im.denominator)),
        )
        for c in reversed(p.coeffs)
    ]
    return sympy.Poly(coeffs, _X, domain=QQ_I)


def _from_sympy(sp) -> UniPoly:
    cs = sp.all_coeffs()
    out = []
    for c in reversed(cs):
        c = QQ_I.convert(c)
        re = Fraction(int(c.x.numerator), int(c.x.denominator))
        im = Fraction(int(c.y.numerator), int(c.y.denominator))
        out.append(GaussRational(Q(re.numerator, re.denominator),
                                 Q(im.numerator, im.denominator)))
    return UniPoly(out)


def irreducible_factors(p: UniPoly):
    """Monic irreducible factors of p over Q(i) with multiplicities.

    Returns a list of (factor, multiplicity); constant polynomials factor to [].
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree <= 0:
        return []
    _, factors = _to_sympy(p).factor_list()
    out = []
    for f, mult in factors:
        q = _from_sympy(f)
        if q.degree >= 1:
            out.append((q.monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, [(str(c.re), str(c.im))
                                            for c in fm[0].coeffs]))
    return out
