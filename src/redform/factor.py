"""Polynomial factorization over Q(i), delegated to sympy's QQ and QQ_I domains.

sympy is imported on the first factorization, not with the package: gauging,
constructions and series never factor and need not pay for loading it.
"""

from __future__ import annotations

from .field import GaussRational, UniPoly, Q

__all__ = ["irreducible_factors"]


def _from_dense(cs) -> UniPoly:
    """UniPoly of QQ_I coefficients, highest degree first."""
    return UniPoly([GaussRational(Q(int(c.x.numerator), int(c.x.denominator)),
                                  Q(int(c.y.numerator), int(c.y.denominator)))
                    for c in reversed(cs)])


def _factor_over_qi(p: UniPoly):
    from sympy.polys.domains import QQ_I
    from sympy.polys.factortools import dup_factor_list
    dense = [QQ_I.new(QQ_I.dom.new(int(c.re.numerator), int(c.re.denominator)),
                      QQ_I.dom.new(int(c.im.numerator), int(c.im.denominator)))
             for c in reversed(p.coeffs)]
    return [(_from_dense(f), mult)
            for f, mult in dup_factor_list(dense, QQ_I)[1]]


def irreducible_factors(p: UniPoly):
    """Monic irreducible factors of p over Q(i) with multiplicities.

    Returns a list of (factor, multiplicity); constant polynomials factor to [].
    A polynomial with rational coefficients is factored over Q first, and only
    its non-linear factors, which may split over Q(i), are factored again over
    Q(i): sympy's Q(i) factorization is many times slower than its Q one and
    fills sympy's global expression caches.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree <= 0:
        return []
    from sympy.polys.domains import QQ
    from sympy.polys.factortools import dup_factor_list
    if any(c.im for c in p.coeffs):
        factors = _factor_over_qi(p)
    else:
        factors = []
        dense = [QQ(int(c.re.numerator), int(c.re.denominator))
                 for c in reversed(p.coeffs)]
        for f, mult in dup_factor_list(dense, QQ)[1]:
            q = UniPoly([GaussRational(Q(int(c.numerator), int(c.denominator)))
                         for c in reversed(f)])
            if q.degree == 1:
                factors.append((q, mult))
            else:
                factors += [(g, mult * m) for g, m in _factor_over_qi(q)]
    out = [(q.monic(), int(mult)) for q, mult in factors if q.degree >= 1]
    out.sort(key=lambda fm: (fm[0].degree, [(str(c.re), str(c.im))
                                            for c in fm[0].coeffs]))
    return out
