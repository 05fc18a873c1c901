"""Polynomial factorization over Q(i), in pure Python.

A polynomial is split into squarefree parts by Yun's algorithm (D. Y. Y. Yun,
"On square-free decomposition algorithms", SYMSAC 1976).  A squarefree part
with rational coefficients is factored over Z by Zassenhaus's algorithm
(H. Zassenhaus, J. Number Theory 1 (1969)): Cantor-Zassenhaus factorization
modulo a small prime, Hensel lifting past the Mignotte bound, and
recombination of the lifted factors by subsets (von zur Gathen and Gerhard,
"Modern Computer Algebra", Algorithm 15.19).  A factor over Q that may split
further over Q(i), and a squarefree part with non-real coefficients, goes
through Trager's norm method (B. M. Trager, "Algebraic factoring and rational
function integration", SYMSAC 1976): the norm N(x) = f(x + ki) f̄(x - ki) has
rational coefficients, and once a shift k = 0, 1, 2, ... makes it squarefree,
each factor of N over Q has one irreducible factor of f(x + ki) over Q(i) as
its gcd with it.

Integer polynomials are lists of ints and polynomials modulo p lists of
residues in [0, p), in ascending degree and without trailing zeros, like the
coefficient tuples of ``UniPoly``.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, islice

from .field import GaussRational, UniPoly

__all__ = ["irreducible_factors"]


def irreducible_factors(p: UniPoly):
    """Monic irreducible factors of p over Q(i) with multiplicities.

    Returns a list of (factor, multiplicity) sorted by degree, then by
    coefficients; constant polynomials factor to [].
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = []
    for g, mult in _squarefree_parts(p):
        if any(c.im for c in g.coeffs):
            parts = _factor_gaussian(g)
        else:
            # over Q(i) an irreducible factor over Q stays irreducible or
            # splits into two conjugates of half its degree
            parts = [f for h in _factor_rational(g) for f in
                     (_factor_gaussian(h) if h.degree % 2 == 0 else [h])]
        out += [(f, mult) for f in parts]
    out.sort(key=lambda fm: (fm[0].degree, [(str(c.re), str(c.im))
                                            for c in fm[0].coeffs]))
    return out


def _squarefree_parts(f: UniPoly):
    """Yun's decomposition: [(g, m)] with f = lc(f) prod g^m, each g monic,
    squarefree, of positive degree and coprime to the others."""
    df = f.derivative()
    a = f.gcd(df)
    if a.degree <= 0:
        return [(f.monic(), 1)] if f.degree > 0 else []
    out = []
    b, c = f // a, df // a
    mult = 1
    while b.degree > 0:
        d = c - b.derivative()
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, mult))
        b, c = b // a, d // a
        mult += 1
    return out


def _factor_gaussian(f: UniPoly):
    """Monic irreducible factors over Q(i) of a monic squarefree f (Trager)."""
    if f.degree <= 1:
        return [f]
    k = 0
    while True:
        shifted = f.shift(GaussRational(0, k))
        norm = shifted * UniPoly([GaussRational(c.re, -c.im)
                                  for c in shifted.coeffs])
        if norm.gcd(norm.derivative()).degree == 0:
            break
        k += 1
    return [shifted.gcd(h).shift(GaussRational(0, -k))
            for h in _factor_rational(norm)]


def _factor_rational(f: UniPoly):
    """Monic irreducible factors over Q of a squarefree f with rational
    coefficients."""
    if f.degree <= 1:
        return [f.monic()]
    den = math.lcm(*(c.re.denominator for c in f.coeffs))
    ints = [int(c.re * den) for c in f.coeffs]
    return [UniPoly(g).monic() for g in _zassenhaus(_primitive(ints))]


# ---------------------------------------------------------------------------
# Z[x]


def _strip(a):
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _strip(out)


def _sub(a, b):
    return _add(a, [-c for c in b])


def _divmod_monic(a, h):
    """Quotient and remainder of a by a monic h, over Z."""
    r = list(a)
    dh = len(h) - 1
    q = [0] * max(0, len(r) - dh)
    for k in range(len(r) - 1, dh - 1, -1):
        c = r[k]
        if c:
            q[k - dh] = c
            for j in range(dh + 1):
                r[k - dh + j] -= c * h[j]
    return _strip(q), _strip(r[:dh])


def _sym(a, m):
    """Coefficients of a reduced into (-m/2, m/2]."""
    half = m // 2
    return _strip([r - m if r > half else r for r in (c % m for c in a)])


# ---------------------------------------------------------------------------
# Z/p[x], p an odd prime


def _gf_mul(a, b, p):
    return _strip([c % p for c in _mul(a, b)])


def _gf_sub(a, b, p):
    return _strip([c % p for c in _sub(a, b)])


def _gf_divmod(a, b, p):
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] * inv % p
        if c:
            q[k - db] = c
            for j in range(db + 1):
                r[k - db + j] = (r[k - db + j] - c * b[j]) % p
    return _strip(q), _strip(r[:db])


def _gf_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a, b, p):
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_gcdex(a, b, p):
    """s, t with s a + t b = 1 modulo p, for coprime a and b."""
    s0, s1, t0, t1 = [1], [], [], [1]
    while b:
        q, r = _gf_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_powmod(a, n, f, p):
    """a^n modulo f and p."""
    out, a = [1], _gf_divmod(a, f, p)[1]
    while n:
        if n & 1:
            out = _gf_divmod(_gf_mul(out, a, p), f, p)[1]
        a = _gf_divmod(_gf_mul(a, a, p), f, p)[1]
        n >>= 1
    return out


def _gf_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f modulo p:
    [(g, d)], g the product of the monic irreducible factors of degree d."""
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(f, _gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_split(g, d, p, rng):
    """Monic irreducible factors modulo p of a monic g whose irreducible
    factors all have degree d (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _strip([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gf_powmod(a, (p ** d - 1) // 2, g, p)
        h = _gf_gcd(g, _gf_sub(b, [1], p), p)
        if 1 < len(h) < len(g):
            return (_gf_split(h, d, p, rng)
                    + _gf_split(_gf_divmod(g, h, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# Zassenhaus

# Primes whose factorization patterns are compared before lifting.
_PRIMES_COMPARED = 5


def _squarefree_images(f):
    """(p, f mod p made monic) for the odd primes p that keep f's degree
    and leave it squarefree."""
    p = 1
    while True:
        p += 2
        if f[-1] % p == 0 or any(p % q == 0
                                 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        fp = _gf_monic([c % p for c in f], p)
        dfp = _strip([k * c % p for k, c in enumerate(fp)][1:])
        if len(_gf_gcd(fp, dfp, p)) == 1:
            yield p, fp


def _zassenhaus(f):
    """Irreducible factors over Z of a primitive squarefree f with positive
    leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    # a factor over Z has, modulo every prime, a degree that is a sum of
    # degrees of the factors there: intersect those sums over a few primes,
    # and lift the factorization with the fewest factors.  With at most 3
    # factors the recombination tries at most 3 subsets, fewer than another
    # prime would cost.
    degrees, best = set(range(n + 1)), None
    for p, fp in islice(_squarefree_images(f), _PRIMES_COMPARED):
        ddf = _gf_ddf(fp, p)
        count, sums = 0, {0}
        for g, d in ddf:
            for _ in range((len(g) - 1) // d):
                count += 1
                sums |= {s + d for s in sums}
        degrees &= sums
        if degrees == {0, n}:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
        if count <= 3:
            break
    _, p, ddf = best
    rng = random.Random(p)
    modular = [h for g, d in ddf for h in _gf_split(g, d, p, rng)]
    lc = f[-1]
    # Mignotte: the lifts of a true factor pass the norm test below, and
    # p^l > 2 bound makes a passing pair g h equal lc f over Z
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * lc
    l, pl = 1, p
    while pl <= 2 * bound:
        l, pl = l + 1, pl * p
    lifted = _hensel_lift(f, modular, p, l)
    factors, s = [], 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            if sum(len(lifted[i]) - 1 for i in subset) not in degrees:
                continue
            # the constant term of a factor of lc f divides lc f(0)
            c = lc
            for i in subset:
                c = c * lifted[i][0] % pl
            c = c - pl if c > pl // 2 else c
            if (lc * f[0] % c) if c else f[0]:
                continue
            g, h = [lc], [lc]
            for i, fi in enumerate(lifted):
                if i in subset:
                    g = _sym(_mul(g, fi), pl)
                else:
                    h = _sym(_mul(h, fi), pl)
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                factors.append(_primitive(g))
                f = _primitive(h)
                lc = f[-1]
                lifted = [fi for i, fi in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return factors + [f]


def _hensel_lift(f, modular, p, l):
    """Monic lifts F_i of the monic modular factors, with
    f = lc(f) prod F_i modulo p^l (multifactor Hensel lifting)."""
    pl = p ** l
    if len(modular) == 1:
        return [_sym([c * pow(f[-1], -1, pl) for c in f], pl)]
    k = len(modular) // 2
    g = [f[-1] % p]
    for fi in modular[:k]:
        g = _gf_mul(g, fi, p)
    h = [1]
    for fi in modular[k:]:
        h = _gf_mul(h, fi, p)
    s, t = _gf_gcdex(g, h, p)
    g, h, s, t = (_sym(v, p) for v in (g, h, s, t))
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(g, modular[:k], p, l)
            + _hensel_lift(h, modular[k:], p, l))


def _hensel_step(m, f, g, h, s, t):
    """From f = g h and s g + t h = 1 modulo m, h monic, deg s < deg h and
    deg t < deg g, the same relations modulo m^2 (von zur Gathen and Gerhard,
    Algorithm 15.10)."""
    mm = m * m
    e = _sym(_sub(f, _mul(g, h)), mm)
    q, r = _divmod_monic(_mul(s, e), h)
    g = _sym(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _sym(_add(h, r), mm)
    b = _sym(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod_monic(_mul(s, b), h)
    return (g, h, _sym(_sub(s, d), mm),
            _sym(_sub(t, _add(_mul(t, b), _mul(c, g))), mm))
