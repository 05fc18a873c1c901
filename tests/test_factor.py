"""Irreducible factorization over Q(i) and square detection."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import redform
from redform.field import GaussRational, UniPoly, RatFunc, Q, GR_I, UP_ONE
from redform.factor import irreducible_factors
from redform.parsing import parse_ratfunc

from conftest import is_square_ratfunc


def x_minus(c):
    return UniPoly([-GaussRational(c) if not isinstance(c, GaussRational)
                    else -c, GaussRational(1)])


def test_splits_over_gaussian_rationals():
    # x^2 + 1 = (x - i)(x + i); x^4 + 4 = (x - 1 - i)(x - 1 + i)(x + 1 - i)
    # (x + 1 + i); x^2 - 2 stays irreducible; a Gaussian input
    cases = [("x^2+1", [(1, 1), (1, 1)]),
             ("x^4+4", [(1, 1)] * 4),
             ("(x^2+1)^2*(x^2-2)*(x-3)", [(1, 1), (1, 2), (1, 2), (2, 1)]),
             ("(x-i)^2*(x+1)", [(1, 1), (1, 2)])]
    for text, shape in cases:
        p = parse_ratfunc(text, "x").num
        factors = irreducible_factors(p)
        assert sorted((f.degree, m) for f, m in factors) == shape
        prod = UP_ONE
        for f, m in factors:
            prod = prod * f ** m
        assert prod == p


def test_multiplicities():
    p = x_minus(1) ** 2 * x_minus(0) ** 3
    factors = dict(irreducible_factors(p))
    assert factors[x_minus(1)] == 2
    assert factors[x_minus(0)] == 3


def test_respects_leading_coefficient():
    p = x_minus(2) * UniPoly.const(GaussRational(6))
    factors = irreducible_factors(p)
    prod = UniPoly.const(p.leading())
    for f, m in factors:
        assert f.monic() == f
        prod = prod * f ** m
    assert prod == p


def test_deterministic_order():
    p = x_minus(3) * x_minus(-1) * x_minus(0)
    assert irreducible_factors(p) == irreducible_factors(p)


def test_is_square_ratfunc():
    assert is_square_ratfunc(parse_ratfunc("x^2", "x"))
    assert is_square_ratfunc(parse_ratfunc("(x^2-2*x+1)/(4*x^2)", "x"))
    assert is_square_ratfunc(parse_ratfunc("-x^2", "x"))  # (i x)^2 over Q(i)
    assert not is_square_ratfunc(parse_ratfunc("x", "x"))
    assert not is_square_ratfunc(parse_ratfunc("2*x^2", "x"))
    assert is_square_ratfunc(parse_ratfunc("0", "x"))


def _sympy_factors(p):
    """sympy's factor_list of p over QQ_I, as sorted (monic UniPoly, mult)."""
    import sympy
    from sympy.polys.domains import QQ_I

    x = sympy.Symbol("x")
    expr = sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * x ** k for k, c in enumerate(p.coeffs))
    out = []
    for f, mult in sympy.Poly(expr, x, domain=QQ_I).factor_list()[1]:
        coeffs = [GaussRational(Q(int(c.x.numerator), int(c.x.denominator)),
                                Q(int(c.y.numerator), int(c.y.denominator)))
                  for c in reversed(f.monic().rep.to_list())]
        out.append((UniPoly(coeffs), mult))
    return sorted(out, key=lambda fm: (fm[0].degree, [(str(c.re), str(c.im))
                                                      for c in fm[0].coeffs]))


def test_matches_sympy_on_random_products():
    # products of random Gaussian factors of degree 1 to 3, with
    # multiplicities and a rational non-monic leading coefficient
    rng = random.Random(20121)
    for _ in range(20):
        p = UniPoly([GaussRational(Q(rng.choice([-3, -1, 2, 5]),
                                     rng.choice([1, 2, 7])))])
        for _ in range(rng.randint(1, 3)):
            degree = rng.choice([1, 1, 2, 3])
            f = UniPoly([GaussRational(rng.randint(-4, 4),
                                       rng.choice([0, 0, rng.randint(-2, 2)]))
                         for _ in range(degree)] + [rng.choice([1, 2, 3])])
            p = p * f ** rng.choice([1, 1, 2, 3])
        assert irreducible_factors(p) == _sympy_factors(p), p


def test_hard_to_recombine():
    # x^4+1, x^4-10x^2+1 and the degree-8 product of conjugates have more
    # factors modulo every prime than over Q, so the recombination must
    # reject subsets; x^4+4 and (x^2+1)^3 split further over Q(i), and
    # x^2+2 stays irreducible there
    cases = [("x^4+1", [2, 2]),            # (x^2 - i)(x^2 + i)
             ("x^4-10*x^2+1", [4]),        # roots +-sqrt(2) +- sqrt(3)
             ("x^4+4", [1, 1, 1, 1]),
             ("(x^2+1)^3", [1, 1]),
             ("x^2+2", [2]),
             ("x^8-40*x^6+352*x^4-960*x^2+576", [8]),  # +-sqrt2+-sqrt3+-sqrt5
             ("(x^4+1)*(x^4-10*x^2+1)*(x^3-2)", [2, 2, 3, 4])]
    for text, degrees in cases:
        p = parse_ratfunc(text, "x").num
        factors = irreducible_factors(p)
        assert sorted(f.degree for f, _ in factors) == degrees, text
        assert factors == _sympy_factors(p), text
    x4 = dict(irreducible_factors(parse_ratfunc("x^4+1", "x").num))
    assert x4 == {UniPoly([-GR_I, 0, 1]): 1, UniPoly([GR_I, 0, 1]): 1}
    cube = dict(irreducible_factors(parse_ratfunc("(x^2+1)^3", "x").num))
    assert cube == {x_minus(GR_I): 3, x_minus(-GR_I): 3}


def test_examples_never_load_sympy(tmp_path):
    # the package factors in pure Python: sympy is only the tests' oracle
    src = str(Path(redform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    system = tmp_path / "dihedral.json"
    system.write_text(json.dumps(
        {"var": "x", "matrix": [["0", "1"], ["x", "1/(2*x)"]]}))
    code = ("import sys\n"
            "from redform.cli import main\n"
            f"assert main(['check-reduced', {str(system)!r}, "
            "'--out', '/dev/null']) == 0\n"
            "assert main(['example', 'so3', '--out', '/dev/null']) == 0\n"
            "assert 'sympy' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)
