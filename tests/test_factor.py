"""Irreducible factorization over Q(i) and square detection."""

import os
import subprocess
import sys
from pathlib import Path

import redform
from redform.field import GaussRational, UniPoly, RatFunc, GR_I, UP_ONE
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


def test_sympy_loaded_on_first_factorization():
    # importing the package, or gauging a system, must not load sympy
    src = str(Path(redform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, redform\n"
            "from redform.cli import main\n"
            "A = redform.LinearDiffSystem.from_strings([['1/x', 'x']] * 2)\n"
            "P = A.matrix + redform.Mat.identity(redform.RF_RING, 2)\n"
            "redform.gauge_transform(P, A)\n"
            "assert 'sympy' not in sys.modules\n"
            "redform.irreducible_factors(redform.UniPoly([1, 0, 1]))\n"
            "assert 'sympy' in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
