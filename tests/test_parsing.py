"""Expression parsing and printing for rational functions over Q(i)."""

import random

import pytest

from redform.field import GaussRational, UniPoly, RatFunc, Q
from redform.parsing import (ParseError, parse_ratfunc, format_ratfunc,
                             format_gauss)


def test_simple_expressions():
    x = RatFunc.x()
    assert parse_ratfunc("x^2+1", "x") == x * x + RatFunc.const(1)
    assert parse_ratfunc("1/(2*x)", "x") == RatFunc.const(1) / (RatFunc.const(2) * x)
    assert parse_ratfunc("-x", "x") == -x
    assert parse_ratfunc("i^2", "x") == RatFunc.const(-1)
    assert parse_ratfunc("3/2", "x") == RatFunc.const(GaussRational(Q(3, 2)))


def test_precedence_and_associativity():
    assert parse_ratfunc("2+3*4", "x") == RatFunc.const(14)
    assert parse_ratfunc("2*3^2", "x") == RatFunc.const(18)
    assert parse_ratfunc("8/4/2", "x") == RatFunc.const(1)
    assert parse_ratfunc("2-3-4", "x") == RatFunc.const(-5)
    assert parse_ratfunc("-x^2", "x") == -(RatFunc.x() ** 2)


def test_variable_name_respected():
    f = parse_ratfunc("t^2", "t")
    assert f == RatFunc.x() ** 2
    with pytest.raises(ParseError):
        parse_ratfunc("x+1", "t")


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_ratfunc("x+", "x")
    assert ei.value.line == 1
    assert ei.value.col >= 2
    with pytest.raises(ParseError):
        parse_ratfunc("(x+1", "x")
    with pytest.raises(ParseError):
        parse_ratfunc("x ** 2", "x")


def test_comma_is_a_parse_error():
    # the tokenizer knows ',' for the construction DSL; expressions reject it
    with pytest.raises(ParseError) as ei:
        parse_ratfunc("x,1", "x")
    assert (ei.value.line, ei.value.col) == (1, 2)


def test_division_by_zero_constant():
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_ratfunc("1/(x-x)", "x")


def test_format_gauss():
    assert format_gauss(GaussRational(0)) == "0"
    assert format_gauss(GaussRational(Q(-3, 2))) == "-3/2"
    assert format_gauss(GaussRational(0, 1)) == "i"
    out = format_gauss(GaussRational(1, -2))
    assert parse_ratfunc(out, "x") == RatFunc.const(GaussRational(1, -2))


def test_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        num = UniPoly([GaussRational(rng.randint(-5, 5), rng.randint(-2, 2))
                       for _ in range(rng.randint(1, 4))])
        den = UniPoly()
        while den.is_zero():
            den = UniPoly([GaussRational(rng.randint(-5, 5))
                           for _ in range(rng.randint(1, 4))])
        f = RatFunc(num, den)
        assert parse_ratfunc(format_ratfunc(f, "x"), "x") == f
