"""Exact arithmetic: Gaussian rationals, polynomials, rational functions."""

import random

import pytest

from redform.field import (GaussRational, UniPoly, RatFunc, Q,
                           GR_ZERO, GR_ONE, GR_I, UP_ONE)

from conftest import gauss_conjugate, gauss_is_rational, gauss_sqrt, taylor


class TestGaussRational:
    def test_basic_arithmetic(self):
        a = GaussRational(Q(1, 2), Q(3))
        b = GaussRational(Q(2), Q(-1))
        assert a + b == GaussRational(Q(5, 2), Q(2))
        assert a - b == GaussRational(Q(-3, 2), Q(4))
        assert a * b == GaussRational(Q(4), Q(11, 2))
        assert GR_I * GR_I == -GR_ONE

    def test_division_and_inverse(self):
        a = GaussRational(Q(3), Q(4))
        assert a * a.inverse() == GR_ONE
        assert (a / a) == GR_ONE
        with pytest.raises(ZeroDivisionError):
            GR_ZERO.inverse()

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(100):
            a = GaussRational(Q(rng.randint(-9, 9), rng.randint(1, 5)),
                              Q(rng.randint(-9, 9), rng.randint(1, 5)))
            b = GaussRational(rng.randint(-9, 9), rng.randint(-9, 9))
            c = GaussRational(rng.randint(-9, 9), rng.randint(-9, 9))
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            if b != GR_ZERO:
                assert (a / b) * b == a

    def test_norm_and_conjugate(self):
        a = GaussRational(3, 4)
        assert a.norm() == Q(25)
        assert a * gauss_conjugate(a) == GaussRational(Q(25))

    def test_sqrt(self):
        assert gauss_sqrt(GaussRational(Q(9, 4))) == GaussRational(Q(3, 2))
        assert gauss_sqrt(GaussRational(-1)) == GR_I
        assert gauss_sqrt(GaussRational(2)) is None
        assert gauss_sqrt(GaussRational(0, 2)) == GaussRational(1, 1)

    def test_integer_predicates(self):
        assert GaussRational(5).is_integer()
        assert not GaussRational(Q(1, 2)).is_integer()
        assert not gauss_is_rational(GaussRational(1, 1))


class TestUniPoly:
    def test_normalization_drops_leading_zeros(self):
        p = UniPoly([GaussRational(1), GR_ZERO, GR_ZERO])
        assert p.degree == 0

    def test_divmod(self):
        x = UniPoly.x()
        p = x ** 3 - UniPoly.const(GaussRational(1))
        d = x - UniPoly.const(GaussRational(1))
        q, r = p.divmod(d)
        assert r.is_zero()
        assert q * d == p

    def test_gcd_is_monic(self):
        x = UniPoly.x()
        a = (x - UniPoly.const(GaussRational(2))) * x * UniPoly.const(GaussRational(3))
        b = (x - UniPoly.const(GaussRational(2))) * UniPoly.const(GaussRational(5))
        g = a.gcd(b)
        assert g == x - UniPoly.const(GaussRational(2))

    def test_eval_and_shift(self):
        x = UniPoly.x()
        p = x ** 2 + x
        z = GaussRational(3)
        assert p.eval(z) == GaussRational(12)
        assert p.shift(z).eval(GR_ZERO) == p.eval(z)

    def test_derivative(self):
        x = UniPoly.x()
        p = x ** 3
        assert p.derivative() == x ** 2 * UniPoly.const(GaussRational(3))

    def test_compose_power(self):
        x = UniPoly.x()
        p = x ** 2 + UniPoly.const(GaussRational(1))
        assert p.compose_power(3) == x ** 6 + UniPoly.const(GaussRational(1))

    def test_reverse(self):
        x = UniPoly.x()
        p = x ** 2 + UniPoly.const(GaussRational(2))
        assert p.reverse() == UniPoly.const(GaussRational(2)) * x ** 2 + UP_ONE

    def test_multiplicity(self):
        x = UniPoly.x()
        p = x ** 2 * (x - UP_ONE)
        assert p.multiplicity(x) == 2
        assert p.multiplicity(x - UP_ONE) == 1
        assert p.multiplicity(x + UP_ONE) == 0


class TestRatFunc:
    def test_normalized_representation(self):
        x = UniPoly.x()
        f = RatFunc(x ** 2 * UniPoly.const(GaussRational(2)),
                    x * UniPoly.const(GaussRational(4)))
        # coprime, monic denominator
        assert f.den == UP_ONE
        assert f.num == x * UniPoly.const(GaussRational(Q(1, 2)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(UP_ONE, UniPoly())

    def test_arithmetic_random(self):
        rng = random.Random(11)

        def rand_rf():
            num = UniPoly([GaussRational(rng.randint(-4, 4)) for _ in range(3)])
            while True:
                den = UniPoly([GaussRational(rng.randint(-4, 4)) for _ in range(3)])
                if not den.is_zero():
                    return RatFunc(num, den)

        for _ in range(60):
            f, g, h = rand_rf(), rand_rf(), rand_rf()
            assert f * (g + h) == f * g + f * h
            if not g.is_zero():
                assert (f / g) * g == f

    def test_derivative_quotient_rule(self):
        f = RatFunc(UniPoly.x(), UniPoly.x() ** 2 + UP_ONE)
        g = RatFunc(UniPoly.x() ** 3 - UP_ONE)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_series_geometric(self):
        f = RatFunc(UP_ONE, UP_ONE - UniPoly.x())
        assert taylor(f, GR_ZERO, 4) == [GR_ONE] * 5

    def test_digits_expand_at_any_factor(self):
        # f = sum c_k p^k + O(p^count), each digit of degree below deg p
        p = UniPoly([1, 0, 1])
        f = RatFunc(UniPoly([3, -1, 0, 2, 5]), UniPoly([2, 1]) ** 2)
        digits = f.digits(p, 4)
        assert all(c.degree < p.degree for c in digits)
        rest = f - sum((RatFunc(c * p ** k) for k, c in enumerate(digits)),
                       RatFunc.const(0))
        assert rest.num.multiplicity(p) >= 4
        with pytest.raises(ZeroDivisionError):
            RatFunc(UP_ONE, p).digits(p, 1)

    def test_eval(self):
        f = RatFunc(UP_ONE, UniPoly.x())
        assert f.eval(GaussRational(2)) == GaussRational(Q(1, 2))
        with pytest.raises(ZeroDivisionError):
            f.eval(GR_ZERO)

    def test_constant_detection(self):
        assert RatFunc.const(GaussRational(5)).is_constant()
        assert RatFunc.const(GaussRational(5)).constant_value() == GaussRational(5)
        assert not RatFunc.x().is_constant()
