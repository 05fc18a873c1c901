"""Rational solutions of first-order systems."""

from redform.field import GaussRational, UniPoly, RatFunc, Q
from redform.linalg import mat_vec
from redform.diffsys import LinearDiffSystem, gauge_transform
from redform.ratsols import (rational_solutions, log_derivative_rational,
                             _local_exponents)

from conftest import rf, mat, same_span, random_invertible_poly_mat


def diag_power_system(exponents):
    n = len(exponents)
    rows = [[("%d/x" % e if i == j else "0") for j in range(n)]
            for i, e in enumerate(exponents)]
    return LinearDiffSystem.from_strings(rows, "x")


def test_scalar_power_solutions():
    basis = rational_solutions(diag_power_system([2]))
    assert same_span(basis.vectors, [[rf("x^2")]])
    basis = rational_solutions(diag_power_system([-3]))
    assert same_span(basis.vectors, [[rf("1/x^3")]])
    # exponents far from the pole and from infinity are found exactly
    for k in (21, -21, 25, -25, 61):
        basis = rational_solutions(diag_power_system([k]))
        expected = rf("x") ** k if k > 0 else rf("1/x") ** (-k)
        assert same_span(basis.vectors, [[expected]])


def test_diagonal_system_full_basis():
    basis = rational_solutions(diag_power_system([1, -2, 0]))
    expected = [[rf("x"), rf("0"), rf("0")],
                [rf("0"), rf("1/x^2"), rf("0")],
                [rf("0"), rf("0"), rf("1")]]
    assert basis.dim == 3
    assert same_span(basis.vectors, expected)


def test_no_rational_solutions():
    # y' = y/2x has solution sqrt(x), not rational
    sys = LinearDiffSystem.from_strings([["1/(2*x)"]], "x")
    assert rational_solutions(sys).dim == 0


def test_solutions_verified_exactly(rng):
    for _ in range(5):
        sys = diag_power_system([rng.randint(-3, 3) for _ in range(2)])
        P = random_invertible_poly_mat(rng, 2, 1)
        gauged = gauge_transform(P, sys)
        basis = rational_solutions(gauged)
        B = gauged.matrix
        for vec in basis.vectors:
            assert [e.derivative() for e in vec] == mat_vec(B, list(vec))


def test_gauged_diagonal_oracle(rng):
    cases = [[-40, 21]] + [[rng.randint(-40, 40) for _ in range(2)]
                           for _ in range(7)]
    for exps in cases:
        sys = diag_power_system(exps)
        P = random_invertible_poly_mat(rng, 2, 1)
        gauged = gauge_transform(P, sys)
        Pinv = P.inverse()
        expected = []
        for j, e in enumerate(exps):
            xn = rf("x") ** e if e >= 0 else rf("1/x") ** (-e)
            expected.append([Pinv.entries[i][j] * xn for i in range(2)])
        basis = rational_solutions(gauged)
        assert same_span(basis.vectors, expected)


def test_echelon_normalization():
    basis = rational_solutions(diag_power_system([1, 1]))
    # reduced echelon over constants: leading entries are exactly x
    assert basis.dim == 2
    vecs = sorted([tuple(str(e) for e in v) for v in basis.vectors])
    assert len(set(vecs)) == 2
    again = rational_solutions(diag_power_system([1, 1]))
    assert again.vectors == basis.vectors


def test_residue_matrix_integer_eigenvalues():
    sys = diag_power_system([2, -1])
    assert _local_exponents(sys.matrix, UniPoly.x(), 1) == [-1, 2]


def test_higher_order_pole():
    # Y = t(1/x^2, 1/x) solves this order-2 system
    sys = LinearDiffSystem.from_strings([["0", "-2/x^2"], ["0", "-1/x"]], "x")
    basis = rational_solutions(sys)
    assert same_span(basis.vectors, [[rf("1/x^2"), rf("1/x")],
                                     [rf("1"), rf("0")]])
    # the same at an order-2 pole of the non-linear factor p = x^2 - 2
    sys = LinearDiffSystem.from_strings(
        [["0", "-4*x/(x^2-2)^2"], ["0", "-2*x/(x^2-2)"]], "x")
    basis = rational_solutions(sys)
    assert same_span(basis.vectors, [[rf("1/(x^2-2)^2"), rf("1/(x^2-2)")],
                                     [rf("1"), rf("0")]])


def test_log_derivative_rational():
    assert log_derivative_rational(rf("0")) == rf("1")
    u = log_derivative_rational(rf("2*x/(x^2+1)"))
    assert u == rf("x^2+1")
    assert log_derivative_rational(rf("1/(2*x)")) is None
    assert log_derivative_rational(rf("x")) is None
    u = log_derivative_rational(rf("-3/x"))
    assert u is not None and u.derivative() / u == rf("-3/x")


def test_solution_memo_is_bounded():
    rational_solutions.cache_clear()
    for k in range(20):
        rational_solutions(diag_power_system([k]))
    info = rational_solutions.cache_info()
    assert info.misses == 20 and info.currsize <= 16
    rational_solutions(diag_power_system([19]))
    assert rational_solutions.cache_info().hits == 1
