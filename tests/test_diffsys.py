"""Systems Y' = A Y: JSON I/O, gauges, singularities, series, substitution."""

import pytest

from redform.field import GaussRational, RatFunc, RF_RING, QI_RING
from redform.linalg import Mat
from redform.diffsys import (LinearDiffSystem, gauge_transform,
                             singular_points, pick_ordinary_point,
                             series_solution, substitute_power,
                             matrix_derivative)
from redform.parsing import format_poly

from conftest import (mat, random_invertible_poly_mat, random_poly_mat,
                      series_at_base, series_polynomial_matrix, taylor)


def test_json_roundtrip(dihedral):
    again = LinearDiffSystem.from_json(dihedral.to_json())
    assert again == dihedral
    assert again.var == "x"


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        LinearDiffSystem(Mat(RF_RING, [[RatFunc.x()], [RatFunc.x()]]))


def test_gauge_identity(dihedral):
    I = Mat.identity(RF_RING, 2)
    assert gauge_transform(I, dihedral) == dihedral


def test_gauge_composition(rng):
    for _ in range(10):
        A = LinearDiffSystem(random_poly_mat(rng, 2), "x")
        P1 = random_invertible_poly_mat(rng, 2, 1)
        P2 = random_invertible_poly_mat(rng, 2, 1)
        lhs = gauge_transform(P2, gauge_transform(P1, A))
        rhs = gauge_transform(P1 * P2, A)
        assert lhs == rhs


def test_gauge_singular_raises(dihedral):
    P = mat([["x", "x"], ["x", "x"]])
    with pytest.raises(ValueError):
        gauge_transform(P, dihedral)


def test_gauge_matches_inverse_formula(dihedral, rng, monkeypatch):
    pairs = [(dihedral, mat([["i/x", "1"], ["x+i", "1/(x-1)"]]))]
    for _ in range(8):
        pairs.append((LinearDiffSystem(random_poly_mat(rng, 2), "x"),
                      random_invertible_poly_mat(rng, 2, 2)))
    cases = [(A, P, P.inverse() * (A.matrix * P - matrix_derivative(P)))
             for A, P in pairs]
    calls = []
    inverse = Mat.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(Mat, "inverse", counted)
    for A, P, ref in cases:
        assert gauge_transform(P, A).matrix == ref
    assert calls == []


def test_gauge_shape_mismatch_raises(dihedral):
    with pytest.raises(ValueError):
        gauge_transform(Mat.identity(RF_RING, 3), dihedral)
    with pytest.raises(ValueError):
        gauge_transform(mat([["1", "x", "0"], ["0", "1", "0"]]), dihedral)


def test_gauge_inverse_undoes(dihedral):
    P = mat([["1", "1"], ["0", "x"]])
    gauged = gauge_transform(P, dihedral)
    back = gauge_transform(P.inverse(), gauged)
    assert back == dihedral


def test_singular_points(dihedral):
    pts = singular_points(dihedral)
    assert [(format_poly(p, "x"), m) for p, m in pts] == [("x", 1)]
    sys2 = LinearDiffSystem.from_strings([["1/(x^2*(x-1))"]], "x")
    pts2 = {format_poly(p, "x"): m for p, m in singular_points(sys2)}
    assert pts2 == {"x": 2, "x-1": 1}


def test_pick_ordinary_point(dihedral):
    assert pick_ordinary_point(dihedral) == GaussRational(1)
    sys2 = LinearDiffSystem.from_strings([["1/(x*(x-1)*(x-2))"]], "x")
    assert pick_ordinary_point(sys2) == GaussRational(3)


def test_series_solves_system_mod_truncation(dihedral, rng):
    order = 6
    systems = [dihedral]
    for _ in range(5):
        systems.append(LinearDiffSystem(random_poly_mat(rng, 2, 2), "x"))
    for sys in systems:
        z0 = pick_ordinary_point(sys)
        ser = series_solution(sys, z0, order)
        assert series_at_base(ser) == Mat.identity(QI_RING, sys.size)
        U = series_polynomial_matrix(ser)
        resid = matrix_derivative(U) - sys.matrix * U
        # the residual must vanish to order (order - 1) at z0
        for row in resid.entries:
            for e in row:
                if not e.is_zero():
                    assert taylor(e, z0, order - 1) == [GaussRational(0)] * order


def test_series_at_singular_point_raises(dihedral):
    with pytest.raises(ValueError):
        series_solution(dihedral, GaussRational(0), 4)


def test_substitute_power_dihedral(dihedral):
    sub = substitute_power(dihedral, 2)
    assert sub.var == "t"
    assert sub == LinearDiffSystem.from_strings(
        [["0", "2*t"], ["2*t^3", "1/t"]], "t")


def test_substitute_power_identity_exponent(dihedral):
    assert substitute_power(dihedral, 1) == dihedral
    with pytest.raises(ValueError):
        substitute_power(dihedral, 0)


def test_substitute_solution_correspondence(dihedral):
    # if U(x) solves the original system then U(t^2) solves the substituted one,
    # checked at series level around an ordinary point
    z0 = GaussRational(1)
    order = 6
    ser = series_solution(dihedral, z0, order)
    U = series_polynomial_matrix(ser)
    sub = substitute_power(dihedral, 2)
    Ut = U.map(lambda e: e.compose_power(2))
    resid = matrix_derivative(Ut) - sub.matrix * Ut
    for row in resid.entries:
        for e in row:
            if not e.is_zero():
                # x = t^2 maps z0=1 to t=1
                assert taylor(e, z0, order - 1) == [GaussRational(0)] * order
