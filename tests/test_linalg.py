"""Exact linear algebra over ring descriptors."""

import random

import pytest

from redform.field import GaussRational, QI_RING, RF_RING, RatFunc, Q
from redform.linalg import (Mat, SingularMatrixError, rref, nullspace, solve,
                            mat_vec)

from conftest import (random_const_mat, random_invertible_const_mat, mat,
                      random_invertible_poly_mat, random_poly_mat)


def test_identity_and_shape_checks():
    I = Mat.identity(QI_RING, 3)
    assert I * I == I
    with pytest.raises(ValueError):
        Mat(QI_RING, [[QI_RING.one], [QI_RING.one, QI_RING.zero]])
    with pytest.raises(ValueError):
        Mat.zeros(QI_RING, 2, 3).det()


def test_rref_reduced_echelon_invariants():
    rng = random.Random(3)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Mat(QI_RING, [[GaussRational(rng.randint(-3, 3))
                           for _ in range(cols)] for _ in range(rows)])
        red, pivots = rref(m)
        for prow, pcol in enumerate(pivots):
            assert red.entries[prow][pcol] == QI_RING.one
            for r in range(rows):
                if r != prow:
                    assert red.entries[r][pcol] == QI_RING.zero


def test_rref_cancelled_entries_are_the_ring_zero():
    rng = random.Random(11)
    lifts = {QI_RING: lambda c: GaussRational(c, c % 2),
             RF_RING: lambda c: RatFunc.const(c)}
    for ring, lift in lifts.items():
        mats = [[[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
        mats += [[[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
                 for _ in range(10)]
        for rows in mats:
            m = Mat(ring, [[lift(c) if c else ring.zero for c in row]
                           for row in rows])
            red, _ = rref(m)
            assert all(e is ring.zero for row in red.entries for e in row
                       if not e)


def test_nullspace_vectors_are_solutions():
    rng = random.Random(5)
    for _ in range(60):
        m = random_const_mat(rng, rng.randint(2, 4))
        kern = nullspace(m)
        for v in kern:
            assert all(c == QI_RING.zero for c in mat_vec(m, v))
        red, pivots = rref(m)
        assert len(kern) == m.cols - len(pivots)


def test_inverse_random():
    rng = random.Random(9)
    for _ in range(30):
        m = random_invertible_const_mat(rng, 3)
        assert m * m.inverse() == Mat.identity(QI_RING, 3)


def test_singular_inverse_raises():
    m = Mat(QI_RING, [[QI_RING.one, QI_RING.one],
                      [QI_RING.one, QI_RING.one]])
    with pytest.raises(ValueError):
        m.inverse()
    with pytest.raises(ValueError):
        mat([["x", "1/x"], ["x^2", "1"]]).inverse()


def gauss_mat(rng, rows, cols):
    return Mat(QI_RING, [[GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
                          for _ in range(cols)] for _ in range(rows)])


def test_solve_random():
    rng = random.Random(17)
    for _ in range(30):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        m = gauss_mat(rng, n, n)
        while m.det() == QI_RING.zero:
            m = gauss_mat(rng, n, n)
        b = gauss_mat(rng, n, k)
        assert m * solve(m, b) == b
    for _ in range(5):
        m = random_invertible_poly_mat(rng, 2)
        b = random_poly_mat(rng, 2)
        assert m * solve(m, b) == b


def test_solve_singular_and_shape_errors():
    rng = random.Random(19)
    b = random_const_mat(rng, 2)
    ones = Mat(QI_RING, [[QI_RING.one, QI_RING.one]] * 2)
    with pytest.raises(SingularMatrixError):
        solve(ones, b)
    with pytest.raises(SingularMatrixError):
        solve(mat([["x", "1/x"], ["x^2", "1"]]), mat([["1"], ["x"]]))
    with pytest.raises(ValueError) as err:
        solve(random_invertible_const_mat(rng, 3), b)
    assert not isinstance(err.value, SingularMatrixError)
    with pytest.raises(ValueError):
        solve(Mat(QI_RING, [[QI_RING.one, QI_RING.one]]), b)


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        a = random_const_mat(rng, 3)
        b = random_const_mat(rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_det_over_rational_functions():
    m = mat([["x", "1"], ["0", "x"]])
    assert m.det() == RatFunc(m.entries[0][0].num ** 2)
    assert m.trace() == m.entries[0][0] + m.entries[1][1]


def test_transpose_and_map():
    m = Mat(QI_RING, [[GaussRational(1), GaussRational(2)],
                      [GaussRational(3), GaussRational(4)]])
    assert m.transpose().transpose() == m
    doubled = m.map(lambda c: c + c)
    assert doubled.entries[1][0] == GaussRational(6)
