"""Tensor constructions in group and Lie-algebra sense."""

import pytest

from redform.field import GaussRational, QI_RING, RF_RING
from redform.linalg import Mat
from redform.constructions import (Id, Sym, Ext, Tensor, Dual, DSum,
                                   dimension, sym_monomials, apply_group,
                                   apply_algebra, parse_construction,
                                   format_construction, ConstructionError)
from redform.parsing import ParseError

from conftest import (const_mat, random_const_mat, random_invertible_const_mat,
                      dual_matrix, split_dual_matrix)


def test_dimension_counts():
    assert dimension(Id(), 4) == 4
    assert dimension(Sym(2, Id()), 3) == 6
    assert dimension(Ext(2, Id()), 4) == 6
    assert dimension(Tensor(Id(), Id()), 3) == 9
    assert dimension(DSum(Id(), 3), 2) == 6
    assert dimension(Dual(Id()), 5) == 5
    assert dimension(Sym(2, DSum(Id(), 3)), 3) == 45


def test_monomial_order_graded_lex():
    # X1 > X2 > X3; index 0 is X1^m
    assert sym_monomials(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                                   (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_sym2_algebra_hand_oracle():
    N = const_mat([[1, 2], [3, 4]])
    got = apply_algebra(Sym(2, Id()), N)
    a, b, c, d = 1, 2, 3, 4
    want = const_mat([[2 * a, b, 0],
                      [2 * c, a + d, 2 * b],
                      [0, c, 2 * d]])
    assert got == want


def test_ext_full_wedge_is_determinant():
    M = const_mat([[1, 2], [3, 5]])
    assert apply_group(Ext(2, Id()), M) == const_mat([[-1]])
    # algebra sense: trace
    assert apply_algebra(Ext(2, Id()), M) == const_mat([[6]])


def test_dual_senses():
    M = const_mat([[2, 1], [1, 1]])
    assert apply_group(Dual(Id()), M) == M.inverse().transpose()
    assert apply_algebra(Dual(Id()), M) == -M.transpose()


def test_dual_of_singular_matrix_fails():
    M = const_mat([[1, 1], [1, 1]])
    with pytest.raises(ConstructionError):
        apply_group(Dual(Id()), M)


def test_ext_degree_bound():
    M = const_mat([[1, 0], [0, 1]])
    with pytest.raises(ConstructionError):
        apply_group(Ext(3, Id()), M)


def test_group_functoriality(rng):
    exprs = [Sym(2, Id()), Ext(2, Id()), Tensor(Id(), Id()), DSum(Id(), 2)]
    for _ in range(15):
        M = random_invertible_const_mat(rng, 3)
        N = random_invertible_const_mat(rng, 3)
        for e in exprs:
            assert apply_group(e, M * N) == \
                apply_group(e, M) * apply_group(e, N)


def test_epsilon_identity(rng):
    """apply_group(e, I + eps N) = I + eps * apply_algebra(e, N)."""
    exprs = [Sym(2, Id()), Sym(3, Id()), Ext(2, Id()), Dual(Id()),
             Tensor(Id(), Id()), Sym(2, DSum(Id(), 2))]
    for _ in range(10):
        N = random_const_mat(rng, 2)
        I = Mat.identity(QI_RING, 2)
        dm = dual_matrix(I, N)
        for e in exprs:
            G = apply_group(e, dm)
            a, b = split_dual_matrix(G, QI_RING)
            d = dimension(e, 2)
            assert a == Mat.identity(QI_RING, d)
            assert b == apply_algebra(e, N)


def test_bracket_morphism(rng):
    exprs = [Sym(2, Id()), Ext(2, Id()), Dual(Id()), Tensor(Id(), Id())]
    for _ in range(10):
        M = random_const_mat(rng, 3)
        N = random_const_mat(rng, 3)
        for e in exprs:
            cm, cn = apply_algebra(e, M), apply_algebra(e, N)
            assert apply_algebra(e, M * N - N * M) == cm * cn - cn * cm


def test_algebra_linearity(rng):
    e = Sym(2, Id())
    M = random_const_mat(rng, 3)
    N = random_const_mat(rng, 3)
    assert apply_algebra(e, M + N) == apply_algebra(e, M) + apply_algebra(e, N)


def test_dsl_roundtrip():
    texts = ["id", "sym(2,id)", "ext(3,dual(id))",
             "tensor(sym(2,id),dsum(id,4))", "sym(2,ext(2,id))"]
    for t in texts:
        e = parse_construction(t)
        assert format_construction(e) == t
        assert parse_construction(format_construction(e)) == e


def test_dsl_errors():
    for bad in ["sym(0,id)", "ext(-1,id)", "dsum(id,0)", "sym(2)", "foo",
                "sym(2,id", ""]:
        with pytest.raises((ConstructionError, ValueError)):
            parse_construction(bad)
    for bad, col in [("sym(2,id))", 10), ("id(", 3), ("sym(2,,id)", 7),
                     ("sym(2,\n  foo)", 3)]:
        with pytest.raises(ParseError) as ei:
            parse_construction(bad)
        assert (ei.value.line, ei.value.col) == (bad.count("\n") + 1, col)
