"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints an explicit PASS line on success; with `pytest -v` the test
names double as the per-criterion report.
"""

import itertools
import random

from redform.field import (GaussRational, UniPoly, RatFunc, QI_RING, RF_RING,
                           RF_ZERO, Q)
from redform.linalg import Mat, mat_vec
from redform.diffsys import (LinearDiffSystem, gauge_transform,
                             substitute_power, series_solution,
                             pick_ordinary_point)
from redform.constructions import (Id, Sym, Ext, Tensor, Dual, apply_group,
                                   apply_algebra, dimension)
from redform.ratsols import rational_solutions
from redform.weinorman import decompose
from redform.reduction import (InvariantSolution, MultiPoly, is_reduced,
                               build_system_S, quadform_from_invariant,
                               gauss_diagonalize)
from redform.gallery import builtin_system, builtin_reduction_matrices
from redform.parsing import parse_ratfunc

from conftest import (mat, rf, same_span, random_const_mat,
                      random_invertible_const_mat, random_invertible_poly_mat,
                      dual_matrix, split_dual_matrix, is_square_ratfunc,
                      series_polynomial_matrix, taylor)

SYM2 = Sym(2, Id())


def scaled_match(vectors, target):
    """The 1-dim basis `vectors` equals `target` after exact rescaling."""
    if len(vectors) != 1:
        return False
    vec = list(vectors[0])
    lead = next((k for k, e in enumerate(target) if not e.is_zero()), None)
    if lead is None or vec[lead].is_zero():
        return False
    c = target[lead] / vec[lead]
    return [e * c for e in vec] == list(target)


def test_criterion_1_dihedral_invariants():
    sys = builtin_system("dihedral")
    B = apply_algebra(SYM2, sys.matrix)
    basis = rational_solutions(LinearDiffSystem(B, "x"))
    assert scaled_match(basis.vectors, [rf("-1"), rf("0"), rf("x")])

    scalar = apply_algebra(Sym(2, Ext(2, Id())), sys.matrix)
    assert scalar.entries == [[rf("1/x")]]
    basis2 = rational_solutions(LinearDiffSystem(scalar, "x"))
    assert [list(v) for v in basis2.vectors] == [[rf("x")]]
    print("PASS criterion 1: dihedral invariants (-1,0,x) and {x}")


def test_criterion_2_dihedral_exported_system():
    sys = builtin_system("dihedral")
    z0 = GaussRational(1)
    invariants = []
    for e in (SYM2, Sym(2, Ext(2, Id()))):
        B = apply_algebra(e, sys.matrix)
        for phi in rational_solutions(LinearDiffSystem(B, "x")).vectors:
            invariants.append(InvariantSolution(
                e, tuple(phi), tuple(f.eval(z0) for f in phi), z0))
    export = build_system_S(invariants, 2)

    nv = 5
    p11, p12, p21, p22, w = (MultiPoly.var(nv, k) for k in range(5))

    def c(t):
        return MultiPoly.const(nv, rf(t))

    det = p11 * p22 - p12 * p21
    printed = [
        c("x") - det * det,
        c("2") * p11 * p21 - c("2") * p12 * p22,
        c("-1") + p11 * p11 - p12 * p12,
        c("x") + p21 * p21 - p22 * p22,
    ]
    remaining = list(export.equations)
    for eq in printed:
        match = next((g for g in remaining if g == eq or g == -eq), None)
        assert match is not None
        remaining.remove(match)
    det_eq = det * w - c("1")
    assert remaining in ([det_eq], [-det_eq])
    print("PASS criterion 2: exported dihedral system matches the printed set")


def test_criterion_3_dihedral_reduction():
    sys_t = substitute_power(builtin_system("dihedral"), 2)
    (P1, _), (P2, _) = builtin_reduction_matrices("dihedral")

    g1 = gauge_transform(P1, sys_t)
    assert g1.matrix == mat([["0", "2*t^2"], ["2*t^2", "0"]], "t")
    g2 = gauge_transform(P2, g1)
    assert g2.matrix == mat([["2*t^2", "0"], ["0", "-2*t^2"]], "t")

    c1 = is_reduced(g1, [SYM2])
    assert c1.verdict
    assert [list(i.phi) for i in c1.invariants] == \
        [[rf("1", "t"), rf("0", "t"), rf("-1", "t")]]
    c2 = is_reduced(g2, [SYM2])
    assert c2.verdict
    assert [list(i.phi) for i in c2.invariants] == \
        [[rf("0", "t"), rf("1", "t"), rf("0", "t")]]
    print("PASS criterion 3: dihedral gauges reduce with invariants "
          "(1,0,-1) and (0,1,0)")


I2_PRINTED = ["-(3-x^2+x^4-2*x)/(x^2*(x-1)^2)",
              "2*(x^2-2*x+2)/(x*(x+1)*(x-1)^2)",
              "2*x-2",
              "-(x^2-2*x+2)/((x+1)^2*(x-1)^2)",
              "-2*(x*(x-1)/(x+1))",
              "-x^2*(x-1)^2"]


def test_criterion_4_so3_pipeline():
    sys = builtin_system("so3")
    B = apply_algebra(SYM2, sys.matrix)
    basis = rational_solutions(LinearDiffSystem(B, "x"))
    I2 = [rf(s) for s in I2_PRINTED]
    assert scaled_match(basis.vectors, I2)

    P, _ = builtin_reduction_matrices("so3")[0]
    gauged = gauge_transform(P, sys)
    assert gauged.matrix == mat([["0", "x", "1"],
                                 ["-x", "0", "x^2"],
                                 ["-1", "-x^2", "0"]])

    deco = decompose(gauged)
    assert deco.rank == 3
    for M in deco.mats:
        assert (M + M.transpose()).is_zero()
        assert M.trace() == GaussRational(0)

    cert = is_reduced(gauged, [SYM2])
    assert cert.verdict
    assert [list(i.phi) for i in cert.invariants] == \
        [[rf("1"), rf("0"), rf("0"), rf("1"), rf("0"), rf("1")]]

    S = quadform_from_invariant(I2, 3)
    Qm, D = gauss_diagonalize(S)
    assert Qm.transpose() * S * Qm == D
    ratio = D.entries[0][0] / rf("-3+x^2-x^4+2*x")
    assert not ratio.is_zero() and is_square_ratfunc(ratio)
    print("PASS criterion 4: so(3) invariant, gauge, Wei-Norman, certificate, "
          "Gauss form")


def test_criterion_5_functor_laws():
    rng = random.Random(51)
    exprs = [Sym(2, Id()), Sym(3, Id()), Ext(2, Id()), Dual(Id()),
             Tensor(Id(), Id())]
    pairs = 0
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        M = random_invertible_const_mat(rng, n)
        N = random_invertible_const_mat(rng, n)
        pairs += 1
        for e in exprs:
            # group morphism
            assert apply_group(e, M * N) == \
                apply_group(e, M) * apply_group(e, N)
            # epsilon identity over dual numbers
            dm = dual_matrix(Mat.identity(QI_RING, n), N)
            a, b = split_dual_matrix(apply_group(e, dm), QI_RING)
            assert a == Mat.identity(QI_RING, dimension(e, n))
            assert b == apply_algebra(e, N)
            # bracket morphism
            cm, cn = apply_algebra(e, M), apply_algebra(e, N)
            assert apply_algebra(e, M * N - N * M) == cm * cn - cn * cm
    assert pairs >= 100
    print(f"PASS criterion 5: functor laws on {pairs} random pairs, "
          f"{len(exprs)} constructions, zero failures")


def test_criterion_6_gauge_compatibility():
    rng = random.Random(62)
    checked = 0
    for trial in range(25):
        n = 2 if trial < 18 else 3
        A = LinearDiffSystem(
            Mat(RF_RING, [[RatFunc(UniPoly([GaussRational(rng.randint(-3, 3))
                                            for _ in range(3)]))
                           for _ in range(n)] for _ in range(n)]), "x")
        P = random_invertible_poly_mat(rng, n, 2)
        lhs = apply_algebra(SYM2, gauge_transform(P, A).matrix)
        symP = apply_group(SYM2, P)
        rhs = gauge_transform(
            symP, LinearDiffSystem(apply_algebra(SYM2, A.matrix), "x")).matrix
        assert lhs == rhs
        checked += 1
    assert checked >= 25
    print(f"PASS criterion 6: sym^2 gauge compatibility on {checked} instances")


def test_criterion_7_solver_oracle():
    rng = random.Random(73)
    checked = 0
    for trial in range(25):
        n = 2 if trial % 3 else 3
        exps = [rng.randint(-3, 3) for _ in range(n)]
        D = LinearDiffSystem.from_strings(
            [[f"{e}/x" if i == j else "0" for j in range(n)]
             for i, e in enumerate(exps)], "x")
        P = random_invertible_poly_mat(rng, n, 1)
        gauged = gauge_transform(P, D)
        Pinv = P.inverse()
        expected = []
        for j, e in enumerate(exps):
            xn = rf("x") ** e if e >= 0 else rf("1/x") ** (-e)
            expected.append([Pinv.entries[i][j] * xn for i in range(n)])
        basis = rational_solutions(gauged)
        assert same_span(basis.vectors, expected)
        checked += 1
    assert checked >= 25
    print(f"PASS criterion 7: solver recovers the known span on {checked} "
          f"instances")


def _dictionary_check(sys, expr, order=8):
    z0 = pick_ordinary_point(sys)
    ser = series_solution(sys, z0, order)
    U = series_polynomial_matrix(ser)
    constU = apply_group(expr, U)
    # Const(U)(z0) = identity
    at_base = constU.map(lambda e: e.eval(z0), QI_RING)
    assert at_base == Mat.identity(QI_RING, constU.rows)
    B = apply_algebra(expr, sys.matrix)
    basis = rational_solutions(LinearDiffSystem(B, sys.var))
    zeros = [GaussRational(0)] * order
    for phi in basis.vectors:
        v = [RatFunc.const(f.eval(z0)) for f in phi]
        rebuilt = mat_vec(constU, v)
        for got, want in zip(rebuilt, phi):
            diff = got - want
            if not diff.is_zero():
                assert taylor(diff, z0, order - 1) == zeros
    return len(basis.vectors)


def test_criterion_8_dictionary_series():
    total = _dictionary_check(builtin_system("dihedral"), SYM2)
    total += _dictionary_check(builtin_system("so3"), SYM2)
    assert total >= 2
    rng = random.Random(84)
    for _ in range(10):
        n = rng.randint(2, 3)
        exps = [rng.randint(-2, 2) for _ in range(n)]
        D = LinearDiffSystem.from_strings(
            [[f"{e}/x" if i == j else "0" for j in range(n)]
             for i, e in enumerate(exps)], "x")
        P = random_invertible_poly_mat(rng, n, 1)
        sys = gauge_transform(P, D)
        assert _dictionary_check(sys, Id()) == n
    print("PASS criterion 8: dictionary phi = Const(U).phi(z0) holds to "
          "order 8 on both examples and 10 random systems")


def test_criterion_9_certificate_soundness():
    sys_t = substitute_power(builtin_system("dihedral"), 2)
    (P1, _), (P2, _) = builtin_reduction_matrices("dihedral")
    g1 = gauge_transform(P1, sys_t)
    g2 = gauge_transform(P2, g1)
    so3 = builtin_system("so3")
    so3_red = gauge_transform(builtin_reduction_matrices("so3")[0][0], so3)
    zero = LinearDiffSystem.from_strings([["0", "0"], ["0", "0"]], "x")
    rot = LinearDiffSystem.from_strings([["0", "x"], ["-x", "0"]], "x")

    certs = [is_reduced(s, [SYM2]) for s in (g1, g2, so3_red, zero, rot, so3)]
    true_seen = 0
    for cert in certs:
        if cert.verdict:
            true_seen += 1
            for per_inv in cert.witnesses:
                for w in per_inv:
                    assert all(c == GaussRational(0) for c in w)
    assert true_seen >= 4

    # negated check: the unreduced 3x3 system is rejected, and so are scalar
    # systems whose invariant x^25 has an exponent of absolute value above 20
    assert is_reduced(so3, [SYM2]).verdict is False
    scalar = LinearDiffSystem.from_strings([["25/x"]], "x")
    assert is_reduced(scalar, [Id()]).verdict is False
    half = LinearDiffSystem.from_strings([["25/(2*x)"]], "x")
    assert is_reduced(half, [SYM2]).verdict is False
    print(f"PASS criterion 9: witnesses vanish on all {true_seen} true "
          f"verdicts; unreduced system rejected")
