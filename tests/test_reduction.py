"""Certificates, trace normalization, quadratic forms, exported system."""

import itertools

import pytest

from redform.field import GaussRational, RatFunc, RF_RING, RF_ZERO, Q
from redform.linalg import Mat, mat_vec
from redform.diffsys import LinearDiffSystem, gauge_transform
from redform.constructions import (Id, Sym, Ext, Dual, apply_group,
                                   apply_algebra, ConstructionError)
from redform.reduction import (InvariantSolution, MultiPoly, is_reduced,
                               normalize_trace, quadform_from_invariant,
                               gauss_diagonalize, build_system_S,
                               verify_reduction, poly_ring)
from redform.gallery import builtin_system, builtin_reduction_matrices

from conftest import rf, mat, const_mat, random_poly_mat


def test_is_reduced_zero_matrix():
    sys = LinearDiffSystem.from_strings([["0", "0"], ["0", "0"]], "x")
    cert = is_reduced(sys, [Sym(2, Id())])
    assert cert.verdict
    for inv in cert.invariants:
        assert inv.is_constant()
        assert tuple(f.eval(inv.z0) for f in inv.phi) == inv.v


def test_is_reduced_requires_constructions(dihedral):
    with pytest.raises(ValueError):
        is_reduced(dihedral, [])


def test_is_reduced_dihedral_false(dihedral):
    cert = is_reduced(dihedral, [Sym(2, Id())])
    assert not cert.verdict
    assert len(cert.invariants) == 1
    assert not cert.invariants[0].is_constant()


def test_certificate_records_constructions(dihedral):
    exprs = [Sym(2, Id()), Sym(2, Ext(2, Id()))]
    cert = is_reduced(dihedral, exprs)
    assert cert.constructions == tuple(exprs)
    d = cert.to_json_dict("x")
    assert d["constructions"] == ["sym(2,id)", "sym(2,ext(2,id))"]


def test_normalize_trace_traceless(dihedral):
    sys = LinearDiffSystem.from_strings([["x", "1"], ["0", "-x"]], "x")
    P, new = normalize_trace(sys)
    assert P == Mat.identity(RF_RING, 2)
    assert new == sys


def test_normalize_trace_scalar():
    sys = LinearDiffSystem.from_strings([["1/x"]], "x")
    P, new = normalize_trace(sys)
    assert P.entries[0][0] == rf("x")
    assert new.matrix.trace() == RF_ZERO


def test_normalize_trace_log_derivative():
    sys = LinearDiffSystem.from_strings([["2*x/(x^2+1)", "0"], ["0", "0"]], "x")
    P, new = normalize_trace(sys)
    assert P.entries[0][0] == rf("x^2+1")
    assert P.entries[1][1] == rf("1")
    assert new.matrix.trace() == RF_ZERO


def test_normalize_trace_failure():
    # trace 1/(2x) has no rational antiderivative exponential
    P, new = normalize_trace(LinearDiffSystem.from_strings([["1/(2*x)"]], "x"))
    assert P is None
    assert new.matrix.entries[0][0] == rf("1/(2*x)")


def test_quadform_identity():
    S = quadform_from_invariant([rf(s) for s in "1 0 0 1 0 1".split()], 3)
    assert S == Mat.identity(RF_RING, 3)


def test_quadform_offdiagonal_halved():
    S = quadform_from_invariant([rf("0"), rf("1"), rf("0")], 2)
    assert S == mat([["0", "1/2"], ["1/2", "0"]])


def test_quadform_length_mismatch():
    with pytest.raises(ValueError):
        quadform_from_invariant([rf("1")], 2)


def test_quadform_reproduces_polynomial(rng):
    from redform.constructions import sym_monomials
    n = 3
    monos = sym_monomials(n, 2)
    phi = [RatFunc.const(GaussRational(rng.randint(-4, 4))) for _ in monos]
    S = quadform_from_invariant(phi, n)
    # evaluate both sides on random points
    for _ in range(10):
        pt = [RatFunc.const(GaussRational(rng.randint(-3, 3))) for _ in range(n)]
        quad = RF_ZERO
        for i in range(n):
            for j in range(n):
                quad = quad + pt[i] * S.entries[i][j] * pt[j]
        want = RF_ZERO
        for c, m in zip(phi, monos):
            term = c
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * pt[i]
            want = want + term
        assert quad == want


def test_gauss_diagonalize_identity():
    I = Mat.identity(RF_RING, 3)
    Qm, D = gauss_diagonalize(I)
    assert Qm == I and D == I


def test_gauss_diagonalize_hyperbolic():
    S = mat([["0", "1"], ["1", "0"]])
    Qm, D = gauss_diagonalize(S)
    assert Qm.transpose() * S * Qm == D
    assert not Qm.det().is_zero()
    assert D.entries[0][1] == RF_ZERO and D.entries[1][0] == RF_ZERO


def test_gauss_diagonalize_random(rng):
    for _ in range(15):
        n = rng.randint(2, 4)
        raw = random_poly_mat(rng, n, 1)
        S = raw + raw.transpose()
        Qm, D = gauss_diagonalize(S)
        assert Qm.transpose() * S * Qm == D
        assert not Qm.det().is_zero()
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D.entries[i][j] == RF_ZERO


def test_gauss_diagonalize_rank_deficient():
    S = mat([["1", "1"], ["1", "1"]])
    Qm, D = gauss_diagonalize(S)
    assert Qm.transpose() * S * Qm == D
    assert D.entries[1][1] == RF_ZERO


def test_gauss_diagonalize_requires_symmetric():
    with pytest.raises(ValueError):
        gauss_diagonalize(mat([["0", "1"], ["2", "0"]]))


def _dihedral_invariants():
    z0 = GaussRational(1)
    sym2 = Sym(2, Id())
    sym2ext = Sym(2, Ext(2, Id()))
    phi1 = (rf("1"), rf("0"), rf("-x"))
    phi2 = (rf("x"),)
    return [
        InvariantSolution(sym2, phi1, tuple(f.eval(z0) for f in phi1), z0),
        InvariantSolution(sym2ext, phi2, tuple(f.eval(z0) for f in phi2), z0),
    ]


def test_build_system_s_dihedral_matches_printed_set():
    export = build_system_S(_dihedral_invariants(), 2)
    assert export.unknowns == ("p_1_1", "p_1_2", "p_2_1", "p_2_2", "w")
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
    det_constraint = det * w - c("1")
    got = list(export.equations)
    assert len(got) == 5
    # each printed equation appears, up to sign; the det constraint is present
    remaining = list(got)
    for eq in printed:
        match = next((g for g in remaining if g == eq or g == -eq), None)
        assert match is not None, "printed equation missing from export"
        remaining.remove(match)
    assert remaining == [det_constraint] or remaining == [-det_constraint]


def test_build_system_s_full_wedge_is_determinant_equation():
    z0 = GaussRational(1)
    phi = (rf("x"),)
    inv = InvariantSolution(Ext(2, Id()), phi,
                            tuple(f.eval(z0) for f in phi), z0)
    export = build_system_S([inv], 2)
    nv = 5
    p11, p12, p21, p22, w = (MultiPoly.var(nv, k) for k in range(5))
    det = p11 * p22 - p12 * p21
    assert export.equations[0] == det - MultiPoly.const(nv, rf("x"))


def test_build_system_s_rejects_dual():
    z0 = GaussRational(1)
    inv = InvariantSolution(Dual(Id()), (rf("1"), rf("0")),
                            (GaussRational(1), GaussRational(0)), z0)
    with pytest.raises(ConstructionError):
        build_system_S([inv], 2)


def test_export_serialization_roundtrip_stability():
    export = build_system_S(_dihedral_invariants(), 2)
    text1 = export.to_text()
    text2 = build_system_S(_dihedral_invariants(), 2).to_text()
    assert text1 == text2
    assert text1.count("\n") == len(export.equations)
    assert export.sidecar_dict()["unknowns"][-1] == "w"


def test_stabilizer_action_preserves_system():
    """If P solves the exported system and a constant M fixes every v, then
    P M solves it too."""
    invs = _dihedral_invariants()
    export = build_system_S(invs, 2)
    nv = 5

    def eval_at(eq, pvals, wval):
        vals = list(pvals) + [wval]
        acc = RF_ZERO
        for expo, coeff in eq.terms.items():
            term = coeff
            for t, e in enumerate(expo):
                for _ in range(e):
                    term = term * vals[t]
            acc = acc + term
        return acc

    # brute-force constant stabilizer elements of the invariant evaluations
    stabilizers = []
    vals = [GaussRational(v) for v in (-1, 0, 1)]
    for entries in itertools.product(vals, repeat=4):
        M = Mat(RF_RING, [[RatFunc.const(entries[0]), RatFunc.const(entries[1])],
                          [RatFunc.const(entries[2]), RatFunc.const(entries[3])]])
        if M.det().is_zero():
            continue
        ok = True
        for inv in invs:
            G = apply_group(inv.construction, M)
            v = [RatFunc.const(c) for c in inv.v]
            if mat_vec(G, v) != v:
                ok = False
                break
        if ok:
            stabilizers.append(M)
    assert len(stabilizers) > 1  # at least identity and one more

    # a known solution of the dihedral system in x-coordinates does not exist
    # over k, so check the implication formally: plugging P M into each
    # invariant equation equals plugging P in, whenever M stabilizes the v's
    from redform.reduction import MultiPoly as MP
    ring = poly_ring(nv)
    P = Mat(ring, [[MP.var(nv, 0), MP.var(nv, 1)],
                   [MP.var(nv, 2), MP.var(nv, 3)]])
    for M in stabilizers:
        Mp = M.map(lambda e: MP.const(nv, e), ring)
        PM = P * Mp
        for inv in invs:
            G_P = apply_group(inv.construction, P)
            G_PM = apply_group(inv.construction, PM)
            v = [MP.const(nv, RatFunc.const(c)) for c in inv.v]
            assert mat_vec(G_PM, v) == mat_vec(G_P, v)


def test_verify_reduction_identity_on_reduced():
    sys = LinearDiffSystem.from_strings([["0", "x"], ["-x", "0"]], "x")
    report = verify_reduction(sys, Mat.identity(RF_RING, 2), [Sym(2, Id())])
    assert report.ok
    assert report.gauged == sys


def test_verify_reduction_singular_matrix(dihedral):
    with pytest.raises(ValueError):
        verify_reduction(dihedral, mat([["x", "x"], ["1", "1"]]),
                         [Sym(2, Id())])


def test_verify_reduction_never_inverts(monkeypatch):
    from redform.diffsys import substitute_power
    sys = substitute_power(builtin_system("dihedral"), 2)
    P, _ = builtin_reduction_matrices("dihedral")[0]
    calls = []
    inverse = Mat.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(Mat, "inverse", counted)
    assert verify_reduction(sys, P, [Sym(2, Id())]).ok
    assert not calls


def test_verify_reduction_reuses_certificate_solve():
    from redform.diffsys import substitute_power
    from redform.ratsols import rational_solutions
    sys = substitute_power(builtin_system("dihedral"), 2)
    P, _ = builtin_reduction_matrices("dihedral")[0]
    rational_solutions.cache_clear()
    assert not is_reduced(sys, [Sym(2, Id())]).verdict
    assert rational_solutions.cache_info().hits == 0
    assert verify_reduction(sys, P, [Sym(2, Id())]).ok
    assert rational_solutions.cache_info().hits == 1


def test_verify_reduction_dihedral_t():
    from redform.diffsys import substitute_power
    sys_t = substitute_power(builtin_system("dihedral"), 2)
    P1, _ = builtin_reduction_matrices("dihedral")[0]
    report = verify_reduction(sys_t, P1, [Sym(2, Id())])
    assert report.ok
    assert report.certificate.verdict
    assert all(h for _, _, h in report.invariant_checks)
