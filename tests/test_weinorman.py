"""Wei-Norman decomposition."""

from redform.field import RF_RING
from redform.diffsys import LinearDiffSystem
from redform.weinorman import decompose

from conftest import const_mat, random_poly_mat, wei_norman_reconstruct


def test_dihedral_decomposition(dihedral):
    deco = decompose(dihedral)
    assert deco.rank == 3
    coeffs = [str(f) for f in deco.coeffs]
    # functions 1, x, 1/(2x) paired with elementary matrices
    E12 = const_mat([[0, 1], [0, 0]])
    E21 = const_mat([[0, 0], [1, 0]])
    E22 = const_mat([[0, 0], [0, 1]])
    assert set(deco.mats) == {E12, E21, E22}
    assert wei_norman_reconstruct(deco, RF_RING) == dihedral.matrix


def test_reconstruct_random(rng):
    for _ in range(15):
        sys = LinearDiffSystem(random_poly_mat(rng, 3, 2), "x")
        deco = decompose(sys)
        assert wei_norman_reconstruct(deco, RF_RING) == sys.matrix


def test_zero_system():
    sys = LinearDiffSystem.from_strings([["0", "0"], ["0", "0"]], "x")
    deco = decompose(sys)
    assert deco.rank == 0


def test_coefficients_independent_over_constants(rng):
    # repeated entries collapse to a single basis function
    sys = LinearDiffSystem.from_strings([["x", "2*x"], ["3*x", "x"]], "x")
    deco = decompose(sys)
    assert deco.rank == 1
    assert wei_norman_reconstruct(deco, RF_RING) == sys.matrix
    # Gaussian entries with a zero, a repeat and dependent entries: the basis
    # is the first independent entries in row-major order (over the common
    # denominator x-i the first four span all numerators of degree <= 3)
    sys = LinearDiffSystem.from_strings(
        [["i*x", "0", "1/(x-i)"],
         ["i*x", "2*x+(1+i)/(x-i)", "x^2"],
         ["(x^3+1)/(x-i)", "3", "-x"]], "x")
    deco = decompose(sys)
    A = sys.matrix.entries
    assert deco.coeffs == (A[0][0], A[0][2], A[1][2], A[2][0])
    assert wei_norman_reconstruct(deco, RF_RING) == sys.matrix
