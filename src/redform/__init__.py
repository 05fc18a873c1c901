"""Reduced forms of linear differential systems over Q(i)(x).

Exact tooling for systems Y' = A Y: gauge transformations, tensor
constructions in group and Lie-algebra sense, Wei-Norman decomposition,
rational solutions of constructed systems, and the constant-invariant
reduced-form certificate.
"""

from .field import GaussRational, UniPoly, RatFunc, Ring, QI_RING, RF_RING
from .linalg import Mat, SingularMatrixError, rref, nullspace, solve, mat_vec
from .parsing import ParseError, parse_ratfunc, format_ratfunc
from .factor import irreducible_factors
from .diffsys import (LinearDiffSystem, SeriesFundamentalMatrix,
                      gauge_transform, singular_points, pick_ordinary_point,
                      series_solution, substitute_power)
from .constructions import (Id, Sym, Ext, Tensor, Dual, DSum, dimension,
                            apply_group, apply_algebra, parse_construction,
                            format_construction, ConstructionError)
from .weinorman import WeiNormanDecomposition, decompose
from .ratsols import (RationalSolutionBasis, rational_solutions,
                      log_derivative_rational)
from .reduction import (InvariantSolution, ReductionCertificate,
                        PolySystemExport, VerificationReport, is_reduced,
                        normalize_trace, quadform_from_invariant,
                        gauss_diagonalize, build_system_S, verify_reduction)
from .gallery import builtin_system, builtin_reduction_matrices, run_example

__version__ = "0.1.0"
