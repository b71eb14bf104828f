"""Exact combinatorics and group-ring cohomology bookkeeping for
rational affine hyperplane arrangements.

The public surface, by layer:

  exact_linalg    rational matrices, rref, canonical affine subspaces
  arrangement     hyperplanes, the intersection poset, restrictions,
                  sub-arrangements, essentialization
  invariants      Möbius function, characteristic/Poincaré polynomials,
                  beta invariants
  nerve_homology  nerve of the singular set, integer homology via Smith
                  normal form, the wedge-of-spheres check
  chambers        exact chamber enumeration over the reals
  decomposition   deconing and the symbolic graded decomposition of the
                  concentrated cohomology degree
  cli             the `arrcoh` command-line driver
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    arrangement_from_coeffs,
    build_intersection_poset,
    essentialize,
    essentialize_with_chart,
    poset_subspaces_bruteforce,
    restriction_to,
    subarrangement_at,
    validate_arrangement,
)
from .chambers import (
    Chamber,
    ChamberReport,
    Constraint,
    LinearSystem,
    chamber_bounded,
    enumerate_chambers,
    fm_feasible,
)
from .decomposition import (
    Free,
    GradedDecomposition,
    Induced,
    ModuleExpr,
    Sum,
    Summand,
    TensorTrivial,
    TrivialZ,
    decompose_cohomology,
    decone,
    decone_flats,
    graded_piece_is_trivial_z,
)
from .errors import (
    ArrcohError,
    InputError,
    InternalConsistencyError,
    ResourceCapError,
)
from .exact_linalg import (
    AffineSubspace,
    Rational,
    as_rational,
    intersect_flats,
    rational_str,
    rref,
    solve_affine,
)
from .invariants import (
    BetaValue,
    IntPolynomial,
    beta_all_flats,
    beta_combinatorial,
    characteristic_polynomial,
    euler_complement,
    mobius_from_top,
    poincare_polynomial,
)
from .nerve_homology import (
    HomologyResult,
    SimplicialComplex,
    WedgeCheck,
    build_singular_nerve,
    sigma_wedge_check,
    simplicial_homology,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
