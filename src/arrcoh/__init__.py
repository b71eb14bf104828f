"""Exact combinatorics and group-ring cohomology bookkeeping for
rational affine hyperplane arrangements.

The public surface, by layer:

  exact_linalg    integer row systems, rref, canonical affine subspaces
  arrangement     hyperplanes, the intersection poset, restrictions,
                  sub-arrangements, essentialization
  invariants      Möbius function, characteristic/Poincaré polynomials,
                  beta invariants
  nerve_homology  nerve of the singular set, integer homology via Smith
                  normal form, the wedge-of-spheres check
  chambers        exact chamber enumeration over the reals
  decomposition   deconing and the symbolic graded decomposition of the
                  concentrated cohomology degree
  verify          the cross-check battery of `arrcoh verify`
  cli             the `arrcoh` command-line driver

`exact_linalg`, `arrangement` and `errors` load with the package: every
command reads its input through them.  `invariants`, `nerve_homology`,
`chambers`, `decomposition`, `verify` and the JSON writer `_writer` load
on first use, so each command executes only the layers it runs.  Their
modules are in `sys.modules` from the start; the first attribute read
from one executes it, and a name re-exported here loads its layer when
it is first read.  `Rational`, which is `fractions.Fraction`, is read the
same way, so no command whose input is all integers imports `fractions`.
"""

import _thread
import importlib.util
import sys
from types import ModuleType

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
from .errors import (
    ArrcohError,
    InputError,
    InternalConsistencyError,
    ResourceCapError,
)
from .exact_linalg import (
    AffineSubspace,
    as_rational,
    intersect_flats,
    rational_str,
    rref,
    solve_affine,
)


_LOAD_LOCK = _thread.RLock()
_LOADING: set[ModuleType] = set()


class _LazyModule(ModuleType):
    """A layer whose body runs on its first attribute read, as with
    `importlib.util.LazyLoader`, but under one lock held until the body has
    run: a thread that reads a layer while another thread loads it waits.
    Before Python 3.12, `LazyLoader` turns the module into a plain one
    before running its body, so such a thread can find names missing."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            # The loading thread reads the module (its `__dict__`, say) while
            # the body runs: those reads see it as it stands.
            if type(self) is _LazyModule and self not in _LOADING:
                _LOADING.add(self)
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _LOADING.discard(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


def _lazy(name: str) -> ModuleType:
    """Register the submodule `name` in `sys.modules`, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


invariants = _lazy("invariants")
nerve_homology = _lazy("nerve_homology")
chambers = _lazy("chambers")
decomposition = _lazy("decomposition")
verify = _lazy("verify")
_writer = _lazy("_writer")

# Each public name of a lazy layer, and the layer that defines it; and
# `Rational`, which `exact_linalg` imports from `fractions` when it is read.
_LAZY_NAMES = {
    name: layer
    for layer, names in {
        "chambers": (
            "Chamber", "ChamberReport", "Constraint", "LinearSystem",
            "chamber_bounded", "enumerate_chambers", "fm_feasible",
        ),
        "decomposition": (
            "Free", "GradedDecomposition", "Induced", "ModuleExpr", "Sum",
            "Summand", "TensorTrivial", "TrivialZ", "decompose_cohomology",
            "decone", "decone_flats", "graded_piece_is_trivial_z",
        ),
        "exact_linalg": ("Rational",),
        "invariants": (
            "BetaValue", "IntPolynomial", "beta_all_flats", "beta_combinatorial",
            "characteristic_polynomial", "euler_complement", "mobius_from_top",
            "poincare_polynomial",
        ),
        "nerve_homology": (
            "HomologyResult", "SimplicialComplex", "WedgeCheck",
            "build_singular_nerve", "sigma_wedge_check", "simplicial_homology",
            "smith_normal_form",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    try:
        layer = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__():
    return sorted([*globals(), *_LAZY_NAMES])


__version__ = "0.1.0"

__all__ = [
    # layers
    "arrangement", "chambers", "decomposition", "errors", "exact_linalg",
    "invariants", "nerve_homology",
    # exact_linalg
    "AffineSubspace", "as_rational", "intersect_flats",
    "rational_str", "rref", "solve_affine",
    # arrangement
    "Arrangement", "Flat", "Hyperplane", "IntersectionPoset",
    "arrangement_from_coeffs", "build_intersection_poset", "essentialize",
    "essentialize_with_chart", "poset_subspaces_bruteforce", "restriction_to",
    "subarrangement_at", "validate_arrangement",
    # errors
    "ArrcohError", "InputError", "InternalConsistencyError", "ResourceCapError",
    # the lazy layers, and `Rational`
    *_LAZY_NAMES,
]
