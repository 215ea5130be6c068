"""Exact homological algebra toolkit.

Builds simplicial cochain dg-algebras, section packages for their
cohomology, the secondary-multiplication Hochschild 3-cocycle, Massey
triple products, mapping-cone (Gysin-type) extensions, and splitting
witnesses, all over Z, Q or a prime field, with exact arithmetic.
"""

from .exactlin import (
    ZZ, QQ, GF, Ring, ExactMatrix, Subquotient,
    smith_normal_form, solve, solve_with_certificate, solve_matrix,
    column_hermite, complex_cohomology, as_vector, zero_vector,
)
from .simplicial import (
    SimplicialComplex, build_circle, build_sphere, build_torus, product,
    make_complex,
)
from .dga import (
    DgAlgebra, DgModule, cochain_algebra, validate, validate_module,
    load_dga,
)
from .sections import (
    CohomologySections, HRing, compute_cohomology, build_sections,
    TorsionHomologyError, NotACocycleError, ProductNotACoboundaryError,
)
from .hochschild import (
    HochschildCochain, TwistedBimodule, coboundary, coboundary_matrix,
    theta, verify_cocycle, trivialize, classes_equal,
    save_cochain, cochain_from_json, zero_cochain, admissible_tuples,
)
from .massey import MasseyResult, massey_triple, NotAMasseyTripleError
from .gysin import (
    ConeComplex, GysinExtension, SplitSection, mapping_cone, cone_cohomology,
    gysin_extension, beta_from_theta, verify_theorem_th, split_extension,
    check_extension_exactness,
)
from .torus import (
    exterior_algebra, symmetrize, verify_monomorphism,
    torus_theta_trivial,
)

__version__ = "0.1.0"
