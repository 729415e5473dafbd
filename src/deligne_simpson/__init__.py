"""Exact tools for the Deligne-Simpson problem.

Decide, for a tuple of Jordan normal forms with generic eigenvalues,
whether an irreducible matrix tuple with product I (or sum 0) exists;
classify eigenvalue genericity exactly; and verify explicit rational
matrix tuples (closure, classes, centralizer, irreducibility, tangent
and orbit dimensions) with exact rational arithmetic.
"""

from .exact_linalg import (
    RatMatrix,
    commutator,
    inverse,
    matmul,
    nullspace_basis,
    rank,
    rat,
    rational_from_str,
    rational_to_str,
    vectorize_commutator_map,
)
from .jnf import (
    Jnf,
    Partition,
    centralizer_dim_of_jnf,
    class_dim,
    corresponding_diagonal,
    corresponding_single_eigenvalue,
    corresponds,
    min_rank,
)
from .reduction import (
    JnfTuple,
    ReductionTrace,
    check_alpha,
    check_beta,
    check_omega,
    classify_rigidity,
    expected_dim,
    explore_all_traces,
    kappa,
    reduce_step,
    solvable_generic,
)
from .spectra import (
    FormalScalar,
    SpectrumAssignment,
    basic_relation,
    classify,
    combine,
    enumerate_relations,
    exp_map,
    global_condition,
    is_generic,
)
from .tuple_lab import (
    MatrixTuple,
    centralizer_dim,
    class_membership,
    commut_surjective,
    has_trivial_centralizer,
    is_irreducible,
    jnf_of,
    jordan_realization,
    orbit_dim,
    report,
    tangent_dim,
    verify_closure,
)

__version__ = "0.1.0"
