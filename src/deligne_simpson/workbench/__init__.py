"""Built-in example corpus: fixture builders, expectations, corpus runner."""

from .builders import (
    ConstructionFailedError,
    block_triangular,
    build_first_block_triple,
    build_jordan_quadruple,
    build_rigid_quadruple,
    build_second_block_triple,
    build_semidirect_point,
    build_split_sum_quadruple,
    build_triangular_triple,
    build_triple,
    build_trivial_centralizer_quadruple,
    build_zero_index_pair,
    hom_dim,
    scalar_from_rational,
    spectrum_of_rationals,
    triangular_spaces,
)
from .fixtures import Expectation, Fixture, builtin_corpus, fixture_by_name, make_witness
from .runner import ExpectationResult, evaluate_expectation, run_corpus, run_fixture
