from fractions import Fraction as F

import pytest

from deligne_simpson import exact_linalg as xl
from deligne_simpson import spectra as sp
from deligne_simpson import tuple_lab as tl
from deligne_simpson.exact_linalg import RatMatrix
from deligne_simpson.jnf import Jnf
from deligne_simpson import workbench as wb
from deligne_simpson.workbench.export import dumps, fixture_file_payloads


def test_scalar_from_rational_prime_encoding():
    s = wb.scalar_from_rational(F(-10, 21))
    assert dict(s.terms) == {"2": 1, "5": 1, "3": -1, "7": -1}
    assert s.offset == F(1, 2)
    assert wb.scalar_from_rational(F(1)).is_identity()
    with pytest.raises(ValueError):
        wb.scalar_from_rational(F(0))


def test_spectrum_of_rationals_detects_relations():
    # 2 * 3 * (1/6) = 1 is a visible relation after prime encoding
    spectrum = wb.spectrum_of_rationals([[2, 5], [3, 7], [F(1, 6), F(1, 35)]])
    assert sp.global_condition(spectrum)
    rep = sp.is_generic(spectrum)
    assert rep.verdict == "non_generic"


def test_rigid_quadruple_properties():
    rigid = wb.build_rigid_quadruple()
    assert tl.verify_closure(rigid)
    assert xl.product(list(rigid.matrices[:3])) == RatMatrix.identity(2).scale(-1)
    assert tl.is_irreducible(rigid)
    assert tl.tangent_dim(rigid) == 3
    jt = tl.jnf_tuple_of(rigid)
    from deligne_simpson.reduction import kappa

    assert kappa(jt) == 2
    assert sp.is_generic(wb.spectrum_of_rationals(rigid.eigenvalue_lists)).verdict == "generic"


def test_jordan_quadruple_properties():
    jordan = wb.build_jordan_quadruple()
    assert tl.verify_closure(jordan)
    assert tl.is_irreducible(jordan)
    assert tl.tangent_dim(jordan) == 5
    assert tl.jnf_of(jordan.matrices[3], [-1, -1]) == Jnf([("-1", [2])])
    from deligne_simpson.reduction import kappa

    assert kappa(tl.jnf_tuple_of(jordan)) == 0


def test_semidirect_point_properties():
    rigid = wb.build_rigid_quadruple()
    w = wb.build_semidirect_point(rigid)
    assert tl.centralizer_dim(w) == 2
    assert tl.jnf_of(w.matrices[3], [-1] * 4) == Jnf([("-1", [2, 1, 1])])
    for i in range(3):
        eigs = w.eigenvalue_lists[i]
        j = tl.jnf_of(w.matrices[i], eigs)
        assert j.multiplicities() == (2, 2) and j.is_diagonal()
    corner = RatMatrix.from_rows([[w.matrices[3][i, j] for j in (2, 3)] for i in (0, 1)])
    assert corner.trace() == 0 and xl.rank(corner) == 1 and (corner @ corner).is_zero()


def test_semidirect_point_reports_an_inconsistent_corner_as_a_construction_failure(monkeypatch):
    rigid = wb.build_rigid_quadruple()

    def inconsistent(system, rhs):
        raise xl.NoSolutionError("inconsistent")

    monkeypatch.setattr(wb.builders.xl, "solve", inconsistent)
    with pytest.raises(wb.ConstructionFailedError, match="upper-right block equation is inconsistent"):
        wb.build_semidirect_point(rigid)


def test_direct_sum_and_doubled_points():
    rigid = wb.build_rigid_quadruple()
    jordan = wb.build_jordan_quadruple()
    u = wb.block_triangular(rigid, jordan)
    y = wb.block_triangular(rigid, rigid)
    assert tl.centralizer_dim(u) == 2
    assert tl.centralizer_dim(y) == 4
    assert tl.orbit_dim(y) == 12
    assert tl.jnf_of(u.matrices[3], [-1] * 4) == Jnf([("-1", [2, 1, 1])])
    assert tl.jnf_of(y.matrices[3], [-1] * 4) == Jnf([("-1", [1, 1, 1, 1])])
    assert not tl.is_irreducible(u) and not tl.is_irreducible(y)


def test_triangular_spaces_dimensions():
    first = wb.build_first_block_triple()
    second = wb.build_second_block_triple()
    spaces = wb.triangular_spaces(first, second)
    assert spaces["dim_full"] == 5
    assert spaces["dim_conjugation"] == 4
    # the conjugation subspace sits inside the full space
    full_rows = [list(v.entries) for v in spaces["full_basis"]]
    for q in spaces["conjugation_basis"]:
        stacked = RatMatrix.from_rows(full_rows + [list(q.entries)])
        assert xl.rank(stacked) == len(full_rows)


def test_triangular_triple_trivial_centralizer():
    first = wb.build_first_block_triple()
    second = wb.build_second_block_triple()
    tri = wb.build_triangular_triple(first, second)
    assert tl.centralizer_dim(tri) == 1
    assert not tl.is_irreducible(tri)
    block_diag = wb.block_triangular(first, second)
    assert tl.centralizer_dim(block_diag) == 2


DIRECT_SUM_PAIRS = [
    ("rigid", "jordan"),
    ("rigid", "rigid"),
    ("first_block", "second_block"),
    ("component_a", "component_b"),
    ("jordan", "jordan"),
]


def small_tuples():
    component_a, component_b, _ = wb.build_zero_index_pair()
    return {
        "rigid": wb.build_rigid_quadruple(),
        "jordan": wb.build_jordan_quadruple(),
        "first_block": wb.build_first_block_triple(),
        "second_block": wb.build_second_block_triple(),
        "component_a": component_a,
        "component_b": component_b,
    }


@pytest.mark.parametrize("first,second", DIRECT_SUM_PAIRS)
def test_block_diagonal_centralizer_is_the_direct_sum_identity(first, second):
    """End(A + B) = End(A) + Hom(B, A) + Hom(A, B) + End(B)."""
    tuples = small_tuples()
    a, b = tuples[first].matrices, tuples[second].matrices
    direct_sum = wb.block_triangular(tuples[first], tuples[second])
    assert tl.centralizer_dim(direct_sum) == (
        tl.centralizer_dim_of(a) + tl.centralizer_dim_of(b) + wb.hom_dim(a, b) + wb.hom_dim(b, a)
    )


def test_block_triangular_groups_eigenvalues_and_checks_closure():
    first = wb.build_first_block_triple()
    second = wb.build_second_block_triple()
    assert wb.block_triangular(first, second).eigenvalue_lists == (
        (F(2), F(2), F(3), F(5)),
        (F(7), F(7), F(11), F(13)),
        (F(1, 23), F(1, 23), F(23, 462), F(23, 910)),
    )
    rigid = wb.build_rigid_quadruple()
    corners = [RatMatrix.identity(2)] + [RatMatrix.zero(2, 2)] * 3
    with pytest.raises(wb.ConstructionFailedError):
        wb.block_triangular(rigid, rigid, corners)
    with pytest.raises(ValueError):
        wb.block_triangular(rigid, first)


def test_hom_dim_rejects_tuples_of_different_lengths():
    rigid = wb.build_rigid_quadruple()
    first = wb.build_first_block_triple()
    with pytest.raises(ValueError):
        wb.hom_dim(rigid.matrices, first.matrices)
    with pytest.raises(ValueError):
        wb.hom_dim(first.matrices, rigid.matrices)


def test_hom_dim_counts_intertwiners_from_second_to_first():
    """a is the non-split extension of the character (1, 3) by (2, 5), with
    (1, 3) as its invariant line; b is (1, 3) twice.  Both copies of b map
    onto that line, while a has no nonzero map to b."""
    a = [RatMatrix.from_rows([[1, 1], [0, 2]]), RatMatrix.diagonal([3, 5])]
    b = [RatMatrix.identity(2), RatMatrix.diagonal([3, 3])]
    assert wb.hom_dim(a, b) == 2
    assert wb.hom_dim(b, a) == 0


def test_zero_index_pair():
    first, second, pair = wb.build_zero_index_pair()
    assert wb.hom_dim(first.matrices, second.matrices) == 0
    assert wb.hom_dim(first.matrices, first.matrices) == tl.centralizer_dim(first) == 1
    assert tl.centralizer_dim(pair) == 2
    assert not tl.is_irreducible(pair)
    assert {tuple(e) for e in pair.eigenvalue_lists} == {
        (F(2), F(2), F(3), F(3)),
        (F(5), F(5), F(7), F(7)),
        (F(11), F(11), F(13), F(13)),
        (F(1, 97), F(1, 97), F(97, 30030), F(97, 30030)),
    }


def test_builders_are_deterministic():
    a = wb.build_rigid_quadruple()
    b = wb.build_rigid_quadruple()
    assert a == b
    p1 = fixture_file_payloads()
    p2 = fixture_file_payloads()
    assert {k: dumps(v) for k, v in p1.items()} == {k: dumps(v) for k, v in p2.items()}


def test_corpus_all_pass():
    results = wb.run_corpus()
    failures = [r for r in results if not r.passed]
    assert not failures, [
        (r.fixture, r.expectation.name, r.expectation.expected, r.actual) for r in failures
    ]
    assert len(results) >= 90
    # every expectation names an operation and a provenance tag
    for r in results:
        assert r.expectation.operation
        assert r.expectation.provenance in ("reported", "derived", "direct")


def test_every_corpus_operation_is_named_by_an_expectation():
    from deligne_simpson.workbench.runner import _OPERATIONS

    defined = {(kind, op) for kind, table in _OPERATIONS.items() for op in table}
    named = {
        (type(fixture.target(e.target)), e.operation)
        for fixture in wb.builtin_corpus()
        for e in fixture.expectations
    }
    assert defined - named == set()


def test_fixture_lookup_and_validation():
    fx = wb.fixture_by_name("example4")
    assert set(fx.matrix_tuples) == {"first_quadruple", "second_quadruple"}
    with pytest.raises(KeyError):
        wb.fixture_by_name("example9")
    for fixture in wb.builtin_corpus():
        for t in fixture.matrix_tuples.values():
            assert tl.verify_closure(t)
    fx = wb.fixture_by_name("example1")
    assert fx.target("main") is fx.jnf_tuple
    assert fx.target("aux:corresponding") is fx.aux_jnf_tuples["corresponding"]
    assert fx.target("spectrum") is fx.spectrum
    assert fx.target("spectrum:additive") is fx.aux_spectra["additive"]
    assert fx.target("tuple:rigid_quadruple") is fx.matrix_tuples["rigid_quadruple"]
    for unknown in ("", "aux:nope", "tuple:nope", "matrix:rigid_quadruple"):
        with pytest.raises(KeyError):
            fx.target(unknown)
    with pytest.raises(KeyError):
        wb.fixture_by_name("example3").target("spectrum:component")


def test_build_triple_rejects_bad_classes():
    with pytest.raises(wb.ConstructionFailedError, match="determinants do not match"):
        wb.build_triple([(F(2), F(3)), (F(5), F(7)), (F(1), F(2))])
    # the determinants match, but 2 * 5 * (1/10) = 1
    with pytest.raises(wb.ConstructionFailedError, match="not generic"):
        wb.build_triple([(F(2), F(3)), (F(5), F(7)), (F(1, 10), F(1, 21))])
