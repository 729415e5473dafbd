"""The five built-in examples as executable fixtures.

Each fixture bundles a tuple of Jordan normal forms, eigenvalue spectra
(symbolic or rational), explicit matrix tuples where the example has them,
and a list of named expectations.  Every expectation names the operation
that produces its value, so the corpus run re-derives each number from
scratch.  Provenance tags:

* ``reported`` -- the value as reported in the published discussion of the
  example;
* ``derived``  -- computed here by an independent exact route;
* ``direct``   -- an immediate consequence of the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from ..jnf import Jnf
from ..reduction import JnfTuple
from ..spectra import FormalScalar, RelationWitness, SpectrumAssignment
from ..tuple_lab import MatrixTuple
from . import builders


@dataclass(frozen=True)
class Expectation:
    name: str
    operation: str
    target: str
    expected: object
    provenance: str
    params: Mapping = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "operation": self.operation,
            "target": self.target,
            "expected": self.expected,
            "provenance": self.provenance,
        }
        if self.params:
            out["params"] = dict(self.params)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Fixture:
    name: str
    jnf_tuple: JnfTuple
    spectrum: SpectrumAssignment | None = None
    aux_jnf_tuples: Mapping[str, JnfTuple] = field(default_factory=dict)
    aux_spectra: Mapping[str, SpectrumAssignment] = field(default_factory=dict)
    matrix_tuples: Mapping[str, MatrixTuple] = field(default_factory=dict)
    expectations: tuple[Expectation, ...] = ()

    def target(self, name: str) -> JnfTuple | SpectrumAssignment | MatrixTuple:
        """The object an expectation's target names: "main" or "aux:X" (a
        JNF tuple), "spectrum" or "spectrum:X", or "tuple:X"."""
        if name == "main":
            return self.jnf_tuple
        if name == "spectrum":
            if self.spectrum is None:
                raise KeyError(f"fixture {self.name} has no primary spectrum")
            return self.spectrum
        kind, _, key = name.partition(":")
        named = {"aux": self.aux_jnf_tuples, "spectrum": self.aux_spectra, "tuple": self.matrix_tuples}
        return named[kind][key]


def make_witness(size: int, parts: Sequence[Sequence[tuple[FormalScalar, int]]]) -> RelationWitness:
    """Build a relation witness with each class in canonical scalar order."""
    return RelationWitness(
        size,
        tuple(tuple(sorted(part, key=lambda e: e[0].key())) for part in parts),
    )


def _mult(exponents=None, phase=0) -> FormalScalar:
    return FormalScalar.multiplicative(exponents, phase)


def _rigid_example() -> Fixture:
    """Example 1, a rigid quadruple of 4x4 classes.  Its semidirect stratum
    has dimension 15 = 1 (fixed diagonal blocks modulo conjugation) + 15
    (conjugation) - 1 (stabilizer), its direct-sum stratum 16 = 8 (3 + 5
    from the two block varieties) + 15 (conjugation) - 7 (block-diagonal
    subgroup), and its doubled stratum 12 = 15 - 3, a single conjugation
    orbit.  The formal tangent dimension 16 at the direct-sum point is a
    derived observation; smoothness of the variety there is not asserted."""
    diag22 = Jnf.diagonal([2, 2])
    j_star = JnfTuple([diag22, diag22, diag22, Jnf([("e1", [2, 1, 1])])])
    j_star2 = JnfTuple([diag22, diag22, diag22, Jnf.diagonal([3, 1])])

    halves = lambda sym: [(_mult({sym: 1}), 2), (_mult({sym: -1}), 2)]
    base = [
        halves("e"),
        [(_mult({"2": Fraction(1, 2)}), 2), (_mult({"2": Fraction(-1, 2)}), 2)],
        [(_mult({"3": 1}), 2), (_mult({"3": -1}), 2)],
    ]
    spectrum_minus1 = SpectrumAssignment(base + [[(_mult({}, Fraction(1, 2)), 4)]])
    spectrum_i = SpectrumAssignment(base + [[(_mult({}, Fraction(1, 4)), 4)]])
    spectrum_split = SpectrumAssignment(base + [[(_mult({"x": 1}), 3), (_mult({"x": -3}), 1)]])
    add = lambda sym, sign: FormalScalar.additive({sym: sign})
    spectrum_additive = SpectrumAssignment(
        [
            [(add("t", 1), 2), (add("t", -1), 2)],
            [(add("s", 1), 2), (add("s", -1), 2)],
            [(add("p", 1), 2), (add("p", -1), 2)],
            [(FormalScalar.additive({}, 0), 4)],
        ]
    )

    rigid = builders.build_rigid_quadruple()
    jordan = builders.build_jordan_quadruple()
    u_point = builders.block_triangular(rigid, jordan)
    w_point = builders.build_semidirect_point(rigid)
    y_point = builders.block_triangular(rigid, rigid)

    E = Expectation
    expectations = (
        E("kappa", "kappa", "main", 2, "reported"),
        E("kappa_corresponding", "kappa", "aux:corresponding", 2, "derived"),
        E("expected_dim", "expected_dim", "main", 15, "reported"),
        E("expected_dim_corresponding", "expected_dim", "aux:corresponding", 15, "reported"),
        E("alpha", "alpha", "main", True, "derived"),
        E("rigidity", "rigidity", "main", "rigid", "reported"),
        E("fourth_classes_correspond", "classes_correspond", "main",
          True, "reported", params={"index": 3, "other": "corresponding"}),
        E("solvable", "solvable", "main", True, "reported"),
        E("chain", "chain", "main", [4, 3, 1], "derived"),
        E("solvable_corresponding", "solvable", "aux:corresponding", True, "reported"),
        E("chain_corresponding", "chain", "aux:corresponding", [4, 3, 1], "derived"),
        E("kappa_invariant", "kappa_invariant_along_trace", "main", True, "reported"),
        E("choice_independent", "choice_independent_verdict", "main", True, "reported"),
        E("classify_relatively_generic", "classify", "spectrum", "relatively_generic", "reported"),
        E("basic_q", "basic_q", "spectrum", 2, "reported"),
        E("basic_m", "basic_m", "spectrum", 2, "reported"),
        E("classify_generic_fourth", "classify", "spectrum:generic_fourth", "generic", "reported"),
        E("basic_m_generic_fourth", "basic_m", "spectrum:generic_fourth", 1, "reported",
          note="the half-multiplicity product is a primitive root of unity, not a relation"),
        E("basic_root_generic_fourth", "basic_root_phase", "spectrum:generic_fourth", "1/2", "reported"),
        E("classify_split_tail", "classify", "spectrum:split_tail", "generic", "reported"),
        E("classify_additive", "classify", "spectrum:additive", "relatively_generic", "reported",
          note="all multiplicities even forces the halved-sum relation in additive mode"),
        E("rigid_closure", "closure", "tuple:rigid_quadruple", True, "derived"),
        E("rigid_irreducible", "irreducible", "tuple:rigid_quadruple", True, "derived"),
        E("rigid_tangent", "tangent_dim", "tuple:rigid_quadruple", 3, "reported"),
        E("rigid_kappa", "kappa_of_tuple", "tuple:rigid_quadruple", 2, "derived"),
        E("jordan_tangent", "tangent_dim", "tuple:jordan_quadruple", 5, "reported"),
        E("jordan_irreducible", "irreducible", "tuple:jordan_quadruple", True, "derived"),
        E("jordan_kappa", "kappa_of_tuple", "tuple:jordan_quadruple", 0, "reported"),
        E("direct_sum_centralizer", "centralizer_dim", "tuple:direct_sum_point", 2, "reported",
          note="determinant-one convention: 1"),
        E("direct_sum_tangent", "tangent_dim", "tuple:direct_sum_point", 16, "derived",
          note="formal tangent dimension at a point with non-trivial centralizer"),
        E("semidirect_centralizer", "centralizer_dim", "tuple:semidirect_point", 2, "reported",
          note="determinant-one convention: 1"),
        E("semidirect_fourth_jnf", "jnf_of_matrix", "tuple:semidirect_point",
          [{"eigenvalue": "-1", "blocks": [2, 1, 1]}], "derived", params={"index": 3}),
        E("semidirect_corner", "nilpotent_rank1_corner", "tuple:semidirect_point", True, "reported"),
        E("semidirect_reducible", "irreducible", "tuple:semidirect_point", False, "derived"),
        E("doubled_centralizer", "centralizer_dim", "tuple:doubled_point", 4, "derived",
          note="determinant-one convention: 3"),
        E("doubled_orbit", "orbit_dim", "tuple:doubled_point", 12, "reported"),
    )
    return Fixture(
        name="example1",
        jnf_tuple=j_star,
        spectrum=spectrum_minus1,
        aux_jnf_tuples={"corresponding": j_star2},
        aux_spectra={
            "generic_fourth": spectrum_i,
            "split_tail": spectrum_split,
            "additive": spectrum_additive,
        },
        matrix_tuples={
            "rigid_quadruple": rigid,
            "jordan_quadruple": jordan,
            "direct_sum_point": u_point,
            "semidirect_point": w_point,
            "doubled_point": y_point,
        },
        expectations=expectations,
    )


def _tq_example() -> Fixture:
    """Example 2, a triple of 4x4 classes with a non-generic spectrum.  The
    full triple space modulo the conjugation subspace is one-dimensional;
    any representative outside the subspace yields a trivial centralizer."""
    j = Jnf.diagonal([2, 1, 1])
    jt = JnfTuple([j, j, j])

    a = _mult({"a": 1}); b = _mult({"b": 1}); c = _mult({"c": 1})
    f = _mult({"f": 1}); g = _mult({"g": 1}); h = _mult({"h": 1})
    v = _mult({"v": 1})
    u = _mult({"a": -1, "b": -1, "f": -1, "g": -1, "v": -1})
    w = _mult({"b": 1, "c": -1, "g": 1, "h": -1, "v": 1})
    spectrum = SpectrumAssignment([
        [(a, 2), (b, 1), (c, 1)],
        [(f, 2), (g, 1), (h, 1)],
        [(u, 2), (v, 1), (w, 1)],
    ])
    target_witness = make_witness(2, [[(a, 1), (b, 1)], [(f, 1), (g, 1)], [(u, 1), (v, 1)]])

    first = builders.build_first_block_triple()
    second = builders.build_second_block_triple()
    triangular = builders.build_triangular_triple(first, second)
    block_diag = builders.block_triangular(first, second)
    rational_spec = builders.spectrum_of_rationals(block_diag.eigenvalue_lists)

    E = Expectation
    expectations = (
        E("kappa", "kappa", "main", 2, "reported"),
        E("expected_dim", "expected_dim", "main", 15, "derived"),
        E("classify", "classify", "spectrum", "non_generic", "reported"),
        E("target_witness", "contains_witness", "spectrum", True, "reported",
          params={"witness": target_witness.to_json()}),
        E("classify_rational", "classify", "spectrum:rational", "non_generic", "derived"),
        E("basic_q", "basic_q", "spectrum", 1, "derived",
          note="per-class multiplicity gcd is 1, so there is no basic relation"),
        E("dim_full_space", "triangular_space_dim", "main", 5, "reported",
          params={"first": "first_block_triple", "second": "second_block_triple", "which": "full"}),
        E("dim_conjugation_space", "triangular_space_dim", "main", 4, "reported",
          params={"first": "first_block_triple", "second": "second_block_triple", "which": "conjugation"}),
        E("first_block_irreducible", "irreducible", "tuple:first_block_triple", True, "derived"),
        E("second_block_irreducible", "irreducible", "tuple:second_block_triple", True, "derived"),
        E("first_block_tangent", "tangent_dim", "tuple:first_block_triple", 3, "derived"),
        E("blocks_non_equivalent", "hom_dim", "tuple:first_block_triple", 0, "derived",
          params={"other": "second_block_triple"}),
        E("triangular_closure", "closure", "tuple:triangular_triple", True, "derived"),
        E("triangular_centralizer", "centralizer_dim", "tuple:triangular_triple", 1, "reported"),
        E("triangular_reducible", "irreducible", "tuple:triangular_triple", False, "reported"),
        E("block_diagonal_centralizer", "centralizer_dim", "tuple:block_diagonal_triple", 2, "derived"),
        E("solvable", "solvable", "main", True, "derived"),
        E("chain", "chain", "main", [4, 2, 1], "derived"),
    )
    return Fixture(
        name="example2",
        jnf_tuple=jt,
        spectrum=spectrum,
        aux_spectra={"rational": rational_spec},
        matrix_tuples={
            "first_block_triple": first,
            "second_block_triple": second,
            "triangular_triple": triangular,
            "block_diagonal_triple": block_diag,
        },
        expectations=expectations,
    )


def _double_block_example() -> Fixture:
    """Example 3, a triple of 4x4 classes with a relatively generic spectrum.
    The variety has the expected dimension 15 although no tuple in it has a
    trivial centralizer."""
    jt = JnfTuple([
        Jnf([("a", [2]), ("b", [2])]),
        Jnf([("f", [2]), ("g", [1, 1])]),
        Jnf([("u", [1, 1]), ("v", [1, 1])]),
    ])
    a = _mult({"a": 1}); b = _mult({"b": 1})
    f = _mult({"f": 1}); g = _mult({"g": 1})
    u = _mult({"u": 1})
    v = _mult({"a": -1, "b": -1, "f": -1, "g": -1, "u": -1})
    spectrum = SpectrumAssignment([
        [(a, 2), (b, 2)],
        [(f, 2), (g, 2)],
        [(u, 2), (v, 2)],
    ])
    E = Expectation
    expectations = (
        E("kappa", "kappa", "main", 2, "reported"),
        E("expected_dim", "expected_dim", "main", 15, "reported"),
        E("classify", "classify", "spectrum", "relatively_generic", "reported"),
        E("basic_q", "basic_q", "spectrum", 2, "derived"),
        E("basic_m", "basic_m", "spectrum", 2, "derived"),
        E("solvable", "solvable", "main", True, "derived"),
        E("chain", "chain", "main", [4, 3, 2, 1], "derived"),
        E("kappa_invariant", "kappa_invariant_along_trace", "main", True, "derived"),
    )
    return Fixture(
        name="example3",
        jnf_tuple=jt,
        spectrum=spectrum,
        expectations=expectations,
    )


def _split_sum_example() -> Fixture:
    """Example 4, a quadruple of 3x3 classes with a non-generic spectrum.  The
    split-sum stratum has dimension 9 = 5 (block pairs) + 8 (conjugation) -
    4 (block stabilizer); tuples with trivial centralizer form an
    8-dimensional stratum below it."""
    jt = JnfTuple([Jnf.diagonal([2, 1])] * 4)
    a = _mult({"a": 1}); b = _mult({"b": 1}); c = _mult({"c": 1})
    d = _mult({"a": -1, "b": -1, "c": -1})
    one = FormalScalar.identity("multiplicative")
    spectrum = SpectrumAssignment([
        [(a, 1), (one, 2)],
        [(b, 1), (one, 2)],
        [(c, 1), (one, 2)],
        [(d, 1), (one, 2)],
    ])
    m1_witness = make_witness(1, [[(a, 1)], [(b, 1)], [(c, 1)], [(d, 1)]])
    first = builders.build_trivial_centralizer_quadruple()
    second = builders.build_split_sum_quadruple()
    values = (builders.EX4_A, builders.EX4_B, builders.EX4_C, builders.EX4_D)
    declared_jnfs = [
        [{"eigenvalue": str(val), "blocks": [1]}, {"eigenvalue": "1", "blocks": [1, 1]}]
        for val in values
    ]

    E = Expectation
    expectations = (
        E("kappa", "kappa", "main", 2, "derived",
          note="the published discussion calls the index 0; the defining formula"
               " 2n^2 - sum(d_j) gives 2 and is what kappa returns"),
        E("expected_dim", "expected_dim", "main", 8, "reported"),
        E("classify", "classify", "spectrum", "non_generic", "reported"),
        E("m1_witness", "contains_witness", "spectrum", True, "reported",
          params={"witness": m1_witness.to_json()}),
        E("solvable", "solvable", "main", True, "derived"),
        E("chain", "chain", "main", [3, 1], "derived"),
        E("first_closure", "closure", "tuple:first_quadruple", True, "derived"),
        E("first_centralizer", "centralizer_dim", "tuple:first_quadruple", 1, "reported"),
        E("first_surjective", "commut_surjective", "tuple:first_quadruple", True, "derived"),
        E("first_reducible", "irreducible", "tuple:first_quadruple", False, "reported"),
        E("first_tangent", "tangent_dim", "tuple:first_quadruple", 8, "reported"),
        E("first_orbit", "orbit_dim", "tuple:first_quadruple", 8, "derived"),
        E("first_in_classes", "in_declared_classes", "tuple:first_quadruple", True, "direct",
          params={"jnfs": declared_jnfs}),
        E("first_jnf_second_matrix", "jnf_of_matrix", "tuple:first_quadruple",
          [{"eigenvalue": "1", "blocks": [1, 1]}, {"eigenvalue": "3", "blocks": [1]}],
          "derived", params={"index": 1}),
        E("second_closure", "closure", "tuple:second_quadruple", True, "derived"),
        E("second_centralizer", "centralizer_dim", "tuple:second_quadruple", 2, "derived"),
        E("second_reducible", "irreducible", "tuple:second_quadruple", False, "derived"),
        E("second_in_classes", "in_declared_classes", "tuple:second_quadruple", True, "direct",
          params={"jnfs": declared_jnfs}),
    )
    return Fixture(
        name="example4",
        jnf_tuple=jt,
        spectrum=spectrum,
        matrix_tuples={"first_quadruple": first, "second_quadruple": second},
        expectations=expectations,
    )


def _zero_index_example() -> Fixture:
    """Example 5, a quadruple of 4x4 classes of index 0.  The direct-sum
    family has dimension 18 = 10 (two 5-dimensional component varieties) +
    15 (conjugation) - 7 (block-diagonal subgroup), above the expected
    dimension 17."""
    jt = JnfTuple([Jnf.diagonal([2, 2])] * 4)
    jt_component = JnfTuple([Jnf.diagonal([1, 1])] * 4)
    first, second, pair = builders.build_zero_index_pair()
    spectrum = builders.spectrum_of_rationals(pair.eigenvalue_lists)
    spectrum_component = builders.spectrum_of_rationals(first.eigenvalue_lists)

    E = Expectation
    expectations = (
        E("kappa", "kappa", "main", 0, "reported"),
        E("kappa_component", "kappa", "aux:component", 0, "reported"),
        E("expected_dim", "expected_dim", "main", 17, "reported"),
        E("expected_dim_component", "expected_dim", "aux:component", 5, "reported"),
        E("omega_component", "omega", "aux:component", True, "derived"),
        E("solvable_component", "solvable", "aux:component", True, "reported"),
        E("chain_component", "chain", "aux:component", [2], "derived"),
        E("solvable", "solvable", "main", True, "derived"),
        E("classify", "classify", "spectrum", "relatively_generic", "derived"),
        E("classify_component", "classify", "spectrum:component", "generic", "reported"),
        E("first_irreducible", "irreducible", "tuple:component_a", True, "derived"),
        E("second_irreducible", "irreducible", "tuple:component_b", True, "derived"),
        E("components_non_equivalent", "hom_dim", "tuple:component_a", 0, "derived",
          params={"other": "component_b"}),
        E("pair_closure", "closure", "tuple:direct_sum_pair", True, "derived"),
        E("pair_centralizer", "centralizer_dim", "tuple:direct_sum_pair", 2, "derived"),
        E("pair_reducible", "irreducible", "tuple:direct_sum_pair", False, "derived"),
        E("pair_not_surjective", "commut_surjective", "tuple:direct_sum_pair", False, "derived"),
    )
    return Fixture(
        name="example5",
        jnf_tuple=jt,
        spectrum=spectrum,
        aux_jnf_tuples={"component": jt_component},
        aux_spectra={"component": spectrum_component},
        matrix_tuples={
            "component_a": first,
            "component_b": second,
            "direct_sum_pair": pair,
        },
        expectations=expectations,
    )


@lru_cache(maxsize=1)
def builtin_corpus() -> tuple[Fixture, ...]:
    """The five built-in example fixtures, fully constructed and validated."""
    return (
        _rigid_example(),
        _tq_example(),
        _double_block_example(),
        _split_sum_example(),
        _zero_index_example(),
    )


def fixture_by_name(name: str) -> Fixture:
    for f in builtin_corpus():
        if f.name == name:
            return f
    raise KeyError(name)
