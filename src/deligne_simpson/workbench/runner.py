"""Evaluate fixture expectations and run the whole corpus.

Every operation name used by an expectation dispatches to the library
function of the same meaning; the runner never stores precomputed results,
so a corpus run is a genuine re-derivation of every expected value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import reduction as rd
from .. import spectra as sp
from .. import tuple_lab as tl
from ..exact_linalg import RatMatrix, rank
from ..jnf import Jnf, corresponds
from . import builders
from .fixtures import Expectation, Fixture, builtin_corpus


def _basic(s, read, absent=None):
    basic = sp.basic_relation(s)
    return absent if basic is None else read(basic)


def _nilpotent_rank1_corner(t) -> bool:
    m = t.matrices[-1]
    half = t.n // 2
    corner = RatMatrix.from_rows([[m[i, j] for j in range(half, t.n)] for i in range(half)])
    return corner.trace() == 0 and rank(corner) == 1 and (corner @ corner).is_zero()


# Per type of target object, for each operation a callable of (fixture,
# expectation, target object).  Entries reach library functions through
# their modules (tl.tangent_dim, not a stored function object), so a wrapper
# installed on a module attribute sees every call.
_OPERATIONS = {
    rd.JnfTuple: {
        "kappa": lambda f, e, t: rd.kappa(t),
        "expected_dim": lambda f, e, t: rd.expected_dim(t),
        "alpha": lambda f, e, t: rd.check_alpha(t),
        "omega": lambda f, e, t: rd.check_omega(t),
        "rigidity": lambda f, e, t: rd.classify_rigidity(t),
        "solvable": lambda f, e, t: rd.solvable_generic(t).verdict.solvable,
        "chain": lambda f, e, t: list(rd.solvable_generic(t).sizes()),
        "kappa_invariant_along_trace":
            lambda f, e, t: len({rd.kappa(step.tuple) for step in rd.solvable_generic(t).steps}) == 1,
        "choice_independent_verdict":
            lambda f, e, t: len({trc.verdict.solvable for trc in rd.explore_all_traces(t)}) == 1,
        "classes_correspond": lambda f, e, t: corresponds(
            t.jnfs[e.params["index"]], f.aux_jnf_tuples[e.params["other"]].jnfs[e.params["index"]]
        ),
        "triangular_space_dim": lambda f, e, t: builders.triangular_spaces(
            f.matrix_tuples[e.params["first"]], f.matrix_tuples[e.params["second"]]
        )["dim_full" if e.params["which"] == "full" else "dim_conjugation"],
    },
    sp.SpectrumAssignment: {
        "classify": lambda f, e, s: sp.classify(s).verdict,
        "basic_q": lambda f, e, s: _basic(s, lambda b: b.q, 1),
        "basic_m": lambda f, e, s: _basic(s, lambda b: b.m),
        "basic_root_phase":
            lambda f, e, s: _basic(s, lambda b: None if b.root_phase is None else str(b.root_phase)),
        "contains_witness":
            lambda f, e, s: e.params["witness"] in [w.to_json() for w in sp.all_relations(s)],
    },
    tl.MatrixTuple: {
        "closure": lambda f, e, t: t.closed,
        "centralizer_dim": lambda f, e, t: tl.centralizer_dim(t),
        "commut_surjective": lambda f, e, t: tl.commut_surjective(t),
        "irreducible": lambda f, e, t: tl.is_irreducible(t),
        "tangent_dim": lambda f, e, t: tl.tangent_dim(t),
        "orbit_dim": lambda f, e, t: tl.orbit_dim(t),
        "kappa_of_tuple": lambda f, e, t: rd.kappa(tl.jnf_tuple_of(t)),
        "jnf_of_matrix": lambda f, e, t: tl.jnf_of(
            t.matrices[e.params["index"]], t.eigenvalue_lists[e.params["index"]]
        ).to_json(),
        "in_declared_classes": lambda f, e, t: all(
            tl.class_membership(m, Jnf.from_json(j)) for m, j in zip(t.matrices, e.params["jnfs"])
        ),
        "hom_dim": lambda f, e, t: builders.hom_dim(t.matrices, f.matrix_tuples[e.params["other"]].matrices),
        "nilpotent_rank1_corner": lambda f, e, t: _nilpotent_rank1_corner(t),
    },
}


def evaluate_expectation(fixture: Fixture, exp: Expectation):
    """Recompute the value an expectation constrains; returns a JSON-able."""
    target = fixture.target(exp.target)
    return _OPERATIONS[type(target)][exp.operation](fixture, exp, target)


@dataclass(frozen=True)
class ExpectationResult:
    fixture: str
    expectation: Expectation
    actual: object
    passed: bool

    def to_json(self) -> dict:
        out = self.expectation.to_json()
        out["fixture"] = self.fixture
        out["actual"] = self.actual
        out["pass"] = self.passed
        return out


def run_fixture(fixture: Fixture) -> list[ExpectationResult]:
    results = []
    for exp in fixture.expectations:
        actual = evaluate_expectation(fixture, exp)
        results.append(ExpectationResult(fixture.name, exp, actual, actual == exp.expected))
    return results


def run_corpus(names: list[str] | None = None) -> list[ExpectationResult]:
    results = []
    for fixture in builtin_corpus():
        if names and fixture.name not in names:
            continue
        results.extend(run_fixture(fixture))
    return results
