"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or without ``-s`` to rely on pytest's own pass/fail report.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

from deligne_simpson import exact_linalg as xl
from deligne_simpson import reduction as rd
from deligne_simpson import spectra as sp
from deligne_simpson import tuple_lab as tl
from deligne_simpson import workbench as wb
from deligne_simpson.cli import main as cli_main
from deligne_simpson.jnf import (
    Jnf,
    Partition,
    centralizer_dim_of_jnf,
    class_dim,
    corresponding_diagonal,
    corresponding_single_eigenvalue,
    corresponds,
    min_rank,
)
from deligne_simpson.workbench.export import dumps

from conftest import random_additive_tuple, random_invertible, random_jnf
from oracles import commutation_system

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def done(k: int, label: str) -> None:
    print(f"[acceptance] criterion {k}: PASS - {label}")


def test_criterion_1_partition_duality():
    assert Partition([4, 3, 3]).dual() == Partition([3, 3, 3, 1])
    assert Partition([3, 2]).dual() == Partition([2, 2, 1])
    j = Jnf([("a", [4, 3, 3]), ("b", [3, 2])])
    assert corresponding_diagonal(j).multiplicities() == (3, 3, 3, 2, 2, 1, 1)
    single = corresponding_single_eigenvalue(j)
    assert single.blocks_by_eigenvalue[0][1] == Partition([7, 5, 3])
    done(1, "partition duality and correspondence")


def test_criterion_2_invariant_suite():
    rng = random.Random(20260811)
    for _ in range(10_000):
        j = random_jnf(rng, rng.randint(1, 12))
        for _, part in j.blocks_by_eigenvalue:
            assert part.dual().dual() == part
        diag = corresponding_diagonal(j)
        assert min_rank(j) == min_rank(diag)
        assert class_dim(j) == class_dim(diag)
        assert class_dim(j) % 2 == 0
    done(2, "dual involution, r/d correspondence invariance, d even (10^4 JNFs)")


def test_criterion_3_kappa_values():
    for name, expected in (("example1", 2), ("example2", 2), ("example3", 2), ("example5", 0)):
        assert rd.kappa(wb.fixture_by_name(name).jnf_tuple) == expected, name
    # the discrepancy for the abcd=1 example is recorded, not asserted:
    fx4 = wb.fixture_by_name("example4")
    assert rd.kappa(fx4.jnf_tuple) == 2
    kappa_exp = next(e for e in fx4.expectations if e.name == "kappa")
    assert kappa_exp.expected == 2 and "0" in kappa_exp.note
    done(3, "kappa = 2, 2, 2, 0 with the recorded discrepancy note")


def test_criterion_4_reduction():
    fx = wb.fixture_by_name("example1")
    for tup in (fx.jnf_tuple, fx.aux_jnf_tuples["corresponding"]):
        trace = rd.solvable_generic(tup)
        assert trace.verdict.solvable and trace.sizes() == (4, 3, 1)
        traces = rd.explore_all_traces(tup)
        assert traces and len({t.verdict.solvable for t in traces}) == 1
        for t in traces:
            assert {rd.kappa(step.tuple) for step in t.steps} == {2}
    done(4, "chains 4->3->1, kappa invariant, choice-independent verdict")


def test_criterion_5_expected_dimensions():
    values = {"example1": 15, "example3": 15, "example4": 8, "example5": 17}
    for name, expected in values.items():
        assert rd.expected_dim(wb.fixture_by_name(name).jnf_tuple) == expected, name
    done(5, "expected dimensions 15, 15, 8, 17")


def test_criterion_6_genericity():
    fx1 = wb.fixture_by_name("example1")
    assert sp.classify(fx1.aux_spectra["generic_fourth"]).verdict == "generic"
    rep = sp.classify(fx1.spectrum)
    assert rep.verdict == "relatively_generic"
    assert rep.basic.q == 2 and rep.basic.relation is not None

    fx2 = wb.fixture_by_name("example2")
    rep2 = sp.classify(fx2.spectrum)
    assert rep2.verdict == "non_generic"
    target = next(e for e in fx2.expectations if e.name == "target_witness")
    assert target.params["witness"] in [w.to_json() for w in rep2.witnesses]

    fx4 = wb.fixture_by_name("example4")
    rep4 = sp.classify(fx4.spectrum)
    assert rep4.verdict == "non_generic"
    assert any(w.size == 1 for w in rep4.witnesses)
    done(6, "generic / relatively generic / non-generic verdicts with witnesses")


def test_criterion_7_explicit_quadruples():
    fx = wb.fixture_by_name("example4")
    first = fx.matrix_tuples["first_quadruple"]
    second = fx.matrix_tuples["second_quadruple"]
    assert xl.product(list(first.matrices)).is_identity()
    assert xl.product(list(second.matrices)).is_identity()
    assert tl.centralizer_dim(first) == 1
    assert tl.centralizer_dim(second) == 2
    assert not tl.is_irreducible(first)
    assert not tl.is_irreducible(second)
    assert tl.tangent_dim(first) == 8
    done(7, "explicit quadruples: closure, centralizers 1 and 2, reducible, tangent 8")


def test_criterion_8_fixture_families():
    fx = wb.fixture_by_name("example1")
    assert tl.tangent_dim(fx.matrix_tuples["rigid_quadruple"]) == 3
    assert tl.tangent_dim(fx.matrix_tuples["jordan_quadruple"]) == 5
    fx2 = wb.fixture_by_name("example2")
    spaces = wb.triangular_spaces(
        fx2.matrix_tuples["first_block_triple"], fx2.matrix_tuples["second_block_triple"]
    )
    assert spaces["dim_full"] == 5 and spaces["dim_conjugation"] == 4
    assert tl.orbit_dim(fx.matrix_tuples["doubled_point"]) == 12
    assert tl.centralizer_dim(fx.matrix_tuples["direct_sum_point"]) == 2
    assert tl.centralizer_dim(fx.matrix_tuples["semidirect_point"]) == 2
    w4 = fx.matrix_tuples["semidirect_point"].matrices[3]
    corner = xl.RatMatrix.from_rows([[w4[i, j] for j in (2, 3)] for i in (0, 1)])
    assert corner.trace() == 0 and xl.rank(corner) == 1 and (corner @ corner).is_zero()
    done(8, "tangent 3/5, dim T=5, dim Q=4, orbit 12, centralizers 2/2, nilpotent corner")


def test_criterion_9_equivalence_oracles():
    rng = random.Random(424242)
    for _ in range(1000):
        n = rng.choice([2, 2, 3, 3, 4])
        count = rng.randint(2, 4)
        t = random_additive_tuple(rng, n, count)
        side_by_side = xl.hstack([xl.RatMatrix.from_rows(commutation_system(m.row_lists())) for m in t.matrices])
        assert tl.commut_surjective(t) == (xl.rank(side_by_side) == n * n - 1)

    values_pool = sorted({F(k, d) for k in range(-9, 10) for d in (1, 2, 3)})
    for _ in range(1000):
        j = random_jnf(rng, rng.randint(1, 4))
        pool = list(values_pool)
        rng.shuffle(pool)
        values = {label: pool.pop() for label, _ in j.blocks_by_eigenvalue}
        m = tl.jordan_realization(j, values)
        assert centralizer_dim_of_jnf(j) == tl.centralizer_dim_of([m])

    quad = wb.fixture_by_name("example4").matrix_tuples["first_quadruple"]
    base = (
        tl.centralizer_dim(quad),
        tl.is_irreducible(quad),
        tl.tangent_dim(quad),
        tl.orbit_dim(quad),
    )
    for _ in range(5):
        g = random_invertible(rng, quad.n)
        c = tl.conjugate(quad, g)
        assert (
            tl.centralizer_dim(c),
            tl.is_irreducible(c),
            tl.tangent_dim(c),
            tl.orbit_dim(c),
        ) == base
    done(9, "surjectivity<->trivial centralizer, centralizer formula, conjugation invariance")


def test_criterion_10_cli(capsys):
    assert cli_main(["corpus"]) == 0
    capsys.readouterr()
    files = sorted(FIXTURES.glob("*.json"))
    assert len(files) == 19
    for path in files:
        raw = path.read_text(encoding="utf-8")
        data = json.loads(raw)
        if path.name.endswith(".analyze.json"):
            out = {"jnfs": rd.JnfTuple.from_json(data["jnfs"]).to_json()}
            if "spectrum" in data:
                out["spectrum"] = sp.SpectrumAssignment.from_json(data["spectrum"]).to_json()
            assert cli_main(["analyze", "-i", str(path)]) == 0
        else:
            out = tl.MatrixTuple.from_json(data).to_json()
            assert cli_main(["verify", "-i", str(path)]) == 0
        capsys.readouterr()
        assert dumps(out) == raw, f"round-trip mismatch for {path.name}"
    done(10, "corpus exits 0; analyze/verify round-trip shipped files bit-exactly")
