"""Self-tests of the benchmark: generators, checker, span arithmetic and
function wrapping.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import check
import gen
import run
from tracing import LAYERS, Spans, Tracer, _count_vectors, aggregate


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


def _call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _small_ops(tmp_path) -> list[dict]:
    """The n = 4 verify requests and the cheaper analyze requests of one pass."""
    ops = [op for op in gen.workload_ops("verify-tuples", 3, 1) if op["shape"]["n"] == 4]
    ops += [op for op in gen.workload_ops("analyze-spectra", 3, 1)
            if op["shape"]["n"] == 4 or (op["shape"]["count"] == 3 and op["shape"]["mode"])]
    run.write_inputs(ops, tmp_path)
    return ops


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = gen.workload_ops(workload, 5, 1)
    second = gen.workload_ops(workload, 5, 1)
    run.write_inputs(first, tmp_path / "a")
    run.write_inputs(second, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert [op["shape"] for op in first] == [op["shape"] for op in second]
    if workload != "corpus-cli":
        other = gen.workload_ops(workload, 6, 1)
        assert [op["text"] for op in other] != [op["text"] for op in first]
        # the seed draws entries, never the mix of shapes
        assert [op["shape"] for op in other] == [op["shape"] for op in first]


# -- checker -------------------------------------------------------------------


def _answer(cli, op) -> dict:
    code, text = _call(cli, op["argv"])
    assert code == 0
    assert check.check_output(op, code, text, check.digest(text)) == []
    return json.loads(text)


def _flagged(op, answer: dict) -> bool:
    text = json.dumps(answer)
    return bool(check.check_output(op, 0, text, None))


def test_checker_flags_tampered_verify_answers(cli, tmp_path):
    ops = _small_ops(tmp_path)
    reducible = next(op for op in ops if op["shape"]["structure"] == "triangular")
    answer = _answer(cli, reducible)
    assert not _flagged(reducible, answer)

    flipped = copy.deepcopy(answer)
    flipped["irreducible"] = not answer["irreducible"]
    assert _flagged(reducible, flipped)

    for structure in gen.STRUCTURES:
        op = next(op for op in ops if op["shape"]["structure"] == structure)
        changed = _answer(cli, op)
        changed["centralizer_dim"] += 1
        assert _flagged(op, changed), structure

    wrong_jnf = copy.deepcopy(answer)
    wrong_jnf["jnfs"][0] = [{"eigenvalue": "7", "blocks": [4]}]
    assert _flagged(reducible, wrong_jnf)


def test_checker_flags_wrong_genericity_verdicts(cli, tmp_path):
    ops = [op for op in _small_ops(tmp_path) if op["shape"]["structure"] in gen.GENERICITY_KINDS]
    for op in ops:
        answer = _answer(cli, op)
        for verdict in gen.GENERICITY_KINDS:
            if verdict != op["shape"]["structure"]:
                wrong = copy.deepcopy(answer)
                wrong["genericity"]["verdict"] = verdict
                assert _flagged(op, wrong), (op["shape"], verdict)


def test_checker_flags_a_changed_digest_and_exit_code(cli, tmp_path):
    op = _small_ops(tmp_path)[0]
    code, text = _call(cli, op["argv"])
    assert check.check_output(op, code, text, check.digest(text + " ")) == ["output differs from the recorded answer"]
    assert check.check_output(op, 3, text, None) == ["exit code 3"]


def test_checker_flags_a_failing_corpus(cli):
    code, text = _call(cli, ["corpus", "--json"])
    op = gen.workload_ops("corpus-cli", 1, 1)[0]
    assert check.check_output(op, code, text, None) == []
    answer = json.loads(text)
    answer["expectations"][0]["pass"] = False
    assert _flagged(op, answer)
    answer["expectations"].pop()
    assert _flagged(op, answer)


# -- spans ---------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    s = Spans()
    root = s.add("bench.op", 0, 100, -1, 0)
    a = s.add("a", 10, 40, root, 0)
    b = s.add("b", 50, 90, root, 0)
    s.add("c", 60, 70, b, 0)
    s.add("d", 15, 25, a, 0)
    assert s.self_times() == [30, 20, 30, 10, 10]
    assert s.op_sum_mismatches() == []

    # overlapping children cover their union once; the op sum then exceeds
    # the wall time, which the check reports
    overlap = Spans()
    top = overlap.add("bench.op", 0, 100, -1, 2)
    overlap.add("x", 10, 40, top, 2)
    overlap.add("y", 30, 60, top, 2)
    assert overlap.self_times() == [50, 30, 30]
    assert overlap.op_sum_mismatches() == [2]

    clipped = Spans()
    top = clipped.add("bench.op", 0, 100, -1, 1)
    clipped.add("late", 90, 120, top, 1)
    assert clipped.self_times() == [90, 30]
    assert clipped.op_sum_mismatches() == [1]


def test_aggregate_counts_products_and_totals():
    s = Spans()
    op = s.add("bench.op", 0, 100)
    irr = s.add("tuple_lab.is_irreducible", 0, 50, op)
    s.counts[irr] = {"n2": 16, "irreducible": 1}
    for t in range(4):
        m = s.add("exact_linalg.matmul", 10 * t, 10 * t + 5, irr)
        s.counts[m] = {"mults": 8}
    agg = aggregate(s)
    assert agg["tuple_lab.is_irreducible.products"] == 4
    assert agg["tuple_lab.is_irreducible.useful_ratio"] == 4.0
    assert agg["exact_linalg.matmul.mults"] == 32
    assert agg["tuple_lab.is_irreducible.self_s"] == 30e-9
    assert agg["bench.op.self_s"] == 50e-9


def test_combination_count_matches_enumeration(cli):
    from deligne_simpson import spectra

    for mults in ([2, 2, 2], [4, 1, 1], [1, 1, 1, 1, 1], [3, 3]):
        for size in range(sum(mults) + 1):
            assert _count_vectors(mults, size) == len(list(spectra._count_vectors(mults, size)))


def test_tail_percentile():
    xs = list(range(1, 101))
    assert run.tail_percentile(xs) == (90, 90)
    pct, value = run.tail_percentile(list(range(1, 45)))
    assert pct == 77 and sum(x > value for x in range(1, 45)) >= 10
    assert run.tail_percentile([3, 1, 2]) == (100, 3)


# -- wrapping ------------------------------------------------------------------


def test_wrapping_leaves_every_output_byte_identical(cli, tmp_path):
    ops = _small_ops(tmp_path)
    argvs = [op["argv"] for op in ops] + [["corpus", "--json"], ["dual", "4,3,3", "--json"]]
    plain = [_call(cli, argv) for argv in argvs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_call(cli, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = {name.split(".")[0] for name in tracer.spans.names}
    assert layers >= set(LAYERS)
    assert _call(cli, argvs[0]) == plain[0]
    # uninstall restored every original function
    count = len(tracer.spans)
    _call(cli, argvs[0])
    assert len(tracer.spans) == count


def test_tracer_wraps_names_imported_elsewhere(cli):
    from deligne_simpson import exact_linalg, tuple_lab
    from deligne_simpson.workbench import runner

    tracer = Tracer()
    tracer.install()
    try:
        assert runner.rank is exact_linalg.rank
        assert getattr(runner.rank, "__wrapped__", None) is not None
        assert cli.run_corpus is runner.run_corpus
        assert tuple_lab.expected_dim.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(runner.rank, "__wrapped__")


# -- registration --------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    path = Path(run.ROOT) / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(path.read_text(encoding="utf-8"))
    # every registered workload runs; analyze-spectra runs but is not registered
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
