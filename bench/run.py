"""Seeded end-to-end benchmark of the deligne-simpson CLI.

    python3 bench/run.py --workload verify-tuples --seed 1 --seconds 55 --trace 0

One client, closed loop, single process: each request is sent when the
previous one has returned.  The seed generates the input files (``gen``);
the program receives only those files.  Every answer is checked
(``check``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures whole passes of the workload's grid until at least
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` runs one pass, each op untraced and then with every layer
wrapped (``tracing``), and reports the per-layer metrics and the tracing
overhead.  Spans and per-op records (input shape, latency, pass/fail) are
written under ``.bench_work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import gen
from tracing import Spans, Tracer, aggregate

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "deligne_simpson"

WORKLOADS = ("verify-tuples", "analyze-spectra", "corpus-cli")
# Ops per pass: each workload's grid, or four corpus processes.  Runs stop
# only between passes, and the traced run covers exactly one.
PASS_LEN = {"verify-tuples": len(gen.VERIFY_CELLS), "analyze-spectra": len(gen.ANALYZE_CELLS), "corpus-cli": 4}
# Passes generated per run; a longer run wraps around and repeats them.
# The corpus takes no input.
PASSES = {"verify-tuples": 4, "analyze-spectra": 8, "corpus-cli": 1}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _stats(layer, fns, stats):
    return [(f"{layer}.{fn}.{stat}", "count" if stat == "calls" else "s", "lower")
            for fn in fns for stat in stats]


# name, unit, better.  Which end-to-end metric each should move, and on
# which workload, is in README.md.
PER_LAYER = [
    ("exact_linalg.rank.calls", "count", "lower"),
    ("exact_linalg.rank.self_s", "s", "lower"),
    ("exact_linalg.rank.cells", "count", "lower"),
    ("exact_linalg.rank.max_entry_bits", "bits", "lower"),
    ("exact_linalg.matmul.calls", "count", "lower"),
    ("exact_linalg.matmul.self_s", "s", "lower"),
    ("exact_linalg.matmul.mults", "count", "lower"),
    ("exact_linalg.left_mul_matrix.cells", "count", "lower"),
    ("exact_linalg.right_mul_matrix.cells", "count", "lower"),
    *_stats("tuple_lab", ["report", "verify_closure", "jnf_of", "centralizer_dim", "commut_surjective",
                          "is_irreducible", "tangent_dim"], ["calls", "total_s", "self_s"]),
    ("tuple_lab.is_irreducible.products", "count", "lower"),
    ("tuple_lab.is_irreducible.useful_ratio", "1", "higher"),
    ("tuple_lab.tangent_dim.build_share", "1", "lower"),
    *_stats("spectra", ["classify", "all_relations", "enumerate_relations", "basic_relation"],
            ["total_s", "self_s"]),
    ("spectra.enumerate_relations.combos", "count", "lower"),
    ("spectra.enumerate_relations.hit_ratio", "1", "higher"),
    ("reduction.solvable_generic.total_s", "s", "lower"),
    ("reduction.explore_all_traces.total_s", "s", "lower"),
    ("reduction.explore_all_traces.paths", "count", "lower"),
    ("reduction.reduce_step.calls", "count", "lower"),
    *_stats("jnf", ["min_rank", "class_dim", "dual"], ["calls", "total_s"]),
    ("workbench.builtin_corpus.total_s", "s", "lower"),
    ("workbench.run_corpus.self_s", "s", "lower"),
    ("workbench.triangular_spaces.total_s", "s", "lower"),
    ("workbench.hom_dim.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("bench.import.total_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
]


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


# -- running one op ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Sends one op to the program and returns (exit code, stdout, seconds)."""

    def __init__(self, cli, tracer: Tracer | None = None, spans_dir: Path | None = None):
        self.cli = cli
        self.tracer = tracer
        self.spans_dir = spans_dir

    def run(self, op: dict, op_id: int) -> tuple[int, str, float]:
        tracer = self.tracer
        root = None
        if tracer is not None:
            tracer.op_id = op_id
            root = tracer.begin("bench.op")
        try:
            if op["command"] == "corpus":
                code, text, seconds, child_spans = self._run_process(op, op_id)
            else:
                code, text, seconds = self._run_inprocess(op)
                child_spans = None
        finally:
            if tracer is not None:
                tracer.end(root)
        if child_spans is not None:
            tracer.spans.merge(child_spans, root)
        return code, text, seconds

    def _run_inprocess(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.main(op["argv"])
            seconds = time.perf_counter() - t0
        return code, out.getvalue(), seconds

    def _run_process(self, op, op_id):
        if self.tracer is None:
            cmd = [sys.executable, "-m", PACKAGE, *op["argv"]]
            spans_file = None
        else:
            spans_file = self.spans_dir / f"child-{op_id}.jsonl"
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans_file), str(op_id), *op["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        child_spans = Spans.load(spans_file) if spans_file is not None and spans_file.exists() else None
        return proc.returncode, proc.stdout, seconds, child_spans


# -- set-up ------------------------------------------------------------------


def import_package():
    """A fresh import of the package from this checkout's ``src/``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def write_inputs(ops: list[dict], directory: Path) -> None:
    """Write each request to its own file and set the op's CLI arguments."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        if op["text"] is None:
            op["argv"] = [op["command"], "--json"]
            continue
        path = directory / f"{i:04d}.json"
        path.write_text(op["text"], encoding="utf-8")
        op["argv"] = [op["command"], "-i", str(path), *op["extra_args"], "--json"]


def setup(workload: str, seed: int, inputs: Path):
    """Import, generate the inputs, write them and warm up with the op of
    the smallest input."""
    cli = import_package()
    ops = gen.workload_ops(workload, seed, PASSES[workload])
    write_inputs(ops, inputs)
    Runner(cli).run(min(ops, key=lambda op: len(op["text"] or "")), -1)
    return cli, ops


# -- metrics -----------------------------------------------------------------


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    pct = 100 * (n - 10) // n
    return pct, xs[math.ceil(pct * n / 100) - 1]


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process doing the work (kB on Linux)."""
    who = resource.RUSAGE_CHILDREN if workload == "corpus-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def load_digests(workload: str, seed: int) -> list[str | None]:
    """Recorded output digests for this workload; corpus output does not
    depend on the seed, the others only on the default seed."""
    path = BENCH / "digests.json"
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    if workload == "corpus-cli" or seed == data["seed"]:
        return data["workloads"].get(workload, [])
    return []


def check_results(ops, results, digests) -> list[dict]:
    records = []
    for idx, code, text, seconds in results:
        expected = digests[idx % len(digests)] if digests else None
        errors = check.check_output(ops[idx], code, text, expected)
        records.append({"op": idx, "shape": ops[idx]["shape"], "latency_ms": seconds * 1000,
                        "pass": not errors, "errors": errors})
    return records


def timed_loop(runner: Runner, ops: list[dict], seconds: float, pass_len: int):
    """Closed loop over the ops in order, in whole passes of the grid, until
    at least ``seconds`` have passed.  Stopping only between passes keeps
    the mix of every run the same.  Returns ([(op index, exit code, stdout,
    seconds)], wall seconds)."""
    results = []
    start = time.perf_counter()
    while not results or len(results) % pass_len or time.perf_counter() - start < seconds:
        idx = len(results) % len(ops)
        results.append((idx, *runner.run(ops[idx], len(results))))
    return results, time.perf_counter() - start


def _write_records(name: str, records: list[dict]) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


def run_untraced(workload: str, seed: int, seconds: float, inputs: Path) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, ops = setup(workload, seed, inputs)
        setup_times.append(time.perf_counter() - t0)
    pass_len = PASS_LEN[workload]
    results, wall = timed_loop(Runner(cli), ops, seconds, pass_len)
    records = check_results(ops, results, load_digests(workload, seed))
    latencies = [r[3] for r in results]
    pct, tail = tail_percentile(latencies)
    failed = sum(not r["pass"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(results) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    path = _write_records(f"{workload}-seed{seed}", records)
    print(f"workload {workload}, seed {seed}: {len(results)} ops in {len(results) // pass_len} passes,"
          f" {wall:.3f} s, records in {path}")
    print(f"latency_tail_ms is p{pct} of {len(latencies)} samples")
    print(f"failed_ratio = {failed}/{len(records)} = {failed / len(records):.4f}")
    _print_failures(records)
    return {"attempted": len(records), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}}


def run_traced(workload: str, seed: int, inputs: Path) -> dict:
    """Exactly one pass of the grid, so that the exact counts repeat; each
    op runs untraced and then traced, so that drift of the machine's speed
    hits both sides of the overhead alike."""
    cli, ops = setup(workload, seed, inputs)
    count = PASS_LEN[workload]
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    plain, traced_runner = Runner(cli), Runner(cli, tracer, inputs)
    untraced, traced = [], []
    for i in range(count):
        idx = i % len(ops)
        untraced.append((idx, *plain.run(ops[idx], i)))
        tracer.install()
        try:
            traced.append((idx, *traced_runner.run(ops[idx], i)))
        finally:
            tracer.uninstall()
    wall_untraced = sum(r[3] for r in untraced)
    wall_traced = sum(r[3] for r in traced)
    digests = load_digests(workload, seed)
    records = check_results(ops, untraced + traced, digests)
    mismatched = set(tracer.spans.op_sum_mismatches())
    for op_id, (rec, traced_result, untraced_result) in enumerate(zip(records[count:], traced, untraced)):
        if traced_result[2] != untraced_result[2]:
            rec["errors"].append("tracing changed the output")
        if op_id in mismatched:
            rec["errors"].append("span self times do not add up to the op's wall time")
        rec["pass"] = not rec["errors"]
    layer = aggregate(tracer.spans)
    layer["bench.untraced_wall_s"] = wall_untraced
    layer["bench.traced_wall_s"] = wall_traced
    layer["bench.trace_overhead_s"] = wall_traced - wall_untraced
    spans_path = spans_dir / f"{workload}-seed{seed}.jsonl"
    tracer.spans.dump(spans_path)
    failed = sum(not r["pass"] for r in records)
    path = _write_records(f"{workload}-seed{seed}-traced", records)
    print(f"workload {workload}, seed {seed}: {count} ops untraced in {wall_untraced:.3f} s,"
          f" traced in {wall_traced:.3f} s; {len(tracer.spans)} spans in {spans_path}, records in {path}")
    print(f"failed_ratio = {failed}/{len(records)} = {failed / len(records):.4f}")
    _print_failures(records)
    return {"attempted": len(records), "failed": failed,
            "metrics": {name: {"value": layer.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}}


def _print_failures(records: list[dict]) -> None:
    for r in [r for r in records if not r["pass"]][:10]:
        print(f"FAILED op {r['op']} {r['shape']}: {r['errors']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, inputs)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, inputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
