"""Record the SHA-256 digest of every JSON answer on the default seed.

    python3 bench/record_digests.py

Runs every op a run with seed 1 can reach (all generated passes of each
workload, and one corpus process, whose output does not depend on the
seed), checks each answer, and writes ``bench/digests.json``.  The runs
then count any changed answer as a failure.  Rewrite the file only when an
answer is meant to change.
"""

from __future__ import annotations

import json
import shutil

import check
import gen
import run

SEED = 1


def main() -> int:
    inputs = run.WORK / "inputs-digests"
    recorded = {}
    try:
        for workload in run.WORKLOADS:
            cli = run.import_package()
            ops = gen.workload_ops(workload, SEED, run.PASSES[workload])
            run.write_inputs(ops, inputs / workload)
            runner = run.Runner(cli)
            digests = []
            for i, op in enumerate(ops[:1] if workload == "corpus-cli" else ops):
                code, text, _ = runner.run(op, i)
                errors = check.check_output(op, code, text, None)
                if errors:
                    print(f"{workload} op {i} {op['shape']}: {errors}")
                    return 1
                digests.append(check.digest(text))
            recorded[workload] = digests
            print(f"{workload}: {len(digests)} answers")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps({"seed": SEED, "workloads": recorded}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
