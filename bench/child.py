"""Entry script for one traced CLI process.

    python bench/child.py SPANS_FILE OP_ID ARG...

Imports the package from ``src/`` (span ``bench.import``), installs the
tracer, runs ``deligne_simpson.cli.main(ARG...)`` and writes the spans to
SPANS_FILE.  The exit code is the CLI's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op_id = op_id
    sys.path.insert(0, str(ROOT / "src"))
    idx = tracer.begin("bench.import")
    from deligne_simpson import cli

    tracer.end(idx)
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.spans.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
