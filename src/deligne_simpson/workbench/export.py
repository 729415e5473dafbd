"""Serialize the built-in fixtures to the JSON files shipped in fixtures/.

The analyze payloads bundle each example's JNF tuple with its primary
spectrum; the verify payloads are the explicit matrix tuples.  Files are
written with the package's canonical JSON formatting, so parsing one and
re-serializing it reproduces the file byte for byte.  To regenerate
them, call ``write_fixture_files("fixtures")`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

from .fixtures import builtin_corpus


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def fixture_file_payloads() -> dict[str, dict]:
    payloads: dict[str, dict] = {}
    for fixture in builtin_corpus():
        analyze: dict = {"jnfs": fixture.jnf_tuple.to_json()}
        if fixture.spectrum is not None:
            analyze["spectrum"] = fixture.spectrum.to_json()
        payloads[f"{fixture.name}.analyze.json"] = analyze
        for name, tup in fixture.matrix_tuples.items():
            payloads[f"{fixture.name}_{name}.verify.json"] = tup.to_json()
    return payloads


def write_fixture_files(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in sorted(fixture_file_payloads().items()):
        path = directory / name
        path.write_text(dumps(payload), encoding="utf-8")
        written.append(path)
    return written

