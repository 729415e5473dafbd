"""Command-line interface.

Subcommands:

* ``dual 4,3,3``            print the conjugate partition
* ``analyze -i FILE``       invariants, genericity, and the solvability
                            verdict for a JSON file with a tuple of Jordan
                            normal forms and an optional spectrum
* ``verify -i FILE``        the full verification report for a JSON matrix
                            tuple (closure, classes, centralizer, ...)
* ``corpus``                run the built-in example corpus and report each
                            expectation

``--json`` switches any subcommand to machine-readable output.  Exit codes:
0 completed (verdicts are payload, not status), 2 malformed input, 3
internal assertion failure (including corpus expectation failures).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

from . import reduction as rd
from . import spectra as sp
from . import tuple_lab as tl
from .jnf import Partition, capped
from .workbench import builtin_corpus, run_corpus
from .workbench.export import dumps

# The relation search combines, and writes, one part per class for each of
# its choices, so its work grows as choices times classes; past this many
# such steps the CLI reports genericity as skipped rather than stalling.
GENERICITY_BUDGET = 25_000


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or encoding, a huge integer, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(data).__name__}")
    return data


@contextmanager
def _malformed(what: str):
    """Turn a parser's KeyError, TypeError or ValueError into an InputError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _parse_analyze_input(data: dict) -> tuple[rd.JnfTuple, sp.SpectrumAssignment | None]:
    if "jnfs" not in data:
        raise InputError("analyze input needs a 'jnfs' key")
    with _malformed("bad JNF tuple"):
        tup = rd.JnfTuple.from_json(data["jnfs"])
    spectrum = None
    if data.get("spectrum") is not None:
        with _malformed("bad spectrum"):
            spectrum = sp.SpectrumAssignment.from_json(data["spectrum"])
        if spectrum.n != tup.n:
            raise InputError(f"spectrum size {spectrum.n} does not match JNF size {tup.n}")
        if len(spectrum.classes) != len(tup.jnfs):
            raise InputError("spectrum and JNF tuple have different class counts")
        for i, (cls_, jnf) in enumerate(zip(spectrum.classes, tup.jnfs), 1):
            mults = jnf.multiplicities()
            if tuple(sorted((mult for _, mult in cls_), reverse=True)) != mults:
                raise InputError(f"class {i}: spectrum multiplicities do not match the JNF's {mults}")
    return tup, spectrum


def _genericity_payload(spectrum: sp.SpectrumAssignment) -> dict:
    limit = GENERICITY_BUDGET // len(spectrum.classes)  # choices * classes <= budget exactly when choices <= limit
    if sp.relation_choices(spectrum, limit + 1) > limit:
        print(f"warning: more than {GENERICITY_BUDGET} combination steps; skipping relation enumeration", file=sys.stderr)
        return {"skipped": f"more than {GENERICITY_BUDGET} combination steps"}
    if not sp.global_condition(spectrum):
        return {"global_condition": False}
    report = sp.classify(spectrum)
    out = report.to_json()
    out["global_condition"] = True
    return out


def cmd_analyze(args) -> int:
    tup, spectrum = _parse_analyze_input(_load_json(args.input))
    trace = rd.solvable_generic(tup)
    payload: dict = {
        "n": tup.n,
        "classes": [
            {"jnf": j.to_json(), "r": r, "d": d}
            for j, r, d in zip(tup.jnfs, tup.min_ranks(), tup.class_dims())
        ],
        "kappa": rd.kappa(tup),
        "rigidity": rd.classify_rigidity(tup),
        "alpha": rd.check_alpha(tup),
        "beta": rd.check_beta(tup),
        "omega": rd.check_omega(tup),
        "expected_dim": rd.expected_dim(tup),
        "genericity": _genericity_payload(spectrum) if spectrum is not None else None,
        "verdict": trace.verdict.to_json(),
        "chain": list(trace.sizes()),
    }
    if args.trace:
        payload["trace"] = trace.to_json()
    if args.explore_choices:
        traces = rd.explore_all_traces(tup)
        payload["choice_exploration"] = {
            "paths": len(traces),
            "verdicts_agree": len({t.verdict.solvable for t in traces}) == 1,
        }
    if args.json:
        sys.stdout.write(dumps(payload))
        return 0
    print(f"n = {tup.n}, classes = {len(tup.jnfs)}")
    for i, cls in enumerate(payload["classes"], 1):
        print(f"  class {i}: r = {cls['r']}, d = {cls['d']}, jnf = {json.dumps(cls['jnf'])}")
    print(f"kappa = {payload['kappa']} ({payload['rigidity']})")
    print(
        "conditions: alpha={alpha} beta={beta} omega={omega}".format(
            alpha=payload["alpha"], beta=payload["beta"], omega=payload["omega"]
        )
    )
    print(f"expected_dim = {payload['expected_dim']}")
    gen = payload["genericity"]
    if gen is not None:
        if "skipped" in gen:
            print(f"genericity: skipped ({gen['skipped']})")
        elif not gen.get("global_condition", True):
            print("genericity: global product-1 / sum-0 condition VIOLATED")
        else:
            basic = gen.get("basic")
            extra = f" (q={basic['q']}, m={basic['m']})" if basic else ""
            print(f"genericity: {gen['verdict']}{extra}, {len(gen['witnesses'])} relation(s)")
    chain = " -> ".join(str(n) for n in payload["chain"])
    verdict = "solvable" if payload["verdict"]["solvable"] else "not solvable"
    print(f"verdict: {verdict} ({payload['verdict']['reason']}); size chain {chain}")
    if args.trace:
        for stage in payload["trace"]["stages"]:
            print(
                f"  stage n={stage['n']}: r={stage['r']} d={stage['d']}"
                f" kappa={stage['kappa']} chosen={stage['chosen']}"
            )
    if args.explore_choices:
        ce = payload["choice_exploration"]
        agree = "agree" if ce["verdicts_agree"] else "DISAGREE"
        print(f"choice exploration: {ce['paths']} paths, verdicts {agree}")
    return 0


def cmd_verify(args) -> int:
    data = _load_json(args.input)
    with _malformed("bad matrix tuple"):
        tup = tl.MatrixTuple.from_json(data)
    report = tl.report(tup)
    if args.json:
        sys.stdout.write(dumps(report))
        return 0
    print(f"mode = {report['mode']}, n = {report['n']}, matrices = {report['count']}")
    print(f"closure: {report['closure']}")
    if report["jnfs"] is None:
        print(f"jnf: claimed eigenvalues rejected ({report['wrong_spectrum']})")
    else:
        for i, j in enumerate(report["jnfs"], 1):
            print(f"  matrix {i} jnf: {json.dumps(j)}")
    print(
        f"centralizer_dim = {report['centralizer_dim']}"
        f" (trivial: {report['trivial_centralizer']},"
        f" commutator map surjective: {report['commutator_map_surjective']})"
    )
    print(f"irreducible: {report['irreducible']}")
    print(f"orbit_dim = {report['orbit_dim']}")
    if report["tangent_dim"] is not None:
        formal = " (formal: non-trivial centralizer)" if report["tangent_dim_is_formal"] else ""
        print(f"tangent_dim = {report['tangent_dim']}{formal}")
    if report["expected_dim"] is not None:
        print(f"expected_dim = {report['expected_dim']}, kappa = {report['kappa']}")
    return 0


def cmd_corpus(args) -> int:
    names = None if args.example is None else [args.example]
    if names and names[0] not in {f.name for f in builtin_corpus()}:
        raise InputError(f"unknown example {args.example!r}")
    results = run_corpus(names)
    all_pass = all(r.passed for r in results)
    if args.json:
        sys.stdout.write(
            dumps({"expectations": [r.to_json() for r in results], "all_pass": all_pass})
        )
    else:
        width = max(len(r.expectation.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(
                f"{r.fixture:<9} {r.expectation.name:<{width}} {status}"
                f"  expected={r.expectation.expected!r} actual={r.actual!r}"
                f"  [{r.expectation.provenance}]"
            )
        total = len(results)
        passed = sum(r.passed for r in results)
        print(f"{passed}/{total} expectations passed")
    return 0 if all_pass else 3


def cmd_dual(args) -> int:
    parts = [p.strip() for p in args.parts.split(",") if p.strip()]
    with _malformed(f"bad partition {args.parts!r}"):
        # int() alone would also read "1_0", "+2" and non-ASCII digits
        if not all(re.fullmatch(r"[0-9]+", p) for p in parts):
            raise ValueError("each part must be ASCII digits")
        partition = Partition(capped(int(p) for p in parts))
    result = partition.dual()
    if args.json:
        sys.stdout.write(dumps({"partition": list(partition.parts), "dual": list(result.parts)}))
    else:
        print(",".join(str(p) for p in result.parts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deligne-simpson",
        description="Exact solvability checks and verification for the Deligne-Simpson problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="invariants, genericity and solvability of a JNF tuple")
    p_analyze.add_argument("-i", "--input", required=True, help="JSON file with 'jnfs' and optional 'spectrum'")
    p_analyze.add_argument("--trace", action="store_true", help="include the per-stage reduction trace")
    p_analyze.add_argument("--explore-choices", action="store_true",
                           help="check the verdict over all admissible eigenvalue choices")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="verification report for an explicit matrix tuple")
    p_verify.add_argument("-i", "--input", required=True, help="JSON matrix tuple file")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="run the built-in example corpus")
    p_corpus.add_argument("--example", help="run a single example (example1..example5)")
    p_corpus.set_defaults(func=cmd_corpus)

    p_dual = sub.add_parser("dual", help="print the conjugate of a partition")
    p_dual.add_argument("parts", help="comma-separated parts, e.g. 4,3,3")
    p_dual.set_defaults(func=cmd_dual)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything non-input is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
