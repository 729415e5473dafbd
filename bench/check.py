"""Output checker: every op's answer is checked, and any failed check
counts the op as failed.

Three kinds of checks:

* facts known by construction of the input (see ``gen``);
* invariants that must hold between fields of any answer;
* on the default seed, the SHA-256 digest of each JSON output as
  recorded from the package at the time the benchmark was defined, so any
  changed answer counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

CORPUS_EXPECTATIONS = 97


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _blocks(jnf_json) -> list[tuple[str | None, list[int]]]:
    if isinstance(jnf_json, dict):
        return [(None, [1] * m) for m in jnf_json["multiplicities"]]
    return [(item["eigenvalue"], list(item["blocks"])) for item in jnf_json]


def class_dim(jnf_json, n: int) -> int:
    """n^2 minus the centralizer dimension sum_i (2i + 1) b_i per eigenvalue."""
    cent = 0
    for _, blocks in _blocks(jnf_json):
        cent += sum((2 * i + 1) * b for i, b in enumerate(sorted(blocks, reverse=True)))
    return n * n - cent


def min_rank(jnf_json, n: int) -> int:
    return n - max(len(blocks) for _, blocks in _blocks(jnf_json))


def _kappa_checks(n: int, jnfs, kappa, expected_dim) -> list[str]:
    total = sum(class_dim(j, n) for j in jnfs)
    errors = []
    if kappa != 2 * n * n - total:
        errors.append(f"kappa {kappa} != 2n^2 - sum d = {2 * n * n - total}")
    if expected_dim != total - n * n + 1:
        errors.append(f"expected_dim {expected_dim} != sum d - n^2 + 1 = {total - n * n + 1}")
    return errors


def check_verify(out: dict, shape: dict, facts: dict) -> list[str]:
    errors = []
    n = shape["n"]
    if (out.get("mode"), out.get("n"), out.get("count")) != (shape["mode"], n, shape["count"]):
        errors.append("mode, n or count differ from the input")
    if out["closure"] is not facts["closure"]:
        errors.append(f"closure is {out['closure']}, built to be {facts['closure']}")
    if facts["reducible"] and out["irreducible"] is not False:
        errors.append("reducible by construction but reported irreducible")
    cdim = out["centralizer_dim"]
    if cdim < facts["min_centralizer_dim"]:
        errors.append(f"centralizer_dim {cdim} < {facts['min_centralizer_dim']} by construction")
    if facts["claims_correct"]:
        if out["jnfs"] is None:
            errors.append(f"correct claims rejected: {out.get('wrong_spectrum')}")
        else:
            for i, (jnf_json, claim) in enumerate(zip(out["jnfs"], facts["claimed_spectra"])):
                got = Counter()
                for label, blocks in _blocks(jnf_json):
                    got[Fraction(label)] += sum(blocks)
                if got != Counter(Fraction(x) for x in claim):
                    errors.append(f"matrix {i + 1}: JNF {jnf_json} does not carry the claimed spectrum")
    elif out["jnfs"] is not None or "wrong_spectrum" not in out:
        errors.append("a claim that is wrong on purpose was accepted")
    if out["orbit_dim"] != n * n - cdim:
        errors.append(f"orbit_dim {out['orbit_dim']} != n^2 - centralizer_dim")
    trivial = out["trivial_centralizer"]
    if trivial is not (cdim == 1):
        errors.append("trivial_centralizer disagrees with centralizer_dim")
    if trivial is not out["commutator_map_surjective"]:
        errors.append("trivial_centralizer disagrees with commutator_map_surjective")
    if out["closure"]:
        if out["tangent_dim_is_formal"] is not (cdim != 1):
            errors.append("tangent_dim_is_formal disagrees with centralizer_dim")
        if trivial and out["expected_dim"] is not None and out["tangent_dim"] != out["expected_dim"]:
            errors.append("trivial centralizer but tangent_dim != expected_dim")
    if out["jnfs"] is not None:
        errors += _kappa_checks(n, out["jnfs"], out["kappa"], out["expected_dim"])
    return errors


def check_analyze(out: dict, shape: dict, facts: dict, request: dict) -> list[str]:
    errors = []
    n = shape["n"]
    if out["n"] != n or len(out["classes"]) != shape["count"]:
        errors.append("n or class count differ from the input")
    jnfs = [c["jnf"] for c in out["classes"]]
    if jnfs != request["jnfs"]:
        errors.append("the JNFs of the input do not come back")
    for i, (cls_, jnf_json) in enumerate(zip(out["classes"], request["jnfs"])):
        if cls_["d"] != class_dim(jnf_json, n) or cls_["r"] != min_rank(jnf_json, n):
            errors.append(f"class {i + 1}: r or d wrong")
    errors += _kappa_checks(n, request["jnfs"], out["kappa"], out["expected_dim"])
    if out["chain"][0] != n:
        errors.append("size chain does not start at n")
    if facts.get("explore"):
        ce = out.get("choice_exploration") or {}
        if ce.get("verdicts_agree") is not True or ce.get("paths", 0) < 1:
            errors.append(f"choice exploration: {ce}")
        stages = (out.get("trace") or {}).get("stages") or []
        if [s["n"] for s in stages] != out["chain"]:
            errors.append("trace stages disagree with the size chain")
        if out["genericity"] is not None:
            errors.append("genericity reported without a spectrum")
        return errors
    gen = out["genericity"] or {}
    if gen.get("global_condition") is not True:
        errors.append("global condition reported violated; it holds by construction")
    kind = facts["genericity"]
    if gen.get("verdict") != kind:
        errors.append(f"genericity verdict {gen.get('verdict')}, built to be {kind}")
    basic = gen.get("basic")
    if facts["gcd"] == 1 and basic is not None:
        errors.append("basic relation reported with gcd of multiplicities 1")
    if facts["gcd"] > 1 and (basic is None or basic["q"] != facts["gcd"]):
        errors.append(f"basic relation q differs from gcd {facts['gcd']}")
    if kind == "generic" and gen.get("witnesses"):
        errors.append("generic spectrum with witnesses")
    if kind == "non_generic" and not gen.get("offenders"):
        errors.append("planted relation not reported as an offender")
    return errors


def check_corpus(out: dict) -> list[str]:
    errors = []
    exps = out.get("expectations", [])
    if out.get("all_pass") is not True:
        errors.append("all_pass is not true")
    if len(exps) != CORPUS_EXPECTATIONS:
        errors.append(f"{len(exps)} expectations, not {CORPUS_EXPECTATIONS}")
    failed = [e["name"] for e in exps if e.get("pass") is not True]
    if failed:
        errors.append(f"failed expectations: {failed[:5]}")
    return errors


def check_output(op: dict, code: int, text: str, expected_digest: str | None) -> list[str]:
    """All checks for one op; an empty list means the op passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        if op["command"] == "verify":
            errors = check_verify(out, op["shape"], op["facts"])
        elif op["command"] == "analyze":
            errors = check_analyze(out, op["shape"], op["facts"], op["request"])
        else:
            errors = check_corpus(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors = [f"malformed answer: {type(exc).__name__}: {exc}"]
    if expected_digest is not None and digest(text) != expected_digest:
        errors.append("output differs from the recorded answer")
    return errors
