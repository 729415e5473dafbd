import copy
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deligne_simpson import reduction as rd
from deligne_simpson import spectra as sp
from deligne_simpson import tuple_lab as tl
from deligne_simpson.cli import GENERICITY_BUDGET, main
from deligne_simpson.jnf import SIZE_CAP
from deligne_simpson.workbench import fixture_by_name
from deligne_simpson.workbench.export import dumps

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def shipped(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def replaced(data, path: tuple, value):
    """A copy of JSON data with the node at path (keys and indices from the
    root) replaced by value."""
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def test_dual(capsys):
    code, out, _ = run(capsys, "dual", "4,3,3")
    assert code == 0 and out.strip() == "3,3,3,1"
    code, out, _ = run(capsys, "dual", "3,2", "--json")
    assert code == 0 and json.loads(out) == {"partition": [3, 2], "dual": [2, 2, 1]}
    code, _, err = run(capsys, "dual", "4,x")
    assert code == 2 and "error" in err
    # int() reads these as 10, 3 and 2; a part is ASCII digits only
    for literal in ("1_0", "\u0663", "+2"):
        code, out, err = run(capsys, "dual", literal)
        assert code == 2 and out == "" and "bad partition" in err
    code, out, _ = run(capsys, "dual", "4, 3, 3")
    assert code == 0 and out.strip() == "3,3,3,1"


def test_dual_rejects_parts_past_the_size_cap_before_expanding_them(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "dual", "99999999999")
    assert code == 2 and "bad partition" in err
    assert time.perf_counter() - start < 1
    assert run(capsys, "dual", f"{SIZE_CAP},1")[0] == 2
    code, out, _ = run(capsys, "dual", str(SIZE_CAP))
    assert code == 0 and out.strip() == ",".join(["1"] * SIZE_CAP)


@pytest.mark.parametrize(
    "jnf",
    [{"multiplicities": [10**9]}, {"multiplicities": [10**9, 1 - 10**9]}, [{"eigenvalue": "a", "blocks": [10**9]}]],
    ids=["multiplicity", "cancelling-multiplicities", "block"],
)
def test_analyze_rejects_counts_past_the_size_cap(tmp_path, capsys, jnf):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"jnfs": [jnf] * 2}), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(path), "--json")
    assert code == 2 and "bad JNF tuple" in err


def test_analyze_explores_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    n = 1100
    jnfs = [
        [{"eigenvalue": "a", "blocks": [n]}],
        [{"eigenvalue": "b", "blocks": [n]}],
        [{"eigenvalue": "c", "blocks": [1]}, {"eigenvalue": "d", "blocks": [1] * (n - 1)}],
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"jnfs": jnfs}), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "-i", str(path), "--explore-choices", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == list(range(n, 0, -1))
    assert payload["choice_exploration"] == {"paths": 2, "verdicts_agree": True}


def test_analyze_example1(capsys):
    path = str(FIXTURES / "example1.analyze.json")
    code, out, _ = run(capsys, "analyze", "-i", path, "--trace", "--explore-choices", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 2
    assert payload["rigidity"] == "rigid"
    assert payload["expected_dim"] == 15
    assert payload["chain"] == [4, 3, 1]
    assert payload["verdict"]["solvable"] is True
    assert payload["genericity"]["verdict"] == "relatively_generic"
    assert payload["genericity"]["basic"]["q"] == 2
    assert payload["choice_exploration"]["verdicts_agree"] is True
    assert [s["n"] for s in payload["trace"]["stages"]] == [4, 3, 1]
    code, out, _ = run(capsys, "analyze", "-i", path)
    assert code == 0 and "verdict: solvable" in out


def test_analyze_without_spectrum(tmp_path, capsys):
    payload = {"jnfs": [{"multiplicities": [1, 1]}, {"multiplicities": [1, 1]}]}
    path = tmp_path / "pair.json"
    path.write_text(dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "-i", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["genericity"] is None
    assert data["verdict"]["solvable"] is False


def test_analyze_malformed_inputs(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run(capsys, "analyze", "-i", str(bad_json))[0] == 2
    assert run(capsys, "analyze", "-i", str(tmp_path / "missing.json"))[0] == 2
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(
        dumps({
            "jnfs": [{"multiplicities": [2, 2]}, {"multiplicities": [2, 2]}],
            "spectrum": {
                "mode": "multiplicative",
                "symbols": [],
                "classes": [[{"scalar": {"exponents": {}, "phase": "0"}, "mult": 2}]] * 2,
            },
        }),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "analyze", "-i", str(mismatched))
    assert code == 2 and "does not match" in err
    no_jnfs = tmp_path / "no_jnfs.json"
    no_jnfs.write_text(dumps({"spectrum": None}), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(no_jnfs))
    assert code == 2 and err == "error: analyze input needs a 'jnfs' key\n"
    one_class_short = json.loads((FIXTURES / "example1.analyze.json").read_text(encoding="utf-8"))
    one_class_short["spectrum"]["classes"].pop()
    short = tmp_path / "short.json"
    short.write_text(dumps(one_class_short), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(short))
    assert code == 2 and err == "error: spectrum and JNF tuple have different class counts\n"
    for spectrum in ([1], "x", {"classes": [[{"scalar": [1], "mult": 1}]]}):
        payload = json.loads((FIXTURES / "example1.analyze.json").read_text(encoding="utf-8"))
        payload["spectrum"] = spectrum
        path = tmp_path / "bad_spectrum.json"
        path.write_text(dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "analyze", "-i", str(path))
        assert code == 2 and "bad spectrum" in err


def test_analyze_text_reports_a_violated_global_condition(tmp_path, capsys):
    # eigenvalues x, 1 in both classes: the product of all of them is x^2, not 1
    cls_ = [{"scalar": {"exponents": e, "phase": "0"}, "mult": 1} for e in ({"x": "1"}, {})]
    payload = {"jnfs": [{"multiplicities": [1, 1]}] * 2, "spectrum": {"mode": "multiplicative", "classes": [cls_] * 2}}
    path = tmp_path / "violated.json"
    path.write_text(dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "-i", str(path))
    assert code == 0 and err == ""
    assert "genericity: global product-1 / sum-0 condition VIOLATED\n" in out


def test_analyze_spectrum_multiplicities_must_match_the_jnfs(tmp_path, capsys):
    def pair(sym):
        return [{"scalar": {"coefficients": {sym: c}, "constant": "0"}, "mult": 2} for c in (1, -1)]

    payload = {
        "jnfs": [{"multiplicities": [3, 1]}, {"multiplicities": [2, 2]}],
        "spectrum": {"mode": "additive", "symbols": ["s", "t"], "classes": [pair("s"), pair("t")]},
    }
    path = tmp_path / "mults.json"
    path.write_text(dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "-i", str(path))
    assert code == 2 and out == ""
    assert "class 1: spectrum multiplicities do not match the JNF's (3, 1)" in err
    payload["jnfs"][0] = {"multiplicities": [2, 2]}
    path.write_text(dumps(payload), encoding="utf-8")
    assert run(capsys, "analyze", "-i", str(path))[0] == 0


@pytest.mark.parametrize("content", [
    b"[" * 200_000,
    b"\xff\xfe{}",
    b'{"jnfs": [{"multiplicities": [' + b"7" * 5000 + b"]}]}",
], ids=["deep", "utf16-bom", "5000-digits"])
def test_unreadable_json_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    for command in ("analyze", "verify"):
        code, _, err = run(capsys, command, "-i", str(path))
        assert code == 2 and "internal error" not in err, command


@pytest.mark.parametrize("mode,scalar", [
    ("additive", {"exponents": {"a": "1"}}),
    ("additive", {"coefficients": {"a": "1"}, "phase": "1/2"}),
    ("multiplicative", {"coefficients": {"a": "1"}}),
    ("multiplicative", {"exponents": {"a": "1"}, "constant": "1"}),
])
def test_scalar_with_the_other_modes_keys_is_input_error(tmp_path, capsys, mode, scalar):
    keys = ("exponents", "phase") if mode == "multiplicative" else ("coefficients", "constant")
    payload = {
        "jnfs": [{"multiplicities": [1, 1]}, {"multiplicities": [2]}],
        "spectrum": {
            "mode": mode,
            "symbols": ["a"],
            "classes": [
                [{"scalar": scalar, "mult": 1}, {"scalar": {keys[0]: {"a": "-1"}}, "mult": 1}],
                [{"scalar": {keys[1]: "0"}, "mult": 2}],
            ],
        },
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(path), "--json")
    assert code == 2 and "bad spectrum" in err
    payload["spectrum"]["classes"][0][0]["scalar"] = {keys[0]: {"a": "1"}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "-i", str(path), "--json")
    assert code == 0 and json.loads(out)["genericity"]["global_condition"] is True


def test_verify_singular_multiplicative_matrix_is_input_error(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        dumps({
            "mode": "multiplicative",
            "matrices": [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]],
            "eigenvalues": [["1", "2"], ["1", "1"]],
        }),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "verify", "-i", str(path), "--json")
    assert code == 2 and "singular" in err


def test_verify_malformed_tuples_are_input_errors(tmp_path, capsys):
    single = {"mode": "additive", "matrices": [[["0", "0"], ["0", "0"]]], "eigenvalues": [["0", "0"]]}
    boolean_entry = json.loads((FIXTURES / "example4_first_quadruple.verify.json").read_text(encoding="utf-8"))
    boolean_entry["matrices"][0][1][1] = True  # the entry "1", spelled as a JSON boolean
    # the entry "1" with a trailing newline, and spelled with an Arabic-Indic digit
    quadruple = shipped("example4_first_quadruple.verify.json")
    newline = replaced(quadruple, ("matrices", 0, 1, 1), "1\n")
    arabic_indic = replaced(quadruple, ("matrices", 0, 1, 1), "\u0661")
    for name, payload in (
        ("single", single), ("boolean", boolean_entry), ("newline", newline), ("arabic-indic", arabic_indic)
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "verify", "-i", str(path), "--json")
        assert code == 2 and "bad matrix tuple" in err, name


def test_analyze_rejects_counts_that_are_not_integers(tmp_path, capsys):
    for bad in ([2.5, 2.9], ["2", 2], [True, 3]):
        payload = json.loads((FIXTURES / "example1.analyze.json").read_text(encoding="utf-8"))
        payload["jnfs"][0]["multiplicities"] = bad
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "analyze", "-i", str(path))
        assert code == 2 and "bad JNF tuple" in err, bad
    payload = json.loads((FIXTURES / "example1.analyze.json").read_text(encoding="utf-8"))
    payload["jnfs"][3][0]["blocks"] = [2, 1.0, 1]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run(capsys, "analyze", "-i", str(path))[0] == 2


FIRST_SCALAR = ("spectrum", "classes", 0, 0)


@pytest.mark.parametrize(
    "path, value",
    [
        (FIRST_SCALAR + ("mult",), 2.5),
        (FIRST_SCALAR + ("mult",), "2"),
        (("spectrum", "symbols"), "e23"),
        (FIRST_SCALAR + ("scalar", "exponents"), [1]),
        (FIRST_SCALAR + ("scalar", "phase"), "1\n"),
        (FIRST_SCALAR + ("scalar", "phase"), "\u0661"),
    ],
    ids=["mult-float", "mult-string", "symbols-string", "exponents-list", "phase-newline", "phase-arabic-indic"],
)
def test_analyze_malformed_spectrum_is_input_error(tmp_path, capsys, path, value):
    file = tmp_path / "spectrum.json"
    file.write_text(json.dumps(replaced(shipped("example1.analyze.json"), path, value)), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(file))
    assert code == 2 and "bad spectrum" in err


def test_analyze_unknown_spectrum_mode_is_input_error(tmp_path, capsys):
    payload = shipped("example1.analyze.json")
    payload["spectrum"] = fixture_by_name("example1").aux_spectra["additive"].to_json()
    file = tmp_path / "mode.json"
    file.write_text(json.dumps(payload), encoding="utf-8")
    assert run(capsys, "analyze", "-i", str(file))[0] == 0
    payload["spectrum"]["mode"] = "bogus"  # an additive spectrum under an unknown mode
    file.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(file))
    assert code == 2 and "bad spectrum" in err


# ["2", "1", "1"] and ["2", "0", "0"] written as strings, which used to be
# read character by character
@pytest.mark.parametrize(
    "path, text", [(("eigenvalues", 0), "211"), (("matrices", 0, 0), "200")], ids=["eigenvalue-list", "matrix-row"]
)
def test_verify_list_written_as_a_string_is_input_error(tmp_path, capsys, path, text):
    file = tmp_path / "list.json"
    file.write_text(json.dumps(replaced(shipped("example4_first_quadruple.verify.json"), path, text)), encoding="utf-8")
    code, _, err = run(capsys, "verify", "-i", str(file))
    assert code == 2 and "bad matrix tuple" in err


def json_nodes(data, path: tuple = ()):
    """The path of every node of JSON data, the root included."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, child in items:
        yield from json_nodes(child, path + (key,))


ints = st.one_of(st.integers(-2, 6), st.sampled_from([SIZE_CAP + 1, 10**9, 10**12]))
json_values = st.one_of(
    ints,
    st.floats(-4, 4),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(ints, max_size=3),
    st.dictionaries(st.text(max_size=2), ints, max_size=2),
)


def fuzz_cases(pattern: str):
    return [(path.name, node) for path in sorted(FIXTURES.glob(pattern)) for node in json_nodes(shipped(path.name))]


def exit_code_with_one_node_replaced(tmp_path_factory, command, case, value, *flags) -> int:
    name, path = case
    file = tmp_path_factory.getbasetemp() / f"fuzz-{command}.json"
    file.write_text(json.dumps(replaced(shipped(name), path, value)), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([command, "-i", str(file), "--json", *flags])


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(fuzz_cases("*.analyze.json")), value=json_values)
def test_analyze_exits_0_or_2_with_any_one_node_replaced(tmp_path_factory, case, value):
    code = exit_code_with_one_node_replaced(tmp_path_factory, "analyze", case, value, "--trace", "--explore-choices")
    assert code in (0, 2)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(fuzz_cases("*.verify.json")), value=json_values)
def test_verify_exits_0_or_2_with_any_one_node_replaced(tmp_path_factory, case, value):
    assert exit_code_with_one_node_replaced(tmp_path_factory, "verify", case, value) in (0, 2)


@pytest.mark.parametrize("label", [None, 1, ["e1"]], ids=["null", "int", "list"])
def test_analyze_eigenvalue_label_that_is_not_a_string_is_input_error(tmp_path, capsys, label):
    payload = replaced(shipped("example1.analyze.json"), ("jnfs", 3, 0, "eigenvalue"), label)
    file = tmp_path / "label.json"
    file.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "-i", str(file))
    assert code == 2 and "bad JNF tuple" in err


def scalar_classes_input(n: int, count: int) -> dict:
    """count classes of size n, each one eigenvalue 1 of multiplicity n."""
    return {
        "jnfs": [{"multiplicities": [n]}] * count,
        "spectrum": {
            "mode": "multiplicative",
            "symbols": [],
            "classes": [[{"scalar": {"exponents": {}, "phase": "0"}, "mult": n}]] * count,
        },
    }


def test_analyze_searches_a_large_spectrum_with_few_combinations(tmp_path, capsys):
    # n = 14 but one eigenvalue per class: one choice per size, 13 in all
    path = tmp_path / "n14.json"
    path.write_text(dumps(scalar_classes_input(14, 2)), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "-i", str(path), "--json")
    assert code == 0 and err == ""
    genericity = json.loads(out)["genericity"]
    assert genericity["verdict"] == "relatively_generic"
    assert [w["size"] for w in genericity["witnesses"]] == list(range(1, 14))


def reciprocal_pairs_input() -> dict:
    """22 classes {a_j, 1/a_j} at n = 2: 2**22 combinations of size 1, which
    an unbudgeted search takes minutes to walk."""
    classes = [
        [{"scalar": {"exponents": {f"a{j}": e}, "phase": "0"}, "mult": 1} for e in ("1", "-1")]
        for j in range(22)
    ]
    return {"jnfs": [{"multiplicities": [1, 1]}] * 22, "spectrum": {"mode": "multiplicative", "classes": classes}}


def test_analyze_skips_oversized_spectra(tmp_path):
    payload = reciprocal_pairs_input()
    path = tmp_path / "pairs.json"
    path.write_text(dumps(payload), encoding="utf-8")
    assert sp.relation_choices(sp.SpectrumAssignment.from_json(payload["spectrum"]), 2**23) == 2**22
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "deligne_simpson", "analyze", "-i", str(path), "--json"],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genericity"] == {"skipped": f"more than {GENERICITY_BUDGET} combination steps"}
    assert "skipping relation enumeration" in proc.stderr


def test_analyze_text_reports_a_skipped_genericity_search(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    path.write_text(dumps(reciprocal_pairs_input()), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "-i", str(path))
    assert code == 0
    assert f"genericity: skipped (more than {GENERICITY_BUDGET} combination steps)\n" in out
    assert err == (
        f"warning: more than {GENERICITY_BUDGET} combination steps; skipping relation enumeration\n"
    )


# Two classes at the size cap; 300 classes at n = 1000, whose 999
# combinations each combine and write 300 parts.
@pytest.mark.parametrize("n,count", [(SIZE_CAP, 2), (1000, 300)])
def test_analyze_skips_large_scalar_spectra_quickly(tmp_path, capsys, n, count):
    path = tmp_path / "big.json"
    path.write_text(dumps(scalar_classes_input(n, count)), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "-i", str(path), "--json")
    assert time.perf_counter() - start < 1
    assert code == 0 and "skipping relation enumeration" in err
    assert json.loads(out)["genericity"] == {"skipped": f"more than {GENERICITY_BUDGET} combination steps"}


def test_verify_example4(capsys):
    path = str(FIXTURES / "example4_first_quadruple.verify.json")
    code, out, _ = run(capsys, "verify", "-i", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"] is True
    assert payload["centralizer_dim"] == 1
    assert payload["tangent_dim"] == 8
    assert payload["expected_dim"] == 8
    assert payload["irreducible"] is False
    code, out, _ = run(capsys, "verify", "-i", path)
    assert code == 0 and "centralizer_dim = 1" in out


def test_verify_text_reports_rejected_claims(tmp_path, capsys):
    data = shipped("example4_first_quadruple.verify.json")
    data["eigenvalues"][0][0] = "7"
    path = tmp_path / "wrong_claim.json"
    path.write_text(dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "jnf: claimed eigenvalues rejected (7 is not an eigenvalue)" in lines
    assert not any(line.startswith("expected_dim") for line in lines)


def test_corpus_cli(capsys):
    code, out, _ = run(capsys, "corpus", "--example", "example3")
    assert code == 0
    assert "expectations passed" in out
    code, out, _ = run(capsys, "corpus", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    for name in ("nope", ""):
        assert run(capsys, "corpus", "--example", name)[0] == 2


def test_shipped_files_roundtrip_bit_exactly():
    files = sorted(FIXTURES.glob("*.json"))
    assert len(files) == 19
    for path in files:
        raw = path.read_text(encoding="utf-8")
        data = json.loads(raw)
        if path.name.endswith(".analyze.json"):
            out = {"jnfs": rd.JnfTuple.from_json(data["jnfs"]).to_json()}
            if "spectrum" in data:
                out["spectrum"] = sp.SpectrumAssignment.from_json(data["spectrum"]).to_json()
        else:
            out = tl.MatrixTuple.from_json(data).to_json()
        assert dumps(out) == raw, f"round-trip mismatch for {path.name}"


def test_shipped_files_match_builders(tmp_path):
    from deligne_simpson.workbench.export import write_fixture_files

    written = write_fixture_files(tmp_path)
    assert {p.name for p in written} == {p.name for p in FIXTURES.glob("*.json")}
    for path in written:
        shipped = (FIXTURES / path.name).read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8") == shipped, path.name


def test_cli_analyze_accepts_every_shipped_analyze_file(capsys):
    for path in sorted(FIXTURES.glob("*.analyze.json")):
        code, out, _ = run(capsys, "analyze", "-i", str(path), "--json")
        assert code == 0, path.name
        assert json.loads(out)["verdict"]["solvable"] in (True, False)


def test_cli_verify_accepts_every_shipped_verify_file(capsys):
    for path in sorted(FIXTURES.glob("*.verify.json")):
        code, out, _ = run(capsys, "verify", "-i", str(path), "--json")
        assert code == 0, path.name
        assert json.loads(out)["closure"] is True, path.name
