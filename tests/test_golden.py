"""Golden outputs: the sha256 of ``corpus``, of ``verify`` on every shipped
verify file and of ``analyze --trace --explore-choices`` on every shipped
analyze file, each in JSON and in text.  A change that is meant to keep
every output byte the same (a faster route to the same numbers, a
refactor) must keep these digests; a change that means to alter an output
updates them and says why."""

import hashlib
from pathlib import Path

import pytest

from deligne_simpson.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

CORPUS_SHA256 = "ea1ff18c9b2ff2ba852e45644363a073477f8f26d1f94c8ce714fb031029588d"

VERIFY_SHA256 = {
    "example1_direct_sum_point": "917c756d1d739af8da7c398597e21d78b35d0b3b4396e84db74c6c2e35145806",
    "example1_doubled_point": "13fda866d873ba77ec05119035e2b3eff09479ec1c9906f5c88cde78f8c3fd18",
    "example1_jordan_quadruple": "6389cf42adbc710350b20c71fac882002fe71eb82d3c08313f9a33d24767da93",
    "example1_rigid_quadruple": "e3f24948fd37c9eb503ae56ee5762642a32b46128c31975b7226f46bc65527a8",
    "example1_semidirect_point": "917c756d1d739af8da7c398597e21d78b35d0b3b4396e84db74c6c2e35145806",
    "example2_block_diagonal_triple": "909a5790e27f6bbb3be8a56364f1c774afcef4f815805821205b4963fa6d0b79",
    "example2_first_block_triple": "e74d3767f895f090d3aaaa2507f5d36a9c3ffab369a2bba8e42394bea24b8fed",
    "example2_second_block_triple": "ca8b7c29d3a9790a70b0e5a1950e03f334a8a50737e6299718b0a6aad574efd4",
    "example2_triangular_triple": "4bd6eb052f03b0dccb850aab495f94349264931c70807f8f7d49313afe214d76",
    "example4_first_quadruple": "151a7ecf1f6de6e611ef31d284471d4437bdbf8cdd7100905b383643dfe45a62",
    "example4_second_quadruple": "c022f162345f87191db9a750bfd113277fd63f224504f0f8e8b9809997197287",
    "example5_component_a": "694dda8c21e8d368bb1010af93033300266e4907b3b2869353d2da6618a7280d",
    "example5_component_b": "694dda8c21e8d368bb1010af93033300266e4907b3b2869353d2da6618a7280d",
    "example5_direct_sum_pair": "880e436df71ed63ba0f039ce8292f10bdd858b93c47174a164ff905ddd85ec57",
}

CORPUS_TEXT_SHA256 = "740c43af9fbab095611e69f81b0f211642a4d3f4480fecc207271f6498cd55e7"

VERIFY_TEXT_SHA256 = {
    "example1_direct_sum_point": "3fa72f373d7f00e0a31a70f9ad885a3c8ab66659e3691222babde057805ba0ec",
    "example1_doubled_point": "c7aa00bfb478bb4b2750edaac328e04e733bbdd7bdac08689f1ac4a145d40a3b",
    "example1_jordan_quadruple": "4a431cf8369cdc6962780db9d55b2fd9e7bcb6ee4057b11cf28950deab17bf85",
    "example1_rigid_quadruple": "35733bccad92ee2c48c0644b59ee691c88aff84e2d9e095a75a38415761dfcc3",
    "example1_semidirect_point": "3fa72f373d7f00e0a31a70f9ad885a3c8ab66659e3691222babde057805ba0ec",
    "example2_block_diagonal_triple": "c15c02801f5b4ecf775bc20b2b1c65f0b07fd8da562d9620315006c76c51c10b",
    "example2_first_block_triple": "381f24eff415b8ffe6e743ebd512e91cf3f39f18bdd40f5a34d6930142e25fbc",
    "example2_second_block_triple": "1e2c7ab0f4f2e92cc024fa053bdddce196c9866fc19bc77f66f37aa83f1b26c9",
    "example2_triangular_triple": "9378cb33d5c71bdf013ae574413ef455d08df97bb80fb1d8371059bdd0199067",
    "example4_first_quadruple": "f8a13e154d25dd8f4180c8838d3badc25bb2aa0757d852537074350596c6c6c4",
    "example4_second_quadruple": "4d2365edb76df67b5e4b1c16ef7c95221f9d1f1b3686cde012c1ce652170105c",
    "example5_component_a": "77bb7844281dba640c77e2b22014fcf83a0f71b3785638063dc261f3882bedd4",
    "example5_component_b": "77bb7844281dba640c77e2b22014fcf83a0f71b3785638063dc261f3882bedd4",
    "example5_direct_sum_pair": "4ba5b4b09e2faf6f829e897010119fbf62a4779d1ea865b73d5709406e1fe97a",
}

# analyze -i <file> --trace --explore-choices, with and without --json
ANALYZE_SHA256 = {
    "example1": "a70988c379e46a86214ccc4237dd5884830c37757b6411037c5256a3cb878efc",
    "example2": "b4402adbb90ed5ebb78736d66bc0af05e00a4123875f512fa00fc6906fd0bcec",
    "example3": "54822d5d3afee32483d2a8d3dbb34bb75a599ae26b89311aa86b91cc4abf0e28",
    "example4": "79fab0095890f1a879a98328cf02686f0e0eb9791e131134f7166c059b0427ed",
    "example5": "4ad60f3ac5ec1e5bb03a0522beb3d44846471afca6e785db3ac1f0a112bffedc",
}

ANALYZE_TEXT_SHA256 = {
    "example1": "5ff511f6311ea718b82680df4b79241c9b81ede3222dae1fe39b6c9dcb618623",
    "example2": "bd25934db6928c15c4a5d8234551cb56f62a80dd9ebc1f324a9d89f947a96fae",
    "example3": "91b43f43601402ab97de55fc0dbafb55a25a0aae61195c86adf49183904580e5",
    "example4": "6d530c802b952ea987317589497141de23b2903bc0384199543126e3986e0a03",
    "example5": "28e6d93b1adc1591e86176e6c2e3a5a48cb47dcc26f09e23650a19c9fe649a7a",
}


def stdout_sha256(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def shipped(kind: str) -> set[str]:
    return {path.name.removesuffix(f".{kind}.json") for path in FIXTURES.glob(f"*.{kind}.json")}


def test_golden_set_is_every_shipped_verify_file():
    assert shipped("verify") == set(VERIFY_SHA256) == set(VERIFY_TEXT_SHA256)


def test_golden_set_is_every_shipped_analyze_file():
    assert shipped("analyze") == set(ANALYZE_SHA256) == set(ANALYZE_TEXT_SHA256)


def test_corpus_json_is_golden(capsys):
    assert stdout_sha256(capsys, "corpus", "--json") == CORPUS_SHA256


def test_corpus_text_is_golden(capsys):
    assert stdout_sha256(capsys, "corpus") == CORPUS_TEXT_SHA256


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_json_is_golden(capsys, name):
    path = FIXTURES / f"{name}.verify.json"
    assert stdout_sha256(capsys, "verify", "-i", str(path), "--json") == VERIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(VERIFY_TEXT_SHA256))
def test_verify_text_is_golden(capsys, name):
    path = FIXTURES / f"{name}.verify.json"
    assert stdout_sha256(capsys, "verify", "-i", str(path)) == VERIFY_TEXT_SHA256[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_json_is_golden(capsys, name):
    path = FIXTURES / f"{name}.analyze.json"
    argv = ("analyze", "-i", str(path), "--trace", "--explore-choices")
    assert stdout_sha256(capsys, *argv, "--json") == ANALYZE_SHA256[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT_SHA256))
def test_analyze_text_is_golden(capsys, name):
    path = FIXTURES / f"{name}.analyze.json"
    argv = ("analyze", "-i", str(path), "--trace", "--explore-choices")
    assert stdout_sha256(capsys, *argv) == ANALYZE_TEXT_SHA256[name]
