"""Golden outputs: the sha256 of ``corpus --json`` and of ``verify --json``
on every shipped verify file.  A change that is meant to keep every output
byte the same (a faster route to the same numbers, a refactor) must keep
these digests; a change that means to alter an output updates them and
says why."""

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


def stdout_sha256(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_golden_set_is_every_shipped_verify_file():
    shipped = {path.name.removesuffix(".verify.json") for path in FIXTURES.glob("*.verify.json")}
    assert shipped == set(VERIFY_SHA256)


def test_corpus_json_is_golden(capsys):
    assert stdout_sha256(capsys, "corpus", "--json") == CORPUS_SHA256


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_json_is_golden(capsys, name):
    path = FIXTURES / f"{name}.verify.json"
    assert stdout_sha256(capsys, "verify", "-i", str(path), "--json") == VERIFY_SHA256[name]
