import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deligne_simpson import reduction as rd
from deligne_simpson.jnf import Jnf, Partition
from deligne_simpson.reduction import JnfTuple

from conftest import random_jnf_tuple
from oracles import star_root_kind

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def j_star() -> JnfTuple:
    d = Jnf.diagonal([2, 2])
    return JnfTuple([d, d, d, Jnf([("e1", [2, 1, 1])])])


def j_star_diag() -> JnfTuple:
    d = Jnf.diagonal([2, 2])
    return JnfTuple([d, d, d, Jnf.diagonal([3, 1])])


def zero_index_22() -> JnfTuple:
    return JnfTuple([Jnf.diagonal([1, 1])] * 4)


def test_check_alpha_examples():
    assert rd.check_alpha(j_star())  # 30 >= 30
    assert rd.check_alpha(zero_index_22())  # 8 >= 6
    assert not rd.check_alpha(JnfTuple([Jnf.diagonal([1, 1])] * 2))  # 4 < 6


def test_check_beta_examples():
    assert rd.check_beta(j_star())
    assert not rd.check_beta(JnfTuple([Jnf.diagonal([1, 1])] * 2))  # pairs never pass for n > 1
    scalars = JnfTuple([Jnf([("s", [1, 1])])] * 3)
    assert not rd.check_beta(scalars)


def test_check_omega_examples():
    assert not rd.check_omega(j_star())  # 7 < 8
    assert rd.check_omega(zero_index_22())  # 4 >= 4
    assert not rd.check_omega(JnfTuple([Jnf([("s", [1, 1])])] * 3))


def test_kappa_examples():
    assert rd.kappa(j_star()) == 2
    assert rd.kappa(zero_index_22()) == 0
    assert rd.kappa(JnfTuple([Jnf.diagonal([2, 1, 1])] * 3)) == 2  # three size-4 classes, d = 10 each


def test_expected_dim_examples():
    assert rd.expected_dim(j_star()) == 15
    assert rd.expected_dim(JnfTuple([Jnf.diagonal([2, 1])] * 4)) == 8
    assert rd.expected_dim(JnfTuple([Jnf.diagonal([2, 2])] * 4)) == 17


def test_classify_rigidity():
    assert rd.classify_rigidity(j_star()) == "rigid"
    assert rd.classify_rigidity(zero_index_22()) == "zero_index"
    assert rd.classify_rigidity(JnfTuple([Jnf.diagonal([2, 1])] * 4)) == "rigid"
    five = JnfTuple([Jnf.diagonal([1, 1])] * 5)
    assert rd.kappa(five) == -2 and rd.classify_rigidity(five) == "negative_index"
    two = JnfTuple([Jnf.diagonal([1, 1])] * 2)
    assert rd.kappa(two) == 4 and rd.classify_rigidity(two) == "other"


def test_reduce_step_hand_trace():
    mid = rd.reduce_step(j_star())
    assert mid.n == 3
    for j in mid.jnfs[:3]:
        assert j.multiplicities() == (2, 1)
    assert mid.jnfs[3].blocks_by_eigenvalue[0][1] == Partition([2, 1])
    # the size-3 tuple shrinks again with n2 = 4 - 3 = 1
    assert sum(mid.min_ranks()) - mid.n == 1
    final = rd.reduce_step(mid)
    assert final.n == 1

    mid2 = rd.reduce_step(j_star_diag())
    assert mid2.jnfs[3].multiplicities() == (2, 1)


def test_reduce_step_preconditions_and_choices():
    with pytest.raises(rd.PreconditionViolatedError, match="omega holds"):
        rd.reduce_step(zero_index_22())
    with pytest.raises(rd.PreconditionViolatedError, match="beta fails"):
        rd.reduce_step(JnfTuple([Jnf.diagonal([1, 1])] * 2))
    with pytest.raises(rd.PreconditionViolatedError, match="size reached 1"):
        rd.reduce_step(JnfTuple([Jnf.diagonal([1])] * 3))
    t = j_star()
    with pytest.raises(rd.InvalidChoiceError):
        rd.reduce_step(t, ["e1", "e1", "e1", "nope"])
    with pytest.raises(rd.InvalidChoiceError):
        rd.reduce_step(t, ["e1"])
    alt = rd.reduce_step(t, ["e2", "e1", "e2", "e1"])
    assert alt.n == 3


def test_solvable_chains():
    tr = rd.solvable_generic(j_star())
    assert tr.verdict.solvable and tr.sizes() == (4, 3, 1)
    tr2 = rd.solvable_generic(j_star_diag())
    assert tr2.verdict.solvable and tr2.sizes() == (4, 3, 1)
    assert rd.solvable_generic(zero_index_22()).verdict.solvable  # omega immediately


def test_pairs_never_solvable():
    for n in (2, 3, 4):
        t = JnfTuple([Jnf.diagonal([1] * n), Jnf.diagonal([1] * n)])
        verdict = rd.solvable_generic(t).verdict
        assert not verdict.solvable and "beta" in verdict.reason


def test_kappa_invariant_along_traces():
    for t in (j_star(), j_star_diag()):
        for trace in rd.explore_all_traces(t):
            assert {rd.kappa(step.tuple) for step in trace.steps} == {rd.kappa(t)}


def test_choice_independence_exhaustive():
    for t in (j_star(), j_star_diag()):
        traces = rd.explore_all_traces(t)
        assert len(traces) >= 8
        assert len({trc.verdict.solvable for trc in traces}) == 1
        assert {trc.sizes() for trc in traces} == {(4, 3, 1)}


def test_kappa_invariance_randomized():
    rng = random.Random(1234)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 6)
        t = random_jnf_tuple(rng, n, rng.randint(2, 4))
        if not rd.check_beta(t) or rd.check_omega(t):
            continue
        nxt = rd.reduce_step(t)
        assert nxt.n < t.n
        assert rd.kappa(nxt) == rd.kappa(t)
        for j, r in zip(nxt.jnfs, nxt.min_ranks()):
            assert 0 <= r < nxt.n
            from deligne_simpson.jnf import class_dim

            assert class_dim(j) % 2 == 0
        checked += 1


def test_random_choice_independence():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 6)
        t = random_jnf_tuple(rng, n, rng.randint(3, 4))
        if not rd.check_beta(t) or rd.check_omega(t):
            continue
        traces = rd.explore_all_traces(t)
        assert len({trc.verdict.solvable for trc in traces}) == 1
        checked += 1


def choice_paths(t: JnfTuple) -> list[tuple]:
    """The eigenvalue choices of every trace, by plain recursion over each
    stage's admissible combinations in sorted order."""
    if t.n == 1 or not rd.check_beta(t) or rd.check_omega(t):
        return [()]
    return [
        (combo,) + rest
        for combo in itertools.product(*rd.admissible_choices(t))
        for rest in choice_paths(rd.reduce_step(t, combo))
    ]


def test_explored_traces_follow_the_choice_tree_and_start_with_solvable_generic():
    rng = random.Random(2024)
    tuples = [j_star(), j_star_diag(), zero_index_22()]
    tuples += [random_jnf_tuple(rng, rng.randint(2, 7), rng.randint(2, 5)) for _ in range(200)]
    for t in tuples:
        traces = rd.explore_all_traces(t)
        assert [tuple(step.chosen for step in trc.steps[:-1]) for trc in traces] == choice_paths(t)
        for trc in traces:
            assert trc.steps[0].tuple == t and trc.steps[-1].chosen is None
            for step, nxt in zip(trc.steps, trc.steps[1:]):
                assert nxt.tuple == rd.reduce_step(step.tuple, step.chosen)
                assert step.n_next == nxt.tuple.n
        assert rd.solvable_generic(t) == traces[0]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.analyze.json")), ids=lambda p: p.name)
def test_reduce_step_raises_exactly_at_the_last_stage_of_every_shipped_trace(path):
    t = JnfTuple.from_json(json.loads(path.read_text(encoding="utf-8"))["jnfs"])
    for trc in rd.explore_all_traces(t):
        for step, nxt in zip(trc.steps, trc.steps[1:]):
            assert rd.reduce_step(step.tuple, step.chosen) == nxt.tuple
        with pytest.raises(rd.PreconditionViolatedError) as raised:
            rd.reduce_step(trc.steps[-1].tuple)
        assert trc.verdict.reason in str(raised.value)


def long_chain(n: int) -> JnfTuple:
    """a: [n], b: [n], and c: [1], d: [1]*(n-1): each step shrinks n by one."""
    return JnfTuple([Jnf([("a", [n])]), Jnf([("b", [n])]), Jnf([("c", [1]), ("d", [1] * (n - 1))])])


def test_a_chain_longer_than_the_recursion_limit_is_walked_without_recursion():
    n = 1100
    assert n > sys.getrecursionlimit()
    t = long_chain(n)
    trace = rd.solvable_generic(t)
    assert trace.sizes() == tuple(range(n, 0, -1))
    assert trace.verdict == rd.Verdict(True, "size reached 1")
    traces = rd.explore_all_traces(t)
    assert len(traces) == 2  # the only choice is c or d at size 2
    assert {trc.verdict.solvable for trc in traces} == {True}
    assert traces[0] == trace


@st.composite
def jnf_tuples(draw) -> JnfTuple:
    """2-5 classes of one size n <= 8; each splits n into eigenvalue
    multiplicities and each multiplicity into Jordan blocks."""

    def partition(total: int) -> list[int]:
        parts = []
        while total:
            parts.append(draw(st.integers(1, total)))
            total -= parts[-1]
        return parts

    n = draw(st.integers(1, 8))
    count = draw(st.integers(2, 5))
    return JnfTuple(Jnf((f"v{i}", partition(m)) for i, m in enumerate(partition(n))) for _ in range(count))


def root_kind(t: JnfTuple) -> str | None:
    return star_root_kind([[(label, list(part.parts)) for label, part in j.blocks_by_eigenvalue] for j in t.jnfs])


@settings(max_examples=500, deadline=None)
@given(jnf_tuples())
def test_solvable_generic_agrees_with_the_root_test(t):
    kind = root_kind(t)
    assert rd.solvable_generic(t).verdict.solvable == (kind is not None)
    # kappa is the Tits form of the dimension vector: 2 on real roots, <= 0 on imaginary ones
    if kind == "real":
        assert rd.kappa(t) == 2
    elif kind == "imaginary":
        assert rd.kappa(t) <= 0


def test_root_test_kinds():
    assert star_root_kind([[("e1", [1])]] * 3) == "real"  # n = 1
    assert root_kind(j_star()) == "real"  # kappa 2
    assert star_root_kind([[("e1", [1]), ("e2", [1])]] * 4) == "imaginary"  # zero_index_22, the affine D4 root
    assert star_root_kind([[("e1", [1]), ("e2", [1])]] * 2) is None  # a pair: beta fails


def test_trace_json_shape():
    payload = rd.solvable_generic(j_star()).to_json()
    assert payload["verdict"]["solvable"] is True
    assert [st["n"] for st in payload["stages"]] == [4, 3, 1]
    for stage in payload["stages"][:-1]:
        assert stage["chosen"] is not None and stage["n_next"] is not None
    assert payload["stages"][-1]["chosen"] is None


def test_jnf_tuple_validation():
    with pytest.raises(ValueError):
        JnfTuple([Jnf.diagonal([2, 2])])
    with pytest.raises(ValueError):
        JnfTuple([Jnf.diagonal([2, 2]), Jnf.diagonal([2, 1])])
