import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from deligne_simpson import exact_linalg as xl
from deligne_simpson.jnf import (
    Jnf,
    Partition,
    centralizer_dim_of_jnf,
    class_dim,
    corresponding_diagonal,
    corresponding_single_eigenvalue,
    corresponds,
    min_rank,
)
from deligne_simpson.tuple_lab import jordan_realization

from conftest import random_jnf


def test_dual_examples():
    assert Partition([4, 3, 3]).dual() == Partition([3, 3, 3, 1])
    assert Partition([3, 2]).dual() == Partition([2, 2, 1])
    assert Partition([1]).dual() == Partition([1])


def test_partition_sorts_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_centralizer_dim_examples():
    assert centralizer_dim_of_jnf(Jnf.diagonal([2, 2])) == 8  # 2^2 + 2^2
    assert centralizer_dim_of_jnf(Jnf([("m", [2, 1, 1])])) == 10  # 1*2 + 3*1 + 5*1
    assert centralizer_dim_of_jnf(Jnf([("s", [1] * 5)])) == 25  # scalar 5x5


def test_class_dim_examples():
    assert class_dim(Jnf.diagonal([2, 2])) == 8
    assert class_dim(Jnf([("m", [2, 1, 1])])) == 6
    # diagonal with eigenvalue multiplicities (2,1), size 3: 9 - (1 + 4)
    assert class_dim(Jnf.diagonal([2, 1])) == 4


def test_min_rank_examples():
    assert min_rank(Jnf.diagonal([2, 2])) == 2
    assert min_rank(Jnf([("m", [2, 1, 1])])) == 1
    assert min_rank(Jnf([("s", [1] * 4)])) == 0  # scalar


def test_corresponding_diagonal_examples():
    j = Jnf([("a", [4, 3, 3]), ("b", [3, 2])])
    assert corresponding_diagonal(j).multiplicities() == (3, 3, 3, 2, 2, 1, 1)
    d = Jnf.diagonal([3, 1])
    assert corresponding_diagonal(d).multiplicities() == d.multiplicities()
    assert corresponding_diagonal(Jnf([("m", [2, 1, 1])])).multiplicities() == (3, 1)


def test_corresponding_single_eigenvalue_examples():
    j = Jnf([("a", [4, 3, 3]), ("b", [3, 2])])
    single = corresponding_single_eigenvalue(j)
    assert single.blocks_by_eigenvalue[0][1] == Partition([7, 5, 3])
    assert Partition([5]).dual() == Partition([1, 1, 1, 1, 1])
    assert corresponding_single_eigenvalue(Jnf.diagonal([3, 1])).blocks_by_eigenvalue[0][1] == Partition([2, 1, 1])


def test_corresponds_examples():
    j_star_4 = Jnf([("m", [2, 1, 1])])
    j_star2_4 = Jnf.diagonal([3, 1])
    assert corresponds(j_star_4, j_star2_4)
    assert corresponds(j_star_4, j_star_4)
    assert not corresponds(Jnf.diagonal([2, 2]), Jnf.diagonal([3, 1]))


def test_jnf_json_roundtrip():
    j = Jnf([("a", [2, 1]), ("b", [1])])
    assert Jnf.from_json(j.to_json()) == j
    d = Jnf.diagonal([3, 2, 1])
    assert d.to_json() == {"multiplicities": [3, 2, 1]}
    assert Jnf.from_json(d.to_json()) == d
    labeled = Jnf([("x", [1, 1]), ("y", [1])])
    assert isinstance(labeled.to_json(), list)  # custom labels are not abbreviated
    assert Jnf.from_json(labeled.to_json()) == labeled


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Jnf([("a", [1]), ("a", [1])])


partitions = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(Partition)


@given(partitions)
def test_dual_is_involution(p):
    assert p.dual().parts == tuple(sum(1 for x in p if x >= k) for k in range(1, p.parts[0] + 1))
    assert p.dual().dual() == p
    assert p.dual().total() == p.total()


def test_invariants_under_correspondence_bulk():
    rng = random.Random(20240)
    for _ in range(2000):
        j = random_jnf(rng, rng.randint(1, 12))
        diag = corresponding_diagonal(j)
        single = corresponding_single_eigenvalue(j)
        assert min_rank(j) == min_rank(diag) == min_rank(single)
        assert class_dim(j) == class_dim(diag) == class_dim(single)
        assert class_dim(j) % 2 == 0
        assert corresponds(j, diag) and corresponds(j, single)


def test_centralizer_dim_matches_nullspace_oracle():
    # realize random JNFs with distinct rational eigenvalues and compare the
    # combinatorial formula with the kernel of the commutator map
    rng = random.Random(99)
    for _ in range(50):
        j = random_jnf(rng, rng.randint(1, 5))
        values = {}
        pool = sorted({F(k, d) for k in range(-9, 10) for d in (1, 2)})
        rng.shuffle(pool)
        for label, _ in j.blocks_by_eigenvalue:
            values[label] = pool.pop()
        m = jordan_realization(j, values)
        assert centralizer_dim_of_jnf(j) == xl.nullity(xl.vectorize_commutator_map(m))
