"""Shared random generators for seeded property loops, and the
hypothesis profile for CI."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import settings

from deligne_simpson.exact_linalg import RatMatrix
from deligne_simpson.jnf import Jnf, Partition
from deligne_simpson.reduction import JnfTuple
from deligne_simpson.tuple_lab import MatrixTuple

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a
# property test cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)


def random_partition(rng: random.Random, total: int) -> Partition:
    parts = []
    remaining = total
    while remaining:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return Partition(parts)


def random_jnf(rng: random.Random, size: int) -> Jnf:
    entries = []
    remaining = size
    label = 0
    while remaining:
        chunk = rng.randint(1, remaining)
        entries.append((f"v{label}", random_partition(rng, chunk)))
        remaining -= chunk
        label += 1
    return Jnf(entries)


def random_jnf_tuple(rng: random.Random, n: int, count: int) -> JnfTuple:
    return JnfTuple(random_jnf(rng, n) for _ in range(count))


def random_matrix(rng: random.Random, n: int, span: int = 3) -> RatMatrix:
    return RatMatrix(n, n, [Fraction(rng.randint(-span, span)) for _ in range(n * n)])


def random_invertible(rng: random.Random, n: int) -> RatMatrix:
    from deligne_simpson.exact_linalg import rank

    while True:
        m = random_matrix(rng, n)
        if rank(m) == n:
            return m


def random_additive_tuple(rng: random.Random, n: int, count: int) -> MatrixTuple:
    mats = [random_matrix(rng, n) for _ in range(count)]
    return MatrixTuple("additive", mats, [[0] * n for _ in range(count)])


def unimodular(rng: random.Random, n: int) -> RatMatrix:
    """L U with unit triangular factors, entries of both in {-1, 0, 1}: an
    integer matrix whose inverse is one too."""
    lower = [[int(i == j) if i <= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if i >= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows(lower) @ RatMatrix.from_rows(upper)
