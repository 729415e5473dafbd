"""Partition calculus and Jordan normal form invariants.

A Jordan normal form (JNF) of size n is a finite family of eigenvalue
labels, each carrying a partition of Jordan block sizes; the partitions
together sum to n.  This module computes the classical invariants that
depend only on that combinatorial data:

* ``Partition.dual`` -- the conjugate partition,
* ``centralizer_dim_of_jnf`` -- dimension of the centralizer of any matrix
  realizing the JNF, inside the full matrix algebra,
* ``class_dim`` -- dimension of the conjugacy class (n^2 minus the
  centralizer dimension; always even),
* ``min_rank`` -- the minimum over eigenvalues lam of rank(Y - lam I),
  i.e. n minus the largest number of blocks attached to one eigenvalue,

together with the correspondence that matches a JNF to a diagonal JNF
(via dual partitions) and to the unique single-eigenvalue JNF with the
same diagonal companion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .exact_linalg import integer, json_list, json_object

# The largest size read from input.  A count is expanded before anything
# else looks at it (a multiplicity m into m blocks, a part p into p dual
# parts), so counts are checked against this first; ``analyze`` of two
# classes of size 10**5 takes about half a second.
SIZE_CAP = 10**5


def capped(counts: Iterable) -> list[int]:
    """The counts as integers when their absolute values sum to at most
    ``SIZE_CAP``; ValueError otherwise, before anything is built."""
    values = [integer(c) for c in counts]
    if sum(abs(v) for v in values) > SIZE_CAP:
        raise ValueError(f"counts add up to more than {SIZE_CAP}")
    return values


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Partition:
    """A non-increasing tuple of positive integers; constructors sort."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        data = tuple(sorted((integer(p) for p in parts), reverse=True))
        if not data:
            raise ValueError("partition must be non-empty")
        if data[-1] < 1:
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "parts", data)

    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def dual(self) -> Partition:
        """Conjugate partition, e.g. dual of (4,3,3) is (3,3,3,1): part k is
        the number of parts >= k, found by bisection."""
        ascending = self.parts[::-1]
        return Partition(len(ascending) - bisect_left(ascending, k) for k in range(1, ascending[-1] + 1))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Jnf:
    """A Jordan normal form: distinct eigenvalue labels with block partitions.
    Equality ignores the order of the eigenvalues."""

    blocks_by_eigenvalue: tuple[tuple[str, Partition], ...]
    size: int

    def __init__(self, blocks_by_eigenvalue: Iterable[tuple[str, Partition | Sequence[int]]]):
        entries = []
        for label, blocks in blocks_by_eigenvalue:
            part = blocks if isinstance(blocks, Partition) else Partition(blocks)
            entries.append((str(label), part))
        if not entries:
            raise ValueError("JNF needs at least one eigenvalue")
        labels = [label for label, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate eigenvalue labels: {labels}")
        object.__setattr__(self, "blocks_by_eigenvalue", tuple(entries))
        object.__setattr__(self, "size", sum(p.total() for _, p in entries))

    @classmethod
    def diagonal(cls, multiplicities: Sequence[int]) -> Jnf:
        """Diagonal JNF from eigenvalue multiplicities, labelled e1, e2, ..."""
        mults = sorted((integer(m) for m in multiplicities), reverse=True)
        return cls((f"e{i + 1}", Partition([1] * m)) for i, m in enumerate(mults))

    @classmethod
    def single(cls, blocks: Sequence[int]) -> Jnf:
        """One eigenvalue, labelled e1, with the given Jordan blocks."""
        return cls([("e1", Partition(blocks))])

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.blocks_by_eigenvalue)

    def is_diagonal(self) -> bool:
        return all(all(p == 1 for p in part) for _, part in self.blocks_by_eigenvalue)

    def multiplicities(self) -> tuple[int, ...]:
        """Algebraic multiplicities of the eigenvalues, sorted non-increasing."""
        return tuple(sorted((part.total() for _, part in self.blocks_by_eigenvalue), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jnf):
            return NotImplemented
        return sorted(self.blocks_by_eigenvalue) == sorted(other.blocks_by_eigenvalue)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.blocks_by_eigenvalue)))

    def __repr__(self) -> str:
        body = ", ".join(f"{lab}:{part.parts}" for lab, part in self.blocks_by_eigenvalue)
        return f"Jnf({body})"

    def to_json(self) -> list[dict] | dict:
        generated = tuple(f"e{i + 1}" for i in range(len(self.blocks_by_eigenvalue)))
        if self.is_diagonal() and self.labels() == generated:
            mults = [part.total() for _, part in self.blocks_by_eigenvalue]
            if mults == sorted(mults, reverse=True):
                return {"multiplicities": mults}
        return [
            {"eigenvalue": lab, "blocks": list(part.parts)}
            for lab, part in self.blocks_by_eigenvalue
        ]

    @classmethod
    def from_json(cls, data: Mapping | Sequence[Mapping]) -> Jnf:
        if isinstance(data, Mapping):
            json_object(data, "abbreviated JNF", ("multiplicities",))
            if "multiplicities" not in data:
                raise ValueError("abbreviated JNF needs a 'multiplicities' key")
            return cls.diagonal(capped(json_list(data["multiplicities"], "multiplicities")))
        if not isinstance(data, list):
            raise TypeError(f"a JNF must be a JSON object or list, not {type(data).__name__}")
        data = [json_object(item, "JNF entry", ("eigenvalue", "blocks")) for item in data]
        blocks = [json_list(item["blocks"], "blocks") for item in data]
        capped(b for item in blocks for b in item)
        entries = [(item["eigenvalue"], Partition(b)) for item, b in zip(data, blocks)]
        if not all(isinstance(label, str) for label, _ in entries):
            raise TypeError("eigenvalue labels must be strings")  # not read as "None" or "[1]"
        return cls(entries)


def centralizer_dim_of_jnf(j: Jnf) -> int:
    """dim of the centralizer in gl(n) of any matrix with this JNF.

    For one eigenvalue with block sizes b_1 >= b_2 >= ... the centralizer
    dimension is sum_i (2i - 1) b_i = sum_{i,k} min(b_i, b_k); eigenvalues
    contribute independently.
    """
    total = 0
    for _, part in j.blocks_by_eigenvalue:
        total += sum((2 * i + 1) * b for i, b in enumerate(part.parts))
    return total


def class_dim(j: Jnf) -> int:
    """Dimension of the conjugacy class: size^2 minus the centralizer dim."""
    return j.size**2 - centralizer_dim_of_jnf(j)


def min_rank(j: Jnf) -> int:
    """min over eigenvalues lam of rank(Y - lam I) = n - max block count."""
    return j.size - max(len(part) for _, part in j.blocks_by_eigenvalue)


def corresponding_diagonal(j: Jnf) -> Jnf:
    """Diagonal JNF whose multiplicities are the disjoint union of the duals
    of j's block partitions, with fresh labels e1, e2, ... in multiplicity order."""
    mults: list[int] = []
    for _, part in j.blocks_by_eigenvalue:
        mults.extend(part.dual().parts)
    return Jnf.diagonal(mults)


def corresponding_single_eigenvalue(j: Jnf) -> Jnf:
    """The unique single-eigenvalue JNF with the same corresponding diagonal:
    its blocks are the dual of the diagonal multiplicity partition."""
    diag = corresponding_diagonal(j)
    blocks = Partition(diag.multiplicities()).dual()
    return Jnf.single(blocks.parts)


def corresponds(a: Jnf, b: Jnf) -> bool:
    """True iff a and b correspond to one and the same diagonal JNF."""
    return corresponding_diagonal(a).multiplicities() == corresponding_diagonal(b).multiplicities()
