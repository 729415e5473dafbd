"""The solvability decision algorithm for tuples of Jordan normal forms.

Given a (p+1)-tuple of JNFs of common size n, write r_j and d_j for the
``min_rank`` and ``class_dim`` invariants of class j.  Three conditions
drive everything:

* alpha:  sum d_j >= 2 n^2 - 2            (necessary for irreducible tuples)
* beta:   for every j, sum of the other r's >= n   (ditto)
* omega:  sum r_j >= 2 n

While beta holds, omega fails and n > 1, the tuple can be shrunk: set
n1 = sum r_j - n; in each class pick an eigenvalue with the maximal block
count n - r_j and decrement its n - n1 smallest blocks by one (dropping
empty blocks).  The result is a tuple of size n1, and the index of
rigidity kappa = 2 n^2 - sum d_j is invariant under the step.
``classify_rigidity`` names the case of kappa as a plain string ("rigid",
"zero_index", "negative_index" or "other"), the form its readers print.

For conjugacy classes with generic eigenvalues, the problem of finding an
irreducible tuple with product I (or sum 0) is solvable exactly when this
shrinking process, iterated while defined, stops at size 1 or at a tuple
satisfying omega.  ``solvable_generic`` runs that iteration and returns
the full trace; beta is checked before omega at every stage, and a beta
failure is a hard "not solvable" answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .jnf import Jnf, Partition, class_dim, min_rank


class PreconditionViolatedError(Exception):
    pass


class InvalidChoiceError(Exception):
    pass


@dataclass(frozen=True, slots=True, init=False, repr=False)
class JnfTuple:
    """A (p+1)-tuple of JNFs of one common size."""

    jnfs: tuple[Jnf, ...]
    n: int

    def __init__(self, jnfs: Iterable[Jnf]):
        items = tuple(jnfs)
        if len(items) < 2:
            raise ValueError("need at least two classes")
        n = items[0].size
        if any(j.size != n for j in items):
            raise ValueError(f"all JNFs must have size {n}")
        object.__setattr__(self, "jnfs", items)
        object.__setattr__(self, "n", n)

    def __repr__(self) -> str:
        return f"JnfTuple(n={self.n}, {list(self.jnfs)!r})"

    def min_ranks(self) -> tuple[int, ...]:
        return tuple(min_rank(j) for j in self.jnfs)

    def class_dims(self) -> tuple[int, ...]:
        return tuple(class_dim(j) for j in self.jnfs)

    def to_json(self) -> list:
        return [j.to_json() for j in self.jnfs]

    @classmethod
    def from_json(cls, data: Sequence) -> JnfTuple:
        return cls(Jnf.from_json(item) for item in data)


def check_alpha(t: JnfTuple) -> bool:
    return sum(t.class_dims()) >= 2 * t.n**2 - 2


def check_beta(t: JnfTuple) -> bool:
    ranks = t.min_ranks()
    total = sum(ranks)
    return all(total - r >= t.n for r in ranks)


def check_omega(t: JnfTuple) -> bool:
    return sum(t.min_ranks()) >= 2 * t.n


def kappa(t: JnfTuple) -> int:
    """Index of rigidity: 2 n^2 - sum of the class dimensions."""
    return 2 * t.n**2 - sum(t.class_dims())


def expected_dim(t: JnfTuple) -> int:
    """sum d_j - n^2 + 1: the dimension of the solution variety at points
    with trivial centralizer."""
    return sum(t.class_dims()) - t.n**2 + 1


def classify_rigidity(t: JnfTuple) -> str:
    """The case of kappa, by the name the CLI and the corpus print: "rigid"
    (kappa 2), "zero_index" (kappa 0), "negative_index" (even kappa < 0) or
    "other"."""
    k = kappa(t)
    if k == 2:
        return "rigid"
    if k == 0:
        return "zero_index"
    if k < 0 and k % 2 == 0:
        return "negative_index"
    return "other"


def admissible_choices(t: JnfTuple) -> tuple[tuple[str, ...], ...]:
    """Per class, the labels whose block count is maximal (= n - r_j),
    in canonical (sorted) label order."""
    out = []
    for j in t.jnfs:
        best = max(len(part) for _, part in j.blocks_by_eigenvalue)
        out.append(tuple(sorted(lab for lab, part in j.blocks_by_eigenvalue if len(part) == best)))
    return tuple(out)


def reduce_step(t: JnfTuple, choices: Sequence[str] | None = None) -> JnfTuple:
    """One shrinking step.  In each class the chosen eigenvalue (default:
    first admissible label in sorted order) loses 1 from each of its
    n - n1 smallest blocks; blocks reaching 0 are dropped.  Raises
    PreconditionViolatedError where the iteration stops: at size 1, when
    beta fails, or when omega holds."""
    stop = _terminal_verdict(t)
    if stop is not None:
        raise PreconditionViolatedError(f"the step is not defined: {stop.reason}")
    n1 = sum(t.min_ranks()) - t.n
    admissible = admissible_choices(t)
    if choices is None:
        choices = tuple(labels[0] for labels in admissible)
    else:
        choices = tuple(choices)
        if len(choices) != len(t.jnfs):
            raise InvalidChoiceError("need one eigenvalue choice per class")
        for label, labels in zip(choices, admissible):
            if label not in labels:
                raise InvalidChoiceError(f"label {label!r} does not have maximal block count")
    drop = t.n - n1
    new_jnfs = []
    for j, label in zip(t.jnfs, choices):
        entries = []
        for lab, part in j.blocks_by_eigenvalue:
            if lab != label:
                entries.append((lab, part))
                continue
            blocks = list(part.parts)
            # ties among equal smallest blocks: decrement the trailing ones
            # of the descending-sorted sequence (the multiset result is the
            # same for any choice of equally-sized blocks)
            for i in range(len(blocks) - drop, len(blocks)):
                blocks[i] -= 1
            blocks = [b for b in blocks if b > 0]
            if blocks:
                entries.append((lab, Partition(blocks)))
        new_jnfs.append(Jnf(entries))
    return JnfTuple(new_jnfs)


@dataclass(frozen=True)
class TraceStep:
    tuple: JnfTuple
    chosen: tuple[str, ...] | None  # None on the terminal stage
    n_next: int | None

    def to_json(self) -> dict:
        t = self.tuple
        return {
            "n": t.n,
            "classes": t.to_json(),
            "r": list(t.min_ranks()),
            "d": list(t.class_dims()),
            "kappa": kappa(t),
            "alpha": check_alpha(t),
            "beta": check_beta(t),
            "omega": check_omega(t),
            "chosen": None if self.chosen is None else list(self.chosen),
            "n_next": self.n_next,
        }


@dataclass(frozen=True)
class Verdict:
    solvable: bool
    reason: str

    def to_json(self) -> dict:
        return {"solvable": self.solvable, "reason": self.reason}


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]
    verdict: Verdict

    def sizes(self) -> tuple[int, ...]:
        return tuple(step.tuple.n for step in self.steps)

    def to_json(self) -> dict:
        return {"stages": [s.to_json() for s in self.steps], "verdict": self.verdict.to_json()}


def _terminal_verdict(t: JnfTuple) -> Verdict | None:
    if t.n == 1:
        return Verdict(True, "size reached 1")
    if not check_beta(t):
        return Verdict(False, f"beta fails at size {t.n}")
    if check_omega(t):
        return Verdict(True, f"omega holds at size {t.n}")
    return None


def _traces(t: JnfTuple) -> Iterator[ReductionTrace]:
    """Every trace, depth first over the admissible choice combinations of
    each stage in sorted order, so the first is the all-first-choice trace.
    Lazy: a stage is reduced only when the walk reaches it.  An explicit
    stack rather than recursion, so a long chain cannot overflow."""
    steps: list[TraceStep] = []  # the stages above ``current``, with their choices
    pending: list[Iterator[tuple[str, ...]]] = []  # per stage in steps, the untried combinations
    current = t
    while True:
        verdict = _terminal_verdict(current)
        if verdict is None:
            pending.append(itertools.product(*admissible_choices(current)))
            combo = next(pending[-1])
        else:
            yield ReductionTrace(tuple(steps) + (TraceStep(current, None, None),), verdict)
            while pending:  # back up to the deepest stage with a choice left
                current = steps.pop().tuple
                combo = next(pending[-1], None)
                if combo is not None:
                    break
                pending.pop()
            else:
                return
        nxt = reduce_step(current, combo)
        steps.append(TraceStep(current, combo, nxt.n))
        current = nxt


def solvable_generic(t: JnfTuple) -> ReductionTrace:
    """Iterate the shrinking step, with the first admissible eigenvalue in
    each class, until a terminal condition; report the verdict with every
    intermediate tuple."""
    return next(_traces(t))


def explore_all_traces(t: JnfTuple) -> list[ReductionTrace]:
    """Every trace over all admissible eigenvalue choices at every step,
    for checking that the verdict does not depend on the choices."""
    return list(_traces(t))
