"""Exact symbolic eigenvalues and the genericity classifier.

Eigenvalues are modeled as formal scalars over user-declared symbols:

* multiplicative mode: a scalar is prod(symbol ** coefficient) times
  exp(2 pi i * phase) with rational coefficients and a rational phase in
  [0, 1); combining scalars adds exponent vectors and adds phases mod 1;
* additive mode: a scalar is sum(coefficient * symbol) + constant, and
  combining is the plain linear combination.

A spectrum assignment lists, for each of the p+1 conjugacy classes, its
distinct eigenvalue scalars with multiplicities summing to n.  Building it
checks that all its scalars share one mode; ``combine`` takes that mode
from the caller and does not check it again.  On top of this the module
decides, exactly:

* the global condition -- product of all eigenvalues equal to 1, or sum
  equal to 0, with multiplicities;
* all vanishing relations: choices of equal-size (< n) sub-multisets, one
  per class, whose combined scalar is the identity.  The search runs on
  integers: each distinct scalar is its coefficients over the symbols and
  its offset, all times one common denominator D, and a choice vanishes
  when its summed tuple is 0 (a multiplicative offset only 0 mod D).  It
  meets in the middle, hashing the first half of the classes' choices
  and looking up the other half's, and forms no scalar per combination.
  Given a budget, it meters its own work in parts (one class's
  sub-multiset each): every class's options over all sizes, charged
  before any is built; each size's two half products, charged before
  they are formed; and each witness, charged as it is found.  Any one
  charge past the budget raises BudgetExceeded;
* the basic relation obtained from q = gcd of all multiplicities, and its
  repetition corollaries;
* the verdicts generic / relatively generic / non-generic.  A spectrum is
  relatively generic when every relation is proportional: it takes size/n
  of every multiplicity, which makes it a repetition of the basic relation.

The caller declares multiplicative relations between inputs by encoding
them in the exponent vectors (e.g. 1/3 is exponent -1 on symbol "3");
the module never invents relations between distinct symbols.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact_linalg import integer, json_list, json_object, rat, rational_to_str

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


class MixedModesError(Exception):
    pass


class GlobalConditionViolatedError(Exception):
    pass


def _as_terms(mapping: Mapping[str, int | str | Fraction] | None) -> tuple[tuple[str, Fraction], ...]:
    if mapping is None:
        return ()
    json_object(mapping, "exponents or coefficients")
    items = []
    for sym, coeff in mapping.items():
        c = rat(coeff)
        if c != 0:
            items.append((str(sym), c))
    return tuple(sorted(items))


@dataclass(frozen=True)
class FormalScalar:
    """One exact eigenvalue: exponent/coefficient vector plus phase/constant."""

    mode: str
    terms: tuple[tuple[str, Fraction], ...]
    offset: Fraction

    @classmethod
    def multiplicative(
        cls, exponents: Mapping[str, int | str | Fraction] | None = None, phase: int | str | Fraction = 0
    ) -> FormalScalar:
        return cls(MULTIPLICATIVE, _as_terms(exponents), rat(phase) % 1)

    @classmethod
    def additive(
        cls, coefficients: Mapping[str, int | str | Fraction] | None = None, constant: int | str | Fraction = 0
    ) -> FormalScalar:
        return cls(ADDITIVE, _as_terms(coefficients), rat(constant))

    def is_identity(self) -> bool:
        return not self.terms and self.offset == 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.terms)

    def key(self):
        return (
            tuple((sym, c.numerator, c.denominator) for sym, c in self.terms),
            self.offset.numerator,
            self.offset.denominator,
        )

    def __repr__(self) -> str:
        body = " ".join(f"{sym}^{c}" for sym, c in self.terms) or ("1" if self.mode == MULTIPLICATIVE else "0")
        extra = f" phase={self.offset}" if self.mode == MULTIPLICATIVE else f" + {self.offset}"
        return f"<{self.mode[:4]} {body}{extra}>"

    def to_json(self) -> dict:
        coeffs = {sym: rational_to_str(c) for sym, c in self.terms}
        if self.mode == MULTIPLICATIVE:
            return {"exponents": coeffs, "phase": rational_to_str(self.offset)}
        return {"coefficients": coeffs, "constant": rational_to_str(self.offset)}

    @classmethod
    def from_json(cls, data: Mapping, mode: str) -> FormalScalar:
        if mode == MULTIPLICATIVE:
            keys, build = ("exponents", "phase"), cls.multiplicative
        elif mode == ADDITIVE:
            keys, build = ("coefficients", "constant"), cls.additive
        else:
            raise ValueError(f"unknown mode {mode!r}")
        json_object(data, f"a {mode} scalar", keys)
        return build(data.get(keys[0]), data.get(keys[1], 0))


def combine(pairs: Iterable[tuple[FormalScalar, int | Fraction]], mode: str) -> FormalScalar:
    """Weighted combination in the given mode, which every scalar shares:
    multiplicative prod(s_i ** w_i), additive sum(w_i s_i)."""
    totals: dict[str, Fraction] = {}
    offset = Fraction(0)
    for scalar, weight in pairs:
        for sym, c in scalar.terms:
            totals[sym] = totals.get(sym, 0) + c * weight
        offset += scalar.offset * weight
    if mode == MULTIPLICATIVE:
        offset %= 1
    return FormalScalar(mode, tuple(sorted((sym, c) for sym, c in totals.items() if c)), offset)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class SpectrumAssignment:
    """Per conjugacy class, the distinct eigenvalues with multiplicities."""

    classes: tuple[tuple[tuple[FormalScalar, int], ...], ...]
    n: int

    def __init__(self, classes: Sequence[Sequence[tuple[FormalScalar, int]]], n: int | None = None):
        norm = []
        mode = None
        for cls_ in classes:
            entries = tuple((scalar, integer(mult)) for scalar, mult in cls_)
            if not entries:
                raise ValueError("empty eigenvalue class")
            for scalar, mult in entries:
                if mode is None:
                    mode = scalar.mode
                elif scalar.mode != mode:
                    raise MixedModesError("all scalars must share one mode")
                if mult < 1:
                    raise ValueError("multiplicities must be positive")
            if len({s.key() for s, _ in entries}) != len(entries):
                raise ValueError("eigenvalues within a class must be distinct")
            norm.append(tuple(sorted(entries, key=lambda e: e[0].key())))
        if not norm:
            raise ValueError("need at least one class")
        sums = [sum(m for _, m in cls_) for cls_ in norm]
        n = sums[0] if n is None else integer(n)
        if any(s != n for s in sums):
            raise ValueError(f"class multiplicities must each sum to n={n}, got {sums}")
        object.__setattr__(self, "classes", tuple(norm))
        object.__setattr__(self, "n", n)

    @property
    def mode(self) -> str:
        return self.classes[0][0][0].mode

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for cls_ in self.classes for _, m in cls_)

    def symbols(self) -> tuple[str, ...]:
        syms = {sym for cls_ in self.classes for scalar, _ in cls_ for sym in scalar.symbols()}
        return tuple(sorted(syms))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "symbols": list(self.symbols()),
            "classes": [
                [{"scalar": scalar.to_json(), "mult": mult} for scalar, mult in cls_]
                for cls_ in self.classes
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> SpectrumAssignment:
        json_object(data, "spectrum", ("mode", "symbols", "classes", "n"))
        mode = data.get("mode", MULTIPLICATIVE)
        declared = None
        if "symbols" in data:
            declared = json_list(data["symbols"], "symbols")
            if not all(isinstance(sym, str) for sym in declared):
                raise TypeError("symbols must be strings")
            declared = set(declared)
        classes = []
        for cls_data in json_list(data["classes"], "classes"):
            entries = []
            for item in json_list(cls_data, "class"):
                json_object(item, "class entry", ("scalar", "mult"))
                scalar = FormalScalar.from_json(item["scalar"], mode)
                if declared is not None and not set(scalar.symbols()) <= declared:
                    raise ValueError(f"undeclared symbols in {scalar!r}")
                entries.append((scalar, item["mult"]))
            classes.append(entries)
        return cls(classes, data.get("n"))


@dataclass(frozen=True)
class RelationWitness:
    """A vanishing relation: one sub-multiset of eigenvalues per class,
    all of the same size, whose combined scalar is the identity."""

    size: int
    parts: tuple[tuple[tuple[FormalScalar, int], ...], ...]

    def key(self):
        return (self.size, tuple(tuple((s.key(), c) for s, c in part) for part in self.parts))

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "classes": [
                [{"scalar": s.to_json(), "count": c} for s, c in part] for part in self.parts
            ],
        }


@dataclass(frozen=True)
class BasicRelation:
    """Data from the gcd-of-multiplicities construction.

    q is the gcd of all multiplicities.  In multiplicative mode the product
    of all eigenvalues with multiplicities divided by q is a root of unity
    exp(2 pi i l / q), recorded via root_phase = l/q, and m = gcd(l, q); the
    relation (multiplicities divided by m) exists iff m > 1.  In additive
    mode the q-divided sum is the global sum over q, which is 0, so m = q.
    """

    q: int
    m: int
    root_phase: Fraction | None
    relation: RelationWitness | None

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "root_phase": None if self.root_phase is None else rational_to_str(self.root_phase),
            "relation": None if self.relation is None else self.relation.to_json(),
        }


@dataclass(frozen=True)
class GenericityReport:
    verdict: str  # "generic" | "relatively_generic" | "non_generic"
    witnesses: tuple[RelationWitness, ...]
    basic: BasicRelation | None
    offenders: tuple[RelationWitness, ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "basic": None if self.basic is None else self.basic.to_json(),
            "offenders": [w.to_json() for w in self.offenders],
        }


GENERIC = "generic"
RELATIVELY_GENERIC = "relatively_generic"
NON_GENERIC = "non_generic"


def global_condition(s: SpectrumAssignment) -> bool:
    """Product of all eigenvalues equal 1 / sum equal 0, with multiplicities."""
    total = combine(((scalar, mult) for cls_ in s.classes for scalar, mult in cls_), s.mode)
    return total.is_identity()


def _count_vectors(mults: Sequence[int], size: int):
    """All ways to pick a sub-multiset of the given size, as count vectors in
    lexicographic order; no branch is entered that cannot reach the size."""
    if not mults:
        if size == 0:
            yield ()
        return
    rest = sum(mults[1:])
    for c in range(max(0, size - rest), min(mults[0], size) + 1):
        for tail in _count_vectors(mults[1:], size - c):
            yield (c, *tail)


def _integer_form(s: SpectrumAssignment) -> tuple[list[list[tuple[int, ...]]], int]:
    """Per class, each scalar of s as ints: its coefficients over
    s.symbols(), then its offset, all times D, the lcm of every denominator
    among them; and D.  A combination is the identity exactly when its
    summed tuple is 0, except that a multiplicative offset only has to be
    0 mod D."""
    scalars = [scalar for cls_ in s.classes for scalar, _ in cls_]
    den = math.lcm(*(c.denominator for sc in scalars for c in (sc.offset, *(c for _, c in sc.terms))))
    column = {sym: i for i, sym in enumerate(s.symbols())}
    form = []
    for cls_ in s.classes:
        rows = []
        for sc, _ in cls_:
            vec = [0] * len(column) + [sc.offset.numerator * (den // sc.offset.denominator)]
            for sym, c in sc.terms:
                vec[column[sym]] = c.numerator * (den // c.denominator)
            rows.append(tuple(vec))
        form.append(rows)
    return form, den


def _products(per_class, width: int) -> list:
    """Every choice of one option per class, as (parts, summed tuple)."""
    out = [((), (0,) * width)]
    for options in per_class:
        out = [
            (parts + (chosen,), tuple(map(operator.add, total, vec)))
            for parts, total in out
            for chosen, vec in options
        ]
    return out


class BudgetExceeded(Exception):
    """The relation search would form or write more parts than its budget."""


class _Meter:
    """Parts charged by the relation search under three names (options,
    half products, witnesses), each held to the budget on its own."""

    def __init__(self, budget: int | None):
        self.budget = budget
        self.spent: dict[str, int] = {}

    def charge(self, what: str, parts: int) -> None:
        self.spent[what] = self.spent.get(what, 0) + parts
        if self.budget is not None and self.spent[what] > self.budget:
            raise BudgetExceeded(f"{what}: more than {self.budget} parts")


def enumerate_relations(s: SpectrumAssignment, m: int, meter: _Meter | None = None) -> tuple[RelationWitness, ...]:
    """All relations with sub-multisets of size m (1 <= m < n), one per class,
    in a deterministic (lexicographic) order.

    Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974) on the integer
    form: the negated sums of the first half of the classes' choices are
    hashed, and each sum of the other half's choices is looked up, so the
    search forms the two half products, not their product.  A meter is
    charged the parts of both half products before either is formed, and
    the parts of each witness as it is found."""
    if not 1 <= m < s.n:
        raise ValueError(f"relation size must satisfy 1 <= m < n, got {m}")
    meter = meter or _Meter(None)
    form, den = _integer_form(s)
    wrap = den if s.mode == MULTIPLICATIVE else None

    def normal(vec):
        return vec if wrap is None else (*vec[:-1], vec[-1] % wrap)

    width = len(form[0][0])
    per_class = []
    for cls_, rows in zip(s.classes, form):
        options = []
        for counts in _count_vectors([mult for _, mult in cls_], m):
            chosen = tuple((sc, c) for (sc, _), c in zip(cls_, counts) if c)
            options.append((chosen, tuple(sum(map(operator.mul, counts, col)) for col in zip(*rows))))
        per_class.append(options)
    half = len(per_class) // 2
    left, right = per_class[:half], per_class[half:]
    meter.charge("half products", sum(len(side) * math.prod(map(len, side)) for side in (left, right)))
    needed: dict[tuple[int, ...], list] = {}
    for parts, total in _products(left, width):
        needed.setdefault(normal(tuple(-x for x in total)), []).append(parts)
    witnesses = []
    for right_parts, total in _products(right, width):
        for left_parts in needed.get(normal(total), ()):
            meter.charge("witnesses", len(per_class))
            witnesses.append(RelationWitness(m, left_parts + right_parts))
    return tuple(sorted(witnesses, key=RelationWitness.key))


def all_relations(s: SpectrumAssignment, budget: int | None = None) -> tuple[RelationWitness, ...]:
    """Every relation, by size.  Past the budget, in parts formed or written
    by any one charge, raise BudgetExceeded.  The options come first: over
    all sizes a class has prod_i (mult_i + 1) - 2 of them, charged before
    any is enumerated."""
    meter = _Meter(budget)
    meter.charge("options", sum(math.prod(mult + 1 for _, mult in cls_) - 2 for cls_ in s.classes))
    out: list[RelationWitness] = []
    for m in range(1, s.n):
        out.extend(enumerate_relations(s, m, meter))
    return tuple(out)


def _require_global(s: SpectrumAssignment) -> None:
    if not global_condition(s):
        raise GlobalConditionViolatedError(
            "spectrum violates the product-1 / sum-0 condition"
        )


def basic_relation(s: SpectrumAssignment) -> BasicRelation | None:
    """The relation derived from q = gcd of all multiplicities; None if q = 1."""
    _require_global(s)
    q = math.gcd(*s.multiplicities())
    if q == 1:
        return None
    if s.mode == ADDITIVE:
        phase, m = None, q  # the q-divided sum is the global sum over q, which is 0
    else:
        # The q-th power of the q-divided product is the global product 1,
        # so it has no symbol left and q times its phase is an integer.
        pairs = ((scalar, Fraction(mult, q)) for cls_ in s.classes for scalar, mult in cls_)
        phase = combine(pairs, s.mode).offset
        m = math.gcd(int(phase * q), q)
    # m divides q, which divides every multiplicity
    parts = tuple(tuple((scalar, mult // m) for scalar, mult in cls_) for cls_ in s.classes)
    relation = RelationWitness(s.n // m, parts) if m > 1 else None
    return BasicRelation(q=q, m=m, root_phase=phase, relation=relation)


def _is_proportional(s: SpectrumAssignment, w: RelationWitness) -> bool:
    """Whether w takes size/n of every multiplicity of every class, which
    makes it a repetition t/m of the basic relation."""
    share = Fraction(w.size, s.n)
    return all(
        counts.get(scalar, 0) == mult * share
        for cls_, counts in zip(s.classes, map(dict, w.parts))
        for scalar, mult in cls_
    )


def is_generic(s: SpectrumAssignment) -> GenericityReport:
    """Generic iff no relation of any size 1..n-1 holds."""
    _require_global(s)
    witnesses = all_relations(s)
    verdict = GENERIC if not witnesses else NON_GENERIC
    return GenericityReport(verdict, witnesses, None, witnesses)


def classify(s: SpectrumAssignment, budget: int | None = None) -> GenericityReport:
    """Three-way verdict: generic / relatively generic (only the basic
    relation and its corollaries hold) / non-generic with the offending
    witnesses.  The budget is that of ``all_relations``."""
    basic = basic_relation(s)  # checks the global condition before any enumeration
    witnesses = all_relations(s, budget)
    if not witnesses:
        return GenericityReport(GENERIC, witnesses, basic, ())
    offenders = tuple(w for w in witnesses if not _is_proportional(s, w))
    return GenericityReport(NON_GENERIC if offenders else RELATIVELY_GENERIC, witnesses, basic, offenders)


def exp_map(s: SpectrumAssignment) -> SpectrumAssignment:
    """Formal exponential of an additive spectrum: symbol t goes to the
    multiplicative symbol exp_t with the same coefficient, and the rational
    constant c becomes the phase c mod 1."""
    if s.mode != ADDITIVE:
        raise MixedModesError("exp_map takes an additive spectrum")
    classes = []
    for cls_ in s.classes:
        merged: dict = {}
        for scalar, mult in cls_:
            # a common prefix keeps the terms sorted
            image = FormalScalar(
                MULTIPLICATIVE, tuple((f"exp_{sym}", c) for sym, c in scalar.terms), scalar.offset % 1
            )
            # exp collapses integer differences, so images may coincide
            merged[image] = merged.get(image, 0) + mult
        classes.append(list(merged.items()))
    return SpectrumAssignment(classes, s.n)
