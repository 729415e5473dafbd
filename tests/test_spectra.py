import itertools
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from deligne_simpson import spectra as sp
from deligne_simpson.spectra import ADDITIVE, MULTIPLICATIVE, FormalScalar, SpectrumAssignment
from deligne_simpson.workbench import make_witness
from oracles import brute_relations, relation_choices, scaled_full_witnesses

S = FormalScalar.multiplicative
A = FormalScalar.additive


def rigid_example_spectrum(fourth_phase):
    """(e, 1/e), (sqrt2, 1/sqrt2), (3, 1/3) each doubled, and a single
    fourth eigenvalue of multiplicity 4 given by its phase."""
    return SpectrumAssignment([
        [(S({"e": 1}), 2), (S({"e": -1}), 2)],
        [(S({"2": F(1, 2)}), 2), (S({"2": F(-1, 2)}), 2)],
        [(S({"3": 1}), 2), (S({"3": -1}), 2)],
        [(S({}, fourth_phase), 4)],
    ])


def tq_spectrum():
    """Classes (a,a,b,c), (f,f,g,h), (u,u,v,w) with the declared relations
    a b f g u v = 1 (hence a c f h u w = 1) and nothing else."""
    a, b, c = S({"a": 1}), S({"b": 1}), S({"c": 1})
    f, g, h = S({"f": 1}), S({"g": 1}), S({"h": 1})
    v = S({"v": 1})
    u = S({"a": -1, "b": -1, "f": -1, "g": -1, "v": -1})
    w = S({"b": 1, "c": -1, "g": 1, "h": -1, "v": 1})
    return SpectrumAssignment([
        [(a, 2), (b, 1), (c, 1)],
        [(f, 2), (g, 1), (h, 1)],
        [(u, 2), (v, 1), (w, 1)],
    ]), (a, b, f, g, u, v)


def test_combine_examples():
    assert sp.combine([(S({"e": 1}), 1), (S({"e": -1}), 1)], MULTIPLICATIVE).is_identity()
    sq = sp.combine([(S({}, F(1, 4)), 2)], MULTIPLICATIVE)
    assert sq.terms == () and sq.offset == F(1, 2)
    two = sp.combine([(S({"2": F(1, 2)}), 2)], MULTIPLICATIVE)
    assert two.terms == (("2", F(1)),) and two.offset == 0


def test_additive_combine():
    total = sp.combine([(A({"t": 1}, 2), 1), (A({"t": -1}, -2), 1)], ADDITIVE)
    assert total.is_identity()


def test_global_condition_examples():
    assert sp.global_condition(rigid_example_spectrum(F(1, 4)))  # i^4 = 1
    one = FormalScalar.multiplicative()
    abcd = SpectrumAssignment([
        [(S({"a": 1}), 1), (one, 2)],
        [(S({"b": 1}), 1), (one, 2)],
        [(S({"c": 1}), 1), (one, 2)],
        [(S({"a": -1, "b": -1, "c": -1}), 1), (one, 2)],
    ])
    assert sp.global_condition(abcd)
    zeros = SpectrumAssignment([[(A({}), 2)], [(A({}), 2)]])
    assert sp.global_condition(zeros)
    assert not sp.global_condition(SpectrumAssignment([[(S({"a": 1}), 1)], [(S({}), 1)]]))


def test_enumerate_relations_tq_witness():
    spectrum, (a, b, f, g, u, v) = tq_spectrum()
    target = make_witness(2, [[(a, 1), (b, 1)], [(f, 1), (g, 1)], [(u, 1), (v, 1)]])
    found = sp.enumerate_relations(spectrum, 2)
    keys = [w.key() for w in found]
    assert target.key() in keys
    # complementary choice (a c f h u w = 1) is the only other relation
    assert len(found) == 2
    assert sp.enumerate_relations(spectrum, 1) == ()
    assert sp.enumerate_relations(spectrum, 3) == ()


def test_enumerate_relations_generic_empty_and_bounds():
    spectrum = rigid_example_spectrum(F(1, 4))
    for m in range(1, 4):
        assert sp.enumerate_relations(spectrum, m) == ()
    with pytest.raises(ValueError):
        sp.enumerate_relations(spectrum, 0)
    with pytest.raises(ValueError):
        sp.enumerate_relations(spectrum, 4)


def test_is_generic_examples():
    assert sp.is_generic(rigid_example_spectrum(F(1, 4))).verdict == "generic"
    rep = sp.is_generic(rigid_example_spectrum(F(1, 2)))
    assert rep.verdict == "non_generic" and len(rep.witnesses) == 1
    with pytest.raises(sp.GlobalConditionViolatedError):
        sp.is_generic(SpectrumAssignment([[(S({"a": 1}), 1)], [(S({}), 1)]]))


def test_basic_relation_examples():
    minus1 = sp.basic_relation(rigid_example_spectrum(F(1, 2)))
    assert (minus1.q, minus1.m, minus1.root_phase) == (2, 2, F(0))
    assert minus1.relation is not None and minus1.relation.size == 2
    unit_i = sp.basic_relation(rigid_example_spectrum(F(1, 4)))
    assert (unit_i.q, unit_i.m, unit_i.root_phase) == (2, 1, F(1, 2))
    assert unit_i.relation is None
    spectrum, _ = tq_spectrum()
    assert sp.basic_relation(spectrum) is None  # gcd(2,1,1) = 1


def test_basic_relation_witness_reproduces_global_condition():
    spectrum = rigid_example_spectrum(F(1, 2))
    basic = sp.basic_relation(spectrum)
    repeated = sp.combine(
        ((s, c * basic.m) for part in basic.relation.parts for s, c in part),
        spectrum.mode,
    )
    assert repeated.is_identity()
    full = [[(s, c * basic.m) for s, c in part] for part in basic.relation.parts]
    assert [sorted((s.key(), c) for s, c in part) for part in full] == [
        sorted((s.key(), c) for s, c in cls_) for cls_ in spectrum.classes
    ]


def test_classify_examples():
    assert sp.classify(rigid_example_spectrum(F(1, 2))).verdict == "relatively_generic"
    assert sp.classify(rigid_example_spectrum(F(1, 4))).verdict == "generic"
    spectrum, _ = tq_spectrum()
    rep = sp.classify(spectrum)
    assert rep.verdict == "non_generic" and len(rep.offenders) == 2


def test_classify_additive_even_multiplicities():
    spectrum = SpectrumAssignment([
        [(A({"t": 1}), 2), (A({"t": -1}), 2)],
        [(A({"s": 1}), 2), (A({"s": -1}), 2)],
        [(A({"p": 1}), 2), (A({"p": -1}), 2)],
        [(A({}), 4)],
    ])
    basic = sp.basic_relation(spectrum)
    assert basic.q == 2 and basic.m == 2 and basic.relation is not None
    assert sp.classify(spectrum).verdict == "relatively_generic"


def test_exp_map_examples():
    zero = A({})
    half = A({}, F(1, 2))
    sym = A({"a": 1})
    spectrum = SpectrumAssignment([[(zero, 1), (half, 1), (sym, 1)], [(A({"b": 1}), 3)]])
    image = sp.exp_map(spectrum)
    scalars = [s for s, _ in image.classes[0]]
    assert FormalScalar.multiplicative({}, 0) in scalars
    assert FormalScalar.multiplicative({}, F(1, 2)) in scalars
    assert FormalScalar.multiplicative({"exp_a": 1}) in scalars
    with pytest.raises(sp.MixedModesError):
        sp.exp_map(image)


def test_exp_map_merges_integer_differences():
    spectrum = SpectrumAssignment([[(A({}, 0), 1), (A({}, 1), 1)], [(A({}, F(-1, 2)), 2)]])
    image = sp.exp_map(spectrum)
    assert len(image.classes[0]) == 1
    assert image.classes[0][0][1] == 2


def test_witness_order_deterministic_and_canonical():
    spectrum, _ = tq_spectrum()
    first = sp.enumerate_relations(spectrum, 2)
    second = sp.enumerate_relations(spectrum, 2)
    assert [w.key() for w in first] == [w.key() for w in second]
    assert [w.key() for w in first] == sorted(w.key() for w in first)
    for w in first:
        assert sp.combine(((s, c) for part in w.parts for s, c in part), spectrum.mode).is_identity()
        for part in w.parts:
            assert sum(c for _, c in part) == w.size


def test_relabeling_preserves_genericity():
    spectrum = rigid_example_spectrum(F(1, 4))
    renamed = SpectrumAssignment([
        [(S({sym.upper(): c for sym, c in scalar.terms}, scalar.offset), mult) for scalar, mult in cls_]
        for cls_ in spectrum.classes
    ])
    assert sp.classify(renamed).verdict == "generic"


def test_spectrum_json_roundtrip():
    spectrum, _ = tq_spectrum()
    data = spectrum.to_json()
    back = SpectrumAssignment.from_json(data)
    assert back.to_json() == data
    add_spec = SpectrumAssignment([[(A({"t": 1}, F(1, 2)), 2), (A({"t": -1}), 2)]])
    assert SpectrumAssignment.from_json(add_spec.to_json()).to_json() == add_spec.to_json()


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectrumAssignment([[(S({"a": 1}), 2)], [(S({"a": 1}), 3)]])  # unequal sums
    with pytest.raises(ValueError):
        SpectrumAssignment([[(S({"a": 1}), 1), (S({"a": 1}), 1)]])  # duplicate scalar
    with pytest.raises(sp.MixedModesError):
        SpectrumAssignment([[(S({"a": 1}), 1), (A({"a": 1}), 1)]])


@st.composite
def global_spectra(draw, modes=(MULTIPLICATIVE, ADDITIVE)):
    """Spectra of size n <= 6 that meet the global condition.  Eigenvalues
    are drawn over three symbols with small coefficients and a few phases
    or constants, so that relations are common; multiplicities share a
    factor up to 3; the last eigenvalue is solved for."""
    mode = draw(st.sampled_from(modes))
    q = draw(st.integers(1, 3))
    reduced = draw(st.integers(1, 6 // q))
    terms = st.dictionaries(st.sampled_from("abc"), st.integers(-1, 1), max_size=3)
    if mode == MULTIPLICATIVE:
        scalars = st.builds(S, terms, st.sampled_from([0, F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]))
    else:
        scalars = st.builds(A, terms, st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]))
    classes = []
    for _ in range(draw(st.integers(2, 3))):
        mults, remaining = [], reduced
        while remaining:
            mults.append(draw(st.integers(1, remaining)))
            remaining -= mults[-1]
        classes.append([(draw(scalars), q * k) for k in mults])
    *rest, (_, mu) = [e for cls_ in classes for e in cls_]
    solved = sp.combine([(sp.combine(rest, mode), F(-1, mu))], mode)
    if mode == MULTIPLICATIVE:  # any of the mu roots
        solved = S(dict(solved.terms), solved.offset + F(draw(st.integers(0, mu - 1)), mu))
    classes[-1][-1] = (solved, mu)
    merged = []  # equal eigenvalues of one class add their multiplicities
    for cls_ in classes:
        counts = {}
        for scalar, mult in cls_:
            counts[scalar] = counts.get(scalar, 0) + mult
        merged.append(list(counts.items()))
    spectrum = SpectrumAssignment(merged)
    assert sp.global_condition(spectrum)
    return spectrum


@settings(max_examples=200, deadline=None)
@given(spectrum=global_spectra())
def test_offenders_are_the_witnesses_outside_the_scaled_full_spectra(spectrum):
    report = sp.classify(spectrum)
    basic = report.basic
    den = 0
    if basic is not None and basic.relation is not None:
        den = basic.m if spectrum.mode == MULTIPLICATIVE else basic.q
    corollaries = scaled_full_witnesses(spectrum, den)
    assert report.offenders == tuple(w for w in report.witnesses if (w.size, w.parts) not in corollaries)
    if report.witnesses:
        assert report.verdict == ("non_generic" if report.offenders else "relatively_generic")


@settings(max_examples=100, deadline=None)
@given(spectrum=global_spectra(modes=(ADDITIVE,)))
def test_additive_basic_relation_has_m_equal_to_q(spectrum):
    basic = sp.basic_relation(spectrum)
    q = math.gcd(*spectrum.multiplicities())
    if q > 1:
        assert basic.q == basic.m == q and basic.relation is not None
    else:
        assert basic is None


# Phases and constants with denominators 2, 3, 4 and 6, so that the
# multiplicative offsets of a choice wrap past 1 (past D in the integer form).
PHASES = [0, F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6), F(5, 6)]


@st.composite
def any_spectra(draw):
    """Spectra of 1-5 classes, in either mode, over two symbols with
    coefficients in {-1, 1/2, 1} or none, and mixed-denominator offsets;
    the global condition holds only when drawn so.  n shrinks as classes
    are added so that the brute-force product stays small."""
    mode = draw(st.sampled_from((MULTIPLICATIVE, ADDITIVE)))
    count = draw(st.integers(1, 5))
    n = draw(st.integers(2, {1: 5, 2: 5, 3: 4}.get(count, 3)))
    build = S if mode == MULTIPLICATIVE else A
    terms = st.one_of(  # half of them pure offsets, so that relations are common
        st.just({}), st.dictionaries(st.sampled_from("ab"), st.sampled_from([-1, F(1, 2), 1]), max_size=2)
    )
    scalars = st.builds(build, terms, st.sampled_from(PHASES if mode == MULTIPLICATIVE else [-1, *PHASES]))
    classes = []
    for _ in range(count):
        mults, remaining = [], n
        while remaining:
            mults.append(draw(st.integers(1, remaining)))
            remaining -= mults[-1]
        classes.append([(draw(scalars), k) for k in mults])
    if draw(st.booleans()):  # solve the last eigenvalue for the global condition
        *rest, (_, mu) = [e for cls_ in classes for e in cls_]
        classes[-1][-1] = (sp.combine([(sp.combine(rest, mode), F(-1, mu))], mode), mu)
    merged = []  # equal eigenvalues of one class add their multiplicities
    for cls_ in classes:
        counts = {}
        for scalar, mult in cls_:
            counts[scalar] = counts.get(scalar, 0) + mult
        merged.append(list(counts.items()))
    return SpectrumAssignment(merged)


@settings(max_examples=300, deadline=None)
@given(spectrum=any_spectra())
def test_enumerate_relations_matches_the_cartesian_product(spectrum):
    for m in range(1, spectrum.n):
        assert sp.enumerate_relations(spectrum, m) == brute_relations(spectrum, m)


@settings(max_examples=300, deadline=None)
@given(spectrum=any_spectra(), budget=st.integers(1, 400))
def test_relation_choices_counts_the_filtered_product(spectrum, budget):
    """The Cartesian pre-count (the oracle) counts the filtered product, and
    whatever it lets through under a budget, the budgeted search decides
    too, with the same witnesses: no charge exceeds classes times choices."""
    choices = 0
    for m in range(1, spectrum.n):
        per_class = []
        for cls_ in spectrum.classes:
            mults = [mult for _, mult in cls_]
            every = [c for c in itertools.product(*(range(k + 1) for k in mults)) if sum(c) == m]
            assert list(sp._count_vectors(mults, m)) == every
            per_class.append(len(every))
        choices += math.prod(per_class)
    assert relation_choices(spectrum, budget) == min(budget, choices)
    limit = budget // len(spectrum.classes)
    if relation_choices(spectrum, limit + 1) <= limit:
        assert sp.all_relations(spectrum, budget) == sp.all_relations(spectrum)


def four_by_four_spectrum():
    """n = 8, four classes of four eigenvalues of multiplicity 2 each; the
    last eigenvalue inverts all the others, so the product is 1 and the
    only relation is the halved spectrum.  281 905 choices in all."""
    syms = [[f"x{j}{i}" for i in range(4)] for j in range(4)]
    classes = [[(S({sym: 1}), 2) for sym in row] for row in syms]
    classes[-1][-1] = (S({sym: -1 for row in syms for sym in row if sym != "x33"}), 2)
    return SpectrumAssignment(classes)


def test_enumerate_relations_forms_no_scalar_per_combination(monkeypatch):
    spectrum = four_by_four_spectrum()
    calls = []
    real = sp.combine
    monkeypatch.setattr(sp, "combine", lambda pairs, mode: calls.append(mode) or real(pairs, mode))
    assert len(sp.enumerate_relations(spectrum, 4)) == 1  # out of 19**4 choices
    assert calls == []
    sp.classify(spectrum)
    assert 0 < len(calls) <= 2  # the global condition and the basic relation's phase


def test_classify_four_by_four_at_n_8_is_fast():
    spectrum = four_by_four_spectrum()
    start = time.perf_counter()
    report = sp.classify(spectrum)
    assert time.perf_counter() - start < 2
    assert report.verdict == "relatively_generic" and report.offenders == ()
    halved = tuple(tuple((scalar, 1) for scalar, _ in cls_) for cls_ in spectrum.classes)
    assert [(w.size, w.parts) for w in report.witnesses] == [(4, halved)]
    assert report.basic.relation == report.witnesses[0]
