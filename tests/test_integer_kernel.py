"""Oracle tests for the fraction-free integer path.

The centralizer, commutator-map and intertwiner checks write their
operators down entry by entry over the integers, scaling each matrix (or
each pair of matrices) to clear denominators.  Here they are compared with
the operator written from its entry formula over Fraction
(``oracles.intertwiner_system``), and the Burnside closure (``algebra_dim``)
and the irreducibility verdict with the span of every word of length at
most n^2, ranked by cofactor minors, and with the frontier closure over a
Fraction echelon (``oracles.frontier_algebra_dim``).
The seeded tuples give each matrix its own non-integer denominators, so a
scale chosen for the wrong set of matrices changes the answer.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from deligne_simpson import exact_linalg as xl
from deligne_simpson import tuple_lab as tl
from deligne_simpson.exact_linalg import IntEchelon, RatMatrix
from deligne_simpson.tuple_lab import MatrixTuple
from deligne_simpson.workbench import builders, hom_dim

from conftest import random_invertible, unimodular
from oracles import (
    commutation_system,
    det_cofactor,
    echelon_rank,
    entrywise_product,
    frontier_algebra_dim,
    intertwiner_system,
    minor_rank,
    reduced_echelon,
)

DENOMINATORS = (2, 3, 5, 7, 11)


def fraction_matrix(rng, n, denominator, upper=False):
    """Entries p / q with q in {1, d, d^2}; upper-triangular when asked."""
    return RatMatrix(n, n, [
        F(rng.randint(-4, 4), rng.choice([1, denominator, denominator**2]))
        if not upper or i <= j else F(0)
        for i in range(n) for j in range(n)
    ])


def conjugate_all(mats, g):
    ginv = xl.inverse(g)
    return [g @ m @ ginv for m in mats]


def seeded_tuple(rng, n, count, structure):
    """Matrices with distinct denominators: generic (usually trivial
    centralizer), direct_sum (centralizer >= 2) or triangular (reducible)."""
    dens = rng.sample(DENOMINATORS, count)
    if structure == "generic":
        return [fraction_matrix(rng, n, d) for d in dens]
    g = random_invertible(rng, n).scale(F(1, rng.choice(DENOMINATORS)))
    if structure == "triangular":
        return conjugate_all([fraction_matrix(rng, n, d, upper=True) for d in dens], g)
    k = rng.randint(1, n - 1)
    mats = [block_diagonal(fraction_matrix(rng, k, d), fraction_matrix(rng, n - k, d)) for d in dens]
    return conjugate_all(mats, g)


def block_diagonal(a, b):
    k, m = a.rows, b.rows
    rows = [list(a.row(i)) + [F(0)] * m for i in range(k)]
    rows += [[F(0)] * k + list(b.row(i)) for i in range(m)]
    return RatMatrix.from_rows(rows)


def oracle_intertwiner(a, b):
    return RatMatrix.from_rows(intertwiner_system(a.row_lists(), b.row_lists()))


CASES = [
    (seed, n, count, structure)
    for seed, (n, count, structure) in enumerate(
        (n, count, structure)
        for n in (2, 3, 4)
        for count in (2, 3)
        for structure in ("generic", "direct_sum", "triangular")
    )
]


@pytest.mark.parametrize("seed,n,count,structure", CASES)
def test_centralizer_and_commutator_map_match_dense_operators(seed, n, count, structure):
    rng = random.Random(100 + seed)
    mats = seeded_tuple(rng, n, count, structure)
    system = [oracle_intertwiner(m, m) for m in mats]
    cdim = tl.centralizer_dim_of(mats)
    assert cdim == xl.nullity(xl.vstack(system))
    if structure == "direct_sum":
        assert cdim >= 2
    t = MatrixTuple("additive", mats, [[0] * n] * count)
    assert tl.commut_surjective(t) == (xl.rank(xl.hstack(system)) == n * n - 1)
    assert tl.commut_surjective(t) == (cdim == 1)
    assert tl.report(t)["commutator_map_surjective"] == tl.commut_surjective(t)


@pytest.mark.parametrize("seed,n,count", [(s, n, c) for s in range(3) for n in (2, 3, 4) for c in (2, 3)])
def test_hom_dim_uses_one_scale_per_pair(seed, n, count):
    rng = random.Random(200 + 10 * n + seed)
    a = seeded_tuple(rng, n, count, rng.choice(["generic", "direct_sum"]))
    g = random_invertible(rng, n).scale(F(1, rng.choice([13, 17, 19])))
    b = conjugate_all(a, xl.inverse(g))  # b_j = g^-1 a_j g, so Y = Z g intertwines
    assert any(x.denominator != y.denominator for x, y in zip(a, b))
    system = xl.vstack([oracle_intertwiner(x, y) for x, y in zip(a, b)])
    got = hom_dim(a, b)
    assert got == xl.nullity(system)
    assert got == tl.centralizer_dim_of(a) >= 1
    # equal matrices in another list: the rank stops at n^2 - 1 here too
    system = xl.vstack([oracle_intertwiner(x, x) for x in a])
    assert hom_dim(a, list(a)) == xl.nullity(system) == tl.centralizer_dim_of(a)
    other = seeded_tuple(rng, n, count, "generic")
    system = xl.vstack([oracle_intertwiner(x, y) for x, y in zip(a, other)])
    assert hom_dim(a, other) == xl.nullity(system)
    # S + P and S + Q share the summand S alone, so 1 <= hom < centralizer
    k = rng.randint(1, n - 1)
    dens = rng.sample(DENOMINATORS, count)
    shared, p, q = ([fraction_matrix(rng, size, d) for d in dens] for size in (k, n - k, n - k))
    g, h = (random_invertible(rng, n).scale(F(1, d)) for d in rng.sample(DENOMINATORS, 2))
    sp = conjugate_all([block_diagonal(x, y) for x, y in zip(shared, p)], g)
    sq = conjugate_all([block_diagonal(x, y) for x, y in zip(shared, q)], h)
    system = xl.vstack([oracle_intertwiner(x, y) for x, y in zip(sp, sq)])
    got = hom_dim(sp, sq)
    assert got == xl.nullity(system)
    assert 1 <= got < tl.centralizer_dim_of(sp)
    assert builders.hom_dim is hom_dim is xl.hom_dim


def word_span_rank(mats):
    """Rank of the span of every word of length <= n^2 in mats (the empty
    word is I), by a greedy basis ranked with cofactor minors."""
    n = mats[0].rows
    lists = [m.row_lists() for m in mats]
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    basis: list[list[F]] = []
    seen = set()
    for length in range(n * n + 1):
        for word in itertools.product(lists, repeat=length):
            m = entrywise_product([identity, *word])
            flat = tuple(x for row in m for x in row)
            if flat in seen:
                continue
            seen.add(flat)
            if minor_rank(basis + [list(flat)]) > len(basis):
                basis.append(list(flat))
                if len(basis) == n * n:
                    return n * n
    return len(basis)


@pytest.mark.parametrize("seed,count,structure", [
    (s, c, st) for s in range(4) for c in (1, 2, 3) for st in ("generic", "triangular")
])
def test_is_irreducible_matches_word_span(seed, count, structure):
    rng = random.Random(300 + seed)
    mats = seeded_tuple(rng, 2, count, structure)
    # I generates nothing new in a unital algebra; it makes count 1 a valid tuple
    t = MatrixTuple("additive", [*mats, RatMatrix.identity(2)], [[0, 0]] * (count + 1))
    span = word_span_rank(mats)
    assert tl.algebra_dim(t) == span
    assert tl.is_irreducible(t) == (span == 4)
    if structure == "triangular":
        assert span < 4


@pytest.mark.parametrize("seed", range(3))
def test_is_irreducible_needs_words_of_length_three(seed):
    # diag(d) and a weighted cyclic shift p span diag * {I, p, p^2}; words of
    # length <= 2 give only 7 of those 9 dimensions, so the closure must
    # run more than one round.  The word oracle stops once it reaches n^2,
    # which keeps it cheap for irreducible tuples only.
    rng = random.Random(400 + seed)
    d = RatMatrix.diagonal([F(v, 2) for v in rng.sample([-5, -3, -1, 1, 3, 5, 7], 3)])
    weights = [F(rng.choice([-3, -1, 1, 2]), 5**k) for k in (1, 2, 1)]
    p = RatMatrix.from_rows([[0, weights[0], 0], [0, 0, weights[1]], [weights[2], 0, 0]])
    t = MatrixTuple("additive", [d, p], [[0] * 3] * 2)
    assert word_span_rank([d, p]) == 9
    assert tl.algebra_dim(t) == 9
    assert tl.is_irreducible(t)


def invertible_shift(m):
    """m + c I for the least c >= 0 that makes it invertible; a scalar shift
    leaves the generated unital algebra as it is."""
    c = 0
    while xl.rank(m + RatMatrix.identity(m.rows).scale(c)) < m.rows:
        c += 1
    return m + RatMatrix.identity(m.rows).scale(c)


@pytest.mark.parametrize("seed,n,structure,mode", [
    (s, n, st, mode)
    for s in range(2) for n in (2, 3, 4, 5)
    for st in ("generic", "direct_sum", "triangular") for mode in ("additive", "multiplicative")
])
def test_is_irreducible_matches_frontier_closure(seed, n, structure, mode):
    rng = random.Random(500 + 100 * seed + n)
    count = rng.choice([2, 3])
    mats = seeded_tuple(rng, n, count, structure)
    if mode == "multiplicative":
        mats = [invertible_shift(m) for m in mats]
    t = MatrixTuple(mode, mats, [[1] * n] * count)
    dim = frontier_algebra_dim([m.row_lists() for m in mats])
    assert tl.algebra_dim(t) == dim
    assert tl.is_irreducible(t) == (dim == n * n)
    if structure != "generic":
        assert dim < n * n


def test_is_irreducible_when_the_basis_fills_inside_a_generator_loop():
    # I times the first three generators already spans the 2x2 matrices, so
    # the basis is full before the last generator of the first row's loop
    rows = ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 2]], [[1, 1], [1, 1]])
    mats = [RatMatrix.from_rows(r) for r in rows]
    assert frontier_algebra_dim([m.row_lists() for m in mats]) == 4
    assert tl.algebra_dim(MatrixTuple("additive", mats, [[0, 0]] * 4)) == 4
    assert tl.is_irreducible(MatrixTuple("additive", mats, [[0, 0]] * 4))
    assert not tl.is_irreducible(MatrixTuple("additive", [mats[0], mats[2]], [[0, 0]] * 2))


def test_intertwiner_rows_match_dense_operators():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        a, b = fraction_matrix(rng, n, 3), fraction_matrix(rng, n, 5)
        rows = xl.intertwiner_rows(a.row_lists(), b.row_lists())
        assert RatMatrix.from_rows(rows) == xl.intertwiner_matrix(a, b) == oracle_intertwiner(a, b)
        assert xl.vectorize_commutator_map(a) == oracle_intertwiner(a, a)
        zero = RatMatrix.zero(n, n)
        assert xl.left_mul_matrix(a) == oracle_intertwiner(a, zero)
        assert xl.right_mul_matrix(b) == oracle_intertwiner(zero, -b)
    with pytest.raises(xl.ShapeMismatchError):
        xl.intertwiner_rows([[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    wide = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    for operator in (xl.vectorize_commutator_map, xl.left_mul_matrix, xl.right_mul_matrix):
        with pytest.raises(xl.ShapeMismatchError):
            operator(wide)
    with pytest.raises(xl.ShapeMismatchError):
        hom_dim([RatMatrix.identity(2)], [RatMatrix.identity(3)])


def test_integer_form_scales_by_denominator_lcm():
    m = RatMatrix.from_rows([[F(1, 2), F(1, 3)], [F(-5, 6), 4]])
    assert m.denominator == 6
    assert m.numerators == ((3, 2), (-5, 24))
    assert m.scale(2).denominator == 3 and m.scale(2).numerators == ((3, 2), (-5, 24))
    assert RatMatrix.from_rows([[F(1, 4)]]).numerators == ((1,),)
    assert all(type(x) is int for row in m.numerators for x in row)


def test_int_echelon_zero_and_repeated_rows():
    basis = IntEchelon()
    assert not basis.add([0, 0, 0])
    assert len(basis) == 0
    assert basis.add([2, 4, 6])
    for again in ([2, 4, 6], [1, 2, 3], [-3, -6, -9], [0, 0, 0]):
        assert not basis.add(again)
    assert len(basis) == 1
    assert basis.add([0, 1, 1])
    assert not basis.add([5, 11, 16])  # 5 * (1, 2, 3) + (0, 1, 1)
    assert len(basis) == 2


@st.composite
def integer_row_lists(draw):
    """1-6 integer rows of length 1-6, each random (times a common factor
    that may be as large as 2**70, and of either sign), zero, a repeat or
    a multiple of an earlier row, in drawn order."""
    cols = draw(st.integers(1, 6))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple"] if rows else ["random", "zero"]))
        if kind == "random":
            factor = draw(st.sampled_from([1, -1, 2, 6, -35, 2**70, -(3**45)]))
            rows.append([factor * x for x in draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols))])
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            k = 1 if kind == "repeat" else draw(st.integers(-5, 5))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
    return rows, cols


@settings(max_examples=150, deadline=None)
@given(integer_row_lists())
def test_int_echelon_rows_are_bareiss_minors_of_the_accepted_rows(case):
    """Every stored row holds d at its own pivot and 0 at every other
    pivot; d is, up to one sign e, the minor of the accepted input rows A
    at the pivot columns P, and each entry R_i[j] is e times the minor of
    A at P with column p_i replaced by column j (Cramer's rule, as
    Bareiss's exact division keeps it); R / d is the reduced row echelon
    form."""
    rows, cols = case
    basis = IntEchelon()
    taken = [i for i, row in enumerate(rows) if basis.add(row)]
    accepted = [rows[i] for i in taken]
    assert len(basis) == len(accepted) == minor_rank([[F(x) for x in row] for row in rows])
    assert len(basis.pivots) == len(set(basis.pivots)) == len(basis)
    d, pivots = basis.d, basis.pivots
    for row, p in zip(basis.rows, pivots):
        assert all(type(x) is int for x in row)
        assert row[p] == d and all(row[q] == 0 for q in pivots if q != p)
    if not accepted:
        assert d == 1
        return

    def minor(columns):
        return det_cofactor([[F(row[c]) for c in columns] for row in accepted])

    sign = d // minor(pivots)
    assert sign in (1, -1)
    for i, row in enumerate(basis.rows):
        assert all(row[j] == sign * minor(pivots[:i] + [j] + pivots[i + 1 :]) for j in range(cols))
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    assert [[F(x, d) for x in basis.rows[i]] for i in order] == reduced_echelon(rows)

    built = IntEchelon(rows)
    assert (built.rows, built.pivots, built.d) == (basis.rows, basis.pivots, basis.d)
    # a bound stops the intake: the row after the one that fills the basis
    # is drawn but not reduced, and no row after it is drawn
    bound = len(basis)
    rest = iter(rows)
    bounded = IntEchelon(rest, bound)
    assert (bounded.rows, bounded.pivots, bounded.d) == (basis.rows, basis.pivots, basis.d)
    assert list(rest) == rows[taken[-1] + 2 :]


def test_int_echelon_entries_stay_int_and_rank_matches_minors():
    rng = random.Random(13)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        factor = rng.choice([1, 6, 35, 2**70])
        rows = [[factor * rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = IntEchelon()
        for row in rows:
            basis.add(row)
        assert all(type(x) is int for row in basis.rows for x in row)
        assert len(basis) == minor_rank([[F(x) for x in row] for row in rows])
        assert len(basis) == xl.integer_rank(rows, ncols)


def conjugated_jordan(rng, values, n):
    """g J g^-1 for an upper-triangular J with diagonal drawn from values,
    some 1s above it, and a unimodular g: dense, with J's spectrum."""
    rows = [[F(rng.choice(values)) if i == j else F(rng.choice([0, 1])) if j == i + 1 else F(0)
             for j in range(n)] for i in range(n)]
    g = unimodular(rng, n)
    return g @ RatMatrix.from_rows(rows) @ xl.inverse(g)


def closing(mode, mats):
    return xl.inverse(xl.product(mats)) if mode == "multiplicative" else -sum(mats[1:], mats[0])


def oracle_centralizer_dim(mats):
    n = mats[0].rows
    return n * n - echelon_rank([row for m in mats for row in commutation_system(m.row_lists())])


@pytest.mark.parametrize("mode,n,structure", [
    ("additive", 7, "direct_sum"), ("multiplicative", 7, "direct_sum"), ("multiplicative", 8, "dense"),
])
def test_hom_dim_agrees_with_the_fraction_echelon_at_n_7_and_8(mode, n, structure):
    """Past the sizes of the other oracle tests: a closed direct sum of two
    conjugated blocks, conjugated once more, in each mode, and a dense
    multiplicative triple.  Every matrix claims 1s, a wrong spectrum, so
    ``report`` also eliminates each one alone, the closing matrix of the
    dense triple (the slowest `verify` input at n = 12) included."""
    rng = random.Random(f"n{n}-{mode}-{structure}")
    values = [1, -1, 2, 3] if mode == "multiplicative" else [0, 1, -1, 2]
    if structure == "dense":
        mats = [conjugated_jordan(rng, values, n) for _ in range(2)]
    else:
        cut = n // 2
        mats = [block_diagonal(conjugated_jordan(rng, values, cut), conjugated_jordan(rng, values, n - cut))
                for _ in range(2)]
        mats = conjugate_all(mats, unimodular(rng, n))
    mats.append(closing(mode, mats))
    t = MatrixTuple(mode, mats, [[1] * n] * 3)
    assert t.closed
    cdim = oracle_centralizer_dim(mats)
    assert hom_dim(mats, mats) == tl.centralizer_dim(t) == cdim
    assert (cdim >= 2) == (structure == "direct_sum")
    closing_dim = oracle_centralizer_dim(mats[-1:])
    assert hom_dim(mats[-1:], mats[-1:]) == tl.centralizer_dim_of(mats[-1:]) == closing_dim
    rep = tl.report(t)
    assert rep["centralizer_dim"] == cdim and rep["wrong_spectrum"]
