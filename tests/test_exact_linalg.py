import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from deligne_simpson import exact_linalg as xl
from deligne_simpson.exact_linalg import RatMatrix

from conftest import random_matrix
from oracles import commutation_system, entrywise_product, minor_rank


def test_rational_strings():
    assert xl.rational_from_str("-3/7") == F(-3, 7)
    assert xl.rational_from_str("5") == F(5)
    assert xl.rational_to_str(F(-3, 7)) == "-3/7"
    assert xl.rational_to_str(F(10, 2)) == "5"
    for bad in ("1.5", "3/-2", "a", "1/0", ""):
        with pytest.raises(ValueError):
            xl.rational_from_str(bad)
    for bad in (True, False, 1.5):
        with pytest.raises(TypeError):
            xl.rat(bad)


def test_rank_examples():
    assert xl.rank(RatMatrix.identity(4)) == 4
    assert xl.rank(RatMatrix.zero(3, 3)) == 0
    assert xl.rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_nullspace_examples():
    assert xl.nullspace_basis(RatMatrix.identity(2)) == []
    assert len(xl.nullspace_basis(RatMatrix.zero(2, 2))) == 2
    basis = xl.nullspace_basis(RatMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0, 0] == -v[1, 0] != 0


def test_arithmetic_examples():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert xl.commutator(RatMatrix.identity(2), m).is_zero()
    assert xl.inverse(RatMatrix.diagonal([2, 3])) == RatMatrix.diagonal([F(1, 2), F(1, 3)])
    with pytest.raises(xl.SingularMatrixError):
        xl.inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(xl.ShapeMismatchError):
        xl.matmul(RatMatrix.identity(2), RatMatrix.identity(3))


def test_product_of_shipped_quadruple_is_identity():
    # oracle: entrywise multiplication of the (a,1,1)-family matrices with
    # (a,b,c,d) = (2,3,5,1/30), no RatMatrix involved
    a, b, c = F(2), F(3), F(5)
    d = 1 / (a * b * c)
    raw = [
        [[a, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[b, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[c, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[d, -1 / (b * c), -1 / c], [0, 1, 0], [0, 0, 1]],
    ]
    raw = [[[F(x) for x in row] for row in m] for m in raw]
    expected = entrywise_product(raw)
    assert expected == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    got = xl.product([RatMatrix.from_rows(m) for m in raw])
    assert got.is_identity()


def test_vectorize_commutator_map_examples():
    assert xl.vectorize_commutator_map(RatMatrix.diagonal([7, 7])).is_zero()
    assert xl.rank(xl.vectorize_commutator_map(RatMatrix.diagonal([1, 2]))) == 2
    jordan = RatMatrix.from_rows([[5, 1], [0, 5]])
    # oracle: the commutation system built entrywise has nullity 2
    oracle = commutation_system([[F(5), F(1)], [F(0), F(5)]])
    assert 4 - minor_rank(oracle) == 2
    assert xl.nullity(xl.vectorize_commutator_map(jordan)) == 2


def test_vectorization_order_is_row_major():
    rng = random.Random(3)
    a = random_matrix(rng, 3)
    x = random_matrix(rng, 3)
    vec_x = RatMatrix.column(x.entries)
    assert (xl.left_mul_matrix(a) @ vec_x).col(0) == (a @ x).entries
    assert (xl.right_mul_matrix(a) @ vec_x).col(0) == (x @ a).entries
    assert (xl.vectorize_commutator_map(a) @ vec_x).col(0) == xl.commutator(a, x).entries


def test_solve_particular_and_inconsistent():
    a = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    b = RatMatrix.column([1, 2])
    x = xl.solve(a, b)
    assert (a @ x) == b
    with pytest.raises(xl.NoSolutionError):
        xl.solve(a, RatMatrix.column([1, 3]))
    # the row 0 = 1 is accepted first, and a consistent row after it gets a
    # pivot in a's columns: the system is still inconsistent
    with pytest.raises(xl.NoSolutionError):
        xl.solve(RatMatrix.from_rows([[0, 0], [1, 2]]), RatMatrix.column([1, 5]))


def test_json_roundtrip():
    m = RatMatrix.from_rows([[F(1, 2), -2], [0, F(7, 3)]])
    assert m.to_json() == [["1/2", "-2"], ["0", "7/3"]]
    assert RatMatrix.from_json(m.to_json()) == m


small = st.integers(-4, 4)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(small, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, entries)


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(small, min_size=n * n, max_size=n * n))
    return RatMatrix(n, n, entries)


@st.composite
def rational_matrices(draw, max_dim=4):
    """Entries with denominators up to 12, zero, negative and integer ones included."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.fractions(-9, 9, max_denominator=12), min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, entries)


@given(rational_matrices())
def test_integer_form_is_the_least_integer_scale(m):
    """numerators holds denominator * entry as ints, denominator is the
    least scale that clears every entry, and neither field takes part in
    equality or hashing: a twin written over doubled denominators equals m."""
    for i in range(m.rows):
        assert len(m.numerators[i]) == m.cols
        for j in range(m.cols):
            x = m.numerators[i][j]
            assert type(x) is int and x == m.denominator * m[i, j]
    assert len(m.numerators) == m.rows
    assert math.gcd(m.denominator, *(x for row in m.numerators for x in row)) == 1
    twin = RatMatrix.from_rows([[f"{2 * x.numerator}/{2 * x.denominator}" for x in m.row(i)] for i in range(m.rows)])
    assert twin == m and hash(twin) == hash(m)


def test_integer_form_takes_no_part_in_equality():
    half = RatMatrix.from_rows([["2/4"]])
    assert half == RatMatrix(1, 1, [F(1, 2)]) and hash(half) == hash(RatMatrix(1, 1, [F(1, 2)]))
    assert (half.denominator, half.numerators) == (2, ((1,),))
    assert [f.name for f in dataclasses.fields(RatMatrix) if f.compare or f.hash] == ["rows", "cols", "entries"]


@given(matrices())
def test_rank_bounds_and_minor_oracle(m):
    r = xl.rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert r == minor_rank(m.row_lists())


@st.composite
def square_pairs(draw, max_dim=3):
    n = draw(st.integers(1, max_dim))
    entries = st.lists(small, min_size=n * n, max_size=n * n)
    return RatMatrix(n, n, draw(entries)), RatMatrix(n, n, draw(entries))


@given(square_pairs())
def test_rank_of_product_bound(pair):
    a, b = pair
    assert xl.rank(a @ b) <= min(xl.rank(a), xl.rank(b))


@given(matrices())
def test_nullspace_vectors_are_exact(m):
    basis = xl.nullspace_basis(m)
    assert len(basis) == m.cols - xl.rank(m)
    for v in basis:
        assert (m @ v).is_zero()


@given(square_matrices(), square_matrices())
def test_commutator_properties(a, b):
    assert xl.commutator(a, a).is_zero()
    if a.rows == b.rows:
        assert xl.commutator(a, b).trace() == 0


@given(square_matrices())
def test_inverse_times_self(a):
    try:
        inv = xl.inverse(a)
    except xl.SingularMatrixError:
        assert xl.rank(a) < a.rows
        return
    assert (inv @ a).is_identity()
    assert (a @ inv).is_identity()


def deficient_matrix(rng, rows, cols):
    """Rational rows x cols matrix with zero rows, rows that combine earlier
    ones, and sometimes a zero column, in shuffled order."""
    base = [[F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(cols)]
            for _ in range(rng.randint(1, rows))]
    out = list(base)
    while len(out) < rows:
        if rng.random() < 0.3:
            out.append([F(0)] * cols)
        else:
            coeffs = [F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in base]
            out.append([sum((c * r[j] for c, r in zip(coeffs, base)), F(0)) for j in range(cols)])
    if rng.random() < 0.3:
        zero_col = rng.randrange(cols)
        for row in out:
            row[zero_col] = F(0)
    rng.shuffle(out)
    return RatMatrix.from_rows(out)


ELIMINATION_CASES = [(seed, rows, cols) for seed in range(4) for rows in (1, 3, 5) for cols in (1, 4, 6)]


@pytest.mark.parametrize("seed,rows,cols", ELIMINATION_CASES)
def test_reduced_echelon_results_satisfy_their_definitions(seed, rows, cols):
    rng = random.Random(700 + 100 * seed + 10 * rows + cols)
    a = deficient_matrix(rng, rows, cols)
    r = minor_rank(a.row_lists())

    reduced, pivots = xl.rref(a)
    assert (reduced.rows, reduced.cols) == (a.rows, a.cols)
    assert len(pivots) == r and list(pivots) == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert all(x == 0 for x in reduced.row(i)[:c]) and reduced[i, c] == 1
        assert all(reduced[k, c] == 0 for k in range(a.rows) if k != i)
    assert all(x == 0 for x in reduced.entries[r * a.cols :])
    # each row of a is the combination of the reduced rows given by its pivot
    # entries; with len(pivots) == rank(a) the two row spaces are equal
    for row in a.row_lists():
        combo = [sum((row[c] * reduced[i, j] for i, c in enumerate(pivots)), F(0)) for j in range(a.cols)]
        assert combo == row
    assert xl.rref(reduced) == (reduced, pivots)

    kernel = xl.nullspace_basis(a)
    assert len(kernel) == a.cols - r
    assert all((a @ v).is_zero() for v in kernel)
    if kernel:
        assert minor_rank([list(v.entries) for v in kernel]) == len(kernel)

    x0 = RatMatrix(a.cols, 2, [F(rng.randint(-3, 3), rng.choice([1, 4])) for _ in range(2 * a.cols)])
    b = a @ x0
    assert a @ xl.solve(a, b) == b
    b = RatMatrix(a.rows, 1, [F(rng.randint(-3, 3)) for _ in range(a.rows)])
    if minor_rank(xl.hstack([a, b]).row_lists()) > r:
        with pytest.raises(xl.NoSolutionError):
            xl.solve(a, b)
    else:
        assert a @ xl.solve(a, b) == b

    square = RatMatrix.from_rows([row[:rows] for row in deficient_matrix(rng, rows, max(rows, cols)).row_lists()])
    if minor_rank(square.row_lists()) == rows:
        inv = xl.inverse(square)
        assert (square @ inv).is_identity() and (inv @ square).is_identity()
    else:
        with pytest.raises(xl.SingularMatrixError):
            xl.inverse(square)


@st.composite
def integer_rows(draw):
    """1-5 integer rows of length 1-6: random, zero, and multiples of an
    earlier row."""
    cols = draw(st.integers(1, 6))
    rows = [draw(st.lists(small, min_size=cols, max_size=cols))]
    while len(rows) < 5 and draw(st.booleans()):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "random":
            rows.append(draw(st.lists(small, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            k = draw(st.integers(-3, 3))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    return rows, cols


@given(integer_rows())
def test_integer_kernel_vectors_are_primitive_and_end_at_their_own_free_column(case):
    rows, cols = case
    kernel = xl.integer_kernel(rows, cols)
    assert len(kernel) == cols - minor_rank([[F(x) for x in row] for row in rows])
    m = RatMatrix.from_rows(rows)
    _, pivots = xl.rref(m)
    free = [c for c in range(cols) if c not in pivots]
    lasts = []
    for v in kernel:
        assert len(v) == cols and all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert all(sum(map(int.__mul__, row, v)) == 0 for row in rows)
        c = max(i for i, x in enumerate(v) if x)
        assert v[c] > 0 and c in free
        assert all(v[k] == 0 for k in free if k != c)
        lasts.append(c)
    assert lasts == free
    # nullspace_basis is the same kernel, each vector divided by its last
    # nonzero entry: 1 at its own non-pivot column and 0 at the others
    basis = xl.nullspace_basis(m)
    assert [list(b.entries) for b in basis] == [[F(x, v[c]) for x in v] for v, c in zip(kernel, free)]
    for b, c in zip(basis, free):
        assert (m @ b).is_zero()
        assert all(b[k, 0] == (k == c) for k in free)


def test_solve_brings_both_sides_to_one_scale():
    a = RatMatrix.from_rows([[F(1, 2), F(1, 3)], [F(1, 4), 1]])
    sides = [
        RatMatrix.from_rows([[F(1, 5), 1], [F(2, 7), F(-3, 10)]]),
        RatMatrix.column([2, -1]),
        RatMatrix.column([F(1, 6), F(1, 12)]),
    ]
    assert (a.denominator, [b.denominator for b in sides]) == (12, [70, 1, 12])
    for b in sides:
        assert a @ xl.solve(a, b) == b
    singular = RatMatrix.from_rows([[F(1, 2), F(1, 3), 0], [F(3, 2), 1, 0]])
    b = RatMatrix.column([F(1, 7), F(3, 7)])
    x = xl.solve(singular, b)
    assert singular @ x == b and x[1, 0] == x[2, 0] == 0  # free variables set to 0
    with pytest.raises(xl.NoSolutionError):
        xl.solve(singular, RatMatrix.column([F(1, 7), F(1, 5)]))
