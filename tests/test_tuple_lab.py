import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from deligne_simpson import exact_linalg as xl
from deligne_simpson import tuple_lab as tl
from deligne_simpson.exact_linalg import RatMatrix
from deligne_simpson.jnf import Jnf, Partition, centralizer_dim_of_jnf
from deligne_simpson.tuple_lab import MatrixTuple
from deligne_simpson.workbench import (
    build_first_block_triple,
    build_trivial_centralizer_quadruple,
    build_split_sum_quadruple,
)

from conftest import random_additive_tuple, random_invertible, random_matrix, unimodular
from oracles import (
    adjugate,
    commutation_system,
    det_cofactor,
    entrywise_product,
    frontier_algebra_dim,
    frontier_spin_dim,
    minor_rank,
)


def identity_tuple(n=2, count=3):
    return MatrixTuple(
        "multiplicative", [RatMatrix.identity(n)] * count, [[1] * n] * count
    )


def test_verify_closure_examples():
    assert tl.verify_closure(identity_tuple())
    bad = MatrixTuple(
        "multiplicative",
        [RatMatrix.identity(2), RatMatrix.identity(2).scale(2)],
        [[1, 1], [2, 2]],
    )
    assert not tl.verify_closure(bad)
    quad = build_trivial_centralizer_quadruple()
    assert tl.verify_closure(quad)
    add = MatrixTuple("additive", [RatMatrix.identity(2), RatMatrix.identity(2).scale(-1)], [[1, 1], [-1, -1]])
    assert tl.verify_closure(add)


def test_jnf_of_examples():
    m = RatMatrix.diagonal([2, 2, 3])
    assert tl.jnf_of(m, [2, 2, 3]) == Jnf([("2", [1, 1]), ("3", [1])])
    jordan = RatMatrix.from_rows([[5, 1], [0, 5]])
    assert tl.jnf_of(jordan, [5, 5]) == Jnf([("5", [2])])
    quad = build_trivial_centralizer_quadruple()
    m2 = quad.matrices[1]
    # rank oracle: rank(M2 - I) = 1, so eigenvalue 1 carries two 1x1 blocks
    shifted = (m2 - RatMatrix.identity(3)).row_lists()
    assert minor_rank(shifted) == 1
    assert tl.jnf_of(m2, [3, 1, 1]) == Jnf([("3", [1]), ("1", [1, 1])])


def test_jnf_of_wrong_spectrum():
    m = RatMatrix.diagonal([2, 3])
    with pytest.raises(tl.WrongSpectrumError):
        tl.jnf_of(m, [2, 2])
    with pytest.raises(tl.WrongSpectrumError):
        tl.jnf_of(m, [4, 5])
    with pytest.raises(ValueError):
        tl.jnf_of(m, [2])


def oracle_jnf(rows, claims):
    """The JNF that ``jnf_of`` should give, from the rank sequence of
    Fraction powers of m - lam I by ``minor_rank``, or None for a wrong
    claim; block sizes are counted straight off the rank drops."""
    n = len(rows)
    entries = []
    for lam in sorted(set(claims)):
        theta = [[x - lam * (i == k) for k, x in enumerate(row)] for i, row in enumerate(rows)]
        ranks, power = [n], theta
        while (r := minor_rank(power)) < ranks[-1]:
            ranks.append(r)
            power = entrywise_product([power, theta])
        drops = [a - b for a, b in zip(ranks, ranks[1:])]  # drops[k]: blocks of size > k
        if not drops or sum(drops) != claims.count(lam):
            return None
        entries.append((str(lam), [sum(d >= i for d in drops) for i in range(1, drops[0] + 1)]))
    return Jnf(entries)


def test_jnf_of_matches_the_minor_rank_oracle_on_fractional_eigenvalues():
    """Jordan matrices, n 1-4, with eigenvalues p/q for q in {2, 3, 7},
    conjugated by matrices whose entries have denominators 1, 2, 3 and 5.
    Each is claimed with its spectrum, with one eigenvalue off by 1/q, and
    with one value that is no eigenvalue; class_membership is checked on
    its class, on that class with one label moved by 1/q, and with each
    eigenvalue's blocks merged into one."""
    rng = random.Random(17)
    seen = {"n = 1": 0, "moved label": 0, "merged blocks": 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        q = rng.choice([2, 3, 7])
        pool = [F(rng.randint(-2 * q, 2 * q), q) for _ in range(2)]  # so eigenvalues repeat
        blocks = []
        while (left := n - sum(size for size, _ in blocks)) > 0:
            blocks.append((rng.randint(1, left), rng.choice(pool)))
        rows = [[F(0)] * n for _ in range(n)]
        pos = 0
        for size, lam in blocks:
            for k in range(pos, pos + size):
                rows[k][k] = lam
                if k + 1 < pos + size:
                    rows[k][k + 1] = F(1)
            pos += size
        g = RatMatrix.zero(n, n)
        while xl.rank(g) < n:
            g = RatMatrix(n, n, [F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])) for _ in range(n * n)])
        m = g @ RatMatrix.from_rows(rows) @ xl.inverse(g)
        spectrum = [lam for size, lam in blocks for _ in range(size)]
        off, absent = list(spectrum), list(spectrum)
        off[rng.randrange(n)] += F(rng.choice([1, -1]), q)
        absent[rng.randrange(n)] = max(spectrum) + F(5, 7)
        j = oracle_jnf(m.row_lists(), spectrum)
        assert tl.jnf_of(m, spectrum) == j
        for claims in (off, absent):
            assert oracle_jnf(m.row_lists(), claims) is None
            with pytest.raises(tl.WrongSpectrumError):
                tl.jnf_of(m, claims)
        seen["n = 1"] += n == 1
        assert tl.class_membership(m, j)
        labels = [label for label, _ in j.blocks_by_eigenvalue]
        label = rng.choice(labels)
        moved = str(F(label) + F(1, q))
        if moved not in labels:
            swapped = Jnf([(moved if lab == label else lab, part.parts) for lab, part in j.blocks_by_eigenvalue])
            assert not tl.class_membership(m, swapped)
            seen["moved label"] += 1
        if any(len(part.parts) > 1 for _, part in j.blocks_by_eigenvalue):
            merged = Jnf([(lab, [part.total()]) for lab, part in j.blocks_by_eigenvalue])
            assert not tl.class_membership(m, merged)
            seen["merged blocks"] += 1
    assert min(seen.values()) >= 5, seen


def test_class_membership_examples():
    m = RatMatrix.diagonal([2, 7])
    assert tl.class_membership(m, Jnf([("2", [1]), ("7", [1])]))
    scalar = RatMatrix.identity(2).scale(2)
    assert not tl.class_membership(scalar, Jnf([("2", [2])]))
    # 3 is no eigenvalue of m: a plain False, not a WrongSpectrumError
    assert tl.class_membership(m, Jnf([("3", [1]), ("7", [1])])) is False
    quad = build_trivial_centralizer_quadruple()
    m4 = quad.matrices[3]
    assert tl.class_membership(m4, Jnf([("1/30", [1]), ("1", [1, 1])]))
    with pytest.raises(ValueError):
        tl.class_membership(m, Jnf([("x", [1, 1])]))


def test_centralizer_examples():
    quad = build_trivial_centralizer_quadruple()
    assert tl.centralizer_dim(quad) == 1
    assert tl.has_trivial_centralizer(quad)
    split = build_split_sum_quadruple()
    assert tl.centralizer_dim(split) == 2
    assert not tl.has_trivial_centralizer(split)
    ident = identity_tuple(3, 2)
    assert tl.centralizer_dim(ident) == 9
    assert tl.centralizer_dim_of([RatMatrix.diagonal([1, 2])]) == 2


def test_commut_surjective_matches_centralizer():
    quad = build_trivial_centralizer_quadruple()
    assert tl.commut_surjective(quad)
    assert not tl.commut_surjective(identity_tuple())
    rng = random.Random(11)
    for _ in range(60):
        t = random_additive_tuple(rng, rng.choice([2, 3]), rng.choice([2, 3]))
        side_by_side = xl.hstack([RatMatrix.from_rows(commutation_system(m.row_lists())) for m in t.matrices])
        assert tl.commut_surjective(t) == (xl.rank(side_by_side) == t.n**2 - 1)


def test_is_irreducible_examples():
    assert not tl.is_irreducible(build_trivial_centralizer_quadruple())
    assert not tl.is_irreducible(build_split_sum_quadruple())
    one = MatrixTuple("multiplicative", [RatMatrix.identity(1)] * 2, [[1], [1]])
    assert tl.is_irreducible(one)
    triple = build_first_block_triple()
    assert tl.is_irreducible(triple)


def test_irreducible_implies_trivial_centralizer():
    rng = random.Random(35)
    for _ in range(60):
        t = random_additive_tuple(rng, rng.choice([2, 3]), 2)
        if tl.is_irreducible(t):
            assert tl.has_trivial_centralizer(t)
    # converse fails: the trivial-centralizer quadruple is reducible
    quad = build_trivial_centralizer_quadruple()
    assert tl.has_trivial_centralizer(quad) and not tl.is_irreducible(quad)


def test_tangent_dim_examples():
    quad = build_trivial_centralizer_quadruple()
    assert tl.tangent_dim(quad) == 8
    assert tl.expected_dim(tl.jnf_tuple_of(quad)) == 8
    bad = MatrixTuple(
        "multiplicative",
        [RatMatrix.identity(2), RatMatrix.identity(2).scale(2)],
        [[1, 1], [2, 2]],
    )
    with pytest.raises(tl.ClosureViolatedError):
        tl.tangent_dim(bad)


def test_tangent_equals_expected_at_trivial_centralizer():
    rng = random.Random(4242)
    found = 0
    while found < 8:
        mats = [random_matrix(rng, 2) for _ in range(2)]
        last = (xl.inverse(xl.product(mats)) if all(xl.rank(m) == 2 for m in mats) else None)
        if last is None:
            continue
        t = MatrixTuple("multiplicative", mats + [last], [[1, 1]] * 3)
        # claimed eigenvalues are placeholders; nothing below consults them
        if not tl.has_trivial_centralizer(t):
            continue
        theta = tl.tangent_dim(t)
        dims = [4 - tl.centralizer_dim_of([m]) for m in t.matrices]
        assert theta == sum(dims) - 4 + 1
        found += 1


def test_orbit_dim_examples():
    quad = build_trivial_centralizer_quadruple()
    assert tl.orbit_dim(quad) == 8
    assert tl.orbit_dim(identity_tuple(2, 2)) == 0


def test_min_rank_consistency_with_jnf_of():
    rng = random.Random(5)
    values = [F(1), F(2), F(-3)]
    for _ in range(20):
        n = rng.choice([2, 3])
        diag = [values[rng.randrange(len(values))] for _ in range(n)]
        g = random_invertible(rng, n)
        m = g @ RatMatrix.diagonal(diag) @ xl.inverse(g)
        j = tl.jnf_of(m, diag)
        from deligne_simpson.jnf import min_rank

        ranks = [xl.rank(m - RatMatrix.identity(n).scale(v)) for v in set(diag)]
        assert min(ranks) == min_rank(j)


def test_conjugation_invariance():
    rng = random.Random(2024)
    quad = build_trivial_centralizer_quadruple()
    split = build_split_sum_quadruple()
    for t in (quad, split):
        base = (
            tl.centralizer_dim(t),
            tl.is_irreducible(t),
            tl.tangent_dim(t),
            tl.orbit_dim(t),
            [tl.jnf_of(m, e) for m, e in zip(t.matrices, t.eigenvalue_lists)],
        )
        for _ in range(3):
            g = random_invertible(rng, t.n)
            c = tl.conjugate(t, g)
            assert tl.verify_closure(c)
            assert (
                tl.centralizer_dim(c),
                tl.is_irreducible(c),
                tl.tangent_dim(c),
                tl.orbit_dim(c),
                [tl.jnf_of(m, e) for m, e in zip(c.matrices, c.eigenvalue_lists)],
            ) == base


def test_matrix_tuple_validation():
    ident = RatMatrix.identity(2)
    with pytest.raises(ValueError, match="nonzero"):
        MatrixTuple("multiplicative", [ident, ident], [[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="length 2"):
        MatrixTuple("multiplicative", [ident, ident], [[1], [1, 1]])
    with pytest.raises(ValueError, match="one eigenvalue list per matrix"):
        MatrixTuple("multiplicative", [ident, ident, ident], [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="square"):
        MatrixTuple("multiplicative", [ident, RatMatrix.identity(3)], [[1, 1], [1, 1, 1]])
    for mode in ("multiplicative", "additive"):
        with pytest.raises(ValueError, match="at least two matrices"):
            MatrixTuple(mode, [ident], [[1, 1]])
    singular = RatMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        MatrixTuple("multiplicative", [ident, singular], [[1, 1], [5, 5]])
    zero = RatMatrix.zero(2, 2)
    assert tl.verify_closure(MatrixTuple("additive", [singular, zero, singular.scale(-1)], [[0, 5]] * 3))
    assert tl.verify_closure(MatrixTuple("additive", [zero, zero], [[0, 0]] * 2))


def test_verify_closure_ranks_nothing(monkeypatch):
    quad = build_trivial_centralizer_quadruple()
    add = MatrixTuple("additive", [RatMatrix.identity(2), RatMatrix.identity(2).scale(-1)], [[1, 1], [-1, -1]])
    monkeypatch.setattr(xl, "rank", lambda m: pytest.fail("verify_closure called rank"))
    assert tl.verify_closure(quad) and tl.verify_closure(add)


def test_tuple_json_roundtrip():
    quad = build_trivial_centralizer_quadruple()
    data = quad.to_json()
    assert MatrixTuple.from_json(data).to_json() == data
    assert data["matrices"][0][0][0] == "2"


def test_report_shape():
    quad = build_trivial_centralizer_quadruple()
    rep = tl.report(quad)
    assert rep["closure"] is True
    assert rep["centralizer_dim"] == 1
    assert rep["tangent_dim"] == 8 and rep["tangent_dim_is_formal"] is False
    assert rep["expected_dim"] == 8 and rep["kappa"] == 2
    assert rep["irreducible"] is False
    wrong = MatrixTuple("multiplicative", quad.matrices, [[7, 7, 7]] * 4)
    rep2 = tl.report(wrong)
    assert rep2["jnfs"] is None and rep2["expected_dim"] is None


def test_report_checks_closure_once(monkeypatch):
    calls = []
    checked = tl.verify_closure
    monkeypatch.setattr(tl, "verify_closure", lambda t: calls.append(t) or checked(t))
    assert tl.report(build_trivial_centralizer_quadruple())["tangent_dim"] == 8
    assert len(calls) == 1
    two = RatMatrix.identity(2).scale(2)
    rep = tl.report(MatrixTuple("multiplicative", [RatMatrix.identity(2), two], [[1, 1], [2, 2]]))
    assert len(calls) == 2
    assert rep["closure"] is False
    assert rep["tangent_dim"] is None and rep["tangent_dim_is_formal"] is None


def count_routes(monkeypatch):
    """Lists that record each tuple given to the Burnside closure and to the
    stacked centralizer elimination."""
    closures, eliminations = [], []
    closure, stacked = tl.algebra_dim, tl.centralizer_dim
    monkeypatch.setattr(tl, "algebra_dim", lambda t: closures.append(t) or closure(t))
    monkeypatch.setattr(tl, "centralizer_dim", lambda t: eliminations.append(t) or stacked(t))
    return closures, eliminations


def with_claims(t, value):
    """t with every claimed eigenvalue replaced by one value."""
    return MatrixTuple(t.mode, t.matrices, [[value] * t.n] * len(t))


def test_report_routes_between_norton_the_closure_and_the_stacked_centralizer(monkeypatch):
    quad = build_trivial_centralizer_quadruple()
    split = build_split_sum_quadruple()
    triple = build_first_block_triple()
    # spins of Norton's test, or None when no claimed lam has
    # rank(M_j - lam I) = n - 1 (4 is no eigenvalue, and every M of the
    # identity tuple has rank(M - I) = 0)
    cases = [
        (quad, (False, True)),
        (split, (False, False)),
        (triple, (True, True)),
        (with_claims(quad, 4), None),
        (with_claims(split, 4), None),
        (with_claims(triple, 4), None),
        (identity_tuple(3, 2), None),
    ]
    expected = [
        (
            frontier_algebra_dim([m.row_lists() for m in t.matrices]) == t.n**2,
            tl.centralizer_dim_of(t.matrices),
        )
        for t, _ in cases
    ]
    closures, eliminations = count_routes(monkeypatch)
    for (t, spins), (irreducible, cdim) in zip(cases, expected):
        assert tl.norton_spins(t) == spins
        del closures[:], eliminations[:]
        rep = tl.report(t)
        assert (rep["irreducible"], rep["centralizer_dim"]) == (irreducible, cdim)
        # the closure runs only without a theta and at trivial centralizer
        assert closures == ([t] if spins is None and cdim == 1 else [])
        # the elimination is skipped exactly when a spin is full
        assert eliminations == ([] if spins is not None and any(spins) else [t])
    assert [irreducible for irreducible, _ in expected] == [False, False, True] * 2 + [False]
    assert [cdim for _, cdim in expected] == [1, 2, 1] * 2 + [9]


def block_triangular_claims(rng, n, count):
    """A tuple of count additive-mode matrices, block upper triangular with
    one or two diagonal blocks, conjugated by one random unimodular g so
    that no denominator grows.  Each matrix's diagonal blocks are upper
    triangular with diagonal entries from a small pool that holds halves
    and thirds (always in M_1), or dense random with integer entries; now
    and then every off-diagonal block is 0, a direct sum.  A triangular
    matrix claims its diagonal in shuffled order, or, now and then, one
    shifted by 7 or by 7/3 that is no spectrum; a dense one claims 0s."""
    cut = rng.randint(1, n)  # n: one block
    blocks = [(0, cut), (cut, n)] if cut < n else [(0, n)]
    decoupled = rng.random() < 0.15
    mats, claims = [], []
    for j in range(count):
        triangular = j == 0 or rng.random() < 0.15
        rows = [[F(0)] * n for _ in range(n)]
        for a, b in blocks:
            for i in range(a, b):
                for k in range(a if not triangular else i, n if not decoupled else b):
                    rows[i][k] = F(rng.randint(-2, 2))
                if triangular:
                    rows[i][i] = rng.choice([F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)])
        mats.append(RatMatrix.from_rows(rows))
        if triangular:
            diagonal = [rows[i][i] for i in range(n)]
            rng.shuffle(diagonal)
            shift = rng.choice([7, F(7, 3)]) if rng.random() < 0.2 else 0
            claims.append([x + shift for x in diagonal])
        else:
            claims.append([0] * n)
    return tl.conjugate(MatrixTuple("additive", mats, claims), unimodular(rng, n))


def oracle_spins(t):
    """Norton's spins by the dense references, for theta = M_j - lam I chosen
    as ``norton_spins`` documents: rank n - 1 means det 0 and a nonzero
    adjugate, whose nonzero columns span ker theta and rows ker theta^T."""
    mats = [m.row_lists() for m in t.matrices]
    transposes = [[list(col) for col in zip(*m)] for m in mats]
    for m, eigs in zip(mats, t.eigenvalue_lists):
        for lam in dict.fromkeys(eigs):
            theta = [[x - lam * (i == k) for k, x in enumerate(row)] for i, row in enumerate(m)]
            if det_cofactor(theta) != 0:
                continue
            adj = adjugate(theta)
            v = next((list(col) for col in zip(*adj) if any(col)), None)
            if v is None:
                continue
            w = next(row for row in adj if any(row))
            return (frontier_spin_dim(v, mats) == t.n, frontier_spin_dim(w, transposes) == t.n)
    return None


def test_norton_route_matches_the_dense_references(monkeypatch):
    """Seeded block-triangular tuples, n 2-6, some with fractional
    eigenvalues and claims: Norton's verdict against the
    generated algebra's dimension and report's centralizer against the
    stacked elimination, with both spins full, only v's, only w's, neither,
    and no theta (the fallback), each drawn at least 5 times."""
    rng = random.Random(2)
    seen = {"both": 0, "only v": 0, "only w": 0, "neither": 0, "no theta": 0}
    closures, eliminations = count_routes(monkeypatch)
    for _ in range(48):
        n = rng.randint(2, 6)
        t = block_triangular_claims(rng, n, rng.randint(2, 3))
        spins = oracle_spins(t)
        case = "no theta" if spins is None else {
            (True, True): "both", (True, False): "only v", (False, True): "only w", (False, False): "neither"
        }[spins]
        seen[case] += 1
        irreducible = frontier_algebra_dim([m.row_lists() for m in t.matrices]) == n * n
        cdim = tl.centralizer_dim_of(t.matrices)
        assert tl.norton_spins(t) == spins
        assert tl.is_irreducible(t) == irreducible
        del closures[:], eliminations[:]
        rep = tl.report(t)
        assert (rep["irreducible"], rep["centralizer_dim"]) == (irreducible, cdim)
        assert closures == ([t] if spins is None and cdim == 1 else [])
        assert eliminations == ([] if spins is not None and any(spins) else [t])
    assert min(seen.values()) >= 5, seen


def test_report_shifts_by_lam_in_integers(monkeypatch):
    """jnf_of and Norton's theta form M - lam I as integers, so report
    scales no RatMatrix: on a dense tuple (two regular Jordan matrices with
    fractional eigenvalues, conjugated by unimodular matrices and closed by
    minus their sum, which claims a wrong spectrum) and on a closed
    triangular one."""
    rng = random.Random(6)
    n = 4
    mats, claims = [], []
    for values, sizes in (([F(1, 2), F(-2, 3)], [3, 1]), ([F(3, 7), F(-1)], [2, 2])):
        g = unimodular(rng, n)
        mats.append(g @ tl.jordan_realization(Jnf([(str(v), [size]) for v, size in zip(values, sizes)])) @ xl.inverse(g))
        claims.append([v for v, size in zip(values, sizes) for _ in range(size)])
    mats.append(-(mats[0] + mats[1]))
    dense = MatrixTuple("additive", mats, [*claims, [0] * n])
    triangular = closed_triangular_tuple(rng, "multiplicative", 5, 3)
    expected = [tl.report(t) for t in (dense, triangular)]
    monkeypatch.setattr(RatMatrix, "scale", lambda m, c: pytest.fail("report scaled a RatMatrix"))
    reports = [tl.report(t) for t in (dense, triangular)]
    assert reports == expected
    assert reports[0]["wrong_spectrum"] and reports[0]["irreducible"] is True
    assert reports[1]["jnfs"] is not None and tl.norton_spins(triangular) is not None


def test_report_at_n10_decides_irreducibility_without_the_closure(monkeypatch):
    """Closed tuples built as the benchmark builds its dense and triangular
    cells, at n = 10, where the Burnside closure takes seconds: two regular
    Jordan matrices conjugated by unimodular matrices and closed by minus
    their sum (which claims a wrong spectrum), and an upper-triangular
    triple closed the same way and conjugated by one unimodular matrix."""
    rng = random.Random(10)
    n = 10
    mats, claims = [], []
    for values, sizes in (([2, -1, 0], [4, 3, 3]), ([-2, 1], [6, 4])):
        g = unimodular(rng, n)
        regular = Jnf([(str(v), [size]) for v, size in zip(values, sizes)])
        mats.append(g @ tl.jordan_realization(regular) @ xl.inverse(g))
        claims.append([v for v, size in zip(values, sizes) for _ in range(size)])
    mats.append(-(mats[0] + mats[1]))
    jordan = MatrixTuple("additive", mats, [*claims, [0] * n])
    triangular = closed_triangular_tuple(rng, "additive", n, 3, unimodular(rng, n))
    assert tl.verify_closure(jordan) and tl.verify_closure(triangular)
    closures, _ = count_routes(monkeypatch)
    assert tl.report(jordan)["irreducible"] is True
    assert tl.report(triangular)["irreducible"] is False
    assert closures == []


def closed_triangular_tuple(rng, mode, n, count, g=None):
    """A closed tuple of upper-triangular matrices conjugated by g (by
    default one random invertible matrix), claiming each diagonal as the
    spectrum.  The closing matrix is triangular too, so every claim is
    right.  Diagonals draw from few values and off-diagonals are often 0,
    so eigenvalues repeat with varied blocks."""
    values = [F(1), F(-1), F(2)] if mode == "multiplicative" else [F(0), F(1), F(-2)]

    def triangular():
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice(values)
            for j in range(i + 1, n):
                rows[i][j] = F(rng.choice([0, 0, 1, -1, 2]))
        return RatMatrix.from_rows(rows)

    mats = [triangular() for _ in range(count - 1)]
    if mode == "multiplicative":
        mats.append(xl.inverse(xl.product(mats)))
    else:
        mats.append(-sum(mats[1:], mats[0]))
    claims = [[m.row(i)[i] for i in range(n)] for m in mats]
    return tl.conjugate(MatrixTuple(mode, mats, claims), g or random_invertible(rng, n))


TRIANGULAR_CASES = [
    (mode, n, count)
    for mode in ("multiplicative", "additive")
    for n, count in ((3, 4), (4, 3), (5, 4), (6, 3))
]


@pytest.mark.parametrize("mode,n,count", TRIANGULAR_CASES)
def test_report_reads_matrix_centralizers_off_the_jnfs(mode, n, count):
    rng = random.Random(f"{mode}-{n}-{count}")
    t = closed_triangular_tuple(rng, mode, n, count)
    assert tl.verify_closure(t)
    dense = tl.tangent_dim(t)
    rep = tl.report(t)
    assert rep["jnfs"] is not None and rep["tangent_dim"] == dense
    for m, eigs in zip(t.matrices, t.eigenvalue_lists):
        assert centralizer_dim_of_jnf(tl.jnf_of(m, eigs)) == tl.centralizer_dim_of([m])
    # one wrong claim, then all: those centralizers come from elimination,
    # and the message reported is the first, as jnf_tuple_of raises it
    k = rng.randrange(count)
    for wrong_ones in ([k], range(count)):
        claims = list(t.eigenvalue_lists)
        for i in wrong_ones:
            claims[i] = [claims[i][0] + 7, *claims[i][1:]]  # no longer the spectrum
        wrong = MatrixTuple(mode, t.matrices, claims)
        rep = tl.report(wrong)
        with pytest.raises(tl.WrongSpectrumError) as raised:
            tl.jnf_tuple_of(wrong)
        assert rep["jnfs"] is None and rep["wrong_spectrum"] == str(raised.value)
        assert rep["tangent_dim"] == dense


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def tangent_oracle(t):
    """p n^2 + dim C(t) - sum_j dim C(M_j) for p + 1 matrices: under the trace
    pairing the image of the product (sum) differential is the orthogonal
    complement of the tuple's centralizer C(t)."""
    p = len(t) - 1
    return p * t.n**2 + tl.centralizer_dim(t) - sum(tl.centralizer_dim_of([m]) for m in t.matrices)


def closed_matrices(rng, mode, n, count):
    if mode == "additive":
        mats = [random_matrix(rng, n) for _ in range(count - 1)]
        return mats + [-sum(mats[1:], mats[0])]
    mats = [random_invertible(rng, n) for _ in range(count - 1)]
    return mats + [xl.inverse(xl.product(mats))]


def block_diagonal(a, b):
    k, m = a.rows, b.rows
    rows = [list(a.row(i)) + [F(0)] * m for i in range(k)]
    rows += [[F(0)] * k + list(b.row(i)) for i in range(m)]
    return RatMatrix.from_rows(rows)


TANGENT_CASES = [
    (seed, mode, n, count, structure)
    for seed, (mode, (n, count, structure)) in enumerate(
        (mode, shape)
        for mode in ("multiplicative", "additive")
        for shape in (
            (2, 3, "generic"), (3, 3, "generic"), (4, 3, "generic"), (2, 4, "generic"),
            (2, 3, "direct_sum"), (3, 3, "direct_sum"), (4, 3, "direct_sum"),
            (2, 4, "doubled"), (4, 3, "doubled"),
        )
    )
]


@pytest.mark.parametrize("seed,mode,n,count,structure", TANGENT_CASES)
def test_tangent_dim_matches_centralizer_oracle_on_seeded_tuples(seed, mode, n, count, structure):
    rng = random.Random(900 + seed)
    if structure == "generic":
        mats = closed_matrices(rng, mode, n, count)
    else:
        k = n // 2 if structure == "doubled" else rng.randint(1, n - 1)
        first = closed_matrices(rng, mode, k, count)
        second = first if structure == "doubled" else closed_matrices(rng, mode, n - k, count)
        g = random_invertible(rng, n)
        ginv = xl.inverse(g)
        mats = [g @ block_diagonal(a, b) @ ginv for a, b in zip(first, second)]
    # the claimed eigenvalues are placeholders; tangent_dim does not read them
    t = MatrixTuple(mode, mats, [[1] * n] * count)
    assert tl.verify_closure(t)
    if structure == "doubled":
        assert tl.centralizer_dim(t) >= 4
    dense = tl.tangent_dim(t)
    assert dense == tangent_oracle(t)
    # report takes the same number from the centralizers, without the differential
    rep = tl.report(t)
    assert rep["tangent_dim"] == dense
    assert rep["irreducible"] == (tl.algebra_dim(t) == t.n**2)


def test_tangent_dim_matches_centralizer_oracle_on_shipped_tuples():
    paths = sorted(FIXTURES.glob("*.verify.json"))
    assert len(paths) == 14
    for path in paths:
        t = MatrixTuple.from_json(json.loads(path.read_text(encoding="utf-8")))
        dense = tl.tangent_dim(t)
        assert dense == tangent_oracle(t), path.name
        rep = tl.report(t)
        assert rep["tangent_dim"] == dense, path.name
        assert rep["irreducible"] == (tl.algebra_dim(t) == t.n**2), path.name


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_report_tangent_dim_is_none_for_a_tuple_that_does_not_close(mode):
    mats = closed_matrices(random.Random(41), mode, 3, 3)
    broken = MatrixTuple(mode, [*mats[:-1], mats[-1].scale(2)], [[1] * 3] * 3)
    with pytest.raises(tl.ClosureViolatedError):
        tl.tangent_dim(broken)
    rep = tl.report(broken)
    assert rep["closure"] is False
    assert rep["tangent_dim"] is None and rep["tangent_dim_is_formal"] is None


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_corner_differential_is_the_corner_of_the_block_product(mode):
    """The corner differential maps (Y_j) to the upper-right block of the
    product (sum) of [[L_j, L_j Y_j - Y_j B_j], [0, B_j]], computed here
    entrywise on the 2n x 2n block matrices."""
    rng = random.Random(31 if mode == "additive" else 37)
    for n, count in ((2, 2), (2, 4), (3, 3)):
        ls = [random_matrix(rng, n) for _ in range(count)]
        bs = [random_matrix(rng, n) for _ in range(count)]
        ys = [random_matrix(rng, n).scale(F(1, rng.choice([1, 2, 3]))) for _ in range(count)]
        blocks = []
        for l, b, y in zip(ls, bs, ys):
            corner = entrywise_product([l.row_lists(), y.row_lists()])
            corner = [[p - q for p, q in zip(r1, r2)]
                      for r1, r2 in zip(corner, entrywise_product([y.row_lists(), b.row_lists()]))]
            top = [list(l.row(i)) + corner[i] for i in range(n)]
            bottom = [[F(0)] * n + list(b.row(i)) for i in range(n)]
            blocks.append(top + bottom)
        if mode == "multiplicative":
            whole = entrywise_product(blocks)
        else:
            whole = [[sum((m[i][j] for m in blocks), F(0)) for j in range(2 * n)] for i in range(2 * n)]
        expected = [x for row in whole[:n] for x in row[n:]]
        vec = RatMatrix.column([x for y in ys for x in y.entries])
        assert list((tl.corner_differential(ls, bs, mode) @ vec).entries) == expected


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_corner_differential_rejects_tuples_of_different_lengths(mode):
    rng = random.Random(41)
    ls = [random_invertible(rng, 2) for _ in range(4)]
    with pytest.raises(ValueError):
        tl.corner_differential(ls, ls[:3], mode)
    with pytest.raises(ValueError):
        tl.corner_differential(ls[:3], ls, mode)
