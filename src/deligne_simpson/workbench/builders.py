"""Deterministic constructions of the matrix-tuple fixtures.

Everything here is closed-form exact arithmetic; no numeric search.  The
central device is ``split_product``: factor a given 2x2 upper-triangular
matrix W as X @ Y with X and Y in prescribed diagonalizable conjugacy
classes.  Writing V = X^-1, the class of X fixes trace(V) and det(V), and
the class of Y fixes trace(V @ W); with W upper triangular these are one
linear condition on the entries of V, so a solution with lower-left entry
1 can be written down directly.  Determinants match automatically, so
Y = V @ W lands in its class whenever its two prescribed eigenvalues are
distinct.

Every 2x2 tuple comes from one constructor, ``closed_tuple``: given the
leading matrices ``before`` and the trailing matrices ``after``, it closes
the tuple (*before, X, Y, *after) to product I by splitting
(after @ before)^-1 into X @ Y, and checks closure, class membership,
generic eigenvalues and irreducibility.

Every 4x4 point is an extension of two 2x2 tuples: ``block_triangular`` is
the one constructor of the matrices [[L_j, T_j], [0, B_j]], block diagonal
for the direct-sum, doubled and block-diagonal points, with corner blocks
for the semidirect point and the triangular triple.

Irreducibility of the assembled tuples is not an accident: their
eigenvalues are chosen generic (validated through the spectra module), and
a tuple with an invariant line would force a product-one relation among
eigenvalues, one per class.  Builders still verify irreducibility, class
membership and closure, and raise ConstructionFailedError on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .. import exact_linalg as xl
from ..exact_linalg import RatMatrix, hom_dim, rat
from ..jnf import Jnf
from ..spectra import (
    MULTIPLICATIVE,
    FormalScalar,
    SpectrumAssignment,
    is_generic,
)
from ..tuple_lab import (
    MatrixTuple,
    centralizer_dim,
    centralizer_dim_of,
    corner_differential,
    is_irreducible,
    jnf_of,
)


class ConstructionFailedError(Exception):
    pass


Pair = tuple[Fraction, Fraction]


def _pair(a, b) -> Pair:
    return (rat(a), rat(b))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConstructionFailedError(message)


def _prime_exponents(k: int) -> dict[str, int]:
    out: dict[str, int] = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[str(p)] = out.get(str(p), 0) + 1
            k //= p
        p += 1
    if k > 1:  # a prime above every p divided out
        out[str(k)] = 1
    return out


def scalar_from_rational(x: Fraction) -> FormalScalar:
    """Encode a nonzero rational exactly: prime factors become symbol
    exponents and the sign becomes phase 1/2, so multiplicative relations
    between rationals are exactly the visible exponent relations."""
    x = rat(x)
    if x == 0:
        raise ValueError("0 has no multiplicative encoding")
    # numerator and denominator are coprime, so no prime appears in both
    exponents = _prime_exponents(abs(x.numerator))
    exponents.update((sym, -e) for sym, e in _prime_exponents(x.denominator).items())
    return FormalScalar.multiplicative(exponents, Fraction(1, 2) if x < 0 else 0)


def spectrum_of_rationals(eigenvalue_lists: Sequence[Sequence[Fraction]]) -> SpectrumAssignment:
    """Exact multiplicative spectrum of concrete rational eigenvalue lists."""
    classes = []
    for lst in eigenvalue_lists:
        counts: dict[Fraction, int] = {}
        for v in lst:
            v = rat(v)
            counts[v] = counts.get(v, 0) + 1
        classes.append([(scalar_from_rational(v), c) for v, c in counts.items()])
    return SpectrumAssignment(classes)


def split_product(w: RatMatrix, second: Pair, third: Pair) -> tuple[RatMatrix, RatMatrix]:
    """Factor the 2x2 matrix w (upper triangular, distinct diagonal) as
    X @ Y with X diagonalizable in the class of ``second`` and Y in the
    class of ``third``.  Requires det(w) = product of all four eigenvalues'
    pairings: det(second) * det(third)."""
    _check(w.rows == 2 and w.cols == 2, "split_product works on 2x2 matrices")
    _check(w[1, 0] == 0, "split_product needs an upper-triangular w")
    _check(w[0, 0] != w[1, 1], "split_product needs distinct diagonal entries in w")
    a2, b2 = second
    a3, b3 = third
    _check(a2 != b2 and a3 != b3, "classes must have distinct eigenvalues")
    _check(w[0, 0] * w[1, 1] == a2 * b2 * a3 * b3, "determinants do not match")
    tr_v = 1 / a2 + 1 / b2
    det_v = 1 / (a2 * b2)
    target = a3 + b3
    v11 = (target - tr_v * w[1, 1] - w[0, 1]) / (w[0, 0] - w[1, 1])
    v22 = tr_v - v11
    v = RatMatrix.from_rows([[v11, v11 * v22 - det_v], [1, v22]])
    x = xl.inverse(v)
    y = v @ w
    _check(x.trace() == a2 + b2, "second factor trace mismatch")
    _check(y.trace() == a3 + b3, "third factor trace mismatch")
    return x, y


def closed_tuple(
    classes: Sequence[Pair], before: Sequence[RatMatrix], after: Sequence[RatMatrix] = ()
) -> MatrixTuple:
    """The 2x2 tuple (*before, X, Y, *after) with product I, one
    diagonalizable class per matrix: X @ Y = (after @ before)^-1, factored
    by ``split_product``.  Raises ConstructionFailedError unless the tuple
    closes, its eigenvalues are generic and it is irreducible, and
    WrongSpectrumError when a matrix is not in its class."""
    x, y = split_product(
        xl.inverse(xl.product([*after, *before])), classes[len(before)], classes[len(before) + 1]
    )
    t = MatrixTuple(MULTIPLICATIVE, [*before, x, y, *after], [[a, b] for a, b in classes])
    _check(t.closed, "tuple does not close")
    for m, eigs in zip(t.matrices, t.eigenvalue_lists):
        jnf_of(m, eigs)  # raises WrongSpectrumError on a bad class
    rep = is_generic(spectrum_of_rationals(t.eigenvalue_lists))
    _check(rep.verdict == "generic", f"eigenvalues are not generic: {rep.verdict}")
    _check(is_irreducible(t), "tuple is unexpectedly reducible")
    return t


# Frozen eigenvalue data.  The rigid family uses classes (2,3), (5,7),
# (-1/11, -11/210) and the scalar class -1: the determinant condition
# 6 * 35 * (1/210) * 1 = 1 holds, and no choice of one eigenvalue per
# class multiplies to 1 (checked by the genericity validator).
RIGID_CLASSES: tuple[Pair, ...] = (
    _pair(2, 3),
    _pair(5, 7),
    _pair(Fraction(-1, 11), Fraction(-11, 210)),
    _pair(-1, -1),
)


def build_rigid_quadruple() -> MatrixTuple:
    """Three diagonalizable 2x2 matrices with product -I, completed by the
    scalar -I into a closed quadruple.  The triple is irreducible and its
    class tuple is rigid (index 2)."""
    return closed_tuple(RIGID_CLASSES, [RatMatrix.diagonal(RIGID_CLASSES[0])], [RatMatrix.identity(2).scale(-1)])


def build_jordan_quadruple() -> MatrixTuple:
    """Same first three classes as the rigid quadruple, but the fourth
    matrix is a Jordan block of size 2 at -1 (index of rigidity 0)."""
    p4 = RatMatrix.from_rows([[-1, 1], [0, -1]])
    t = closed_tuple(RIGID_CLASSES, [RatMatrix.diagonal(RIGID_CLASSES[0])], [p4])
    _check(jnf_of(p4, [-1, -1]) == Jnf([("-1", [2])]), "fourth matrix is not a Jordan block")
    return t


def block_triangular(
    first: MatrixTuple, second: MatrixTuple, corners: Sequence[RatMatrix] | None = None
) -> MatrixTuple:
    """The tuple of block upper-triangular matrices [[L_j, T_j], [0, B_j]]
    with L_j from ``first``, B_j from ``second`` and T_j from ``corners``;
    block diagonal (a direct sum) when ``corners`` is None.  Each class
    lists equal eigenvalues together, in order of first appearance, so the
    classes (a, b) and (a, c) give (a, a, b, c).  Raises
    ConstructionFailedError when the tuple does not close."""
    if corners is None:
        corners = [RatMatrix.zero(first.n, second.n)] * len(first)
    zeros = (Fraction(0),) * first.n
    mats = [
        RatMatrix.from_rows(
            [l.row(i) + t.row(i) for i in range(l.rows)] + [zeros + b.row(i) for i in range(b.rows)]
        )
        for l, t, b in zip(first.matrices, corners, second.matrices, strict=True)
    ]
    both = [x + y for x, y in zip(first.eigenvalue_lists, second.eigenvalue_lists, strict=True)]
    t = MatrixTuple(first.mode, mats, [sorted(xy, key=xy.index) for xy in both])
    _check(t.closed, "block-triangular tuple does not close")
    return t


def _blocks(column: RatMatrix, n: int) -> list[RatMatrix]:
    """The n x n blocks of a column of k * n^2 entries, in order."""
    size = n * n
    return [RatMatrix(n, n, column.entries[k : k + size]) for k in range(0, column.rows, size)]


def build_semidirect_point(rigid: MatrixTuple) -> MatrixTuple:
    """Block upper-triangular 4x4 quadruple [[N_j, R_j], [0, N_j]] with
    R_j = [N_j, Z_j] for j = 1..3 and the rank-1 nilpotent R_4 = E_12.

    The upper-right block of the product condition is linear in the Z_j;
    it is solvable because the triple N_1, N_2, N_3 is irreducible, so the
    summed commutator map is onto the trace-zero matrices.
    """
    r4 = RatMatrix.from_rows([[0, 1], [0, 0]])
    ns = list(rigid.matrices[:3])
    _check(rigid.matrices[3] == RatMatrix.identity(2).scale(-1), "rigid quadruple must end with -I")
    # The upper-right block of the product is
    # sum_j N_1...N_{j-1} [N_j, Z_j] N_{j+1}...N_3 N_4 + N_1 N_2 N_3 R_4; as
    # N_4 = N_1 N_2 N_3 = -I, it vanishes when the corner differential of
    # (N_1, N_2, N_3) maps (Z_1, Z_2, Z_3) to -R_4.
    system = corner_differential(ns, ns, MULTIPLICATIVE)
    rhs = RatMatrix.column(r4.scale(-1).entries)
    try:
        solution = xl.solve(system, rhs)
    except xl.NoSolutionError as exc:  # impossible for an irreducible triple
        raise ConstructionFailedError("upper-right block equation is inconsistent") from exc
    rs = [xl.commutator(n, z) for n, z in zip(ns, _blocks(solution, 2), strict=True)] + [r4]
    t = block_triangular(rigid, rigid, rs)
    _check(
        jnf_of(t.matrices[3], [-1, -1, -1, -1]) == Jnf([("-1", [2, 1, 1])]),
        "fourth matrix has the wrong Jordan structure",
    )
    return t


# Classes of the three-class size-4 example: eigenvalues (a,a,b,c),
# (f,f,g,h), (u,u,v,w), whose 2x2 diagonal blocks carry (a,b),(f,g),(u,v)
# and (a,c),(f,h),(u,w).  The instantiation below keeps the intended
# relation a*b*f*g*u*v = 1 (hence a*c*f*h*u*w = 1) and nothing else.
TQ_A, TQ_B, TQ_C = rat(2), rat(3), rat(5)
TQ_F, TQ_G, TQ_H = rat(7), rat(11), rat(13)
TQ_U = Fraction(1, 23)
TQ_V = 1 / (TQ_A * TQ_B * TQ_F * TQ_G * TQ_U)
TQ_W = 1 / (TQ_A * TQ_C * TQ_F * TQ_H * TQ_U)


def build_triple(classes: Sequence[Pair]) -> MatrixTuple:
    """An irreducible 2x2 triple with product I in the three given
    diagonalizable classes (eigenvalue product over all classes must be 1
    and the eigenvalues generic)."""
    return closed_tuple(classes, [RatMatrix.diagonal(classes[0])])


def build_first_block_triple() -> MatrixTuple:
    return build_triple([_pair(TQ_A, TQ_B), _pair(TQ_F, TQ_G), _pair(TQ_U, TQ_V)])


def build_second_block_triple() -> MatrixTuple:
    return build_triple([_pair(TQ_A, TQ_C), _pair(TQ_F, TQ_H), _pair(TQ_U, TQ_W)])


def triangular_spaces(first: MatrixTuple, second: MatrixTuple) -> dict:
    """The linear spaces attached to block upper-triangular k-tuples
    [[L_j, T_j], [0, B_j]] with product I.

    * full space T: tuples (T_1, ..., T_k) with T_j = L_j Y_j - Y_j B_j for
      independent Y_j, subject to the upper-right block of the product
      condition, sum over j of L_1 ... L_{j-1} T_j B_{j+1} ... B_k = 0;
    * conjugation subspace Q: the tuples with one common Y.

    Returns a basis of each space, their lengths as the dimensions, and
    the first basis vector of T outside Q as a representative.
    """
    ls = first.matrices
    bs = second.matrices
    n = ls[0].rows

    def corners(ys: Sequence[RatMatrix]) -> RatMatrix:
        """(L_j Y_j - Y_j B_j)_j as one column."""
        pieces = (l @ y - y @ b for l, y, b in zip(ls, ys, bs, strict=True))
        return RatMatrix.column([x for piece in pieces for x in piece.entries])

    def new_to(echelon: xl.IntEchelon, vectors: Iterable[RatMatrix]) -> Iterator[RatMatrix]:
        """The vectors, in order, outside the span of echelon and of those kept before them;
        each one kept is added to echelon."""
        return (vec for vec in vectors if echelon.add(x for (x,) in vec.numerators))

    # The upper-right block of the product condition, as a function of the
    # Y_j, is the corner differential; T is the corners of its kernel.
    kernel = xl.nullspace_basis(corner_differential(ls, bs, MULTIPLICATIVE))
    t_basis = list(new_to(xl.IntEchelon(), (corners(_blocks(vec, n)) for vec in kernel)))
    # one common Y, running over the unit matrices in row-major order
    units = [RatMatrix(n, n, [int(i == k) for i in range(n * n)]) for k in range(n * n)]
    q_echelon = xl.IntEchelon()
    q_basis = list(new_to(q_echelon, (corners([unit] * len(ls)) for unit in units)))
    # the first basis vector of T outside Q
    representative = next(new_to(q_echelon, t_basis), None)
    _check(representative is not None, "no representative outside the conjugation subspace")
    return {
        "dim_full": len(t_basis),
        "dim_conjugation": len(q_basis),
        "full_basis": t_basis,
        "conjugation_basis": q_basis,
        "representative": representative,
    }


def build_triangular_triple(first: MatrixTuple, second: MatrixTuple) -> MatrixTuple:
    """A block upper-triangular triple with trivial centralizer: the
    upper-right blocks span the full space modulo the conjugation subspace."""
    spaces = triangular_spaces(first, second)
    t = block_triangular(first, second, _blocks(spaces["representative"], 2))
    _check(centralizer_dim(t) == 1, "triangular triple centralizer is not trivial")
    return t


# Size-2 classes for the zero-index example: four diagonalizable classes
# with distinct eigenvalue pairs, generic, product of all eigenvalues 1.
ZERO_INDEX_CLASSES: tuple[Pair, ...] = (
    _pair(2, 3),
    _pair(5, 7),
    _pair(11, 13),
    _pair(Fraction(1, 97), Fraction(97, 30030)),
)


def _build_zero_index_quadruple(w_diag: tuple[int, int]) -> MatrixTuple:
    b1 = RatMatrix.diagonal(ZERO_INDEX_CLASSES[0])
    b2 = xl.inverse(b1) @ RatMatrix.diagonal(w_diag)
    _check(sorted((b2[0, 0], b2[1, 1])) == sorted(ZERO_INDEX_CLASSES[1]), "second matrix class mismatch")
    return closed_tuple(ZERO_INDEX_CLASSES, [b1, b2])


def build_zero_index_pair() -> tuple[MatrixTuple, MatrixTuple, MatrixTuple]:
    """Two non-equivalent irreducible 2x2 quadruples in the same generic
    zero-index classes, plus their block-diagonal direct sum.  The diagonal
    factorizations (10, 21) and (14, 15) of det(B1 B2) = 210 give different
    values of trace(B1 B2), so the quadruples cannot be conjugate."""
    first = _build_zero_index_quadruple((10, 21))
    second = _build_zero_index_quadruple((14, 15))
    _check(hom_dim(first.matrices, second.matrices) == 0, "quadruples are equivalent")
    _check(hom_dim(second.matrices, first.matrices) == 0, "quadruples are equivalent")
    pair = block_triangular(first, second)
    _check(centralizer_dim_of(pair.matrices) == 2, "direct sum pair centralizer dimension")
    return first, second, pair


# Classes of the four-class size-3 example: eigenvalues (a,1,1), (b,1,1),
# (c,1,1), (d,1,1) with a*b*c*d = 1.
EX4_A, EX4_B, EX4_C = rat(2), rat(3), rat(5)
EX4_D = 1 / (EX4_A * EX4_B * EX4_C)


def build_trivial_centralizer_quadruple() -> MatrixTuple:
    """A reducible 3x3 quadruple with trivial centralizer: product I holds
    identically in a, d once b, c are matched with the off-diagonal entries."""
    a, b, c, d = EX4_A, EX4_B, EX4_C, EX4_D
    m1 = RatMatrix.from_rows([[a, 0, 0], [0, 1, 0], [0, 0, 1]])
    m2 = RatMatrix.from_rows([[b, 1, 0], [0, 1, 0], [0, 0, 1]])
    m3 = RatMatrix.from_rows([[c, 0, 1], [0, 1, 0], [0, 0, 1]])
    m4 = RatMatrix.from_rows([[d, -1 / (b * c), -1 / c], [0, 1, 0], [0, 0, 1]])
    t = MatrixTuple(MULTIPLICATIVE, [m1, m2, m3, m4], [[v, 1, 1] for v in (a, b, c, d)])
    _check(t.closed, "first quadruple does not close")
    return t


def build_split_sum_quadruple() -> MatrixTuple:
    """A 3x3 quadruple that is the direct sum of an irreducible rank-2
    representation and the trivial one-dimensional representation."""
    a, b, c, d = EX4_A, EX4_B, EX4_C, EX4_D
    m1 = RatMatrix.from_rows([[a, 1, 0], [0, 1, 0], [0, 0, 1]])
    m2 = RatMatrix.from_rows([[b, -1 / a, 0], [0, 1, 0], [0, 0, 1]])
    m3 = RatMatrix.from_rows([[c, 0, 0], [-1 / d, 1, 0], [0, 0, 1]])
    m4 = RatMatrix.from_rows([[d, 0, 0], [1, 1, 0], [0, 0, 1]])
    t = MatrixTuple(MULTIPLICATIVE, [m1, m2, m3, m4], [[v, 1, 1] for v in (a, b, c, d)])
    _check(t.closed, "second quadruple does not close")
    return t
