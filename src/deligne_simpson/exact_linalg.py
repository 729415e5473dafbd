"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values and every result is exact; no
floating point anywhere.  Every ``RatMatrix`` also carries its integer form,
read once when it is built: ``denominator``, s, the lcm of its entries'
denominators, and ``numerators``, the rows of s M as ints.  Every rank and
dimension check runs on one kernel, ``IntEchelon``: an incremental
fraction-free Gauss-Jordan basis over the integers, fed those rows.
Scaling a row, or a whole operator block, by a nonzero integer changes no
rank.  Each new row is reduced in one combination, and accepting it
rewrites the stored rows with Bareiss's exact division (Math. Comp. 22,
1968), so every entry stays a minor of the input and no row grows on its
way through a reduction.  ``IntEchelon(rows, bound)`` is the one place
rows go in, so every caller reads one basis.  Its stored rows are already
the reduced row echelon form times one common pivot value d, unsorted and
with no back-substitution: ``integer_kernel`` reads integer kernel
vectors straight off them, ``solve`` finds a system inconsistent exactly
when a pivot lies in the right-hand-side columns, and ``rref`` sorts the
rows by pivot itself.  Nullspace bases, ``rref`` and solutions (an
inverse solves m X = I) divide by d only where they build their Fraction
results.  Every matrix product, dense or integer, is ``matmul_rows``.

Vectorization convention: an n x n matrix X maps to the length n**2 vector
vec(X) listing entries row by row (row-major).  Every operator matrix comes
from one writer, ``intertwiner_rows``: X -> AX - XB written down entry by
entry in O(n^4).  The commutator map is its case A = B, left and right
multiplication by A its cases B = 0 and (0, -A).  ``hom_dim`` is the one
elimination of such operators stacked over a tuple of matrix pairs: the
dimension of the intertwiners between two tuples, or of a tuple's
centralizer.

Serialization: rationals are strings "p/q" or "p" with the sign on the
numerator; matrices are JSON arrays of arrays of such strings.  ``rat``,
``integer``, ``json_list`` and ``json_object`` are the strict readers of
JSON values; ``json_object`` also rejects any key outside the ones an
object takes.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


class ShapeMismatchError(Exception):
    pass


class SingularMatrixError(Exception):
    pass


class NoSolutionError(Exception):
    pass


def rational_from_str(text: str) -> Fraction:
    """Parse "p/q" or "p" (sign on the numerator, ASCII digits, nothing
    around the literal) into a Fraction."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def rational_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def integer(value: int) -> int:
    """value when it is an int; a count read from JSON as 2.5, "2" or true
    is an error, not 2 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """value when it is a JSON array; a string would otherwise be read
    character by character, and an object key by key."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def json_object(value, what: str, keys: Sequence[str] | None = None) -> Mapping:
    """value when it is a JSON object, with no key outside keys when they
    are given; anything else would otherwise fail on its first key with
    Python's own indexing message, and an unknown key would be dropped
    unread."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object, not {type(value).__name__}")
    extra = sorted(set(value).difference(keys)) if keys is not None else []
    if extra:
        raise ValueError(f"{what} takes only {' and '.join(map(repr, keys))}, not {extra}")
    return value


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RatMatrix:
    """Immutable dense matrix with Fraction entries, stored row-major.

    ``denominator`` is s, the lcm of the entries' denominators, and
    ``numerators`` the rows of s M as ints: each entry p/q becomes
    p (s // q), with no Fraction product formed.  Both are derived from the
    entries, so they take no part in equality or hashing."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]
    denominator: int = field(compare=False)
    numerators: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, rows: int, cols: int, entries: Iterable[int | str | Fraction]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        data = tuple(rat(x) for x in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)
        s = math.lcm(*(x.denominator for x in data))
        flat = tuple(x.numerator * (s // x.denominator) for x in data)
        object.__setattr__(self, "denominator", s)
        object.__setattr__(self, "numerators", tuple(flat[i : i + cols] for i in range(0, rows * cols, cols)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]]) -> RatMatrix:
        if not rows:
            raise ValueError("need at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> RatMatrix:
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[int | str | Fraction]) -> RatMatrix:
        n = len(values)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, v in enumerate(values):
            m[i][i] = rat(v)
        return cls.from_rows(m)

    @classmethod
    def column(cls, values: Sequence[int | str | Fraction]) -> RatMatrix:
        return cls(len(values), 1, values)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: RatMatrix) -> RatMatrix:
        self._require_same_shape(other)
        return RatMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        self._require_same_shape(other)
        return RatMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> RatMatrix:
        return RatMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c: int | str | Fraction) -> RatMatrix:
        c = rat(c)
        return RatMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        return matmul(self, other)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatchError("trace needs a square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RatMatrix.identity(self.rows)

    def _require_same_shape(self, other: RatMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def to_json(self) -> list[list[str]]:
        return [[rational_to_str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int | str]]) -> RatMatrix:
        rows = json_list(data, "matrix")
        return cls.from_rows([json_list(row, "matrix row") for row in rows])


def matmul_rows(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Rows of a @ b for row lists of ints or Fractions; keeps their type."""
    bcols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bcols] for row in a]


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return RatMatrix.from_rows(matmul_rows(a.row_lists(), b.row_lists()))


def product(matrices: Sequence[RatMatrix]) -> RatMatrix:
    if not matrices:
        raise ValueError("empty product")
    acc = matrices[0]
    for m in matrices[1:]:
        acc = matmul(acc, m)
    return acc


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return matmul(a, b) - matmul(b, a)


def hstack(matrices: Sequence[RatMatrix]) -> RatMatrix:
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise ShapeMismatchError("hstack needs equal row counts")
    out = []
    for i in range(rows):
        for m in matrices:
            out.extend(m.row(i))
    return RatMatrix(rows, sum(m.cols for m in matrices), out)


def vstack(matrices: Sequence[RatMatrix]) -> RatMatrix:
    cols = matrices[0].cols
    if any(m.cols != cols for m in matrices):
        raise ShapeMismatchError("vstack needs equal column counts")
    out = []
    for m in matrices:
        out.extend(m.entries)
    return RatMatrix(sum(m.rows for m in matrices), cols, out)


class IntEchelon:
    """Incremental fraction-free Gauss-Jordan basis over the integers
    (Bareiss, Math. Comp. 22, 1968; Nakos, Turner & Williams, SIGSAM Bull.
    31(3), 1997).

    Every stored row holds the common pivot value ``d`` at its own pivot
    column and 0 at every other pivot column, so the rows over d are the
    reduced row echelon form of the rows accepted so far (unsorted: row i
    is 0 before its pivot, ``pivots[i]``).  ``add`` reduces a new row v in
    one combination, w = d v - sum_i v[p_i] R_i, which is 0 at every
    pivot.  A nonzero w is accepted with its first nonzero column c as
    pivot: each old row becomes (w[c] R_i - R_i[c] w) / d and d becomes
    w[c].  Bareiss's division is exact, since d is, up to sign, the minor
    of the accepted input rows at the pivot columns, and every entry is
    the minor that replaces one pivot column by another column; so no
    entry outgrows an r x r minor of the input, and no fraction or gcd
    is ever formed.
    """

    __slots__ = ("rows", "pivots", "d")

    def __init__(self, rows: Iterable[Iterable[int]] = (), bound: int | None = None) -> None:
        """The basis of rows, added in their order.  Once it holds bound
        rows (an upper bound on their rank, such as the row length), it
        stops at the next row without reducing it and draws no more."""
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.d = 1
        for row in rows:
            if len(self.rows) == bound:
                break
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: Iterable[int]) -> bool:
        """Insert row unless it lies in the span; True when it was new."""
        v = list(row)
        d = self.d
        w = v if d == 1 else [d * x for x in v]
        for b, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                w = [x - f * y for x, y in zip(w, b)]
        c = next((i for i, x in enumerate(w) if x), None)
        if c is None:
            return False
        wc = w[c]
        self.rows = [
            [(wc * x - f * y) // d for x, y in zip(b, w)] if (f := b[c]) else [wc * x // d for x in b]
            for b in self.rows
        ]
        self.rows.append(w)
        self.pivots.append(c)
        self.d = wc
        return True


def integer_rank(rows: Iterable[Sequence[int]], bound: int) -> int:
    """Rank over Q of integer rows, given an upper bound on it (such as the
    row length): rows after the bound is reached are not reduced."""
    return len(IntEchelon(rows, bound))


def rank(m: RatMatrix) -> int:
    """Rank over the rationals, via the integer echelon kernel."""
    return integer_rank(m.numerators, min(m.rows, m.cols))


def integer_kernel(rows: Iterable[Sequence[int]], cols: int) -> list[list[int]]:
    """A basis of the right kernel of integer rows of length cols: for each
    non-pivot column c, the primitive integer vector that is positive at c
    and 0 at every other non-pivot column.  Read off the Gauss-Jordan rows
    R_i = d e_{p_i} + ... as v[c] = d and v[p_i] = -R_i[c]; a reduced row
    is 0 before its pivot, so c holds the vector's last nonzero entry."""
    basis = IntEchelon(rows)
    kernel = []
    for c in sorted(set(range(cols)).difference(basis.pivots)):
        v = [0] * cols
        v[c] = basis.d
        for row, p in zip(basis.rows, basis.pivots):
            v[p] = -row[c]
        g = math.gcd(*v) if basis.d > 0 else -math.gcd(*v)
        kernel.append([x // g for x in v])
    return kernel


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form (zero rows last) and its pivot columns."""
    basis = IntEchelon(m.numerators)
    ranked = sorted(zip(basis.pivots, basis.rows))  # pivots are distinct, so no two rows are compared
    out = [[Fraction(x, basis.d) for x in row] for _, row in ranked] + [[Fraction(0)] * m.cols] * (m.rows - len(basis))
    return RatMatrix.from_rows(out), tuple(p for p, _ in ranked)


def nullspace_basis(m: RatMatrix) -> list[RatMatrix]:
    """Exact basis of the right kernel, as column vectors; len = cols - rank.
    Each vector is 1 at its own non-pivot column and 0 at the others."""
    basis = []
    for v in integer_kernel(m.numerators, m.cols):
        last = next(x for x in reversed(v) if x)  # the entry at v's own non-pivot column
        basis.append(RatMatrix.column([Fraction(x, last) for x in v]))
    return basis


def nullity(m: RatMatrix) -> int:
    return m.cols - rank(m)


def inverse(m: RatMatrix) -> RatMatrix:
    """The solution of m X = I, which is inconsistent when m is singular."""
    if m.rows != m.cols:
        raise ShapeMismatchError("inverse needs a square matrix")
    try:
        return solve(m, RatMatrix.identity(m.rows))
    except NoSolutionError:
        raise SingularMatrixError("matrix is singular") from None


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """One exact solution x of a @ x = b (free variables set to 0)."""
    if a.rows != b.rows:
        raise ShapeMismatchError("incompatible right-hand side")
    s = math.lcm(a.denominator, b.denominator)
    basis = IntEchelon([*x, *y] for x, y in zip(_rows_at(a, s), _rows_at(b, s)))
    if any(p >= a.cols for p in basis.pivots):  # a row 0 = nonzero right-hand side
        raise NoSolutionError("inconsistent linear system")
    out = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for row, pc in zip(basis.rows, basis.pivots):
        out[pc] = [Fraction(x, basis.d) for x in row[a.cols :]]
    return RatMatrix.from_rows(out)


def _rows_at(m: RatMatrix, s: int) -> Sequence[Sequence[int]]:
    """The rows of s m, for s a multiple of m's denominator."""
    k = s // m.denominator
    return m.numerators if k == 1 else [[k * v for v in row] for row in m.numerators]


def intertwiner_rows(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The n^2 x n^2 rows of X -> aX - Xb under row-major vec, written entry
    by entry: (aX - Xb)_ij = sum_k a_ik X_kj - X_ik b_kj.  Works for int or
    Fraction entries and keeps their type."""
    n = len(a)
    if len(b) != n or any(len(r) != n for r in (*a, *b)):
        raise ShapeMismatchError("intertwiner map needs two square matrices of one size")
    zero = a[0][0] * 0  # an int or Fraction zero, so no entry needs coercing later
    rows = []
    for i in range(n):
        ai = a[i]
        for j in range(n):
            row = [zero] * (n * n)
            for k in range(n):
                row[k * n + j] += ai[k]
                row[i * n + k] -= b[k][j]
            rows.append(row)
    return rows


def hom_dim(a: Sequence[RatMatrix], b: Sequence[RatMatrix]) -> int:
    """dim over Q of {Y : A_j Y = Y B_j for every j} (intertwiners b -> a);
    with a = b, the centralizer of the tuple.

    One stacked elimination of the ``intertwiner_rows`` of the integer
    forms of each pair.  A pair whose two denominators differ is rescaled
    to their lcm first: scaling A_j and B_j apart would change the map
    Y -> A_j Y - Y B_j, not just multiply it.  When the matrices of every
    pair are equal, I is in the kernel, so the rank stops at n^2 - 1.
    """
    if not a or not b:
        raise ValueError("hom_dim of an empty matrix tuple: there is no size n to read")
    pairs = []
    for x, y in zip(a, b, strict=True):
        s = math.lcm(x.denominator, y.denominator)
        pairs.append((_rows_at(x, s), _rows_at(y, s)))
    n2 = len(pairs[0][0]) ** 2
    bound = n2 - 1 if all(x == y for x, y in pairs) else n2
    return n2 - integer_rank((row for x, y in pairs for row in intertwiner_rows(x, y)), bound)


def intertwiner_matrix(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The n^2 x n^2 matrix of X -> aX - Xb under row-major vec."""
    return RatMatrix.from_rows(intertwiner_rows(a.row_lists(), b.row_lists()))


def left_mul_matrix(a: RatMatrix) -> RatMatrix:
    """Matrix L with L . vec(X) = vec(A X), for X of size a.cols x a.cols."""
    return intertwiner_matrix(a, RatMatrix.zero(a.rows, a.rows))


def right_mul_matrix(a: RatMatrix) -> RatMatrix:
    """Matrix R with R . vec(X) = vec(X A)."""
    return intertwiner_matrix(RatMatrix.zero(a.rows, a.rows), -a)


def vectorize_commutator_map(m: RatMatrix) -> RatMatrix:
    """The n^2 x n^2 matrix of X -> [m, X] = mX - Xm under row-major vec."""
    return intertwiner_matrix(m, m)
