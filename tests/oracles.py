"""Independent oracles for expected-value tests.

Nothing here goes through the package's elimination routines: rank comes
from enumerating minors with a cofactor determinant, and matrix products
are computed entrywise.  Slow, but exact and structurally unrelated to the
code paths under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def minor_rank(rows: list[list[Fraction]]) -> int:
    """Largest k with a nonzero k x k minor.  Exponential; keep inputs small."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    return k
    return 0


def entrywise_product(mats: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    """Product of square matrices given as nested lists, computed entrywise."""
    acc = mats[0]
    for m in mats[1:]:
        n = len(acc)
        acc = [
            [sum((acc[i][k] * m[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    return acc


def commutation_system(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The n^2 x n^2 system for [m, X] = 0 built directly from the entry
    formula (mX - Xm)_{ij} = sum_k m_ik X_kj - X_ik m_kj, row-major X."""
    n = len(m)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += m[i][k]
                row[i * n + k] -= m[k][j]
            rows.append(row)
    return rows


def scaled_full_witnesses(s, den: int) -> set:
    """The whole spectrum scaled by t/den for t = 1..den-1, each as
    (size, parts) with the parts of a ``RelationWitness``.  With den the
    basic relation's m (multiplicative) or q (additive) these are the
    basic relation and its repetitions; every multiplicity must be a
    multiple of den."""
    out = set()
    for t in range(1, den):
        parts = []
        for cls_ in s.classes:
            scaled = [(scalar, Fraction(mult * t, den)) for scalar, mult in cls_]
            assert all(c.denominator == 1 for _, c in scaled), "den must divide every multiplicity"
            parts.append(tuple((scalar, int(c)) for scalar, c in scaled if c))
        out.add((s.n * t // den, tuple(parts)))
    return out
