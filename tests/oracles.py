"""Independent oracles for expected-value tests.

Nothing here goes through the package's elimination routines: rank comes
from enumerating minors with a cofactor determinant or from a plain
Fraction echelon, and matrix products are computed entrywise; the
generic Deligne-Simpson verdict comes from a root test on a star-shaped
quiver, not from the reduction; the relations of a spectrum come from
combining every choice of the Cartesian product, not from the hashed
search, and the genericity budget's reference is the old count of that
product.  Slow, but exact and structurally unrelated to the code paths
under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from deligne_simpson import spectra as sp


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


def fraction_closes(mode: str, mats: list[list[list[Fraction]]]) -> bool:
    """Whether square matrices given as nested lists have product I
    (multiplicative) or sum 0 (additive), computed entrywise in Fractions."""
    n = len(mats[0])
    if mode == "multiplicative":
        return entrywise_product(mats) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return all(sum((m[i][j] for m in mats), Fraction(0)) == 0 for i in range(n) for j in range(n))


def intertwiner_system(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """The n^2 x n^2 matrix of X -> aX - Xb built directly from the entry
    formula (aX - Xb)_{ij} = sum_k a_ik X_kj - X_ik b_kj, row-major X."""
    n = len(a)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += a[i][k]
                row[i * n + k] -= b[k][j]
            rows.append(row)
    return rows


def commutation_system(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The n^2 x n^2 system for [m, X] = 0, row-major X."""
    return intertwiner_system(m, m)


def _insert(basis: dict[int, list[Fraction]], v: list[Fraction]) -> bool:
    """Reduce v against the stored rows (pivot column -> row with 1 there,
    zero at the pivots stored before it) and store what is left, if any."""
    for c, row in basis.items():
        if v[c]:
            f = v[c]
            v = [x - f * y for x, y in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return False
    basis[lead] = [x / v[lead] for x in v]
    return True


def echelon_rank(rows: list[list[Fraction]]) -> int:
    """Rank by a plain Fraction echelon: the number of rows left nonzero
    when each is reduced against the rows kept before it."""
    basis: dict[int, list[Fraction]] = {}
    return sum(_insert(basis, list(row)) for row in rows)


def reduced_echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, by column-by-column
    Gauss-Jordan over Fraction: each row 1 at its pivot and 0 at every
    other pivot, in increasing pivot order."""
    m = [[Fraction(x) for x in row] for row in rows]
    done = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(done, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[done], m[p] = m[p], m[done]
        m[done] = [x / m[done][c] for x in m[done]]
        for i, row in enumerate(m):
            if i != done and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[done])]
        done += 1
    return m[:done]


def frontier_algebra_dim(mats: list[list[list[Fraction]]]) -> int:
    """Dimension of the unital algebra generated by square matrices: start
    from I and the generators, multiply each product found new in the last
    round by every generator, and stop when a round finds nothing new."""
    n = len(mats[0])
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis: dict[int, list[Fraction]] = {}
    frontier = [m for m in [identity, *mats] if _insert(basis, [x for row in m for x in row])]
    while frontier:
        products = (entrywise_product([m, g]) for m in frontier for g in mats)
        frontier = [p for p in products if _insert(basis, [x for row in p for x in row])]
    return len(basis)


def adjugate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """adj(a)[i][j] = (-1)^(i+j) det(a without row j and column i), so
    a adj(a) = adj(a) a = det(a) I.  When a has rank n - 1, adj(a) has rank
    1: its nonzero columns span ker a and its nonzero rows span ker a^T."""
    n = len(rows)
    if n == 1:
        return [[Fraction(1)]]
    return [
        [
            (-1) ** (i + j)
            * det_cofactor([[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def frontier_spin_dim(vector: list[Fraction], mats: list[list[list[Fraction]]]) -> int:
    """Dimension of the smallest subspace that contains vector and that
    every matrix keeps (x -> m x): multiply each vector found new in the
    last round by every matrix, and stop when a round finds nothing new."""
    basis: dict[int, list[Fraction]] = {}
    frontier = [vector] if _insert(basis, vector) else []
    while frontier:
        images = ([sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m] for v in frontier for m in mats)
        frontier = [u for u in images if _insert(basis, u)]
    return len(basis)


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


def star_root_kind(classes: list[list[tuple[str, list[int]]]]) -> str | None:
    """"real" or "imaginary" when the dimension vector of a tuple of Jordan
    normal forms on its star-shaped quiver is a positive root, None when it
    is not a root.  Each class lists (eigenvalue label, Jordan blocks).

    For generic eigenvalues an irreducible tuple with product I (or sum 0)
    exists exactly when this vector is a positive root: Crawley-Boevey,
    Duke Math. J. 118 (2003), additive; Crawley-Boevey & Shaw, Adv. Math.
    201 (2006), multiplicative.  The centre is n; arm j walks the
    eigenvalues xi_1, xi_2, ... of class j in sorted label order, each
    repeated as often as its largest block, and its entry k is
    rank (A - xi_1)...(A - xi_k) = n - sum over xi and its blocks b of
    min(b, m_xi), with m_xi the count of xi among the first k.
    """
    n = sum(b for _, blocks in classes[0] for b in blocks)
    alpha = [n]
    neighbours: list[list[int]] = [[]]
    for cls_ in classes:
        walk = [label for label, blocks in sorted(cls_) for _ in range(max(blocks))]
        seen: dict[str, int] = {}
        prev = 0
        for label in walk[:-1]:  # the whole walk gives rank 0, off the quiver
            seen[label] = seen.get(label, 0) + 1
            alpha.append(n - sum(min(b, seen.get(lab, 0)) for lab, blocks in cls_ for b in blocks))
            neighbours.append([prev])
            neighbours[prev].append(len(alpha) - 1)
            prev = len(alpha) - 1
    # Reflect at a vertex i with (alpha, e_i) > 0 until none is left; each
    # reflection lowers alpha_i, so the loop ends.  A positive root other
    # than e_i reflects to a positive root.
    while True:
        if min(alpha) < 0:
            return None
        if sum(alpha) == 1:
            return "real"
        pairing = [2 * a - sum(alpha[j] for j in neighbours[i]) for i, a in enumerate(alpha)]
        i = next((i for i, p in enumerate(pairing) if p > 0), None)
        if i is None:
            break
        alpha[i] -= pairing[i]
    # In the fundamental region: a root exactly when the support is connected.
    support = {i for i, a in enumerate(alpha) if a}
    start = min(support)
    reached, stack = {start}, [start]
    while stack:
        for j in neighbours[stack.pop()]:
            if j in support and j not in reached:
                reached.add(j)
                stack.append(j)
    return "imaginary" if reached == support else None


def brute_relations(s, m: int) -> tuple:
    """Every relation of size m found by walking the whole Cartesian
    product of the classes' size-m choices and combining each with
    ``spectra.combine``, sorted by ``RelationWitness.key``."""
    per_class = []
    for cls_ in s.classes:
        options = []
        for counts in sp._count_vectors([mult for _, mult in cls_], m):
            chosen = tuple((scalar, c) for (scalar, _), c in zip(cls_, counts) if c)
            options.append((chosen, sp.combine(chosen, s.mode)))
        per_class.append(options)
    witnesses = []
    for combo in product(*per_class):
        if sp.combine(((part_sum, 1) for _, part_sum in combo), s.mode).is_identity():
            witnesses.append(sp.RelationWitness(m, tuple(chosen for chosen, _ in combo)))
    return tuple(sorted(witnesses, key=sp.RelationWitness.key))


def relation_choices(s, cap: int) -> int:
    """The Cartesian pre-count that budgeted the genericity search before
    the search metered its own work.  ``cli`` skipped a spectrum when this
    count times the number of classes passed the budget, so the metered
    search must decide every spectrum that passed.

    min(cap, the number of choices ``all_relations`` searches): the sum
    over sizes 1 <= m < n of the product over classes of their size-m
    choices.  A class's choices summed over m, prod_i (mult_i + 1) - 2,
    bound that number from below; they are checked first, so no class with
    cap or more choices is enumerated, and the count stops once it reaches
    cap."""
    for cls_ in s.classes:
        bound = 1
        for _, mult in cls_:
            bound = min(bound * (mult + 1), cap + 2)
        if bound - 2 >= cap:
            return cap
    total = 0
    for m in range(1, s.n):
        term = 1
        for cls_ in s.classes:
            term *= sum(1 for _ in sp._count_vectors([mult for _, mult in cls_], m))
        total += term
        if total >= cap:
            return cap
    return total
