"""Analysis of explicit rational matrix tuples.

A ``MatrixTuple`` is a list of at least two n x n rational matrices,
either in multiplicative mode (intended product I, so every matrix must be
invertible) or additive mode (intended sum 0), each with a caller-supplied
list of its n eigenvalues.  Construction rejects a tuple that breaks these
rules, so no check below repeats them.  Eigenvalues are validated against
rank sequences rather than computed, so everything stays inside exact
rational arithmetic.

The checks provided:

* ``verify_closure`` -- exact product-is-I / sum-is-0 test;
* ``jnf_of`` / ``class_membership`` -- Jordan structure from the rank
  sequence rank((m - lam I)^k).  m - lam I is formed as integers, as
  q s (m - lam I) = q (s m) - p s I for lam = p/q and s the lcm of m's
  denominators (``_shifted``), since a nonzero scale changes no rank or
  kernel; Norton's theta below is formed the same way;
* ``centralizer_dim`` -- dim C(M) of the tuple, ``exact_linalg.hom_dim(M, M)``:
  the kernel dimension of the stacked commutator maps on the
  n^2-dimensional matrix space;
* ``commut_surjective`` -- whether the summed commutator map is onto the
  trace-zero matrices, read off the centralizer by trace duality: the
  image is the orthogonal complement of the centralizer under
  (X, Y) -> trace(XY), so it is onto exactly when the centralizer is the
  scalars;
* ``is_irreducible`` -- the generated unital algebra is M_n(Q), of
  dimension n^2 (Burnside's criterion), decided by Norton's test
  (``norton_spins``): for theta = M_j - lam I, as integers, with a
  claimed eigenvalue lam of rank(theta) = n - 1, the spins of ker theta
  under the M_i and of ker theta^T under the M_i^T are both Q^n.  Only
  when no claimed eigenvalue gives such a theta does it run the Burnside
  closure (``algebra_dim``), an n^2-dimensional span;
* ``corner_differential`` -- the linear map that the upper-right block of
  a product (or sum) of block upper-triangular matrices depends on; with
  equal diagonal blocks, the product/sum differential;
* ``tangent_dim`` -- dimension of the solution variety's tangent space at
  the tuple, via the kernel of that differential (the route the corpus
  checks the literature's tangent numbers against);
* ``orbit_dim`` -- dimension of the simultaneous conjugation orbit;
* ``report`` -- all of the above for one tuple.  The JNFs come from
  ``jnf_of``.  Its ``tangent_dim`` comes from trace duality rather than
  from the differential: for a closed tuple the image of the differential
  is the orthogonal complement of the tuple's centralizer, so the tangent
  dimension is (k - 1) n^2 + dim C(tuple) - sum_j dim C(M_j) for k
  matrices.  Each dim C(M_j) is ``centralizer_dim_of_jnf`` of M_j's JNF
  when its claimed spectrum checks out, and ``centralizer_dim_of([M_j])``
  otherwise.  ``irreducible`` comes from Norton's test; when either of
  its spins is Q^n the centralizer is the scalars, and ``report`` sets
  ``centralizer_dim`` to 1 without the stacked elimination.  Without a
  theta for the test, ``report`` finds the centralizer by elimination
  first and runs the Burnside closure only when it is the scalars; a
  larger centralizer means reducible.

All dimensions are reported in the full matrix algebra gl(n) convention;
determinant-one conventions found in the literature are these values
minus 1 when the determinant constraint is transverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import exact_linalg as xl
from .exact_linalg import RatMatrix, json_list, rat, rational_from_str, rational_to_str
from .jnf import Jnf, Partition, centralizer_dim_of_jnf
from .reduction import JnfTuple, expected_dim, kappa
from .spectra import ADDITIVE, MULTIPLICATIVE


class WrongSpectrumError(Exception):
    pass


class ClosureViolatedError(Exception):
    pass


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MatrixTuple:
    """At least two square rational matrices of one size, with claimed
    eigenvalue lists; in multiplicative mode each matrix is invertible."""

    mode: str
    matrices: tuple[RatMatrix, ...]
    eigenvalue_lists: tuple[tuple[Fraction, ...], ...]

    def __init__(
        self,
        mode: str,
        matrices: Sequence[RatMatrix],
        eigenvalue_lists: Sequence[Sequence[int | str | Fraction]],
    ):
        if mode not in (MULTIPLICATIVE, ADDITIVE):
            raise ValueError(f"unknown mode {mode!r}")
        mats = tuple(matrices)
        if len(mats) < 2:
            raise ValueError("need at least two matrices")
        n = mats[0].rows
        for m in mats:
            if m.rows != m.cols or m.rows != n:
                raise ValueError("all matrices must be square of one common size")
        eigs = tuple(tuple(rat(x) for x in lst) for lst in eigenvalue_lists)
        if len(eigs) != len(mats):
            raise ValueError("need one eigenvalue list per matrix")
        for lst in eigs:
            if len(lst) != n:
                raise ValueError(f"each eigenvalue list must have length {n}")
            if mode == MULTIPLICATIVE and any(x == 0 for x in lst):
                raise ValueError("multiplicative-mode eigenvalues must be nonzero")
        if mode == MULTIPLICATIVE and any(xl.rank(m) < n for m in mats):
            raise ValueError("multiplicative-mode matrix is singular")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "eigenvalue_lists", eigs)

    @property
    def n(self) -> int:
        return self.matrices[0].rows

    def __len__(self) -> int:
        return len(self.matrices)

    def __repr__(self) -> str:
        return f"MatrixTuple({self.mode}, {len(self.matrices)} matrices of size {self.n})"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "matrices": [m.to_json() for m in self.matrices],
            "eigenvalues": [[rational_to_str(x) for x in lst] for lst in self.eigenvalue_lists],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> MatrixTuple:
        return cls(
            data["mode"],
            [RatMatrix.from_json(m) for m in json_list(data["matrices"], "matrices")],
            [json_list(lst, "eigenvalue list") for lst in json_list(data["eigenvalues"], "eigenvalues")],
        )


def verify_closure(t: MatrixTuple) -> bool:
    """Exact check of product = I (multiplicative) or sum = 0 (additive)."""
    if t.mode == MULTIPLICATIVE:
        return xl.product(t.matrices).is_identity()
    total = t.matrices[0]
    for m in t.matrices[1:]:
        total = total + m
    return total.is_zero()


def _shifted(scaled: list[list[int]], s: int, lam: Fraction) -> list[list[int]]:
    """Rows of q s (M - lam I) as ints, for scaled the rows of s M and
    lam = p/q: q (s M) - p s I, written entry by entry.  A nonzero scale
    changes no rank or kernel."""
    q, ps = lam.denominator, lam.numerator * s
    rows = [[q * x for x in row] for row in scaled]
    for i, row in enumerate(rows):
        row[i] -= ps
    return rows


def jnf_of(m: RatMatrix, eigenvalues: Sequence[int | str | Fraction]) -> Jnf:
    """Jordan normal form of m, given its eigenvalues with multiplicities.

    For each distinct claimed eigenvalue lam the rank sequence
    rho_k = rank((m - lam I)^k) yields the number of blocks of size >= k
    as rho_{k-1} - rho_k; the block partition is the conjugate of that
    count sequence.  Raises WrongSpectrumError when the implied algebraic
    multiplicities disagree with the claim.
    """
    if m.rows != m.cols:
        raise xl.ShapeMismatchError("jnf_of needs a square matrix")
    n = m.rows
    values = [rat(x) for x in eigenvalues]
    if len(values) != n:
        raise ValueError(f"expected {n} eigenvalues, got {len(values)}")
    claimed: dict[Fraction, int] = {}
    for v in values:
        claimed[v] = claimed.get(v, 0) + 1
    s = xl.denominator_lcm([m])
    scaled = xl.integer_matrix(m, s)
    entries = []
    for lam in sorted(claimed):
        # q s (m - lam I): the scale (and its powers) changes no rank
        shifted = _shifted(scaled, s, lam)
        counts = []
        power = shifted
        prev = n
        while True:
            r = xl.integer_rank(power, n)
            if r == prev:
                break
            counts.append(prev - r)
            prev = r
            if r == 0:
                break
            power = xl.matmul_rows(power, shifted)
        if not counts:
            raise WrongSpectrumError(f"{lam} is not an eigenvalue")
        if sum(counts) != claimed[lam]:
            raise WrongSpectrumError(
                f"eigenvalue {lam}: algebraic multiplicity {sum(counts)} != claimed {claimed[lam]}"
            )
        entries.append((rational_to_str(lam), Partition(counts).dual()))
    return Jnf(entries)


def class_membership(m: RatMatrix, j: Jnf) -> bool:
    """True iff m has JNF j, where j's labels are concrete rational values."""
    try:
        values = []
        for label, part in j.blocks_by_eigenvalue:
            values.extend([rational_from_str(label)] * part.total())
    except ValueError as exc:
        raise ValueError("class_membership needs rational eigenvalue labels") from exc
    if len(values) != m.rows:
        raise xl.ShapeMismatchError("JNF size differs from the matrix size")
    try:
        return jnf_of(m, values) == j
    except WrongSpectrumError:
        return False


def jordan_realization(j: Jnf, values: Mapping[str, int | str | Fraction] | None = None) -> RatMatrix:
    """A block-diagonal matrix realizing j; labels parse as the eigenvalues
    unless an explicit label-to-value mapping is supplied."""
    n = j.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for label, part in j.blocks_by_eigenvalue:
        lam = rat(values[label]) if values is not None else rational_from_str(label)
        for b in part.parts:
            for k in range(b):
                rows[pos + k][pos + k] = lam
                if k + 1 < b:
                    rows[pos + k][pos + k + 1] = Fraction(1)
            pos += b
    return RatMatrix.from_rows(rows)


def centralizer_dim_of(matrices: Sequence[RatMatrix]) -> int:
    """dim over Q of {X : [M, X] = 0 for every M}; at least 1 (scalars)."""
    return xl.hom_dim(matrices, matrices)


def centralizer_dim(t: MatrixTuple) -> int:
    return centralizer_dim_of(t.matrices)


def has_trivial_centralizer(t: MatrixTuple) -> bool:
    return centralizer_dim(t) == 1


def commut_surjective(t: MatrixTuple) -> bool:
    """True iff (X_1, ..., X_{p+1}) -> sum_j [M_j, X_j] maps onto the
    trace-zero matrices.  By trace duality its image is the orthogonal
    complement of the centralizer, so this is the centralizer being the
    scalars."""
    return centralizer_dim(t) == 1


def _spin_dim(start: Iterable[int], images: Callable[[list[int]], Iterable[Iterable[int]]], bound: int) -> int:
    """Dimension of the smallest subspace that contains start and that the
    linear maps whose images of a row ``images`` yields all keep, or bound
    once the span reaches it.  Each basis row is read once and its images
    join the span; once every row is read the span is closed under every
    map, since the rows span it.  Integer scaling changes no span."""
    basis = xl.IntEchelon()
    basis.add(start)
    read = 0
    while read < len(basis) < bound:
        for image in images(basis.rows[read]):
            basis.add(image)
        read += 1
    return len(basis)


def algebra_dim(t: MatrixTuple) -> int:
    """Dimension of the unital algebra generated by the matrices, by the
    Burnside closure: it is n^2 exactly when the algebra is M_n(Q).  The
    spin of vec(I) under right multiplication by every generator, with each
    row read as an n x n matrix; the closure stops early at n^2."""
    n = t.n
    generators = [xl.integer_matrix(m) for m in t.matrices]

    def products(row: list[int]):
        m = [row[i * n : (i + 1) * n] for i in range(n)]
        return ((x for prod_row in xl.matmul_rows(m, g) for x in prod_row) for g in generators)

    return _spin_dim((int(i == j) for i in range(n) for j in range(n)), products, n * n)


def norton_spins(t: MatrixTuple) -> tuple[bool, bool] | None:
    """Norton's irreducibility test (Parker 1984; Holt & Rees, J. Austral.
    Math. Soc. 57 (1994)): (the spin of v is Q^n, the spin of w is Q^n), or
    None when no claimed eigenvalue gives the test its theta.

    theta = M_j - lam I for the first M_j, in tuple order, with a claimed
    eigenvalue lam, in claim order, of rank(M_j - lam I) = n - 1; a wrong
    claim only fails that rank check.  theta is taken as the integer rows
    of q s (M_j - lam I) (``_shifted``), which have the same rank and
    kernels.  v spans ker theta and w spans ker theta^T.  The spin of v
    is the smallest subspace that contains v and that every M_i keeps;
    the spin of w is the same under the M_i^T.

    theta lies in the generated algebra A and has a 1-dimensional kernel,
    and that is all the following uses.

    * Both spins are Q^n exactly when A = M_n(Q) (dimension n^2).  Let U
      be a proper nonzero A-invariant subspace.  If v is not in U, theta
      is injective on U, hence invertible there, so it is singular on
      Q^n/U; its transpose then has a kernel vector in U^perp, which is w
      up to scale.  So v lies in U or w in U^perp, and U^perp is a proper
      nonzero subspace that every M_i^T keeps.  Hence when neither spin
      is proper, Q^n is a simple A-module.  Every A-endomorphism X commutes
      with theta, so it keeps ker theta = Qv: X v = c v, and X - c I, which
      is not invertible, is 0 by Schur's lemma.  The commutant is Q, and
      by the density theorem A = M_n(Q).  Conversely, a proper spin of v
      is a proper invariant subspace, and the annihilator of a proper spin
      of w is one too, so A is not M_n(Q).
    * If either spin is Q^n, the tuple's centralizer is the scalars: X in
      it keeps ker theta, so X v = c v, and X - c I kills the spin of v,
      which every M_i keeps; likewise X^T w = c' w, and X^T - c' I kills
      the spin of w, which every M_i^T keeps.
    """
    n = t.n
    scales = [xl.denominator_lcm([m]) for m in t.matrices]
    generators = [xl.integer_matrix(m, s) for m, s in zip(t.matrices, scales)]
    for scaled, s, eigs in zip(generators, scales, t.eigenvalue_lists):
        for lam in dict.fromkeys(eigs):
            theta = _shifted(scaled, s, lam)
            if xl.integer_rank(theta, n) != n - 1:
                continue
            (kernel,) = xl.nullspace_basis(RatMatrix.from_rows(theta))
            (cokernel,) = xl.nullspace_basis(RatMatrix.from_rows(list(zip(*theta))))
            # g x for a column x is the row x^T g^T, and g^T y is the row y^T g
            transposes = [list(zip(*g)) for g in generators]
            return _spans_everything(kernel, transposes), _spans_everything(cokernel, generators)
    return None


def _spans_everything(vector: RatMatrix, factors: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Whether the spin of the column vector, read as a row x, under
    x -> x f for every factor f is all of Q^n."""
    n = vector.rows
    start = xl.integer_row(vector.entries)
    return _spin_dim(start, lambda row: (xl.matmul_rows([row], f)[0] for f in factors), n) == n


def is_irreducible(t: MatrixTuple) -> bool:
    """Whether the generated unital algebra is M_n(Q) (Burnside's
    criterion), by Norton's test (``norton_spins``); the Burnside closure
    (``algebra_dim``) runs only when no claimed eigenvalue gives the test
    its theta."""
    spins = norton_spins(t)
    if spins is None:
        return algebra_dim(t) == t.n**2
    return all(spins)


def corner_differential(ls: Sequence[RatMatrix], bs: Sequence[RatMatrix], mode: str) -> RatMatrix:
    """Matrix of (Y_1, ..., Y_k) -> sum_j L_1...L_{j-1} (L_j Y_j - Y_j B_j)
    B_{j+1}...B_k (multiplicative) or sum_j (L_j Y_j - Y_j B_j) (additive).

    This is how the upper-right block of the product of the block
    upper-triangular matrices [[L_j, T_j], [0, B_j]] (resp. of their sum)
    changes when T_j = L_j Y_j - Y_j B_j.  With L = B = M it is the
    differential of the product (resp. sum) along the conjugacy classes,
    up to a sign that changes no rank.  One column block per j: the map
    Y -> L_j Y - Y B_j written down entry by entry (``intertwiner_matrix``),
    then in multiplicative mode multiplied by the dense left and right
    multiplication operators of the prefix and suffix products.
    """
    blocks = (xl.intertwiner_matrix(l, b) for l, b in zip(ls, bs, strict=True))
    if mode == MULTIPLICATIVE:
        identity = RatMatrix.identity(ls[0].rows)
        # prefixes[j] = L_1...L_{j-1} and suffixes[j] = B_{j+1}...B_k, as running products
        prefixes = [identity, *itertools.accumulate(ls[:-1], xl.matmul)]
        suffixes = [*itertools.accumulate(reversed(bs[1:]), lambda acc, b: b @ acc)][::-1] + [identity]
        blocks = (
            xl.left_mul_matrix(prefix) @ (xl.right_mul_matrix(suffix) @ block)
            for prefix, suffix, block in zip(prefixes, suffixes, blocks, strict=True)
        )
    return xl.hstack(list(blocks))


def tangent_dim(t: MatrixTuple) -> int:
    """Dimension of the tangent space at t to the variety of tuples in the
    same conjugacy classes with product I (resp. sum 0): the kernel of the
    product differential minus the per-matrix centralizer dimensions.  At
    points with trivial centralizer this equals ``expected_dim``; elsewhere
    it is only a formal tangent dimension.  Raises ClosureViolatedError for
    a tuple that does not close.
    """
    if not verify_closure(t):
        raise ClosureViolatedError("tuple does not close (product I / sum 0)")
    theta = corner_differential(t.matrices, t.matrices, t.mode)
    kernel_dim = theta.cols - xl.rank(theta)
    single = sum(centralizer_dim_of([m]) for m in t.matrices)
    return kernel_dim - single


def orbit_dim(t: MatrixTuple) -> int:
    """Dimension of the simultaneous-conjugation orbit: n^2 minus the
    centralizer dimension of the tuple."""
    return t.n**2 - centralizer_dim(t)


def conjugate(t: MatrixTuple, g: RatMatrix) -> MatrixTuple:
    """The tuple (g M g^-1) with the same claimed eigenvalues."""
    ginv = xl.inverse(g)
    return MatrixTuple(t.mode, [g @ m @ ginv for m in t.matrices], t.eigenvalue_lists)


def jnf_tuple_of(t: MatrixTuple) -> JnfTuple:
    """The tuple of JNFs of the matrices, from their claimed eigenvalues."""
    return JnfTuple(jnf_of(m, eigs) for m, eigs in zip(t.matrices, t.eigenvalue_lists))


def report(t: MatrixTuple) -> dict:
    """Full JSON-able verification report for a tuple."""
    out: dict = {"mode": t.mode, "n": t.n, "count": len(t.matrices)}
    closed = verify_closure(t)
    out["closure"] = closed
    # None marks a matrix whose claimed spectrum is wrong; the first message
    # is the one ``jnf_tuple_of`` would raise
    jnfs: list[Jnf | None] = []
    wrong: list[str] = []
    for m, eigs in zip(t.matrices, t.eigenvalue_lists):
        try:
            jnfs.append(jnf_of(m, eigs))
        except WrongSpectrumError as exc:
            jnfs.append(None)
            wrong.append(str(exc))
    jt = None if wrong else JnfTuple(jnfs)
    out["jnfs"] = None if jt is None else jt.to_json()
    if wrong:
        out["wrong_spectrum"] = wrong[0]
    # A full spin in Norton's test makes the centralizer the scalars with
    # no elimination (see ``norton_spins``).
    spins = norton_spins(t)
    cdim = 1 if spins is not None and any(spins) else centralizer_dim(t)
    out["centralizer_dim"] = cdim
    out["trivial_centralizer"] = cdim == 1
    out["commutator_map_surjective"] = cdim == 1  # trace duality, as in ``commut_surjective``
    if spins is not None:
        out["irreducible"] = all(spins)
    else:
        # A non-scalar matrix commuting with every generator commutes with
        # the whole generated algebra, which therefore is not M_n(Q), whose
        # commutant is the scalars: run the Burnside closure only when cdim is 1.
        out["irreducible"] = cdim == 1 and algebra_dim(t) == t.n**2
    out["orbit_dim"] = t.n**2 - cdim
    # The same duality gives the tangent dimension without building the
    # corner differential: when the tuple closes, block j of the product
    # differential is Ad(P_j)(Ad(M_j) - 1) with P_j = M_1...M_{j-1} (in the
    # additive case Y -> [M_j, Y]), so its image is again the
    # orthogonal complement of the centralizer and its rank is n^2 - cdim.
    # The kernel is then k n^2 - (n^2 - cdim) for k matrices; ``tangent_dim``
    # computes the same number as the kernel of the differential.  Each
    # dim C(M_j) depends only on the JNF of M_j, so it is read off the JNF
    # when the claimed spectrum checks out, and found by elimination otherwise.
    if closed:
        single = sum(
            centralizer_dim_of([m]) if j is None else centralizer_dim_of_jnf(j)
            for m, j in zip(t.matrices, jnfs)
        )
        out["tangent_dim"] = (len(t) - 1) * t.n**2 + cdim - single
        out["tangent_dim_is_formal"] = cdim != 1
    else:
        out["tangent_dim"] = out["tangent_dim_is_formal"] = None
    if jt is not None:
        out["expected_dim"] = expected_dim(jt)
        out["kappa"] = kappa(jt)
    else:
        out["expected_dim"] = None
        out["kappa"] = None
    return out
