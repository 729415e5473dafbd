"""Analysis of explicit rational matrix tuples.

A ``MatrixTuple`` is a list of at least two n x n rational matrices,
either in multiplicative mode (intended product I, so every matrix must be
invertible) or additive mode (intended sum 0), each with a caller-supplied
list of its n eigenvalues.  Construction rejects a tuple that breaks these
rules, so no check below repeats them.  Eigenvalues are validated against
rank sequences rather than computed, so everything stays inside exact
rational arithmetic.

Every check on a tuple works on each matrix's integer form, which
``RatMatrix`` reads once when it is built: s_j, the lcm of the
denominators of M_j (``denominator``), and the rows of s_j M_j
(``numerators``); a nonzero scale changes no rank, kernel or span.

The checks provided:

* ``verify_closure`` -- exact product-is-I / sum-is-0 test, as
  prod_j (s_j M_j) = (prod_j s_j) I, or sum_j (L / s_j) (s_j M_j) = 0
  with L the lcm of the s_j, run once when a tuple is built and kept as
  ``MatrixTuple.closed``, which every check below reads;
* ``jnf_of`` / ``class_membership`` -- Jordan structure from the rank
  sequence rank((m - lam I)^k).  m - lam I is formed as integers, as
  q s (m - lam I) = q (s m) - p s I for lam = p/q and s the lcm of m's
  denominators (``_shifted``); Norton's theta below is formed the same
  way;
* ``generators`` -- the matrices that generate the tuple's algebra: the
  first k - 1 of its k matrices when it closes, all k otherwise.  For a
  closed tuple M_k is (M_1...M_{k-1})^-1, a polynomial in that product P
  by Cayley-Hamilton (P^-1 = -(c_1 I + c_2 P + ... + P^{n-1}) / c_0 for
  the characteristic polynomial c_0 + c_1 x + ... + x^n of P, with
  c_0 = +-det P != 0), or -(M_1 + ... + M_{k-1}); so M_k lies in the
  unital algebra that M_1..M_{k-1} generate.  A matrix commuting with
  M_1..M_{k-1} commutes with M_k, a subspace that M_1..M_{k-1} keep M_k
  keeps, and the algebra is the same: the centralizer, Norton's spins and
  the Burnside closure read the first k - 1 alone;
* ``centralizer_dim`` -- dim C(M) of the tuple: ``centralizer_dim_of`` on
  its generators, ``exact_linalg.hom_dim`` on the pairs (M_j, M_j), is the
  kernel dimension of the stacked commutator maps on the n^2-dimensional
  matrix space;
* ``commut_surjective`` -- whether the summed commutator map is onto the
  trace-zero matrices, read off the centralizer by trace duality: the
  image is the orthogonal complement of the centralizer under
  (X, Y) -> trace(XY), so it is onto exactly when the centralizer is the
  scalars;
* ``is_irreducible`` -- the generated unital algebra is M_n(Q), of
  dimension n^2 (Burnside's criterion), decided by Norton's test
  (``norton_spins``): for theta = M_j - lam I, as integers, with a
  claimed eigenvalue lam of rank(theta) = n - 1, the spins of ker theta
  under the generators and of ker theta^T under their transposes are both
  Q^n.  Only when no claimed eigenvalue gives such a theta does it run the
  Burnside closure (``algebra_dim``), an n^2-dimensional span;
* ``corner_differential`` -- the linear map that the upper-right block of
  a product (or sum) of block upper-triangular matrices depends on; with
  equal diagonal blocks, the product/sum differential;
* ``tangent_dim`` -- dimension of the solution variety's tangent space at
  the tuple, via the kernel of that differential (the route the corpus
  checks the literature's tangent numbers against);
* ``orbit_dim`` -- dimension of the simultaneous conjugation orbit;
* ``report`` -- all of the above for one tuple.  The JNFs come from
  ``jnf_of``.  Its ``tangent_dim`` comes from trace duality rather than
  from the differential: for a closed tuple the image of the
  differential is the orthogonal complement of the tuple's centralizer,
  so the tangent dimension is (k - 1) n^2 + dim C(tuple) - sum_j dim C(M_j)
  for k matrices.  Each dim C(M_j) is ``centralizer_dim_of_jnf`` of M_j's
  JNF when its claimed spectrum checks out, and otherwise the elimination
  of ``centralizer_dim_of([M_j])``.
  ``irreducible`` comes from Norton's test; when either of its spins is
  Q^n the centralizer is the scalars, and ``report`` sets
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
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import exact_linalg as xl
from .exact_linalg import RatMatrix, json_list, json_object, rat, rational_from_str, rational_to_str
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
    eigenvalue lists; in multiplicative mode each matrix is invertible.
    ``closed`` is ``verify_closure``, read once when the tuple is built;
    derived from the matrices, it takes no part in equality."""

    mode: str
    matrices: tuple[RatMatrix, ...]
    eigenvalue_lists: tuple[tuple[Fraction, ...], ...]
    closed: bool = field(compare=False)

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
        if mode == MULTIPLICATIVE and any(xl.integer_rank(m.numerators, n) < n for m in mats):
            raise ValueError("multiplicative-mode matrix is singular")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "eigenvalue_lists", eigs)
        object.__setattr__(self, "closed", verify_closure(self))

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
        json_object(data, "matrix tuple", ("mode", "matrices", "eigenvalues"))
        return cls(
            data["mode"],
            [RatMatrix.from_json(m) for m in json_list(data["matrices"], "matrices")],
            [json_list(lst, "eigenvalue list") for lst in json_list(data["eigenvalues"], "eigenvalues")],
        )


def verify_closure(t: MatrixTuple) -> bool:
    """Exact check of product = I (multiplicative) or sum = 0 (additive),
    on the integer rows of s_j M_j: prod_j (s_j M_j) = (prod_j s_j) I, or
    sum_j (L / s_j) (s_j M_j) = 0 with L the lcm of the s_j."""
    scales = [m.denominator for m in t.matrices]
    if t.mode == MULTIPLICATIVE:
        acc = t.matrices[0].numerators
        for m in t.matrices[1:]:
            acc = xl.matmul_rows(acc, m.numerators)
        scale = math.prod(scales)
        return all(x == (scale if i == j else 0) for i, row in enumerate(acc) for j, x in enumerate(row))
    lcm = math.lcm(*scales)
    weights = [lcm // s for s in scales]
    # entries holds one position's entry of every s_j M_j
    return not any(
        sum(map(operator.mul, weights, entries))
        for entries in zip(*(itertools.chain.from_iterable(m.numerators) for m in t.matrices))
    )


def _shifted(m: RatMatrix, lam: Fraction) -> list[list[int]]:
    """Rows of q s (m - lam I) as ints, for s m's denominator and
    lam = p/q: q (s m) - p s I, written entry by entry.  A nonzero scale
    changes no rank or kernel."""
    q, ps = lam.denominator, lam.numerator * m.denominator
    rows = [[q * x for x in row] for row in m.numerators]
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
    entries = []
    for lam in sorted(claimed):
        # q s (m - lam I): the scale (and its powers) changes no rank
        shifted = _shifted(m, lam)
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
    """True iff m has JNF j, where j's labels are concrete rational values;
    a label names its value, so "2/4" and "1/2" are one label."""
    try:
        blocks = [(rational_from_str(label), part) for label, part in j.blocks_by_eigenvalue]
    except ValueError as exc:
        raise ValueError("class_membership needs rational eigenvalue labels") from exc
    # jnf_of labels each value canonically ("2/4" as "1/2"); as in Jnf, two
    # labels of one value are duplicates
    j = Jnf((rational_to_str(lam), part) for lam, part in blocks)
    if j.size != m.rows:
        raise xl.ShapeMismatchError("JNF size differs from the matrix size")
    try:
        return jnf_of(m, [lam for lam, part in blocks for _ in range(part.total())]) == j
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


def generators(t: MatrixTuple) -> tuple[RatMatrix, ...]:
    """The first k - 1 of t's k matrices when t closes, all k otherwise.
    They generate the same unital algebra as all k: the closing matrix is
    the inverse of the others' product, a polynomial in it by
    Cayley-Hamilton, or minus their sum."""
    return t.matrices[:-1] if t.closed else t.matrices


def centralizer_dim(t: MatrixTuple) -> int:
    """dim C(t), eliminating only the commutator maps of t's ``generators``:
    a matrix commuting with M_1..M_{k-1} of a closed tuple commutes with
    every polynomial in them, M_k included."""
    return centralizer_dim_of(generators(t))


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
    once the span reaches it.  Each vector that ``IntEchelon`` accepts is
    read once, in the order accepted, and its images join the span; once
    every one is read the span is closed under every map, since they span
    it.  They are read as given, not as the echelon rewrites its rows: a
    rewritten row is a minor of the vectors accepted so far, and spinning
    minors would grow them again at every step."""
    basis, spanning = xl.IntEchelon(), []
    # map reads spanning lazily, so each vector accepted is read in its turn
    for vector in itertools.chain([start], itertools.chain.from_iterable(map(images, spanning))):
        vector = list(vector)
        if basis.add(vector):
            spanning.append(vector)
            if len(spanning) == bound:
                break
    return len(spanning)


def algebra_dim(t: MatrixTuple) -> int:
    """Dimension of the unital algebra generated by the matrices, by the
    Burnside closure: it is n^2 exactly when the algebra is M_n(Q).  The
    spin of vec(I) under right multiplication by each of t's
    ``generators``, with each row read as an n x n matrix; the closure
    stops early at n^2.  The closing matrix of a closed tuple lies in the
    algebra of the others, so it adds no product."""
    n = t.n
    gens = generators(t)

    def products(row: list[int]):
        m = [row[i * n : (i + 1) * n] for i in range(n)]
        return ((x for prod_row in xl.matmul_rows(m, g.numerators) for x in prod_row) for g in gens)

    return _spin_dim((int(i == j) for i in range(n) for j in range(n)), products, n * n)


def norton_spins(t: MatrixTuple) -> tuple[bool, bool] | None:
    """Norton's irreducibility test (Parker 1984; Holt & Rees, J. Austral.
    Math. Soc. 57 (1994)): (the spin of v is Q^n, the spin of w is Q^n), or
    None when no claimed eigenvalue gives the test its theta.

    theta = M_j - lam I for the first M_j, in tuple order, with a claimed
    eigenvalue lam, in claim order, of rank(M_j - lam I) = n - 1; a wrong
    claim only fails that rank check.  theta is taken as the integer rows
    of q s (M_j - lam I) (``_shifted``), which have the same rank and
    kernels.  One elimination of theta (``exact_linalg.integer_kernel``)
    gives its integer kernel basis; a basis of one vector v is the rank
    check, and a second elimination, of theta^T, gives the integer vector
    w that spans ker theta^T.  Nothing is formed as a Fraction.  The spin
    of v is the smallest subspace that contains v and that every M_i
    keeps; the spin of w is the same under the M_i^T.  theta is searched
    over all k matrices, but both spins run under t's ``generators`` only:
    on a closed tuple a subspace that M_1..M_{k-1} keep is kept by M_k, a
    polynomial in them.

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
    for m, eigs in zip(t.matrices, t.eigenvalue_lists):
        for lam in dict.fromkeys(eigs):
            theta = _shifted(m, lam)
            kernel = xl.integer_kernel(theta, n)
            if len(kernel) != 1:  # rank(theta) != n - 1
                continue
            (cokernel,) = xl.integer_kernel(zip(*theta), n)
            factors = [g.numerators for g in generators(t)]
            # g x for a column x is the row x^T g^T, and g^T y is the row y^T g
            transposes = [list(zip(*g)) for g in factors]

            def spans(start: list[int], fs: list) -> bool:
                return _spin_dim(start, lambda row: (xl.matmul_rows([row], f)[0] for f in fs), n) == n

            return spans(kernel[0], transposes), spans(cokernel, factors)
    return None


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
    if not t.closed:
        raise ClosureViolatedError("tuple does not close (product I / sum 0)")
    theta = corner_differential(t.matrices, t.matrices, t.mode)
    kernel_dim = theta.cols - xl.rank(theta)
    return kernel_dim - sum(centralizer_dim_of([m]) for m in t.matrices)


def orbit_dim(t: MatrixTuple) -> int:
    """Dimension of the simultaneous-conjugation orbit: n^2 minus the
    centralizer dimension of the tuple (``centralizer_dim``, on its
    generators)."""
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
    out["closure"] = t.closed
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
    # no elimination (see ``norton_spins``).  The spins, the elimination and
    # the Burnside closure all read the ``generators``: on a closed tuple
    # the closing matrix is a polynomial in the others (the inverse of
    # their product, by Cayley-Hamilton, or minus their sum), so it changes
    # no centralizer, invariant subspace or algebra, and is left out.
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
    if t.closed:
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
