"""Seeded input generators for the benchmark workloads.

Standard library only, and independent of the package under test: the
matrices are built with this module's own exact arithmetic, so a defect in
the package cannot leak into the inputs it is checked against.  The same
seed gives the same requests, and ``dumps`` gives byte-identical files.

Every request comes with its *shape* (mode, n, matrix or class count,
structure, planted relation yes/no), which is recorded next to each
latency, and with the *facts* that hold by construction, which the
checker compares against the program's answer.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

MULT = "multiplicative"
ADD = "additive"

# Eigenvalue pools: small integers keep entry growth moderate; the
# multiplicative pool avoids 0.
EIGEN_POOL = {MULT: [1, -1, 2, -2, 3], ADD: [0, 1, -1, 2, -2]}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _s(x) -> str:
    return str(Fraction(x))


# -- exact matrix helpers (lists of lists of Fraction) -----------------------


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def _inverse(a):
    n = len(a)
    aug = [list(row) + e for row, e in zip(a, _identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _unimodular(rng, n):
    """L @ U with unit triangular factors: invertible over the integers, so
    conjugating by it keeps integer matrices integral."""
    lower = _identity(n)
    upper = _identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-1, 1))
            upper[j][i] = Fraction(rng.randint(-1, 1))
    return _matmul(lower, upper)


def _conjugate(g, ginv, m):
    return _matmul(_matmul(g, m), ginv)


def _block_diag(a, b):
    n, k = len(a), len(b)
    zero = Fraction(0)
    return [list(row) + [zero] * k for row in a] + [[zero] * n + list(row) for row in b]


def _composition(rng, total, parts):
    """A random composition of total into the given number of positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _partition(rng, total):
    parts = []
    while total:
        p = rng.randint(1, total)
        parts.append(p)
        total -= p
    return sorted(parts, reverse=True)


def _jordan_class(rng, layout, n, mode):
    """A regular Jordan matrix (one block per eigenvalue) with 2 or 3
    distinct pool eigenvalues; returns (matrix, eigenvalue list).  The
    block sizes come from the cell's layout, the eigenvalues from the seed.

    Regular classes have min rank n - 1, so a dense tuple of them is
    irreducible with trivial centralizer for all but a thin set of
    conjugators; classes with large eigenspaces would share an invariant
    subspace.
    """
    distinct = layout.randint(2, min(3, n))
    values = rng.sample(EIGEN_POOL[mode], distinct)
    m = [[Fraction(0)] * n for _ in range(n)]
    eigs = []
    pos = 0
    for lam, mult in zip(values, _composition(layout, n, distinct)):
        for i in range(mult):
            m[pos + i][pos + i] = Fraction(lam)
            if i + 1 < mult:
                m[pos + i][pos + i + 1] = Fraction(1)
        pos += mult
        eigs.extend([lam] * mult)
    return m, eigs


def _close(mode, mats):
    """The matrix that closes the tuple: inverse of the product, or minus the sum."""
    if mode == MULT:
        acc = mats[0]
        for m in mats[1:]:
            acc = _matmul(acc, m)
        return _inverse(acc)
    n = len(mats[0])
    return [[-sum((m[i][j] for m in mats), Fraction(0)) for j in range(n)] for i in range(n)]


def _wrong_claim(mode, n):
    # The closing matrix of a dense tuple has irrational eigenvalues in
    # general; claiming a single eigenvalue of multiplicity n is then wrong,
    # which drives the wrong_spectrum path.
    return [1 if mode == MULT else 0] * n


def _dense(rng, layout, mode, n, count):
    """count - 1 conjugated Jordan matrices with rational spectra, closed by
    a last matrix whose claimed spectrum is wrong on purpose."""
    mats, claims = [], []
    for _ in range(count - 1):
        j, eigs = _jordan_class(rng, layout, n, mode)
        p = _unimodular(rng, n)
        mats.append(_conjugate(p, _inverse(p), j))
        claims.append(eigs)
    mats.append(_close(mode, mats))
    claims.append(_wrong_claim(mode, n))
    return mats, claims


def _triangular(rng, mode, n, count):
    """Upper-triangular tuple (a flag of 1 x 1 diagonal blocks): reducible,
    with every eigenvalue rational and claimed correctly."""
    mats = []
    for _ in range(count - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = Fraction(rng.choice(EIGEN_POOL[mode]))
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
        mats.append(m)
    mats.append(_close(mode, mats))
    return mats, [[m[i][i] for i in range(n)] for m in mats]


def _direct_sum(rng, layout, mode, n, count):
    """Direct sum of two dense tuples: centralizer dimension >= 2."""
    a = layout.randint(2, n - 2)
    first, claims_a = _dense(rng, layout, mode, a, count)
    second, claims_b = _dense(rng, layout, mode, n - a, count)
    mats = [_block_diag(x, y) for x, y in zip(first, second)]
    claims = [ca + cb for ca, cb in zip(claims_a[:-1], claims_b[:-1])]
    claims.append(_wrong_claim(mode, n))
    return mats, claims


STRUCTURES = ("dense", "triangular", "direct_sum")


def verify_request(rng: random.Random, mode: str, n: int, count: int, structure: str):
    """A ``verify`` input file payload, its shape and its facts.

    Block sizes and the direct-sum split are fixed per cell (``layout``),
    so a seed changes entries and eigenvalues but not the mix of shapes.
    """
    layout = random.Random(repr(("verify", mode, n, count, structure)))
    if structure == "dense":
        mats, claims = _dense(rng, layout, mode, n, count)
    elif structure == "triangular":
        mats, claims = _triangular(rng, mode, n, count)
    elif structure == "direct_sum":
        mats, claims = _direct_sum(rng, layout, mode, n, count)
    else:
        raise ValueError(f"unknown structure {structure!r}")
    if structure != "dense":
        g = _unimodular(rng, n)
        ginv = _inverse(g)
        mats = [_conjugate(g, ginv, m) for m in mats]
    payload = {
        "mode": mode,
        "matrices": [[[_s(x) for x in row] for row in m] for m in mats],
        "eigenvalues": [[_s(x) for x in lst] for lst in claims],
    }
    shape = {"mode": mode, "n": n, "count": count, "structure": structure, "planted": False}
    rational = structure == "triangular"
    facts = {
        "closure": True,
        "reducible": structure != "dense",
        "min_centralizer_dim": 2 if structure == "direct_sum" else 1,
        # the claimed spectra that are right by construction come back as JNFs
        "claims_correct": rational,
        "claimed_spectra": payload["eigenvalues"] if rational else None,
    }
    return payload, shape, facts


# -- analyze inputs ----------------------------------------------------------


def _scalar(mode, coeffs):
    terms = {sym: _s(c) for sym, c in sorted(coeffs.items()) if c != 0}
    if mode == MULT:
        return {"exponents": terms, "phase": "0"}
    return {"coefficients": terms, "constant": "0"}


MULTIPLICITY_CHOICES = {
    # per n: class multiplicity patterns with 2 or 3 distinct eigenvalues;
    # the second list keeps every multiplicity even or divisible by 3
    5: ([[4, 1], [3, 2], [3, 1, 1], [2, 2, 1]], []),
    6: ([[5, 1], [4, 1, 1], [3, 2, 1], [2, 2, 1, 1], [3, 3], [4, 2], [2, 2, 2]],
        [[4, 2], [2, 2, 2], [3, 3]]),
}

GENERICITY_KINDS = ("generic", "relatively_generic", "non_generic")


def _spectrum_coefficients(mults, planted):
    """Symbol coefficients of every eigenvalue, or None when the closing
    eigenvalue coincides with another one of its class."""
    count = len(mults)
    names = [[f"c{j + 1}e{i + 1}" for i in range(len(m))] for j, m in enumerate(mults)]
    coeffs: list[list[dict]] = [[{name: Fraction(1)} for name in row] for row in names]
    if planted:
        for i in range(len(names[-1]) - 1):
            coeffs[-1][i] = {names[j][i % len(names[j])]: Fraction(-1) for j in range(count - 1)}
    # the closing eigenvalue cancels the product (sum) of all the others
    coeffs[-1][-1] = {}
    total: dict[str, Fraction] = {}
    for row_c, row_m in zip(coeffs, mults):
        for c, m in zip(row_c, row_m):
            for sym, v in c.items():
                total[sym] = total.get(sym, Fraction(0)) + v * m
    coeffs[-1][-1] = {sym: -v / mults[-1][-1] for sym, v in total.items() if v}
    if coeffs[-1][-1] in coeffs[-1][:-1]:
        return None
    return coeffs


def _spectrum_layout(mode, n, count, kind):
    """The multiplicities of a cell, fixed for every seed: the cost of the
    relation search depends on them, and a seed must not change the mix."""
    layout = random.Random(repr(("spectrum", mode, n, count, kind)))
    general, divisible = MULTIPLICITY_CHOICES[n]
    pool = divisible if kind == "relatively_generic" else general
    while True:
        mults = [list(layout.choice(pool)) for _ in range(count)]
        for m in mults:
            layout.shuffle(m)
        q = math.gcd(*(x for m in mults for x in m))
        if (q > 1) != (kind == "relatively_generic") and kind != "non_generic":
            continue
        coeffs = _spectrum_coefficients(mults, kind == "non_generic")
        if coeffs is not None:
            return mults, coeffs, q


def spectrum_request(rng: random.Random, mode: str, n: int, count: int, kind: str):
    """A JNF tuple with a spectrum in which every eigenvalue is its own
    symbol except the last one, which closes the global condition.

    * generic: the gcd of all multiplicities is 1;
    * relatively_generic: the gcd is > 1, so only the basic relation and its
      repetitions hold;
    * non_generic: every eigenvalue of the last class but the closing one
      is planted as the inverse (resp. negative) of one eigenvalue from
      each other class; these size-1 relations, and their unions, are
      witnesses that no basic relation explains.

    The seed draws the Jordan blocks of every eigenvalue and the order of
    all classes but the last.
    """
    mults, coeffs, q = _spectrum_layout(mode, n, count, kind)
    order = list(range(count - 1))
    rng.shuffle(order)
    order.append(count - 1)
    mults = [mults[j] for j in order]
    coeffs = [coeffs[j] for j in order]
    names = [[f"c{j + 1}e{i + 1}" for i in range(len(m))] for j, m in zip(order, mults)]
    symbols = sorted({sym for row in coeffs for c in row for sym in c})
    jnfs = []
    for row_n, row_m in zip(names, mults):
        jnfs.append([{"eigenvalue": name, "blocks": _partition(rng, m)} for name, m in zip(row_n, row_m)])
    spectrum = {
        "mode": mode,
        "symbols": symbols,
        "classes": [
            [{"scalar": _scalar(mode, c), "mult": m} for c, m in zip(row_c, row_m)]
            for row_c, row_m in zip(coeffs, mults)
        ],
    }
    planted = kind == "non_generic"
    shape = {"mode": mode, "n": n, "count": count, "structure": kind, "planted": planted}
    facts = {"genericity": kind, "gcd": q}
    return {"jnfs": jnfs, "spectrum": spectrum}, shape, facts


# Hypergeometric-type triples of semisimple classes, given by eigenvalue
# multiplicities: eigenvalues tie for the maximal block count, and every tie
# is an admissible choice, so the choice walk branches at every step.
# These are all semisimple triples of size 4 and 5 with more than one path.
TIED_TRIPLES = {
    4: [((3, 1), (1, 1, 1, 1), (1, 1, 1, 1)), ((2, 2), (2, 1, 1), (1, 1, 1, 1))],
    5: [((4, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)), ((3, 2), (2, 2, 1), (1, 1, 1, 1, 1))],
}


def explore_request(rng: random.Random, n: int, variant: int):
    """An ``analyze --trace --explore-choices`` input without a spectrum;
    the seed orders the classes and their eigenvalues."""
    classes = [list(m) for m in TIED_TRIPLES[n][variant]]
    rng.shuffle(classes)
    jnfs = []
    for j, mults in enumerate(classes):
        rng.shuffle(mults)
        jnfs.append([{"eigenvalue": f"c{j + 1}e{i + 1}", "blocks": [1] * m} for i, m in enumerate(mults)])
    shape = {"mode": None, "n": n, "count": 3, "structure": f"hypergeometric{variant}", "planted": False}
    return {"jnfs": jnfs}, shape, {"explore": True}


# -- workloads ---------------------------------------------------------------
#
# Each pass holds every cell of a workload's grid once, in one fixed order
# shared by all seeds, and a run measures whole passes, so that every run
# sees the same mix of sizes and structures; the seed only draws the
# entries, spectra and orderings.

# Half of the full mode x n x count x structure grid: the matrix count
# alternates, so every (mode, n), (mode, structure) and (n, structure) pair
# still meets both counts, and a pass takes about ten seconds.
VERIFY_CELLS = [
    (mode, n, 3 + (m + n + s) % 2, structure)
    for m, mode in enumerate((MULT, ADD))
    for n in (4, 5, 6)
    for s, structure in enumerate(STRUCTURES)
]
ANALYZE_CELLS = [
    ("spectrum", mode, n, count, kind)
    for mode in (MULT, ADD)
    for n in (5, 6)
    for count in (3, 4)
    for kind in GENERICITY_KINDS
    if n == 6 or kind != "relatively_generic"
] + [("explore", n, variant) for n in (4, 5) for variant in (0, 1)]
random.Random(0).shuffle(VERIFY_CELLS)
random.Random(0).shuffle(ANALYZE_CELLS)


def _op(command, request, shape, facts, extra_args=()):
    return {
        "command": command,
        "request": request,
        "text": dumps(request),
        "extra_args": list(extra_args),
        "shape": shape,
        "facts": facts,
    }


def workload_ops(workload: str, seed: int, passes: int) -> list[dict]:
    """The requests of a workload, ``passes`` times its grid."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(passes):
        if workload == "verify-tuples":
            for cell in VERIFY_CELLS:
                ops.append(_op("verify", *verify_request(rng, *cell)))
        elif workload == "analyze-spectra":
            for kind, *cell in ANALYZE_CELLS:
                if kind == "spectrum":
                    ops.append(_op("analyze", *spectrum_request(rng, *cell)))
                else:
                    ops.append(_op("analyze", *explore_request(rng, *cell), ["--trace", "--explore-choices"]))
        elif workload == "corpus-cli":
            shape = {"mode": None, "n": None, "count": None, "structure": "corpus", "planted": False}
            ops.append({"command": "corpus", "request": None, "text": None, "extra_args": [], "shape": shape, "facts": {}})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops
