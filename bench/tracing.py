"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent span, op id) in memory.  The
wrapper is installed at the function's module attribute and in every
package module that imported it by name, so ``rank`` in
``workbench/runner.py`` and ``run_corpus`` in ``cli.py`` are traced too;
class methods are replaced on the class.  The package source is untouched.

Per-entry helpers (``rat``, ``combine``, ...) are deliberately not wrapped:
they run once per matrix entry or per enumerated combination, so a span
there would cost more than the work it measures.  Their time is part of
the self time of the traced function that calls them.

Some wrappers also record exact counts computed from arguments and
results (``COUNTERS``); these repeat exactly between runs with one seed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

PACKAGE = "deligne_simpson"

# layer -> (module, attribute) pairs; "Class.method" names a method.
LAYERS = {
    "exact_linalg": [
        ("exact_linalg", name)
        for name in (
            "matmul", "product", "commutator", "hstack", "vstack", "rank", "rref",
            "nullspace_basis", "nullity", "inverse", "solve", "left_mul_matrix",
            "right_mul_matrix", "vectorize_commutator_map",
        )
    ],
    "jnf": [
        ("jnf", name)
        for name in (
            "Partition.dual", "centralizer_dim_of_jnf", "class_dim", "min_rank",
            "corresponding_diagonal", "corresponding_single_eigenvalue", "corresponds",
        )
    ],
    "spectra": [
        ("spectra", name)
        for name in (
            "global_condition", "enumerate_relations", "all_relations", "basic_relation",
            "is_generic", "classify", "exp_map",
        )
    ],
    "reduction": [
        ("reduction", name)
        for name in (
            "check_alpha", "check_beta", "check_omega", "kappa", "expected_dim",
            "classify_rigidity", "admissible_choices", "reduce_step", "solvable_generic",
            "explore_all_traces",
        )
    ],
    "tuple_lab": [
        ("tuple_lab", name)
        for name in (
            "verify_closure", "jnf_of", "class_membership", "jordan_realization",
            "centralizer_dim_of", "centralizer_dim", "has_trivial_centralizer",
            "commut_surjective", "is_irreducible", "tangent_dim", "orbit_dim",
            "conjugate", "jnf_tuple_of", "report",
        )
    ],
    "workbench": [
        ("workbench.fixtures", "builtin_corpus"),
        ("workbench.fixtures", "fixture_by_name"),
        ("workbench.runner", "evaluate_expectation"),
        ("workbench.runner", "run_fixture"),
        ("workbench.runner", "run_corpus"),
        ("workbench.builders", "hom_dim"),
        ("workbench.builders", "triangular_spaces"),
    ],
    # Only main: its self time is argument parsing, JSON load and dump,
    # and payload assembly -- the CLI's own share of an op.
    "cli": [("cli", "main")],
}


def span_name(layer: str, attr: str) -> str:
    """``exact_linalg.rank``, ``jnf.dual`` (for ``Partition.dual``)."""
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def _entry_bits(m) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in m.entries)


def _count_vectors(mults, size) -> int:
    """Number of sub-multisets of the given size: coefficient of t^size in
    prod_i (1 + t + ... + t^mult_i)."""
    poly = [1]
    for m in mults:
        nxt = [0] * (len(poly) + m)
        for i, c in enumerate(poly):
            for j in range(m + 1):
                nxt[i + j] += c
        poly = nxt
    return poly[size] if size < len(poly) else 0


def _combos(s, m) -> int:
    return math.prod(_count_vectors([mult for _, mult in cls_], m) for cls_ in s.classes)


# span name -> f(args, kwargs, result) -> dict of exact counts
COUNTERS = {
    "exact_linalg.rank": lambda a, k, r: {"cells": a[0].rows * a[0].cols, "max_entry_bits": _entry_bits(a[0])},
    "exact_linalg.matmul": lambda a, k, r: {"mults": a[0].rows * a[0].cols * a[1].cols},
    "exact_linalg.left_mul_matrix": lambda a, k, r: {"cells": r.rows * r.cols},
    "exact_linalg.right_mul_matrix": lambda a, k, r: {"cells": r.rows * r.cols},
    "spectra.enumerate_relations": lambda a, k, r: {"combos": _combos(a[0], a[1]), "witnesses": len(r)},
    "reduction.explore_all_traces": lambda a, k, r: {"paths": len(r)},
    "tuple_lab.is_irreducible": lambda a, k, r: {"n2": a[0].n ** 2, "irreducible": int(r)},
}


class Spans:
    """Spans in parallel arrays: name id, start and end (perf_counter_ns),
    parent index (-1 for a root), op id (-1 for none).  A parent always has
    a lower index than its children.  Compact storage matters: one
    choice-walk op records half a million spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[int, dict] = {}
        self.recursive: set[int] = set()

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: int, end: int, parent: int = -1, op: int = -1) -> int:
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def merge(self, other: Spans, parent: int) -> None:
        """Append another process's spans; its roots become children of ``parent``."""
        offset = len(self)
        for i in range(len(other)):
            p = other.parent[i]
            self.add(other.names[other.name[i]], other.start[i], other.end[i],
                     parent if p < 0 else p + offset, other.op[i])
        for i, c in other.counts.items():
            self.counts[i + offset] = c
        self.recursive.update(i + offset for i in other.recursive)

    def dump(self, path) -> None:
        """JSON lines: a header with the name table, then one
        [name, start, end, parent, op, counts] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "recursive": sorted(self.recursive)}) + "\n")
            for i in range(len(self)):
                row = [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i], self.counts.get(i)]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> Spans:
        out = cls()
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            for row in map(json.loads, fh):
                idx = out.add(header["names"][row[0]], *row[1:5])
                if row[5] is not None:
                    out.counts[idx] = row[5]
        out.recursive = set(header["recursive"])
        return out

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it that its child spans
        cover: the union of the child intervals, clipped to the span.
        Children are visited in index order, which is their start order."""
        n = len(self)
        covered = [0] * n
        reach = [None] * n  # end of the covered interval so far, per parent
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            a = max(self.start[i], self.start[p], reach[p] or self.start[p])
            b = min(self.end[i], self.end[p])
            if b > a:
                covered[p] += b - a
                reach[p] = b
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def op_sum_mismatches(self, root: str = "bench.op") -> list[int]:
        """Op ids whose spans' self times do not add up to the wall time
        of the op's root span."""
        selfs = self.self_times()
        root_id = self._ids.get(root)
        sums: dict[int, int] = {}
        walls: dict[int, int] = {}
        for i in range(len(self)):
            sums[self.op[i]] = sums.get(self.op[i], 0) + selfs[i]
            if self.name[i] == root_id:
                walls[self.op[i]] = self.end[i] - self.start[i]
        return [op for op, wall in walls.items() if sums.get(op) != wall]


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self):
        self.spans = Spans()
        self.op_id = -1
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        s = self.spans
        idx = s.add(name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op_id)
        nid = s.name[idx]
        depth = self._active.get(nid, 0)
        if depth:
            s.recursive.add(idx)
        self._active[nid] = depth + 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        s = self.spans
        s.end[idx] = time.perf_counter_ns()
        self._active[s.name[idx]] -= 1
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans.counts[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function wherever the package holds a reference."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, entries in LAYERS.items():
            for module_name, attr in entries:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                name = span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self.wrap(name, vars(cls)[meth]))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# -- per-layer numbers -------------------------------------------------------

BUILD_SPANS = {
    "exact_linalg.left_mul_matrix", "exact_linalg.right_mul_matrix",
    "exact_linalg.vectorize_commutator_map", "exact_linalg.matmul",
    "exact_linalg.product", "exact_linalg.hstack", "exact_linalg.vstack",
}


def aggregate(spans: Spans) -> dict[str, float]:
    """Per span name: calls, total_s (recursive calls not counted twice),
    self_s and the summed exact counts (max for ``max_entry_bits``); plus
    the ratios that need the span tree."""
    selfs = spans.self_times()
    n_names = len(spans.names)
    calls = [0] * n_names
    total = [0] * n_names
    self_ns = [0] * n_names
    counts: list[dict] = [{} for _ in range(n_names)]
    for i in range(len(spans)):
        nid = spans.name[i]
        calls[nid] += 1
        self_ns[nid] += selfs[i]
        if i not in spans.recursive:
            total[nid] += spans.end[i] - spans.start[i]
        for key, value in (spans.counts.get(i) or {}).items():
            acc = counts[nid]
            acc[key] = max(acc.get(key, 0), value) if key == "max_entry_bits" else acc.get(key, 0) + value
    out: dict[str, float] = {}
    for nid, name in enumerate(spans.names):
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.total_s"] = total[nid] / 1e9
        out[f"{name}.self_s"] = self_ns[nid] / 1e9
        for key, value in counts[nid].items():
            out[f"{name}.{key}"] = value

    # One forward pass: a parent precedes its children.
    ids = {name: nid for nid, name in enumerate(spans.names)}
    irr_id = ids.get("tuple_lab.is_irreducible")
    tangent_id = ids.get("tuple_lab.tangent_dim")
    matmul_id = ids.get("exact_linalg.matmul")
    build_ids = {ids[name] for name in BUILD_SPANS if name in ids}
    nearest_irr = [-1] * len(spans)
    in_tangent = bytearray(len(spans))
    in_build = bytearray(len(spans))
    products = useful_products = useful_n2 = build_ns = tangent_ns = 0
    for i in range(len(spans)):
        nid, p = spans.name[i], spans.parent[i]
        nearest_irr[i] = i if nid == irr_id else (nearest_irr[p] if p >= 0 else -1)
        in_tangent[i] = nid == tangent_id or (p >= 0 and in_tangent[p])
        in_build[i] = nid in build_ids or (p >= 0 and in_build[p])
        dur = spans.end[i] - spans.start[i]
        if nid == tangent_id:
            tangent_ns += dur
        elif nid in build_ids and p >= 0 and in_tangent[p] and not in_build[p]:
            build_ns += dur
        if nid == irr_id and spans.counts.get(i, {}).get("irreducible"):
            useful_n2 += spans.counts[i]["n2"]
        if nid == matmul_id and p >= 0 and nearest_irr[p] >= 0:
            products += 1
            useful_products += spans.counts.get(nearest_irr[p], {}).get("irreducible", 0)
    out["tuple_lab.is_irreducible.products"] = products
    out["tuple_lab.is_irreducible.useful_ratio"] = useful_n2 / useful_products if useful_products else 0.0
    out["tuple_lab.tangent_dim.build_share"] = build_ns / tangent_ns if tangent_ns else 0.0
    combos = out.get("spectra.enumerate_relations.combos", 0)
    witnesses = out.get("spectra.enumerate_relations.witnesses", 0)
    out["spectra.enumerate_relations.hit_ratio"] = witnesses / combos if combos else 0.0
    return out
