"""In-memory span recorder for the traced benchmark run.

The recorder wraps functions of the wilsonprod modules from outside: every
module attribute (or class attribute) that holds a target function is
replaced by a wrapper for as long as the recorder is installed, so each
import site (``wilson.build_residue_ring``, ``cli.make_order`` ...) records
the same span.  A span is ``[name, start_ns, end_ns, parent, request]``;
a layer's self time is its spans' durations minus the time covered by their
child spans.  Nothing here touches the package's own source.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name): calls timed as spans.
SPAN_TARGETS = (
    ("wilsonprod.cli", "main", "cli.main"),
    ("wilsonprod.order", "make_order", "order.make_order"),
    ("wilsonprod.primes", "factor_prime", "primes.factor_prime"),
    ("wilsonprod.primes", "parse_ideal", "primes.parse_ideal"),
    ("wilsonprod.primes", "valuation", "primes.valuation"),
    ("wilsonprod.lattice", "ideal_power_lattice",
     "lattice.ideal_power_lattice"),
    ("wilsonprod.lattice", "lattice_product", "lattice.lattice_product"),
    ("wilsonprod.lattice", "rows_hnf", "lattice.rows_hnf"),
    ("wilsonprod.lattice", "solve_comaximal", "lattice.solve_comaximal"),
    ("wilsonprod.residue", "build_residue_ring", "residue.build"),
    ("wilsonprod.residue", "ResidueRing._units_array", "residue.unit_mask"),
    ("wilsonprod.residue", "ResidueRing.unit_product", "residue.unit_product"),
    ("wilsonprod.residue", "ResidueRing.order2_census", "residue.census"),
    ("wilsonprod.residue", "_np_tree_product", "residue.tree_product"),
    ("wilsonprod.residue", "_np_reduce", "residue.reduce"),
    ("wilsonprod.wilson", "classify_global", "wilson.classify"),
    ("wilsonprod.wilson", "witness_element", "wilson.witness"),
    ("wilsonprod.wilson", "uniformizer", "wilson.uniformizer"),
    ("wilsonprod.wilson", "verify_ideal", "wilson.verify"),
    ("wilsonprod.wilson", "sweep_field", "wilson.sweep_field"),
    ("wilsonprod.wilson", "sweep_ideals", "wilson.sweep_ideals"),
)

# (module, attribute path, counter name): calls counted, not timed.
COUNT_TARGETS = (
    ("wilsonprod.order", "NumberFieldOrder.mul", "order.mul"),
    ("wilsonprod.residue", "cached_power_basis", "lattice.cached_power_basis"),
)

# Spans whose self time is residue enumeration work (for ns per element).
RESIDUE_KERNELS = ("residue.unit_mask", "residue.unit_product",
                   "residue.tree_product", "residue.census", "residue.reduce")


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.largest_ring = 0
        self.request = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, name: str) -> int:
        if not self._stack:  # a call from the benchmark: a new request
            self.request += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter_ns(), 0,
                           parent, self.request])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def self_times(self) -> tuple[dict, dict]:
        """Per-name total self time in seconds, and call counts."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for span, covered in zip(self.spans, child):
            name = self.names[span[0]]
            self_ns[name] += span[2] - span[1] - covered
            calls[name] += 1
        return ({k: v / 1e9 for k, v in self_ns.items()}, dict(calls))

    def write(self, path: str, header: dict) -> None:
        doc = dict(header, span_fields=["name", "start_ns", "end_ns",
                                        "parent", "request"],
                   names=self.names, spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(modname: str, path: str):
    """(owner, attribute, original) for ``path`` in a loaded module."""
    owner = sys.modules.get(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs span and counter wrappers into the wilsonprod modules.

    Use as a context manager; on exit every patched attribute gets its
    original back.  Targets that no longer exist in the package are listed
    in ``missing`` and report zero.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for modname, path, name in SPAN_TARGETS:
            self._patch(modname, path, name, self._span_wrapper)
        for modname, path, name in COUNT_TARGETS:
            self._patch(modname, path, name, self._count_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _patch(self, modname, path, name, make) -> None:
        found = _resolve(modname, path)
        if found is None:
            self.missing.append(name)
            return
        owner, attr, orig = found
        wrapped = make(name, orig)
        if isinstance(owner, type):
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        # every import site: each package module that holds the same object
        for pkg_name, mod in list(sys.modules.items()):
            if pkg_name.split(".")[0] != "wilsonprod":
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _span_wrapper(self, name, orig):
        rec = self.rec
        if name == "wilson.sweep_ideals":  # a generator: time each step
            def gen_wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    idx = rec.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.exit(idx)
                    yield item
            return gen_wrapper
        pre = {"residue.unit_mask": self._before_unit_mask}.get(name)
        post = {"residue.build": self._after_build}.get(name)

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args[0])
            idx = rec.enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.exit(idx)
            if post is not None:
                post(out)
            return out
        return wrapper

    def _count_wrapper(self, name, orig):
        rec = self.rec
        counts = rec.counts
        if name == "lattice.cached_power_basis":
            # a hit computes nothing, so it records no span
            def cache_wrapper(*args, **kwargs):
                before = len(rec.spans)
                counts["lattice.basis_cache.lookups"] += 1
                out = orig(*args, **kwargs)
                if len(rec.spans) == before:
                    counts["lattice.basis_cache.hits"] += 1
                return out
            return cache_wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _before_unit_mask(self, ring) -> None:
        # the first call on a ring enumerates its box and builds the tables
        if getattr(ring, "_units_arr", None) is not None:
            return
        counts = self.rec.counts
        counts["residue.elements"] += ring.size
        counts["residue.units"] += ring.unit_count
        if getattr(ring, "_np_ok", False):
            d = ring.order.degree
            counts["residue.mask_table_entries"] += sum(
                pd.p ** d for pd, _ in ring.modulus.factors)

    def _after_build(self, ring) -> None:
        counts = self.rec.counts
        counts["residue.rings"] += 1
        counts["residue.int64_rings"] += bool(getattr(ring, "_np_ok", False))
        counts["residue.defer_mod_rings"] += bool(
            getattr(ring, "_defer_mod", False))
        self.rec.largest_ring = max(self.rec.largest_ring, ring.size)


def layer_metrics(rec: SpanRecorder, passes: int, traced_s: float) -> dict:
    """The per-layer table, each figure per traced pass."""
    self_s, calls = rec.self_times()
    counts = rec.counts

    def per(x):
        return x / passes

    def share(num, den):
        return num / den if den else 0.0

    def s(name):
        return per(self_s.get(name, 0.0))

    def n(name):
        return per(calls.get(name, 0))

    out = {}
    for name in ("residue.unit_mask", "residue.tree_product", "residue.census",
                 "residue.reduce", "residue.build",
                 "lattice.ideal_power_lattice", "lattice.lattice_product",
                 "lattice.rows_hnf", "lattice.solve_comaximal",
                 "order.make_order", "primes.factor_prime",
                 "primes.parse_ideal", "primes.valuation", "wilson.classify",
                 "wilson.witness", "wilson.sweep_ideals", "wilson.verify",
                 "cli.main"):
        out[f"{name}.self_s"] = s(name)
    for name in ("lattice.ideal_power_lattice", "lattice.lattice_product",
                 "lattice.rows_hnf", "order.make_order", "primes.factor_prime",
                 "wilson.uniformizer"):
        out[f"{name}.calls"] = n(name)
    elements = counts["residue.elements"]
    kernel_s = sum(self_s.get(k, 0.0) for k in RESIDUE_KERNELS)
    residue_s = sum(v for k, v in self_s.items() if k.startswith("residue."))
    out["residue.ns_per_element"] = share(kernel_s * 1e9, elements)
    out["residue.elements"] = per(elements)
    out["residue.units"] = per(counts["residue.units"])
    out["residue.mask_table_entries"] = per(
        counts["residue.mask_table_entries"])
    out["residue.int64_share"] = share(counts["residue.int64_rings"],
                                       counts["residue.rings"])
    out["residue.defer_mod_share"] = share(counts["residue.defer_mod_rings"],
                                           counts["residue.rings"])
    out["residue.largest_ring"] = float(rec.largest_ring)
    out["residue.self_share"] = share(residue_s, traced_s)
    out["lattice.basis_cache_hit_ratio"] = share(
        counts["lattice.basis_cache.hits"],
        counts["lattice.basis_cache.lookups"])
    out["order.mul.calls"] = per(counts["order.mul"])
    out["trace.spans"] = per(len(rec.spans))
    return out
