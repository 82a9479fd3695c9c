"""Span tracer that times the package's layers from outside.

``Tracer.install`` replaces the public entry points of each layer with
wrappers that record a span (name, start, end, parent span, op id) and
``uninstall`` puts the originals back, so untraced ops run unmodified code.
Spans stay in memory until ``write_spans``.  A layer's self time is its
spans' time minus the time of their child spans.

``dot`` and ``primitive`` are the two ``linalg`` names the polyhedra module
imports that are not wrapped: the kernel calls them once per ray and per
new ray (over a million times in one 2x3 hull), so a wrapper would cost
more than the work it measures.  Their time stays in ``polyhedra.insert``.

Around each ``DDPair.insert`` the tracer derives the step's sign counts
from the ray lists before and after the call, inside ``trace.count`` spans
so that this bookkeeping is not charged to any layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# (span name, owners by module attribute path, entry point name)
WRAPPED = (
    ("vertices.truth_table", ("vertices",), "truth_table"),
    ("polyhedra.hull", ("polyhedra",), "hull"),
    ("polyhedra.enumerate_vertices", ("polyhedra",), "enumerate_vertices"),
    ("linalg.rref", ("polyhedra",), "rref"),
    ("linalg.clear_to_int", ("polyhedra",), "clear_to_int"),
    ("linalg.reduce_mod_rowspace", ("polyhedra",), "reduce_mod_rowspace"),
    ("linalg.integer_rank", ("polyhedra",), "integer_rank"),
    ("inequalities.from_hrep", ("inequalities", "quantum"), "from_hrep"),
    ("inequalities.to_text", ("inequalities", "quantum", "io"), "to_text"),
    ("io.read_ine", ("io",), "read_ine"),
    ("io.write_ine", ("io",), "write_ine"),
    ("io.write_ext", ("io",), "write_ext"),
    ("io.write_grid_csv", ("io",), "write_grid_csv"),
    ("io.render_svg", ("io",), "render_svg"),
    ("quantum.probability_vector", ("quantum",), "probability_vector"),
    ("quantum.scan_violations", ("quantum",), "scan_violations"),
    ("quantum.sample_violation_grid", ("quantum",), "sample_violation_grid"),
)


class Tracer:
    """In-memory spans plus counters, for one benchmark process."""

    def __init__(self, cp):
        self.cp = cp
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self.originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self.originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, original, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        cp = self.cp
        after = {
            "io.read_ine": lambda a, k, r: self._add("io.read_ine_bytes", os.stat(a[0]).st_size),
            "io.write_ine": lambda a, k, r: self._add("io.write_ine_bytes", r.stat().st_size),
            "io.write_grid_csv": lambda a, k, r: self._add("io.files_written", 1),
            "io.render_svg": lambda a, k, r: self._add("io.files_written", 1),
            "quantum.scan_violations": self._after_scan,
            "quantum.sample_violation_grid": self._after_grid,
        }
        for name, owners, attr in WRAPPED:
            original = getattr(getattr(cp, owners[0]), attr)
            wrapper = self._wrap(name, original, after.get(name))
            for owner in owners:
                self._patch(getattr(cp, owner), attr, wrapper)
        self._patch(cp.polyhedra.DDPair, "insert",
                    self._traced_insert(cp.polyhedra.DDPair.insert))

    def uninstall(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def _after_scan(self, args, kwargs, reports) -> None:
        hrep = args[0]
        self._add("quantum.facet_evals", len(hrep.rows) - len(hrep.linearity))
        self._add("quantum.violated_rows", len(reports))

    def _after_grid(self, args, kwargs, grids) -> None:
        hrep = args[0]
        points = kwargs["samples_x"] * kwargs["samples_y"]
        self._add("quantum.facet_evals", (len(hrep.rows) - len(hrep.linearity)) * points)
        self._add("quantum.violated_rows", len(grids))

    def _traced_insert(self, original):
        tracer = self
        dot = self.cp.linalg.dot

        @functools.wraps(original)
        def insert(pair, row, equality=False, **kwargs):
            idx = tracer.open("trace.count")
            before = pair.rays
            k = len(pair.rows)
            lineality = len(pair.lineality)
            old = set(map(id, before))
            if equality:  # kept rays are only the zero ones: classify now
                vals = [dot(row, r) for r in before]
                signs = (sum(v > 0 for v in vals), sum(v < 0 for v in vals))
            tracer.close(idx)

            idx = tracer.open("polyhedra.insert")
            try:
                original(pair, row, equality=equality, **kwargs)
            finally:
                tracer.close(idx)

            idx = tracer.open("trace.count")
            after = pair.rays
            if len(pair.rows) == k:  # zero row: nothing inserted
                new, new_count, pos, neg = [], 0, 0, 0
            elif len(pair.lineality) < lineality:
                # A lineality direction became a ray: no pairs, no new rays.
                new, new_count, pos, neg = after, 0, 0, 0
            else:
                # Kept rays are the same objects, in front; new rays follow.
                lo, hi = 0, len(after)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if id(after[mid]) in old:
                        lo = mid + 1
                    else:
                        hi = mid
                new, new_count = after[lo:], len(after) - lo
                if equality:
                    pos, neg = signs
                else:
                    bit = 1 << k
                    zero = sum(1 for a in pair.active[:lo] if a & bit)
                    pos, neg = lo - zero, len(before) - lo
            counts = tracer.counts
            counts["polyhedra.pair_candidates"] += pos * neg
            counts["polyhedra.new_rays"] += new_count
            peaks = tracer.peaks
            peaks["polyhedra.peak_rays"] = max(peaks["polyhedra.peak_rays"], len(after))
            if new:
                bits = max(abs(x).bit_length() for r in new for x in r)
                peaks["polyhedra.max_coeff_bits"] = max(peaks["polyhedra.max_coeff_bits"], bits)
            tracer.close(idx)

        return insert

    def layer_totals(self):
        """Self time, call count and longest span per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        longest: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            longest[name] = max(longest[name], end - start)
        return self_s, calls, longest

    def layer_metrics(self, traced_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced op unless the name says otherwise."""
        self_s, calls, longest = self.layer_totals()
        n = max(traced_ops, 1)
        c = self.counts
        evaluate_s = self_s["quantum.scan_violations"] + self_s["quantum.sample_violation_grid"]
        candidates = c["polyhedra.pair_candidates"]
        return {
            "polyhedra.insert_s": (self_s["polyhedra.insert"] / n, "s"),
            "polyhedra.insert_calls": (calls["polyhedra.insert"] / n, "count"),
            "polyhedra.insert_max_s": (longest["polyhedra.insert"], "s"),
            "polyhedra.pair_candidates": (candidates / n, "count"),
            "polyhedra.new_rays": (c["polyhedra.new_rays"] / n, "count"),
            "polyhedra.pair_yield": (
                c["polyhedra.new_rays"] / candidates if candidates else 0.0, "ratio"),
            "polyhedra.peak_rays": (self.peaks["polyhedra.peak_rays"], "count"),
            "polyhedra.max_coeff_bits": (self.peaks["polyhedra.max_coeff_bits"], "bits"),
            "polyhedra.canonicalise_s": (
                (self_s["polyhedra.hull"] + self_s["polyhedra.enumerate_vertices"]) / n, "s"),
            "vertices.truth_table_s": (self_s["vertices.truth_table"] / n, "s"),
            "linalg.rref_s": (self_s["linalg.rref"] / n, "s"),
            "linalg.rref_calls": (calls["linalg.rref"] / n, "count"),
            "linalg.clear_to_int_s": (self_s["linalg.clear_to_int"] / n, "s"),
            "linalg.clear_to_int_calls": (calls["linalg.clear_to_int"] / n, "count"),
            "inequalities.from_hrep_s": (self_s["inequalities.from_hrep"] / n, "s"),
            "inequalities.from_hrep_calls": (calls["inequalities.from_hrep"] / n, "count"),
            "inequalities.to_text_s": (self_s["inequalities.to_text"] / n, "s"),
            "io.read_ine_s": (self_s["io.read_ine"] / n, "s"),
            "io.read_ine_bytes": (c["io.read_ine_bytes"] / n, "bytes"),
            "io.write_ine_s": (self_s["io.write_ine"] / n, "s"),
            "io.write_ine_bytes": (c["io.write_ine_bytes"] / n, "bytes"),
            "io.write_ext_s": (self_s["io.write_ext"] / n, "s"),
            "io.write_grid_csv_s": (self_s["io.write_grid_csv"] / n, "s"),
            "io.render_svg_s": (self_s["io.render_svg"] / n, "s"),
            "io.files_written": (c["io.files_written"] / n, "count"),
            "quantum.evaluate_s": (evaluate_s / n, "s"),
            "quantum.facet_evals": (c["quantum.facet_evals"] / n, "count"),
            "quantum.facet_evals_per_s": (
                c["quantum.facet_evals"] / evaluate_s if evaluate_s else 0.0, "1/s"),
            "quantum.probability_vector_s": (self_s["quantum.probability_vector"] / n, "s"),
            "quantum.probability_vector_calls": (
                calls["quantum.probability_vector"] / n, "count"),
            "quantum.violated_rows": (c["quantum.violated_rows"] / n, "count"),
            "trace.count_s": (self_s["trace.count"] / n, "s"),
            "bench.op_self_s": (self_s["bench.op"] / n, "s"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
