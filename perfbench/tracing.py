"""Spans around the program's public functions, installed from outside.

The tracer replaces each traced function on every module binding of the
same function object (``decompose_enhanced`` is bound in ``nilquiver``,
``nilquiver.decomposer`` and ``nilquiver.cli`` alike) and each traced
method on its class, so calls between the program's own modules are seen
too.  Nothing inside the program is edited.  Private names are never
traced; a traced public name that no longer exists makes the metrics that
depend on it absent instead of failing the run.

A span is ``[name, parent index, operation id, start, end, tracer
seconds]``.  Spans stay in memory until the run ends.  The self time of a
span is its duration minus the durations of its direct children, which
never overlap because the program runs on one thread, and minus the
tracer's own matrix scans made directly inside it (its last field).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from functools import wraps
from pathlib import Path

#: Traced functions as (metric prefix, module, attribute); an attribute of
#: the form "Class.method" is traced on the class.
TRACED = (
    ("cli.main", "cli", "main"),
    ("rep_builder.from_json", "rep_builder", "QuiverRep.from_json"),
    ("rep_builder.nilpotency_degree", "rep_builder", "QuiverRep.nilpotency_degree"),
    ("rep_builder.build_label_rep", "rep_builder", "build_label_rep"),
    ("linalg.rank", "linalg", "RationalMatrix.rank"),
    ("linalg.rref", "linalg", "RationalMatrix.rref"),
    ("linalg.nullspace", "linalg", "RationalMatrix.nullspace"),
    ("linalg.inverse", "linalg", "RationalMatrix.inverse"),
    ("linalg.matmul", "linalg", "RationalMatrix.__matmul__"),
    ("decomposer.decompose", "decomposer", "decompose_enhanced"),
    ("decomposer.chain_multiplicities", "decomposer", "chain_multiplicities"),
    ("decomposer.framed_jordan_type", "decomposer", "framed_jordan_type"),
    ("orbit_maps.enumerate_striped", "orbit_maps", "enumerate_striped"),
    ("orbit_maps.striped_from_label", "orbit_maps", "striped_from_label"),
    ("orbit_maps.striped_label", "orbit_maps", "striped_label"),
    ("orbit_maps.label_to_bipartition", "orbit_maps", "label_to_bipartition"),
    ("orbit_maps.bipartition_to_label", "orbit_maps", "bipartition_to_label"),
    ("residues.enumerate_orbit_labels", "residues", "enumerate_orbit_labels"),
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
    ("circle_diagrams.frobenius_diagram_of_partition", "circle_diagrams", "frobenius_diagram_of_partition"),
)

#: Matrices whose sizes and entries are counted: the work of linalg.
_COUNTED = ("linalg.rank", "linalg.rref", "linalg.matmul")
#: Marked absent when a counted matrix has no ``nrows``/``ncols``, or when
#: its ``rows`` do not hold Fractions, so that a changed storage makes the
#: counts absent rather than quietly 0.
_SHAPES = "linalg.shapes"
_ENTRIES = "linalg.entry_values"

#: Metrics reported by a traced run, with unit and direction, in the order
#: of BENCHMARK.json; ``needs`` names the traced functions each depends on.
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower", ("cli.main",)),
    ("cli.self_pct", "%", "lower", ("cli.main",)),
    ("rep_builder.from_json.self_pct", "%", "lower", ("rep_builder.from_json",)),
    ("rep_builder.build_label_rep.calls", "count", "lower", ("rep_builder.build_label_rep",)),
    ("rep_builder.build_label_rep.self_pct", "%", "lower", ("rep_builder.build_label_rep",)),
    ("rep_builder.nilpotency_degree.self_pct", "%", "lower", ("rep_builder.nilpotency_degree",)),
    ("linalg.rank.calls", "count", "lower", ("linalg.rank",)),
    ("linalg.rank.self_pct", "%", "lower", ("linalg.rank",)),
    ("linalg.rref.calls", "count", "lower", ("linalg.rref",)),
    ("linalg.rref.self_pct", "%", "lower", ("linalg.rref",)),
    ("linalg.matmul.calls", "count", "lower", ("linalg.matmul",)),
    ("linalg.matmul.self_pct", "%", "lower", ("linalg.matmul",)),
    ("linalg.entries", "count", "lower", _COUNTED + (_SHAPES,)),
    ("linalg.max_cells", "count", "lower", _COUNTED + (_SHAPES,)),
    ("linalg.max_entry_bits", "bits", "lower", _COUNTED + (_ENTRIES,)),
    ("decomposer.decompose.calls", "count", "lower", ("decomposer.decompose",)),
    ("decomposer.decompose.self_pct", "%", "lower", ("decomposer.decompose",)),
    ("decomposer.chain_multiplicities.self_pct", "%", "lower", ("decomposer.chain_multiplicities",)),
    ("decomposer.framed_jordan_type.calls", "count", "lower", ("decomposer.framed_jordan_type",)),
    ("decomposer.framed_jordan_type.self_pct", "%", "lower", ("decomposer.framed_jordan_type",)),
    ("decomposer.reference_builds", "count", "lower", ("decomposer.decompose", "rep_builder.build_label_rep")),
    ("orbit_maps.enumerate_striped.calls", "count", "lower", ("orbit_maps.enumerate_striped",)),
    ("orbit_maps.enumerate_striped.self_pct", "%", "lower", ("orbit_maps.enumerate_striped",)),
    ("orbit_maps.striped_from_label.self_pct", "%", "lower", ("orbit_maps.striped_from_label",)),
    ("orbit_maps.label_to_bipartition.self_pct", "%", "lower", ("orbit_maps.label_to_bipartition",)),
    ("orbit_maps.johnson_inverse_attempts", "count", "lower",
     ("orbit_maps.striped_from_label", "orbit_maps.striped_label")),
    ("orbit_maps.johnson_inverse_hit_ratio", "ratio", "higher",
     ("orbit_maps.striped_from_label", "orbit_maps.striped_label")),
    ("orbit_maps.ah_inverse_attempts", "count", "lower",
     ("orbit_maps.label_to_bipartition", "orbit_maps.bipartition_to_label")),
    ("orbit_maps.ah_inverse_hit_ratio", "ratio", "higher",
     ("orbit_maps.label_to_bipartition", "orbit_maps.bipartition_to_label")),
    ("residues.enumerate_orbit_labels.self_pct", "%", "lower", ("residues.enumerate_orbit_labels",)),
    ("residues.labels_emitted", "count", "higher", ("residues.enumerate_orbit_labels",)),
    ("partitions.enumerate_partitions.calls", "count", "lower", ("partitions.enumerate_partitions",)),
    ("partitions.enumerate_partitions.self_pct", "%", "lower", ("partitions.enumerate_partitions",)),
    ("circle_diagrams.frobenius_diagram_of_partition.calls", "count", "lower",
     ("circle_diagrams.frobenius_diagram_of_partition",)),
    ("circle_diagrams.frobenius_diagram_of_partition.self_pct", "%", "lower",
     ("circle_diagrams.frobenius_diagram_of_partition",)),
    ("trace.overhead_pct", "%", "lower", ()),
    ("trace.spans", "count", "lower", ()),
)


def _entry_bits(m) -> int | None:
    """Largest numerator or denominator bit length among a matrix's entries,
    or None when its ``rows`` do not hold Fractions."""
    rows = getattr(m, "rows", None)
    if rows is None:
        return None
    bits = 0
    for row in rows:
        for x in row:
            if not isinstance(x, Fraction):
                return None
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts recorded so far; the wrappers stay."""
        self.spans.clear()
        self.entries = 0
        self.max_cells = 0
        self.max_entry_bits = 0
        self.labels_emitted = 0
        #: Seconds spent in the tracer's matrix scans, kept out of self times.
        self.scan_s = 0.0

    # -- installation ---------------------------------------------------------

    def install(self, pkg) -> None:
        modules = [m for n, m in sys.modules.items() if n == pkg.__name__ or n.startswith(pkg.__name__ + ".")]
        for name, module_name, attr in TRACED:
            module = sys.modules.get(f"{pkg.__name__}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.absent.add(name)
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, method, self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # Matrices among the arguments: both operands of a product, else self.
        scanned = (2 if name == "linalg.matmul" else 1) if name in _COUNTED else 0
        labels = name == "residues.enumerate_orbit_labels"

        @wraps(fn)
        def traced(*args, **kwargs):
            if scanned:
                # Scan before the span opens, and charge the scan to the
                # tracer, not to the parent span's self time.
                scan_start = time.perf_counter()
                self._count(args[:scanned])
                scan_s = time.perf_counter() - scan_start
                self.scan_s += scan_s
                if stack:
                    spans[stack[-1]][5] += scan_s
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.op_id, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if labels:
                self.labels_emitted += len(result)
            return result

        return traced

    def _count(self, matrices) -> None:
        for m in matrices:
            if hasattr(m, "nrows") and hasattr(m, "ncols"):
                cells = m.nrows * m.ncols
                self.entries += cells
                self.max_cells = max(self.max_cells, cells)
            else:
                self.absent.add(_SHAPES)
            bits = _entry_bits(m)
            if bits is None:
                self.absent.add(_ENTRIES)
            else:
                self.max_entry_bits = max(self.max_entry_bits, bits)

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[4] - s[3] - s[5] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def _inside(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        count = 0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            count += p >= 0
        return count

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds per traced name."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[0]]
            row["calls"] += 1
            row["inclusive_s"] += s[4] - s[3]
            row["self_s"] += own
        return dict(out)

    def layer_metrics(self, op_seconds: float, overhead_pct: float) -> dict[str, float]:
        """The per-layer metrics; shares are of the traced operations' time
        less the tracer's matrix scans."""
        rows = self.summary()
        op_seconds -= self.scan_s

        def calls(name):
            return rows.get(name, {}).get("calls", 0)

        def share(name):
            return 100.0 * rows.get(name, {}).get("self_s", 0.0) / op_seconds if op_seconds else 0.0

        johnson_attempts = self._inside("orbit_maps.striped_label", "orbit_maps.striped_from_label")
        ah_attempts = self._inside("orbit_maps.bipartition_to_label", "orbit_maps.label_to_bipartition")
        values = {
            "cli.main.calls": calls("cli.main"),
            "cli.self_pct": share("cli.main"),
            "rep_builder.from_json.self_pct": share("rep_builder.from_json"),
            "rep_builder.build_label_rep.calls": calls("rep_builder.build_label_rep"),
            "rep_builder.build_label_rep.self_pct": share("rep_builder.build_label_rep"),
            "rep_builder.nilpotency_degree.self_pct": share("rep_builder.nilpotency_degree"),
            "linalg.entries": self.entries,
            "linalg.max_cells": self.max_cells,
            "linalg.max_entry_bits": self.max_entry_bits,
            "decomposer.reference_builds": self._inside("rep_builder.build_label_rep", "decomposer.decompose"),
            "orbit_maps.johnson_inverse_attempts": johnson_attempts,
            "orbit_maps.johnson_inverse_hit_ratio":
                calls("orbit_maps.striped_from_label") / johnson_attempts if johnson_attempts else 0.0,
            "orbit_maps.ah_inverse_attempts": ah_attempts,
            "orbit_maps.ah_inverse_hit_ratio":
                calls("orbit_maps.label_to_bipartition") / ah_attempts if ah_attempts else 0.0,
            "residues.labels_emitted": self.labels_emitted,
            "trace.overhead_pct": overhead_pct,
            "trace.spans": len(self.spans),
        }
        for metric, _, _, _ in LAYER_METRICS:
            if metric in values:
                continue
            base, _, kind = metric.rpartition(".")
            values[metric] = calls(base) if kind == "calls" else share(base)
        return {
            metric: values[metric]
            for metric, _, _, needs in LAYER_METRICS
            if not self.absent.intersection(needs)
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line: name, parent, op, start, end,
        tracer seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
