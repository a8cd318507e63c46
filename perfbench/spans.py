"""Spans and counts recorded around biqknot's public calls, from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS``
with a wrapper that records a span (name, start, end, parent span, run
id), wherever a biqknot module holds a reference to it, so calls made
inside the program are seen too.  Spans and counts stay in memory and
are written once, by ``dump``.  The program's files are not changed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from collections import Counter
from typing import Dict, List

# span name -> (module, attribute); Biquandle construction builds the tables.
TARGETS = {
    "torus_group.calibrate": ("biqknot.torus_group", "calibrate_convention"),
    "torus_group.build_group": ("biqknot.torus_group", "build_group"),
    "group_words.eval_text": ("biqknot.group_words", "eval_text"),
    "biquandle.make_f": ("biqknot.biquandle", "make_f"),
    "biquandle.audit": ("biqknot.biquandle", "audit"),
    "coloring.select_f": ("biqknot.coloring", "select_f_candidate"),
    "diagram.parse": ("biqknot.diagram", "parse_diagram"),
    "diagram.arcs": ("biqknot.diagram", "arcs"),
    "coloring.build_constraints": ("biqknot.coloring", "build_constraints"),
    "coloring.solve": ("biqknot.coloring", "solve"),
    "coloring.distinguish": ("biqknot.coloring", "distinguish"),
    "cli.main": ("biqknot.cli", "main"),
}
TABLES = "biquandle.tables"
IMPORT = "cli.import"

# per-layer metric -> (span name, unit, scale from seconds)
TIMINGS = {
    "torus_group.calibrate_ms": ("torus_group.calibrate", "ms", 1e3),
    "torus_group.build_group_ms": ("torus_group.build_group", "ms", 1e3),
    "group_words.eval_text_us": ("group_words.eval_text", "us", 1e6),
    "biquandle.tables_ms": (TABLES, "ms", 1e3),
    "biquandle.make_f_ms": ("biquandle.make_f", "ms", 1e3),
    "biquandle.audit_ms": ("biquandle.audit", "ms", 1e3),
    "coloring.select_f_ms": ("coloring.select_f", "ms", 1e3),
    "diagram.parse_ms": ("diagram.parse", "ms", 1e3),
    "diagram.arcs_ms": ("diagram.arcs", "ms", 1e3),
    "coloring.build_constraints_ms": ("coloring.build_constraints", "ms", 1e3),
    "coloring.solve_ms": ("coloring.solve", "ms", 1e3),
    "coloring.distinguish_ms": ("coloring.distinguish", "ms", 1e3),
    "cli.import_ms": (IMPORT, "ms", 1e3),
    "cli.main_ms": ("cli.main", "ms", 1e3),
}
# Spans reported as self time: solve without the constraint build inside it.
SELF_TIME = {"coloring.solve"}
COUNTS = ("coloring.relations", "coloring.colorings",
          "coloring.unknown_over_arcs", "coloring.f_fanout_max")


def unknown_over_arcs(cs) -> int:
    """Classical relations reached in traversal order before their over-arc
    is colored: each one is a 64-way guess for a traversal solver."""
    colored = {1}
    guesses = 0
    for r in cs.relations:
        over = getattr(r, "over_arc", None)
        if over is not None and over not in colored:
            guesses += 1
            colored.add(over)
        colored.add(r.out_arc)
    return guesses


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []       # [name, start, end, parent]
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self._last_constraints = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "coloring.build_constraints":
            self._last_constraints = result
        elif name == "coloring.solve":
            cs = kwargs.get("constraints") or self._last_constraints
            bq = args[1] if len(args) > 1 else kwargs["bq"]
            c = self.counts
            c["coloring.relations"] += len(cs.relations)
            c["coloring.unknown_over_arcs"] += unknown_over_arcs(cs)
            c["coloring.colorings"] += result.count
            if bq.f is not None:
                fan = max(Counter(bq.f.table.tolist()).values())
                c["coloring.f_fanout_max"] = max(c["coloring.f_fanout_max"], fan)

    def install(self) -> None:
        """Wrap every target wherever a loaded biqknot module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "biqknot" or n.startswith("biqknot.")]
        for name, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        bq_cls = sys.modules["biqknot.biquandle"].Biquandle
        init = bq_cls.__init__
        tracer = self

        def traced_init(obj, *args, **kwargs):
            with tracer.span(TABLES):
                init(obj, *args, **kwargs)

        bq_cls.__init__ = traced_init

    def dump(self, path: str) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, (n, s, e, p) in enumerate(self.spans)],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def per_layer(trace: Dict) -> Dict[str, Dict]:
    """Median span time per layer (self time where listed), and the counts."""
    spans = trace["spans"]
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    durations: Dict[str, List[float]] = {}
    for s in spans:
        d = s["end"] - s["start"]
        if s["name"] in SELF_TIME:
            d -= child_time.get(s["id"], 0.0)
        durations.setdefault(s["name"], []).append(d)
    metrics = {}
    for metric, (span, unit, scale) in TIMINGS.items():
        if span not in durations:
            raise RuntimeError(f"traced run recorded no {span!r} span")
        metrics[metric] = {"value": statistics.median(durations[span]) * scale,
                           "unit": unit}
    for name in COUNTS:
        metrics[name] = {"value": trace["counts"][name], "unit": "count"}
    return metrics
