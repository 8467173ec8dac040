"""Traced mode: spans and counts at the boundary of each necktree module.

The wrappers live here and are installed by patching module attributes, so
necktree's source is untouched.  A name imported by value (``from .trees
import stopping_set``) is a separate attribute of the importing module, so
every such copy is patched too.  Hot per-call functions (``streams.fold``,
``GaugeFunction.eval_log``) only count; everything else also records a span.

A span is [name, start, end, parent index, job id, busy, child busy].  Busy
time is end - start, except for generators, where it is the time spent inside
``next()``; self time is busy minus the busy time of the span's children.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

# (metric prefix, kind, [(owner, attribute)], extra count)
#   kind "span": timed span plus a call count
#   kind "gen":  span over the time spent producing items, plus an item count
#   kind "count": call count only
# An extra count (name, argument position, argument keyword, measure) adds
# measure(argument) to counts[name] on each call; for "gen" it names the
# count of items produced.
_CONFIG = ("load_json", "family_from_dict", "model_from_dict", "gauge_from_dict", "file_hash", "content_hash")
TARGETS = [
    ("cli.run", "span", [("cli", "run")], None),
    # every config parser is one layer, "config"
    *[("config", "span", [("config", f)], None) for f in _CONFIG],
    ("rifs.dimension", "span", [("rifs", "dimension"), ("config", "dimension"), ("cli", "dimension")], None),
    ("rifs.validate", "span", [("rifs", "validate"), ("measure", "validate"), ("cli", "validate")], None),
    ("trees.stopping_set", "gen",
     [("trees", "stopping_set"), ("measure", "stopping_set"), ("geometry", "stopping_set")],
     ("trees.stopping_set.codings",)),
    ("trees.neck_list", "span", [("trees", "neck_list")], None),
    ("trees.level_systems", "span", [("Realization", "level_systems")], None),
    ("trees.sample", "count", [("trees", "sample"), ("measure", "sample")], None),
    ("measure.level_sums", "span", [("measure", "level_sums")], None),
    ("measure.section_infimum", "span", [("measure", "section_infimum")], None),
    ("measure.drift_experiment", "span", [("measure", "drift_experiment")], None),
    ("measure.mass_distribution_check", "span", [("measure", "mass_distribution_check")], None),
    ("geometry.compose", "span", [("geometry", "compose")], None),
    ("geometry.then_inner", "count", [("Affine", "then_inner")], None),
    ("geometry.sample_points", "span", [("geometry", "sample_points")],
     ("geometry.sample_points.points", 2, "n", int)),
    ("geometry.stopping_counts", "span", [("geometry", "stopping_counts")], None),
    ("streams.fold", "count", [("streams", "fold")], None),
    ("streams.fold_array", "count", [("streams", "fold_array")], ("streams.fold_array.elems", 1, "counters", np.size)),
    ("gauges.eval_log", "count", [("GaugeFunction", "eval_log")], ("gauges.eval_log.elems", 1, "log_t", np.size)),
]


def _owners() -> dict:
    from necktree import cli, config, geometry, measure, rifs, streams, trees
    from necktree.gauges import GaugeFunction

    return {
        "cli": cli, "config": config, "geometry": geometry, "measure": measure,
        "rifs": rifs, "streams": streams, "trees": trees,
        "Realization": trees.Realization, "GaugeFunction": GaugeFunction,
        "Affine": getattr(geometry, "Affine", None),
    }


class Tracer:
    """Counts and spans of one traced pass; reset between passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # ---- wrappers ---------------------------------------------------------

    def _extra(self, extra):
        if extra is None:
            return None
        key, pos, kw, measure = extra
        counts = self.counts

        def add(args, kwargs) -> None:
            value = kwargs[kw] if kw in kwargs else args[pos]
            counts[key] += int(measure(value))

        return add

    def _count(self, name, fn, extra):
        counts, add, calls = self.counts, self._extra(extra), name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if add is not None:
                add(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, extra):
        spans, stack, counts = self.spans, self.stack, self.counts
        add, calls, clock = self._extra(extra), name + ".calls", time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if add is not None:
                add(args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                rec[5] = end - rec[1]
                if parent >= 0:
                    spans[parent][6] += rec[5]

        return wrapper

    def _gen(self, name, fn, extra):
        spans, stack, counts = self.spans, self.stack, self.counts
        items, calls, clock = extra[0], name + ".calls", time.perf_counter
        tracer = self

        def iterate(it):
            counts[calls] += 1
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job, 0.0, 0.0]
            spans.append(rec)
            while True:
                caller = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    rec[2] = end
                    rec[5] += end - start
                    if caller >= 0:
                        spans[caller][6] += end - start
                counts[items] += 1
                yield item

        def wrapper(*args, **kwargs):
            return iterate(iter(fn(*args, **kwargs)))

        return wrapper

    # ---- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every target; a target the package no longer has is skipped."""
        owners = _owners()
        made: dict = {}
        makers = {"span": self._span, "gen": self._gen, "count": self._count}
        for name, kind, targets, extra in TARGETS:
            for owner_name, attr in targets:
                owner = owners.get(owner_name)
                if owner is None:
                    continue
                original = vars(owner).get(attr)
                if not callable(original):
                    continue
                key = (name, id(original))
                if key not in made:
                    made[key] = makers[kind](name, original, extra)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, made[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for name, _, _, _, _, busy, child in self.spans:
            out[name] += busy - child
        return out
