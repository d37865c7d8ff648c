"""Span tracing of pathprobe's public functions, installed from outside.

The benchmark wraps every public module-level function of the seven
pathprobe modules, plus ``montecarlo.RandomStream.generator``, so the
package source stays untouched.  Calls between modules and within a module
go through module attributes, so replacing the attribute catches them.

Each wrapped call records a span (name, layer, start, end, parent, whether
it is the outermost span of its layer).  Spans stay in memory for one op and
are folded into per-name and per-layer totals when the op ends; a layer's
self time is its spans' time minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("qstate", "optics", "interferometer", "analysis", "montecarlo", "datasets", "cli")

# RandomStream.generator spans get a layer of their own, so that
# montecarlo's self time excludes stream construction.
STREAM_SPAN = "montecarlo.RandomStream.generator"
STREAM_LAYER = "streams"


class Tracer:
    """Collects spans while ``enabled``; a disabled wrapper adds one branch."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self.names = []

    def install(self, modules) -> None:
        """Wrap the public functions of each ``pathprobe`` module given."""
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                self._wrap(module, attr, f"{layer}.{attr}", layer, _hook_for(layer, attr))
            if layer == "montecarlo":
                self._wrap(module.RandomStream, "generator", STREAM_SPAN, STREAM_LAYER, None)

    def _wrap(self, owner, attr, name, layer, hook) -> None:
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        depth = self._depth

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outermost = depth[layer] == 0
            depth[layer] += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[layer] -= 1
                stack.pop()
                spans[index] = (name, layer, start, end, parent, outermost)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self.names.append(name)

    def take(self) -> "SpanSummary":
        """Fold the spans recorded since the last call into a summary."""
        summary = SpanSummary.from_spans(self.spans, self.counts)
        self.spans.clear()
        self.counts.clear()
        return summary


class SpanSummary:
    """Per-name and per-layer call counts and times (seconds) of some spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.layer_seconds = defaultdict(float)
        self.layer_self_seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @classmethod
    def from_spans(cls, spans, counts) -> "SpanSummary":
        out = cls()
        child_seconds = [0.0] * len(spans)
        for name, layer, start, end, parent, outermost in spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        for (name, layer, start, end, parent, outermost), children in zip(spans, child_seconds):
            duration = end - start
            out.calls[name] += 1
            out.seconds[name] += duration
            out.layer_calls[layer] += 1
            out.layer_self_seconds[layer] += duration - children
            if outermost:
                out.layer_seconds[layer] += duration
        out.counts.update(counts)
        return out

    def add(self, other: "SpanSummary") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.seconds, other.seconds),
            (self.layer_calls, other.layer_calls),
            (self.layer_seconds, other.layer_seconds),
            (self.layer_self_seconds, other.layer_self_seconds),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] += value

    def count_key(self) -> dict:
        """Every count this summary holds, for the repeat self-check."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return out


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(os.fspath(p)) for p in paths)


def _count_write(counts, args, result):
    # write_figure_csvs returns the paths it wrote; the other writers take
    # the path as their first argument.
    paths = result if isinstance(result, tuple) else (args[0],)
    counts["datasets.write.bytes"] += _file_bytes(paths)


def _count_read(counts, args, result):
    counts["datasets.read.rows"] += len(result)


def _count_undefined(counts, args, result):
    fields = ("p_h_given_plus", "p_h_given_minus", "a2_plus", "a2_minus")
    counts["interferometer.undefined_conditionals"] += sum(
        getattr(record, key) is None for record in result.records for key in fields
    )


def _count_iterations(name):
    def hook(counts, args, result):
        counts[f"{name}.iterations"] += result.iterations

    return hook


def _count_negative(counts, args, result):
    counts["montecarlo.negative_rates"] += result.rate < 0.0


def _hook_for(layer, attr):
    if layer == "datasets" and attr.startswith("write_"):
        return _count_write
    if layer == "datasets" and attr.startswith("read_"):
        return _count_read
    if (layer, attr) == ("interferometer", "sweep"):
        return _count_undefined
    if (layer, attr) in (("analysis", "fit_fringe"), ("analysis", "fit_gt_curve")):
        return _count_iterations(f"{layer}.{attr}")
    if (layer, attr) == ("montecarlo", "subtract_background"):
        return _count_negative
    return None
