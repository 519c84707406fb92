"""In-memory span tracing of the tinyecg modules, installed from outside.

`install` wraps the public functions and the public methods of public
classes of every measured module and rebinds each module attribute that
refers to one of them, including names that other tinyecg modules
imported with `from .x import y`. Nothing under `src/` changes; the
wrappers live only in the benchmark's process.

A span is (id, name, start_ns, end_ns, parent_id, op_id). Aggregates
(calls, inclusive time, self time, items, errors) are kept for every
call; individual spans are kept up to `KEEP_PER_NAME` per name so that
per-sample spans cannot exhaust memory, and the number dropped is
written with them. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# Individual spans kept per span name; aggregates cover every call.
KEEP_PER_NAME = 2000

# The package's modules, in pipeline order. `synthetic` generates the
# benchmark's inputs and `labels` is a lookup table, so neither is measured.
LAYERS = ("ingest", "dsp", "qrs", "nn", "train", "quant", "metrics", "modelio", "cli")

# Work counted at the span boundary, from the call's result: the per-unit
# metrics divide by these items instead of by calls.
ITEM_COUNTERS = {
    "ingest.load_signal": len,
    "ingest.load_annotations": len,
    "ingest.extract_beats": len,
    "dsp.preprocess": len,
    "nn.predict_labels": len,
    "quant.predict_labels_quantized": len,
    "train.fit": lambda result: len(result[1].losses),
    "qrs.RPeakDetector.push_sample": lambda result: result is not None,
    "qrs.emit_window": lambda result: result is not None,
}


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "items", "errors")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.items = self.errors = 0


class Tracer:
    """Records nested spans of wrapped calls; off until `active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.kept: Counter = Counter()
        self.dropped = 0
        self.ops: dict[int, str] = {0: "none"}
        self.op_id = 0
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list] = []  # open spans: [span_id, start_ns, child_ns]
        self._next_id = 0

    def begin_op(self, kind: str) -> None:
        """Start a new operation; spans opened from now on carry its id."""
        self.op_id = len(self.ops)
        self.ops[self.op_id] = kind

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        count = ITEM_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, clock(), 0]
            tracer._stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                tracer._stack.pop()
                items = 0 if failed or count is None else int(count(result))
                tracer._close(name, frame, end, items, failed)

        return traced

    def _close(self, name: str, frame: list, end: int, items: int, failed: bool) -> None:
        span_id, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.ops[self.op_id], name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - child_ns
        stat.items += items
        stat.errors += failed
        if self.kept[name] < KEEP_PER_NAME:
            self.kept[name] += 1
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.op_id)
            )
        else:
            self.dropped += 1

    def write(self, path) -> None:
        """One JSON object per line: ops, spans, then per-name aggregates."""
        with open(path, "w") as fh:
            for op_id, kind in self.ops.items():
                fh.write(json.dumps({"op": op_id, "kind": kind}) + "\n")
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op_id}) + "\n")
            for (kind, name), s in sorted(self.stats.items()):
                fh.write(json.dumps({"stat": name, "op_kind": kind, "calls": s.calls,
                                     "total_ns": s.total_ns, "self_ns": s.self_ns,
                                     "items": s.items, "errors": s.errors}) + "\n")
            fh.write(json.dumps({"spans_dropped": self.dropped}) + "\n")


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))


def install(tracer: Tracer) -> None:
    """Wrap every measured module's public callables for this process."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tinyecg.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    for name, module in list(sys.modules.items()):
        if name == "tinyecg" or name.startswith("tinyecg."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
