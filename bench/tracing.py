"""In-memory spans recorded from the benchmark's own files.

Two kinds of span exist.  A *phase* span wraps a stretch of benchmark code
(one iteration, one route of an iteration, one probe); phases are recorded
in every run because the end-to-end timings are read from them.  A *call*
span wraps one call into a public function of a genfilter module; call
spans are recorded only in the traced half of a ``--trace 1`` run, so the
untraced iterations pay nothing for them.  Spans inside the program itself
are not recorded here.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("models", "population", "genealogy", "exact", "filtering", "cli")


class Tracer:
    """Spans kept in memory as dicts: id, name, kind, parent, iteration, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.iteration = None
        self.calls = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "phase"):
        rec = {"id": len(self.spans), "name": name, "kind": kind,
               "parent": self._stack[-1] if self._stack else None,
               "iteration": self.iteration, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str, iterations=None, kind: str = "phase") -> list[float]:
        """Durations of the finished spans of one name and kind, optionally by iteration tag."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["kind"] == kind and s["end"] is not None
                and (iterations is None or s["iteration"] in iterations)]

    def median(self, name: str, iterations=None) -> float:
        values = self.durations(name, iterations)
        if not values:
            raise KeyError(f"no finished span named {name!r}")
        return statistics.median(values)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their durations add up.
        """
        covered = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]]
                for s in self.spans if s["end"] is not None}

    def layer_self_times(self, iterations) -> dict[str, float]:
        """Summed self time of call spans per genfilter layer over the tagged iterations."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s["kind"] == "call" and s["iteration"] in iterations and s["id"] in own:
                out[s["name"].split(".", 1)[0]] += own[s["id"]]
        return out

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": own.get(s["id"])}) + "\n")


class Layer:
    """Attribute access to one genfilter module; calls become spans while tracing."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._prefix = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        tracer = self._tracer
        if not tracer.calls:
            return fn
        label = f"{self._prefix}.{name}"

        def traced(*args, **kwargs):
            with tracer.span(label, "call"):
                return fn(*args, **kwargs)
        return traced


class Api:
    """The public genfilter modules, one `Layer` each."""

    def __init__(self, tracer: Tracer):
        for layer in LAYERS:
            setattr(self, layer, Layer(importlib.import_module(f"genfilter.{layer}"), tracer))
