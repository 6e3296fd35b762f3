"""Spans recorded from the benchmark's side of each call into the package.

Nothing in the package is edited.  ``Tracer.patch`` swaps a module-level
name for a wrapper that records a span per call (run.py wraps the
functions the benchmark calls in their own module, and the names the CLI
imported in the CLI's namespace); ``Tracer.span`` opens a span around a
call directly; ``restore`` puts every original back.  Spans are kept in
memory and written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    phase = "setup"

    def span(self, name, arg=None):
        return nullcontext()


class Tracer:
    """Collects spans (name, phase, start, end, parent, arg) in memory.

    `phase` is "setup" while inputs are built and "rounds" while the
    workload's operations run; `arg` summarises the call's arguments.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name, arg=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "phase": self.phase, "start": time.perf_counter(),
                  "end": None, "parent": parent, "arg": arg}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, arg=None):
        """Replace module.attr by a wrapper that records a span per call.

        `arg(args)` may summarise the positional arguments for the span,
        such as the edge count of the graph passed in.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, None if arg is None else arg(args)):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans_named(self, name, parent_name=None):
        """Spans called `name`, optionally only those directly inside a
        span called `parent_name`."""
        return [s for s in self.spans if s["name"] == name and (
            parent_name is None or (s["parent"] is not None and
                                    self.spans[s["parent"]]["name"] == parent_name))]

    def per_round(self, name, rounds, parent_name=None):
        """Seconds in spans called `name`: all of set-up plus an average round."""
        spans = self.spans_named(name, parent_name)
        setup = sum(s["end"] - s["start"] for s in spans if s["phase"] == "setup")
        timed = sum(s["end"] - s["start"] for s in spans if s["phase"] == "rounds")
        return setup + timed / rounds

    def self_per_round(self, name, rounds):
        """Like per_round, less the time covered by each span's children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        total = sum(s["end"] - s["start"] - child[i]
                    for i, s in enumerate(self.spans)
                    if s["name"] == name and s["phase"] == "rounds")
        return total / rounds

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
