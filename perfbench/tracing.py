"""In-memory spans recorded around calls into the package's modules.

A span is (name, start, end, parent, run id).  Spans are kept in a list
and written out once, when the run ends.  A layer's self time is its
span's duration minus the time covered by its direct child spans.

``instrument`` swaps module attributes for recording wrappers and puts the
originals back when it exits.  Functions that another module imported by
name are patched there too, because that module resolves the name in its
own globals at call time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []    # [name, start, end, parent index or None]
        self.counts = {}   # counter name -> total
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording one span per call.  ``counter(result)``,
        if given, returns (counter name, amount) to add after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter_name, amount = counter(result)
                self.count(counter_name, amount)
            return result

        return traced

    def self_times(self, within: str | None = None) -> dict:
        """name -> (self seconds, calls), optionally only for spans that
        descend from the spans named ``within``."""
        keep = None
        if within is not None:
            keep = set()
            for i, (name, _, _, parent) in enumerate(self.spans):
                if name == within or (parent is not None and parent in keep):
                    keep.add(i)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if keep is not None and i not in keep:
                continue
            secs, calls = out.get(name, (0.0, 0))
            out[name] = (secs + (end - start) - child_time[i], calls + 1)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer | None, targets):
    """Patch each (span name, [(module, attribute), ...], counter) target
    with a recording wrapper for the duration of the block.  With no
    tracer nothing is patched, so the same code runs untraced.  A place
    the package no longer has is skipped, so a refactor leaves its layer
    at zero calls instead of stopping the traced run."""
    saved = []
    try:
        if tracer is not None:
            for name, places, counter in targets:
                for module, attr in places:
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, tracer.wrap(name, original, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
