"""Spans around the benchmark's calls into the library's public functions.

A traced run replaces chosen module attributes (``knn.classify``, ...) with
wrappers that record a span per call: name, start, end, parent span, query
id, and a few attributes taken from the call's arguments and result. Calls
the library makes to a wrapped function through its own module globals
(``knn.refine_chain`` calling ``classify``) are recorded too, as children.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self.query = None  # id of the query the next spans belong to

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; attrs(args, kwargs, result) adds fields."""
        rec = self._begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._end(rec)
        if attrs is not None:
            rec["attrs"] = attrs(args, kwargs, result)
        return result

    @contextlib.contextmanager
    def block(self, name):
        """A span around the enclosed statements; yields its record."""
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def _begin(self, name) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "query": self.query,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def _end(self, rec):
        rec["end"] = time.perf_counter()
        self._open.pop()

    def install(self, targets):
        """Wrap ``module.attr`` for each (module, attr, attrs_fn) target."""
        for module, attr, attrs_fn in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrapper(name, original, attrs_fn))
            self._patched.append((module, attr, original))

    def _wrapper(self, name, original, attrs_fn):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, attrs=attrs_fn, **kwargs)

        return traced

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_ms(self, factor_over) -> dict[int, float]:
        """Self time of every span in ms: its duration minus its children's,
        scaled by ``factor_over(start, end)`` to nominal speed."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return {
            rec["id"]: (rec["end"] - rec["start"] - child[rec["id"]])
            * factor_over(rec["start"], rec["end"]) * 1000
            for rec in self.spans
        }

    def parent_name(self, rec) -> str | None:
        return None if rec["parent"] is None else self.spans[rec["parent"]]["name"]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
