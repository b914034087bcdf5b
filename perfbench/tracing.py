"""In-memory spans around the library's public functions.

A :class:`Tracer` replaces a function in the namespace where its caller
looks it up (``peps_forge.dynamics.measure_zero_energy``,
``peps_forge.linalg.hermitian_eig``, a class's ``__init__`` or a
``cached_property``) with a wrapper that records one span per call: name,
start, end, parent span and the benchmark phase it ran in. Spans are kept in
flat arrays and written out once, when the run ends. :meth:`restore` puts
the original functions back.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._phase = -1
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self._phase)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def phase_span(self, name: str):
        """Span of a benchmark phase; library spans inside it are tagged with it."""
        nid = self._id(name)
        outer = self._phase
        idx = self._open(nid, 0)
        self._phase = nid
        try:
            yield
        finally:
            self._phase = outer
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Trace calls of ``owner.attr`` under ``name``.

        ``size``, if given, maps the call's arguments to an integer stored
        with the span (for example a matrix dimension).
        """
        original = vars(owner)[attr]
        nid = self._id(name)
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self._traced(original.func, nid, size))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self._traced(original, nid, size)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def _traced(self, fn, nid: int, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid, size(*args, **kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return name, parent, dur

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, calls per phase, max size.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name, parent, dur = self._arrays()
        phase = np.frombuffer(self.phase, dtype=np.int32)
        size = np.frombuffer(self.size, dtype=np.int64)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float((dur - child)[mask].sum()),
                "calls_in": {
                    self.names[p]: int(np.count_nonzero(mask & (phase == p)))
                    for p in np.unique(phase[mask])
                    if p >= 0
                },
                "max_size": int(size[mask].max(initial=0)),
            }
        return out

    def total_minus_children(self, label: str, child_label: str) -> float:
        """Total seconds of spans ``label`` minus their direct ``child_label`` children."""
        name, parent, dur = self._arrays()
        nid, cid = self._ids.get(label), self._ids.get(child_label)
        if nid is None:
            return 0.0
        mask = name == nid
        total = float(dur[mask].sum())
        if cid is None:
            return total
        kids = (name == cid) & (parent >= 0)
        kids[kids] = name[parent[kids]] == nid
        return total - float(dur[kids].sum())

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.name)):
                f.write(
                    f'{{"id":{i},"name":"{self.names[self.name[i]]}",'
                    f'"start":{self.start[i]!r},"end":{self.end[i]!r},'
                    f'"parent":{self.parent[i]},"size":{self.size[i]}}}\n'
                )


class NoTracer:
    """Stand-in used by untraced runs: phases cost one no-op context manager."""

    @contextmanager
    def phase_span(self, name: str):
        yield
