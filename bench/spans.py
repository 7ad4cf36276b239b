"""In-memory spans around the benchmark's calls into tempora's modules.

A span records its name, a case label (kind or delay mode), a work size,
its parent and its start and end.  Spans come from two places, both in the
benchmark's own code: context managers at the benchmark's call sites, and
wrappers that `patched()` installs on module attributes for the duration of
a traced run, so calls the package makes internally (sampler -> kernels ->
rng) are recorded too.  Self time is a span's duration minus the time its
direct children cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from tempora import kernels, rng, sampler

_NAME, _CASE, _SIZE, _PARENT, _START, _END = range(6)
_UNTRACED = nullcontext()


def _counter_size(seed, counters, *rest, **kw):
    return np.asarray(counters).size


def _trials_size(kind, seed, trials, *rest, **kw):
    return len(trials)


def _kind_case(kind, *rest, **kw):
    return kind


def _delay_case(kind, seed, trials, t_list, quantum_mode="vector-sum", *rest, **kw):
    if not kernels.is_quantum_kind(kind):
        return "classical"
    return kw.get("quantum_mode", quantum_mode)


# (owner, attribute, span name, case of the call, size of the call)
PATCHES = (
    (rng, "raw64", "rng.raw64", None, _counter_size),
    (rng, "uniform01", "rng.uniform01", None, _counter_size),
    (rng, "normals", "rng.normals", None, _counter_size),
    (kernels, "machines_batch", "kernels.machines_batch", _kind_case, _trials_size),
    (kernels, "batch_scores", "kernels.batch_scores", _kind_case, _trials_size),
    (kernels, "batch_delay_scores", "kernels.batch_delay_scores", _delay_case,
     _trials_size),
    (sampler.Histogram, "add_scores", "sampler.add_scores", None,
     lambda self, scores: len(scores)),
)


class Tracer:
    """Span recorder; `enabled` False makes span() a no-op."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name, case, size) -> list:
        rec = [name, case, size, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, case=None, size: int = 0):
        return self._span(name, case, size) if self.enabled else _UNTRACED

    @contextmanager
    def _span(self, name, case, size):
        rec = self._open(name, case, size)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, case_of, size_of):
        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = self._open(name, case_of(*args, **kw) if case_of else None,
                             size_of(*args, **kw))
            try:
                return fn(*args, **kw)
            finally:
                self._close(rec)
        return traced

    @contextmanager
    def patched(self):
        """Record spans inside the package while the block runs."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, *_ in PATCHES]
        try:
            for owner, attr, name, case_of, size_of in PATCHES:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name,
                                                case_of, size_of))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> "Totals":
        return Totals(self.spans)

    def write(self, path) -> None:
        keys = ("name", "case", "size", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fh)


class Totals:
    """Per (name, case) sums of duration, self time, size and call count."""

    def __init__(self, spans: list[list]):
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.size = defaultdict(int)
        self.calls = defaultdict(int)
        for rec, covered in zip(spans, child):
            for key in ((rec[_NAME], rec[_CASE]), (rec[_NAME], "*")):
                if key[1] is None:
                    continue
                dur = rec[_END] - rec[_START]
                self.total[key] += dur
                self.self_time[key] += dur - covered
                self.size[key] += rec[_SIZE]
                self.calls[key] += 1

    def per(self, name: str, case: str = "*", unit: int = 1,
            self_only: bool = True) -> float:
        """Milliseconds per `unit` of work (self or inclusive time)."""
        key = (name, case)
        if self.size[key] == 0:
            return 0.0
        secs = (self.self_time if self_only else self.total)[key]
        return 1e3 * secs * unit / self.size[key]

    def per_call_us(self, name: str, case: str = "*") -> float:
        key = (name, case)
        return 1e6 * self.total[key] / self.calls[key] if self.calls[key] else 0.0
