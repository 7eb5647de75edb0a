"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces module attributes that the program looks up at call
time (``chshcert.oracle.solve_lp``, ``scipy.optimize.minimize``, ...) with
wrappers that record one span per call: name, start, end, parent, thread
and a few counts read off the call's arguments or result.  Spans are kept in
memory; :func:`self_times` and :func:`layer_counts` reduce them, and
:meth:`Tracer.write` stores them as JSON lines when the run ends.

A span's parent is the innermost open span of its own thread.  Calls made on
a worker thread with no open span of its own (the CLI's thread pool) are
parented to the root span of the CLI call that started them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)


def _restarts(args, kwargs, result) -> dict:
    return {"restarts": kwargs.get("restarts", 1)}


def _nfev(args, kwargs, result) -> dict:
    return {"nfev": int(result.nfev)}


def _valid(args, kwargs, result) -> dict:
    return {"valid": bool(result.valid)}


def _targets():
    """(module, attribute, span name, attrs function) of every wrapped call."""
    import scipy.optimize

    from chshcert import core, oracle, quantum, simulate

    return [
        (oracle, "solve_lp", "simplex.solve_lp", None),
        (core, "validate", "core.validate", _valid),
        (scipy.optimize, "minimize", "scipy.minimize", _nfev),
        (oracle, "maximize_S_ns", "oracle.maximize_S_ns", _restarts),
        (oracle, "maximize_S_fac", "oracle.maximize_S_fac", _restarts),
        (quantum, "optimize_strategy_numeric",
         "quantum.optimize_strategy_numeric", None),
        (simulate, "run_trials", "simulate.run_trials", None),
        (simulate, "eve_guess_accuracy", "simulate.eve_guess_accuracy", None),
        (simulate, "estimate_S", "simulate.estimate_S", None),
        (simulate, "certify", "simulate.certify", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, attrs_of, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_of(args, kwargs, result) if attrs_of else {}
        self.spans.append(Span(sid, parent, name, start, end,
                               threading.get_ident(), attrs))
        return result

    @contextmanager
    def root(self, name: str):
        """Open the span that parents every call made until it closes."""
        sid = next(self._ids)
        self._root = sid
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._root = None
            self.spans.append(Span(sid, None, name, start, end,
                                   threading.get_ident()))

    @contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, attrs_of in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(name, fn, attrs_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _wrapper(self, name, fn, attrs_of):
        def traced(*args, **kwargs):
            return self._call(name, fn, attrs_of, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    return dict(out)


def layer_counts(spans: list[Span]) -> dict[str, float]:
    """Exact counts at the wrapped boundaries."""
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    restarts = sum(s.attrs.get("restarts", 0) for s in spans)
    valid = sum(1 for s in spans if s.attrs.get("valid"))
    return {
        "simplex.solve_lp.calls": calls["simplex.solve_lp"],
        "core.validate.calls": calls["core.validate"],
        "core.validate.valid_ratio": valid / restarts if restarts else 0.0,
        "scipy.minimize.calls": calls["scipy.minimize"],
        "scipy.minimize.nfev": sum(s.attrs.get("nfev", 0) for s in spans),
    }
