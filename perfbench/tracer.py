"""In-memory span tracer for the ggkdv benchmark.

The tracer wraps, from outside the package, every public function of every
loaded ``ggkdv.*`` module, the ``SpectralField.band`` method, and numpy's
``rfft``/``irfft``. A wrapper replaces the original by identity in every
loaded ``ggkdv.*`` namespace, because ``from .model import nonlinear_remainder``
copies the name into the importing module.

Each span records its name, start, end, parent span, thread and thread CPU
time. Spans live in one list per thread (``sweep`` marches its points in
worker threads) and are written out once the traced command has returned.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import threading
import time

import numpy as np

PACKAGE = "ggkdv"
FFT_SPAN = "spectral.fft"
OBSERVER_SPAN = "integrator.observer"
EVOLVE_SPAN = "integrator.evolve"
TABLES_SPAN = "integrator.build_tables"
# Methods are not module attributes, so the ones the report names are listed.
METHODS = (("spectral", "SpectralField", "band"),)


class _ThreadLog:
    def __init__(self):
        self.thread = threading.get_ident()
        self.spans = []   # (name, start, end, parent index, thread cpu s)
        self.stack = []   # indices of the open spans
        self.counters = {}


class Tracer:
    """Collects spans and exact counters; see module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self.traced = set()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def count(self, name: str, value) -> None:
        counters = self._log().counters
        counters[name] = counters.get(name, 0) + value

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span; hooks see args and result."""
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(log.spans)
            parent = log.stack[-1] if log.stack else -1
            log.spans.append(None)
            log.stack.append(idx)
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                log.stack.pop()
                log.spans[idx] = (name, t0, t1, parent, c1 - c0)
            if after is not None:
                after(result)
            return result

        return wrapper

    def threads(self) -> list:
        with self._logs_lock:
            return list(self._logs)

    def write_spans(self, path: str) -> None:
        """Dump every span: one row per span, times relative to the first."""
        logs = self.threads()
        origin = min((s[1] for log in logs for s in log.spans if s),
                     default=0.0)
        names = sorted({s[0] for log in logs for s in log.spans if s})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[s[0]], log.thread, round((s[1] - origin) * 1e9),
                 round((s[2] - origin) * 1e9), s[3], round(s[4] * 1e9)]
                for log in logs for s in log.spans if s]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "thread", "start_ns", "end_ns",
                                   "parent", "thread_cpu_ns"],
                       "names": names, "spans": rows}, fh)


def _transform_size(args, kwargs, inverse: bool) -> tuple[int, int]:
    """(transform length n, number of transforms) of an rfft/irfft call."""
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    length = a.shape[axis]
    if n is None:
        n = 2 * (length - 1) if inverse else length
    return int(n), a.size // max(length, 1)


def _fft_hooks(tracer: Tracer, inverse: bool):
    def before(args, kwargs):
        n, batch = _transform_size(args, kwargs, inverse)
        tracer.count(FFT_SPAN + ".points", n * batch)
        if n > 1:
            tracer.count(FFT_SPAN + ".flop", 2.5 * n * math.log2(n) * batch)
        return args, kwargs
    return before


def _evolve_hooks(tracer: Tracer, fn):
    """Wrap evolve's observers in spans and count the steps it reports."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        signature = None

    def before(args, kwargs):
        if signature is None:
            return args, kwargs
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return args, kwargs
        observers = bound.arguments.get("observers")
        if observers:
            bound.arguments["observers"] = [
                tracer.span(OBSERVER_SPAN, obs) for obs in observers]
        return bound.args, bound.kwargs

    def after(result):
        meta = getattr(result, "meta", None)
        if isinstance(meta, dict) and isinstance(meta.get("n_steps"), int):
            tracer.count("integrator.steps", meta["n_steps"])

    return before, after


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and numpy's real FFT pair.

    Call after ``ggkdv.cli`` is imported. Only what exists is wrapped, so a
    function a later change removes is simply reported as absent.
    """
    modules = _package_modules()
    wrappers = {}
    for mod in modules:
        short = mod.__name__[len(PACKAGE) + 1:] or PACKAGE
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            before = after = None
            if name == EVOLVE_SPAN:
                before, after = _evolve_hooks(tracer, obj)
            wrappers[obj] = tracer.span(name, obj, before, after)
            tracer.traced.add(name)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    for short, cls_name, method in METHODS:
        cls = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls_name, None)
        fn = getattr(cls, method, None)
        if inspect.isfunction(fn):
            name = f"{short}.{cls_name}.{method}"
            setattr(cls, method, tracer.span(name, fn))
            tracer.traced.add(name)
    for attr, inverse in (("rfft", False), ("irfft", True)):
        fn = getattr(np.fft, attr)
        setattr(np.fft, attr,
                tracer.span(FFT_SPAN, fn, _fft_hooks(tracer, inverse)))
    tracer.traced.add(FFT_SPAN)


def summarize(tracer: Tracer) -> dict:
    """Per-span-name statistics and summed counters.

    For each name: ``calls``; ``total_s`` (summed durations); ``busy_s``
    (self time: duration minus the time covered by direct child spans);
    ``wait_s`` (duration minus thread CPU time); ``p50_us``/``p99_us``
    (per-call duration). ``integrator.evolve`` also gets ``stepping_s``: its
    duration minus its observer calls and table build.
    """
    stats = {}
    counters = {}
    for log in tracer.threads():
        spans = [s for s in log.spans if s]
        child_time = [0.0] * len(log.spans)
        not_stepping = [0.0] * len(log.spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name in (OBSERVER_SPAN, TABLES_SPAN):
                    not_stepping[parent] += t1 - t0
        for idx, span in enumerate(log.spans):
            if span is None:
                continue
            name, t0, t1, _, cpu = span
            entry = stats.setdefault(name, {"durations": [], "busy_s": 0.0,
                                            "wait_s": 0.0})
            entry["durations"].append(t1 - t0)
            entry["busy_s"] += (t1 - t0) - child_time[idx]
            entry["wait_s"] += max(0.0, (t1 - t0) - cpu)
            if name == EVOLVE_SPAN:
                entry["stepping_s"] = (entry.get("stepping_s", 0.0)
                                       + (t1 - t0) - not_stepping[idx])
        for key, value in log.counters.items():
            counters[key] = counters.get(key, 0) + value
    out = {}
    for name, entry in stats.items():
        d = np.asarray(entry["durations"])
        out[name] = {"calls": int(d.size), "total_s": float(d.sum()),
                     "busy_s": entry["busy_s"], "wait_s": entry["wait_s"],
                     "p50_us": float(np.percentile(d, 50) * 1e6),
                     "p99_us": float(np.percentile(d, 99) * 1e6)}
        if "stepping_s" in entry:
            out[name]["stepping_s"] = entry["stepping_s"]
    return {"spans": out, "counters": counters,
            "traced": sorted(tracer.traced)}
