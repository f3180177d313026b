"""In-memory call spans around fslm's public functions.

A Tracer replaces each named function, in every fslm module that binds
it, by a wrapper that records one span per call: name, start, end, the
span that caused it, the benchmark round, and the CPU time of the
calling thread during the call.  Spans stay in memory
until the run writes them out.  Nothing under src/ changes: the
wrappers are installed from here and removed again.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# Every layer boundary the per-module metrics are read from.
TRACED = (
    "spatial.grid_contiguity",
    "spatial.row_standardize",
    "spatial.log_det_A",
    "spatial.morans_i",
    "model.log_likelihood",
    "model.beta_conditional_params",
    "model.sigma2_conditional_params",
    "model.rho_log_conditional",
    "sampler.run_mwg",
    "sampler.summarize",
    "mle.fit_ml",
    "mle.concentrated_loglik",
    "simgen.make_dataset",
    "basis.build_bspline_basis",
    "basis.smooth_curves",
    "io.write_chain_csv",
    "io.read_curves_csv",
    "io.read_response_csv",
    "io.read_weights_csv",
)

# Calls whose arguments and results the checks and the sampler metrics
# need.  Untraced runs wrap only the first two: each of their calls lasts
# 0.1 s or more, so the wrapper's few microseconds are lost in it.
CAPTURED = ("sampler.run_mwg", "mle.fit_ml")
_KEEP = {"sampler.run_mwg", "mle.fit_ml", "spatial.morans_i"}

# A span is a plain tuple (id, name, start, end, parent, round, cpu),
# where round is a round index, "setup" or "probe", and cpu is the
# calling thread's CPU seconds during the span.  With one BLAS thread a
# call computes only on its own thread, so cpu is its cost even when
# other threads hold the GIL for part of its wall time.  Tuples of
# numbers and strings drop out of the garbage collector's scans, so
# 10^5 live spans do not slow the collections the traced program
# triggers.
ID, NAME, START, END, PARENT, ROUND, CPU = range(7)


def seconds(span) -> float:
    """Wall time of the span."""
    return span[END] - span[START]


class Tracer:
    def __init__(self, names):
        self.names = tuple(names)
        self.spans: list[tuple] = []
        self.calls: dict[int, tuple] = {}  # span id -> (args, result) of _KEEP calls
        self.work: dict[int, int] = {}  # span id -> iterations or permutations
        self.round = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # parent for calls made on the CLI's worker threads
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            result = None
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.round, cpu))
                if keep:
                    self.calls[sid] = (args, result)

        return traced

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fslm" or key.startswith("fslm.")]
        for name in self.names:
            mod, attr = name.split(".")
            original = getattr(importlib.import_module(f"fslm.{mod}"), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one CLI command.
        Calls made on threads the command starts become its children."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        outer_root, self._root = self._root, sid
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            self._root = outer_root
            self.spans.append((sid, name, start, end, parent, self.round, cpu))

    def write_csv(self, path) -> None:
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "round", "cpu_s"])
            for s in sorted(self.spans, key=lambda s: s[START]):
                writer.writerow([s[ID], s[NAME], f"{s[START] - t0:.7f}",
                                 f"{s[END] - t0:.7f}", s[PARENT] or "", s[ROUND],
                                 f"{s[CPU]:.7f}"])
