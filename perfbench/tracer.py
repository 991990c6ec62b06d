"""Spans around xfile's public functions, recorded from outside the program.

Each function is wrapped where its caller looks it up (``xfile.optimizer.
inner_logpost`` is the name ``run_inner`` calls, ``xfile.simulate.fit`` the
name ``run_experiment`` calls), so the program itself is unchanged.  The
seven coordinate steps and the latent refresh are not functions the outer
code calls; their spans run from one ``inner_callback`` event to the next,
and the objective evaluations inside that gap become their children.

Spans (name, start, end, parent) are kept in memory and written out when
the benchmark ends.  A span's self time is its duration minus the time its
child spans cover.
"""

import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from xfile import io as xio
from xfile import optimizer, shrinkage, simulate

# (module, attribute the caller looks up, layer name)
TARGETS = (
    (optimizer, "fit", "optimizer.fit"),
    (simulate, "fit", "optimizer.fit"),
    (optimizer, "fit_contribution", "optimizer.fit_contribution"),
    (optimizer, "run_inner", "optimizer.run_inner"),
    (optimizer, "inner_logpost", "optimizer.inner_logpost"),
    (optimizer, "log_prior_contribution", "model.log_prior_contribution"),
    (optimizer, "cell_marginal_loglik", "model.cell_marginal_loglik"),
    (optimizer, "update_latent", "latent.update_latent"),
    (optimizer, "predict_matrix", "optimizer.predict_matrix"),
    (simulate, "predict_matrix", "optimizer.predict_matrix"),
    (simulate, "run_experiment", "simulate.run_experiment"),
    (simulate, "generate", "simulate.generate"),
    (simulate, "fit_baseline", "simulate.fit_baseline"),
    (shrinkage, "simulate_prior_ranks", "shrinkage.simulate_prior_ranks"),
    (xio, "load_matrix", "io.load_matrix"),
    (xio, "load_side_info", "io.load_side_info"),
    (xio, "save_model", "io.save_model"),
    (xio, "write_fit_outputs", "io.write_fit_outputs"),
    (xio, "export_analysis", "io.export_analysis"),
)
WRITERS = ("io.save_model", "io.write_fit_outputs", "io.export_analysis")
OBJECTIVE_RTOL = 1e-10


def _dir_bytes(path) -> int:
    if path is None or not Path(path).is_dir():
        return 0
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class _Patches:
    """Replaces module attributes on entry and restores them on exit."""

    def __init__(self):
        self._saved = []

    def install(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class InnerRunStats:
    """Counts inner iterations, cell-iterations and budget hits of run_inner."""

    def __init__(self):
        self.calls = self.iters = self.cell_iters = self.budget_hits = 0

    def record(self, state, trace):
        iters = len(trace) - 1
        self.calls += 1
        self.iters += iters
        self.cell_iters += int(np.count_nonzero(state.mask)) * iters
        budget = state.hp.max_inner_iters + getattr(optimizer, "WARMUP_MAX_ITERS", 0)
        if iters >= budget and len(trace) > 1:
            prev, last = trace[-2], trace[-1]
            self.budget_hits += abs(last - prev) > state.hp.tol * max(1.0, abs(prev))


class IterationCounter:
    """The only probe in an untraced pass: a counter around each
    ``run_inner`` call (at most a few hundred per pass), which supplies the
    cell-iterations that ``work_per_s`` divides by time."""

    def __enter__(self):
        self.stats = InnerRunStats()
        self._patches = _Patches()
        original = optimizer.run_inner

        def run_inner(state, *args, **kwargs):
            trace = original(state, *args, **kwargs)
            self.stats.record(state, trace)
            return trace

        self._patches.install(optimizer, "run_inner", run_inner)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Records one span per wrapped call and per coordinate step."""

    def __enter__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stats = InnerRunStats()
        self.variates = 0
        self.bytes_written = 0
        self.objective_drops: dict[tuple[int, int], int] = {}
        self._stack = [-1]
        self._inner = None         # span of the run_inner call in progress
        self._pending: list[int] = []  # its child spans since the last step event
        self._mark = 0.0           # end of the last step event
        self._restart = -1
        self._truncated = False
        self._j_eta = 0.0
        self._paused = False
        self._inner_logpost = optimizer.inner_logpost
        self._patches = _Patches()
        for module, attr, name in TARGETS:
            if hasattr(module, attr):
                self._patches.install(module, attr, self._wrap(name, getattr(module, attr)))
        self._root = self.open("bench.pass")
        return self

    def __exit__(self, *exc):
        self.close(self._root)
        self._patches.restore()

    # -- span bookkeeping ------------------------------------------------

    def _add(self, name, start, end, parent) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.parent) - 1

    def open(self, name) -> int:
        parent = self._stack[-1]
        idx = self._add(name, time.perf_counter(), 0.0, parent)
        self._stack.append(idx)
        if parent == self._inner:
            self._pending.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        special = {
            "optimizer.fit": self._wrap_fit,
            "optimizer.fit_contribution": self._wrap_fit_contribution,
            "optimizer.run_inner": self._wrap_run_inner,
            "shrinkage.simulate_prior_ranks": self._wrap_prior,
        }
        if name in special:
            return special[name](name, fn)
        if name in WRITERS:
            return self._wrap_writer(name, fn)

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _wrap_fit(self, name, fn):
        takes_callback = "inner_callback" in inspect.signature(fn).parameters

        def fit(data, side, hp, *args, **kwargs):
            self._truncated = getattr(data.transform, "value", None) == "nonneg"
            if takes_callback and not args and "inner_callback" not in kwargs:
                kwargs["inner_callback"] = self._on_step
            idx = self.open(name)
            try:
                return fn(data, side, hp, *args, **kwargs)
            finally:
                self.close(idx)

        return fit

    def _wrap_fit_contribution(self, name, fn):
        def fit_contribution(*args, **kwargs):
            self._restart = -1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return fit_contribution

    def _wrap_run_inner(self, name, fn):
        def run_inner(state, *args, **kwargs):
            self._restart += 1
            saved = self._inner, self._pending, self._mark
            idx = self.open(name)
            self._inner, self._pending, self._mark = idx, [], self.start[idx]
            try:
                trace = fn(state, *args, **kwargs)
            finally:
                self.close(idx)
                self._inner, self._pending, self._mark = saved
            self.stats.record(state, trace)
            return trace

        return run_inner

    def _wrap_prior(self, name, fn):
        def simulate_prior_ranks(params, H, n_draws, *args, **kwargs):
            idx = self.open(name)
            try:
                return fn(params, H, n_draws, *args, **kwargs)
            finally:
                self.close(idx)
                self.variates += H * n_draws

        return simulate_prior_ranks

    def _wrap_writer(self, name, fn):
        signature = inspect.signature(fn)

        def writer(*args, **kwargs):
            out_dir = signature.bind(*args, **kwargs).arguments.get("out_dir")
            before = _dir_bytes(out_dir)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.bytes_written += _dir_bytes(out_dir) - before

        return writer

    def _on_step(self, h, step, state, fitted_prev):
        """inner_callback: closes the span of the step that just ended.

        Under truncation it also compares the exact objective before and
        after each latent refresh (with recording paused, so the extra
        evaluations count as tracing cost, not as layer calls).
        """
        now = time.perf_counter()
        idx = self._add("optimizer.step." + step, self._mark, now, self._inner)
        for child in self._pending:
            self.parent[child] = idx
        self._pending = []
        if self._truncated and step in ("eta", "latent"):
            self._paused = True
            try:
                j = self._inner_logpost(state)
            finally:
                self._paused = False
            if step == "eta":
                self._j_eta = j
            elif j < self._j_eta - OBJECTIVE_RTOL * max(1.0, abs(self._j_eta)):
                key = (h, self._restart)
                self.objective_drops[key] = self.objective_drops.get(key, 0) + 1
        end = time.perf_counter()
        self._add("trace.callback", now, end, self._inner)
        self._mark = end

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self time in seconds)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        own = dur - child_time
        counts = np.bincount(name_id, minlength=len(self.names))
        totals = np.bincount(name_id, weights=own, minlength=len(self.names))
        return {n: (int(counts[i]), float(totals[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        """Writes the spans as arrays (times in seconds from the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        origin = start.min() if start.size else 0.0
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=start - origin, end=np.frombuffer(self.end, dtype=float) - origin,
                 parent=np.asarray(self.parent))
