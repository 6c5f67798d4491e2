"""Step boundaries, layer spans and counters recorded around stdiff's public
functions, from outside the program.

A ``Probe`` rebinds names in the loaded ``stdiff`` modules for the length of
a run and restores them afterwards.  A name is replaced wherever a caller
looks it up: every ``stdiff.*`` module attribute bound to the same function
object gets the wrapper (``stdiff.training.forward``, ``stdiff.metrics.
predict_batch``, the ``stdiff.autodiff`` globals that ``model`` reaches
through ``ad.``, ...), and methods are replaced on their class.  A target
that no longer exists is skipped, so its metrics are absent, not an error.

Untraced runs install only the two boundaries the end-to-end metrics need:
the return of ``optimizer_step`` ends a training step and each
``predict_batch`` call is one forward batch.  After each, outside the timed
step or batch, they time the host-speed reference (``hostspeed``).  Traced
runs add a span per layer call.  Spans are kept in memory as ``[name, start,
end, parent, unit]`` lists; ``unit`` is the innermost enclosing step, batch or
set-up span, so every span can be charged to the step or batch that caused it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from hostspeed import HostSpeed

# Layers traced as one span per call: metric prefix -> (module, qualified name).
LAYERS = {
    "sparse.matmul_dense": ("stdiff.sparse", "SparseMatrix.matmul_dense"),
    "sparse.matmul_sparse": ("stdiff.sparse", "SparseMatrix.matmul_sparse"),
    "stgraph.build_hstg": ("stdiff.stgraph", "build_hstg"),
    "autodiff.backward": ("stdiff.autodiff", "Tape.backward"),
    "model.forward": ("stdiff.model", "forward"),
    "model.encode": ("stdiff.model", "encode"),
    "model.multi_channel_forward": ("stdiff.model", "multi_channel_forward"),
    "model.stsc_forward": ("stdiff.model", "stsc_forward"),
    "training.mae_l2_loss": ("stdiff.training", "mae_l2_loss"),
    "training.compute_norm_stats": ("stdiff.training", "compute_norm_stats"),
    "data.load_speed_csv": ("stdiff.data", "load_speed_csv"),
    "data.make_windows": ("stdiff.data", "make_windows"),
    "graph.load_adjacency": ("stdiff.graph", "load_adjacency"),
    "graph.build_gaussian_adjacency": ("stdiff.graph", "build_gaussian_adjacency"),
    "checkpoint.restore_params": ("stdiff.checkpoint", "restore_params"),
    "checkpoint.save_params": ("stdiff.checkpoint", "save_params"),
    "metrics.evaluate": ("stdiff.metrics", "evaluate"),
    "metrics.metrics_by_horizon": ("stdiff.metrics", "metrics_by_horizon"),
    "metrics.historical_average_baseline": ("stdiff.metrics", "historical_average_baseline"),
    "cli.eval": ("stdiff.cli", "cmd_eval"),
}
# The two boundaries, installed in every run.
OPTIMIZER_STEP = ("stdiff.training", "optimizer_step")
PREDICT_BATCH = ("stdiff.training", "predict_batch")

# Autodiff op groups: each recorded backward closure is charged to the group
# of the innermost op running when ``Tape.record`` was called.
AUTODIFF_OPS = {
    "spmm_diff": ("spmm_diff",),
    "linear": ("linear",),
    "layer_norm": ("layer_norm",),
    "temporal_compress": ("temporal_compress",),
    "add": ("add",),
    "concat_features": ("concat_features",),
    # add_bias and relu exist only inside the decoder
    "mlp_decode": ("mlp_decode", "add_bias", "relu"),
    "time_reshape": ("slice_time", "stack_snapshots", "concat_time", "merge_time",
                     "split_time"),
    "mae_loss": ("mae_loss",),
    "l2_penalty": ("l2_penalty",),
}

UNIT_PREFIX = "unit."
MB = 1e6


class _Patcher:
    """Rebinds names in the stdiff modules and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name: str, qualname: str, make_wrapper) -> bool:
        module = sys.modules.get(module_name)
        *owners, attr = qualname.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        current = getattr(owner, attr, None)
        if current is None:
            return False
        wrapper = make_wrapper(current)
        if owner is module:
            targets = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "stdiff" or name.startswith("stdiff."))]
            for mod in targets:
                for name, value in list(vars(mod).items()):
                    if value is current:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, current))
        else:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, current))
        return True

    def restore(self):
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()


class Probe:
    """Measures one run; install with ``with Probe(trace=...) as probe:``."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.step_s: list[float] = []       # one entry per optimizer_step return
        self.batch_s: list[float] = []      # one entry per predict_batch call...
        self.batch_n: list[int] = []        # ...and the windows it predicted
        self.host = None if trace else HostSpeed()
        self.step_host_s: list[float] = []  # untraced: the host reference after each step...
        self.batch_host_s: list[float] = []  # ...and after each batch
        self.bad_batches = 0                # batches with a non-finite prediction
        self.present: set[str] = set()      # metric prefixes whose target exists
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)  # unit span -> counters
        self.max_mb: Counter = Counter()
        self._mark = 0.0
        self._stack: list[int] = []
        self._units: list[int] = []
        self._ops: list[str] = []
        self._patcher = _Patcher()

    # -- install / restore --------------------------------------------

    def __enter__(self):
        if not self._patcher.wrap(*OPTIMIZER_STEP, self._optimizer_step):
            raise RuntimeError("stdiff.training.optimizer_step not found: no step boundary")
        if not self._patcher.wrap(*PREDICT_BATCH, self._predict_batch):
            raise RuntimeError("stdiff.training.predict_batch not found: no batch boundary")
        if self.trace:
            self._install_layers()
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _install_layers(self):
        wrap = self._patcher.wrap
        for prefix, (module, qualname) in LAYERS.items():
            extra = {"sparse.matmul_dense": self._count_spmm,
                     "training.compute_norm_stats": self._count_norm_input}.get(prefix)
            if wrap(module, qualname, functools.partial(self._span, prefix, extra)):
                self.present.add(prefix)
        for op, names in AUTODIFF_OPS.items():
            for name in names:
                if wrap("stdiff.autodiff", name, functools.partial(self._op, op)):
                    self.present.add(f"autodiff.{op}")
        if wrap("stdiff.autodiff", "Tape.record", self._record):
            self.present.add("autodiff.tape")
        if wrap("stdiff.autodiff", "Tensor.ensure_grad", self._ensure_grad):
            self.present.add("autodiff.ensure_grad")
        self.present.update(("training.optimizer_step", "training.predict_batch"))

    # -- spans and counters ---------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1,
                           self._units[-1] if self._units else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def open_unit(self, kind: str) -> None:
        """Start a step, batch or set-up span that later spans are charged to."""
        self._units.append(self._open(UNIT_PREFIX + kind))

    def close_unit(self, kind: str | None = None) -> None:
        idx = self._units.pop()
        if kind is not None:
            self.spans[idx][0] = UNIT_PREFIX + kind
        self._close(idx)

    def _count(self, name: str, value: float = 1) -> None:
        self.counts[self._units[-1] if self._units else -1][name] += value

    # -- boundaries -----------------------------------------------------

    def begin_train(self) -> None:
        """Call just before ``stdiff.training.train``: the first step starts here."""
        self._mark = time.perf_counter()
        if self.trace:
            self.open_unit("step")

    def end_train(self) -> None:
        """Call when ``train`` returns or raises; the open span was not a step."""
        if self.trace:
            self.close_unit("epoch_end")

    def _optimizer_step(self, fn):
        @functools.wraps(fn)
        def optimizer_step(*args, **kwargs):
            if self.trace:
                idx = self._open("training.optimizer_step")
                try:
                    fn(*args, **kwargs)
                finally:
                    self._close(idx)
                self.close_unit()
                self.open_unit("step")
            else:
                fn(*args, **kwargs)
            now = time.perf_counter()
            self.step_s.append(now - self._mark)
            if self.host is not None:
                self.step_host_s.append(self.host.time())
                now = time.perf_counter()
            self._mark = now
        return optimizer_step

    def _predict_batch(self, fn):
        @functools.wraps(fn)
        def predict_batch(model, history, *args, **kwargs):
            if self.trace:
                self.open_unit("batch")
                idx = self._open("training.predict_batch")
            start = time.perf_counter()
            try:
                out = fn(model, history, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self.trace:
                    self._close(idx)
                    self.close_unit()
            self.batch_s.append(elapsed)
            self.batch_n.append(len(history))
            if self.host is not None:
                self.batch_host_s.append(self.host.time())
            if not np.all(np.isfinite(out)):
                self.bad_batches += 1
            return out
        return predict_batch

    # -- traced wrappers ------------------------------------------------

    def _span(self, name, extra, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _count_spmm(self, args):
        a, x = args[0], args[1]
        work = a.nnz * (np.shape(x)[1] if np.ndim(x) == 2 else 1)
        self._count("sparse.matmul_dense.work", work)
        self.max_mb["sparse.matmul_dense.temp_mb"] = max(
            self.max_mb["sparse.matmul_dense.temp_mb"], work * 8 / MB)

    def _count_norm_input(self, args):
        self.max_mb["training.compute_norm_stats.mb"] = max(
            self.max_mb["training.compute_norm_stats.mb"], np.asarray(args[0]).nbytes / MB)

    def _op(self, op, fn):
        name = f"autodiff.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self._ops.append(op)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._ops.pop()
                self._close(idx)
            value = getattr(out, "value", None)
            if isinstance(value, np.ndarray):
                self._count("autodiff.tape.bytes", value.nbytes)
            return out
        return wrapper

    def _record(self, fn):
        @functools.wraps(fn)
        def record(tape, backward_fn, *args, **kwargs):
            name = f"autodiff.{self._ops[-1] if self._ops else 'other'}.bwd"
            self._count("autodiff.tape.records")

            def traced_backward():
                idx = self._open(name)
                try:
                    return backward_fn()
                finally:
                    self._close(idx)
            return fn(tape, traced_backward, *args, **kwargs)
        return record

    def _ensure_grad(self, fn):
        @functools.wraps(fn)
        def ensure_grad(tensor):
            if tensor.grad is None:
                self._count("autodiff.ensure_grad.allocs")
                self._count("autodiff.ensure_grad.bytes", tensor.value.nbytes)
            return fn(tensor)
        return ensure_grad

    # -- results --------------------------------------------------------

    def unit_durations(self, kind: str) -> list[float]:
        name = UNIT_PREFIX + kind
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_table(self, kind: str) -> dict:
        """Self time per span name inside the ``kind`` units (steps or batches).

        The unit spans' own self time is the part of a step or batch that no
        layer span covers.
        """
        unit_name = UNIT_PREFIX + kind
        own = self.self_times()
        in_unit = [i for i, s in enumerate(self.spans)
                   if s[0] == unit_name or (s[4] >= 0 and self.spans[s[4]][0] == unit_name)]
        rows: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i in in_unit:
            row = rows[self.spans[i][0]]
            row[0] += 1
            row[1] += own[i]
        total = sum(self.unit_durations(kind))
        unattributed = rows.pop(unit_name, [0, 0.0])[1]
        return {
            "unit": kind,
            "units": len(self.unit_durations(kind)),
            "unit_s": total,
            "unattributed_s": unattributed,
            "rows": {name: {"calls": c, "self_s": t} for name, (c, t) in
                     sorted(rows.items(), key=lambda kv: -kv[1][1])},
        }

    def layer_metrics(self, kind: str, untraced_p50: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over everything this probe traced.

        ``.calls``/``.s`` are span counts and inclusive wall time; the autodiff
        ``fwd_s``/``bwd_s`` are self time.  Tape and gradient-allocation figures
        are per ``kind`` unit (per training step or per forward batch).
        """
        own = self.self_times()
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _parent, _unit) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own[i]
        totals: Counter = Counter()
        per_unit: Counter = Counter()
        unit_name = UNIT_PREFIX + kind
        for unit, counter in self.counts.items():
            totals.update(counter)
            if unit >= 0 and self.spans[unit][0] == unit_name:
                per_unit.update(counter)
        n_units = max(len(self.unit_durations(kind)), 1)

        out: dict[str, tuple[float, str]] = {}

        def put(prefix, suffix, value, unit):
            if prefix in self.present:
                out[f"{prefix}.{suffix}"] = (float(value), unit)

        for prefix, suffixes in LAYER_METRICS:
            for suffix in suffixes:
                if suffix == "calls":
                    put(prefix, suffix, calls[prefix], "count")
                elif suffix == "s":
                    put(prefix, suffix, incl[prefix], "s")
                elif suffix == "work":
                    put(prefix, suffix, totals[f"{prefix}.work"], "count")
                elif suffix.endswith("mb"):
                    put(prefix, suffix, self.max_mb[f"{prefix}.{suffix}"], "MB")
        for op in AUTODIFF_OPS:
            prefix = f"autodiff.{op}"
            put(prefix, "calls", calls[f"{prefix}.fwd"], "count")
            put(prefix, "fwd_s", self_s[f"{prefix}.fwd"], "s")
            put(prefix, "bwd_s", self_s[f"{prefix}.bwd"], "s")
        put("autodiff.tape", "records", per_unit["autodiff.tape.records"] / n_units, "count")
        put("autodiff.tape", "mb", per_unit["autodiff.tape.bytes"] / n_units / MB, "MB")
        put("autodiff.ensure_grad", "allocs",
            per_unit["autodiff.ensure_grad.allocs"] / n_units, "count")
        put("autodiff.ensure_grad", "mb",
            per_unit["autodiff.ensure_grad.bytes"] / n_units / MB, "MB")

        durations = self.unit_durations(kind)
        table = self.layer_table(kind)
        if durations and untraced_p50 > 0:
            out["trace.overhead_share"] = (float(np.median(durations)) / untraced_p50 - 1.0,
                                           "share")
        if table["unit_s"] > 0:
            out["trace.unattributed_share"] = (table["unattributed_s"] / table["unit_s"],
                                               "share")
        return out


# Non-autodiff per-layer metrics, in report order.
LAYER_METRICS = (
    ("sparse.matmul_dense", ("calls", "s", "work", "temp_mb")),
    ("sparse.matmul_sparse", ("calls", "s")),
    ("stgraph.build_hstg", ("calls", "s")),
    ("autodiff.backward", ("s",)),
    ("model.forward", ("calls", "s")),
    ("model.encode", ("calls", "s")),
    ("model.multi_channel_forward", ("calls", "s")),
    ("model.stsc_forward", ("calls", "s")),
    ("training.optimizer_step", ("calls", "s")),
    ("training.mae_l2_loss", ("calls", "s")),
    ("training.predict_batch", ("calls", "s")),
    ("training.compute_norm_stats", ("s", "mb")),
    ("data.load_speed_csv", ("s",)),
    ("data.make_windows", ("s",)),
    ("graph.load_adjacency", ("s",)),
    ("graph.build_gaussian_adjacency", ("s",)),
    ("checkpoint.restore_params", ("s",)),
    ("checkpoint.save_params", ("s",)),
    ("metrics.evaluate", ("s",)),
    ("metrics.metrics_by_horizon", ("s",)),
    ("metrics.historical_average_baseline", ("s",)),
    ("cli.eval", ("s",)),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run can report, in report order."""
    names = [f"{prefix}.{suffix}" for prefix, suffixes in LAYER_METRICS for suffix in suffixes]
    for op in AUTODIFF_OPS:
        names += [f"autodiff.{op}.calls", f"autodiff.{op}.fwd_s", f"autodiff.{op}.bwd_s"]
    names += ["autodiff.tape.records", "autodiff.tape.mb", "autodiff.ensure_grad.allocs",
              "autodiff.ensure_grad.mb", "trace.overhead_share", "trace.unattributed_share"]
    return names
