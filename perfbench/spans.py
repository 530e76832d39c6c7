"""Thread-aware span tracer and the per-layer metrics computed from its spans.

A span is (id, name, start, end, parent, thread id, thread CPU seconds).
Each thread keeps its own stack of open spans, so a span opened on a pool
thread never becomes the child of whatever happens to be open on the main
thread.  The thread's CPU time inside the span tells work from waiting: a
call that waits for the interpreter lock takes wall time but no CPU time.
Spans live in memory and are written out once, when the traced process
ends.

Hooks are bound by module attribute name: ``anderloc.lyapunov.qr_pos`` is
the name through which the Lyapunov layer reaches the QR kernel, so wrapping
that attribute times exactly those calls.  A hook whose module or attribute
no longer exists is recorded as absent; it never raises.

The span name's first component is its layer.  The root span is
``driver.main``; it covers the whole command, so on the root thread the
self times of all layers add up to its duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable

import numpy as np

ROOT = "driver.main"
LAYERS = ("driver", "config", "furstenberg", "lyapunov", "spectrum", "model", "linalg")


def _qr_rdiag(args, kwargs, result):
    r = result[1]
    return {"linalg.qr_pos.rdiag_min": float(np.min(np.diagonal(r, axis1=-2, axis2=-1)))}


def _closure_margin(args, kwargs, result):
    return {
        "furstenberg.lie_closure.margin_min": float(result.smallest_retained_norm),
        "furstenberg.lie_closure.dim_min": float(result.dim_reached),
    }


def _decay_states(args, kwargs, result):
    return {"spectrum.eigen_decay.states": float(len(result))}


def _count_rows(args, kwargs, result):
    return {"spectrum.count_below.rows": float(args[0].order * np.size(args[1]))}


def _replica_steps(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["config"]
    return {"lyapunov.replica_steps": float((cfg.burn_in + cfg.n_steps) * cfg.n_replicas)}


# How each probe value combines over calls.
PROBE_COMBINE = {
    "linalg.qr_pos.rdiag_min": min,
    "furstenberg.lie_closure.margin_min": min,
    "furstenberg.lie_closure.dim_min": min,
    "spectrum.eigen_decay.states": lambda a, b: a + b,
    "spectrum.count_below.rows": lambda a, b: a + b,
    "lyapunov.replica_steps": lambda a, b: a + b,
}

# (module, attribute, span name, probe).  The module is the caller's: the
# attribute is the name through which that module reaches the next layer.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("anderloc.cli", "load_config", "config.load_config", None),
    ("anderloc.cli", "density_certificate", "furstenberg.density_certificate", None),
    ("anderloc.cli", "scan_critical_energies", "furstenberg.scan_critical_energies", None),
    ("anderloc.cli", "lyapunov_spectrum", "lyapunov.lyapunov_spectrum", _replica_steps),
    ("anderloc.cli", "estimate_ids", "spectrum.estimate_ids", None),
    ("anderloc.cli", "eigen_decay", "spectrum.eigen_decay", _decay_states),
    ("anderloc.furstenberg", "lie_closure", "furstenberg.lie_closure", _closure_margin),
    ("anderloc.furstenberg", "bracket", "linalg.bracket", None),
    ("anderloc.furstenberg", "generator_norm", "model.generator_norm", None),
    ("anderloc.lyapunov", "qr_pos", "linalg.qr_pos", _qr_rdiag),
    ("anderloc.lyapunov", "exp_matrix", "linalg.exp_matrix", None),
    ("anderloc.spectrum", "count_below", "spectrum.count_below", _count_rows),
    ("anderloc.spectrum", "discretize", "spectrum.discretize", None),
    ("anderloc.spectrum", "eig_banded", "spectrum.eig_banded", None),
    ("anderloc.spectrum", "boundary_block", "spectrum.boundary_block", None),
    ("anderloc.spectrum", "transfer", "model.transfer", None),
    ("anderloc.model", "exp_matrix", "linalg.exp_matrix", None),
)


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self.probe_errors = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident(), cpu))
            if probe is not None:
                self._observe(probe, args, kwargs, result)
            return result

        return traced

    def _observe(self, probe, args, kwargs, result) -> None:
        # A probe reads a result or argument whose shape a refactor may
        # change; tracing must then lose the value, never the run.
        try:
            observed = probe(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            with self._lock:
                self.probe_errors += 1
            return
        with self._lock:
            for key, value in observed.items():
                old = self.values.get(key)
                self.values[key] = value if old is None else PROBE_COMBINE[key](old, value)

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook that exists; record the ones that do not."""
        for module_name, attr, name, probe in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, probe))

    def document(self, root_thread: int) -> dict[str, Any]:
        return {
            "root_thread": root_thread,
            "spans": [list(s) for s in self.spans],
            "values": dict(self.values),
            "absent": list(self.absent),
            "probe_errors": self.probe_errors,
        }


# --------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children always share their parent's thread (one stack per thread), and
    nested calls on one thread never overlap, so subtracting child
    durations gives the uncovered part of the interval.
    """
    child = {}
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0) for sid, _, start, end, *_ in spans}


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload iteration (one doc per child process)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    cpu: dict[str, float] = {}
    selft: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    values: dict[str, float] = {}
    absent: set[str] = set()
    probe_errors = 0
    n_spans = 0
    ids_capacity = 0.0  # estimate_ids wall x threads that counted inside it
    ids_busy = 0.0  # CPU time of the counts inside estimate_ids
    ids_workers = 0
    for doc in docs:
        spans = doc["spans"]
        n_spans += len(spans)
        own = self_times(spans)
        for sid, name, start, end, _, tid, thread_cpu in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            cpu[name] = cpu.get(name, 0.0) + thread_cpu
            selft[name] = selft.get(name, 0.0) + own[sid]
            if tid == doc["root_thread"]:
                layer = name.split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + own[sid]
        for key, value in doc["values"].items():
            values[key] = value if key not in values else PROBE_COMBINE[key](values[key], value)
        absent.update(doc["absent"])
        probe_errors += doc["probe_errors"]

        windows = [(s[2], s[3]) for s in spans if s[1] == "spectrum.estimate_ids"]
        inside = [s for s in spans if s[1] == "spectrum.count_below"
                  and any(lo <= s[2] and s[3] <= hi for lo, hi in windows)]
        workers = len({s[5] for s in inside})
        ids_workers = max(ids_workers, workers)
        ids_capacity += workers * sum(hi - lo for lo, hi in windows)
        ids_busy += sum(s[6] for s in inside)

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return float(calls.get(name, 0))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {
        "config.load_config.s": s("config.load_config"),
        "furstenberg.density_certificate.s": s("furstenberg.density_certificate"),
        "furstenberg.scan_critical_energies.s": s("furstenberg.scan_critical_energies"),
        "furstenberg.lie_closure.calls": n("furstenberg.lie_closure"),
        "furstenberg.lie_closure.self_s": selft.get("furstenberg.lie_closure", 0.0),
        "furstenberg.lie_closure.margin_min": values.get("furstenberg.lie_closure.margin_min", 0.0),
        "furstenberg.lie_closure.dim_min": values.get("furstenberg.lie_closure.dim_min", 0.0),
        "linalg.bracket.calls": n("linalg.bracket"),
        "linalg.bracket.s": s("linalg.bracket"),
        "lyapunov.lyapunov_spectrum.calls": n("lyapunov.lyapunov_spectrum"),
        "lyapunov.lyapunov_spectrum.s": s("lyapunov.lyapunov_spectrum"),
        "lyapunov.lyapunov_spectrum.self_s": selft.get("lyapunov.lyapunov_spectrum", 0.0),
        "lyapunov.replica_steps_per_s": ratio(values.get("lyapunov.replica_steps", 0.0),
                                              s("lyapunov.lyapunov_spectrum")),
        "linalg.qr_pos.calls": n("linalg.qr_pos"),
        "linalg.qr_pos.s": s("linalg.qr_pos"),
        "linalg.qr_pos.us_per_call": 1e6 * ratio(s("linalg.qr_pos"), n("linalg.qr_pos")),
        "linalg.qr_pos.rdiag_min": values.get("linalg.qr_pos.rdiag_min", 0.0),
        "spectrum.estimate_ids.s": s("spectrum.estimate_ids"),
        "spectrum.estimate_ids.workers": float(ids_workers),
        "spectrum.estimate_ids.thread_efficiency": ratio(ids_busy, ids_capacity),
        "spectrum.count_below.calls": n("spectrum.count_below"),
        "spectrum.count_below.s": s("spectrum.count_below"),
        "spectrum.count_below.busy_s": cpu.get("spectrum.count_below", 0.0),
        "spectrum.count_below.rows_per_s": ratio(values.get("spectrum.count_below.rows", 0.0),
                                                 cpu.get("spectrum.count_below", 0.0)),
        "spectrum.discretize.s": s("spectrum.discretize"),
        "spectrum.eigen_decay.s": s("spectrum.eigen_decay"),
        "spectrum.eigen_decay.states": values.get("spectrum.eigen_decay.states", 0.0),
        "spectrum.eig_banded.s": s("spectrum.eig_banded"),
        "spectrum.boundary_block.s": s("spectrum.boundary_block"),
        "model.transfer.calls": n("model.transfer"),
        "model.transfer.s": s("model.transfer"),
        "linalg.exp_matrix.calls": n("linalg.exp_matrix"),
        "linalg.exp_matrix.s": s("linalg.exp_matrix"),
        "model.generator_norm.s": s("model.generator_norm"),
        "trace.spans": float(n_spans),
        "trace.hooks_absent": float(len(absent)),
        "trace.probe_errors": float(probe_errors),
        "trace.self_sum_s": sum(layer_self.values()),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    return m
