"""Spans recorded from outside the program, and the per-layer metrics read
from them.

``Tracer.install`` wraps the public functions of each seqtest module, and a
fixed list of methods on their classes, in a timing wrapper. The modules
import each other with ``from .x import y``, so a function is bound in several
namespaces; every binding of a wrapped function is replaced, in the package
too. A span records its id, name, start, end and parent span. Spans stay in
memory and are written out at the end of the run.

Pool workers are forked from the traced process: they inherit the wrappers and
the open span stack, so the spans they record name the parent process's span
as their parent. A worker writes its spans to its own file each time its
outermost span ends, because the pool ends workers without running exit
handlers.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "harness", "agents", "dp", "models", "elimination", "envs", "generators")

# Methods wrapped on their classes; all public module-level functions are
# wrapped without being listed.
METHODS = {
    "dp": {"DiscretePolicy": ("trace",), "GaussianTreePolicy": ("trace",)},
    "elimination": {"CandidateSet": ("refresh_pairs",)},
    "envs": {"DiscreteEnvironment": ("clairvoyant",), "GaussianEnvironment": ("clairvoyant_policy",)},
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(pos, name, counter):
    def after(tracer, token, args, kwargs, result):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, pos, name))
    return None, after


def _candidate_count(args, kwargs):
    return len(_arg(args, kwargs, 0, "state").candidates)


def _objectives_after(tracer, before, args, kwargs, result):
    if result is not None:
        tracer.counters["elimination.objective_rounds"] += 1
        tracer.counters["elimination.candidates_evaluated"] += before


def _eliminate_after(tracer, before, args, kwargs, result):
    if len(result.candidates) < before:
        tracer.counters["elimination.useful_eliminate_calls"] += 1


def _ocmesp_after(tracer, token, args, kwargs, result):
    tracer.counters["elimination.pd_skips"] += result.trace.metadata["pd_skips"]
    tracer.counters["elimination.final_candidates"] += len(result.final_candidates)


def _etc_after(tracer, token, args, kwargs, result):
    tracer.counters["agents.n_explore"] += result.metadata["n_explore"]
    tracer.counters["agents.fallback_episodes"] += result.metadata.get("fallback_episodes", 0)


def _trace_writer_after(tracer, token, args, kwargs, result):
    tracer.counters["envs.write_trace_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    tracer.counters["envs.trace_rows"] += _arg(args, kwargs, 0, "trace").episodes


def _discrete_dp_after(tracer, token, args, kwargs, result):
    tracer.counters["dp.solve_dp_discrete.states"] += len(result[1])


def _gaussian_dp_after(tracer, token, args, kwargs, result):
    # the table is the policy's memo, which keeps growing during rollouts
    table = result[1]
    tracer.deferred.append(lambda: {"dp.gaussian_memo_entries": len(table)})


# span name -> (before(args, kwargs) -> token, after(tracer, token, args, kwargs, result))
PROBES = {
    "dp.solve_dp_discrete": (None, _discrete_dp_after),
    "dp.solve_dp_gaussian": (None, _gaussian_dp_after),
    "envs.write_trace_csv": (None, _trace_writer_after),
    "envs.write_aggregate_csv": _file_size(1, "path", "envs.write_aggregate_csv.bytes"),
    "envs.write_dataset_csv": _file_size(2, "path", "envs.write_dataset_csv.bytes"),
    "elimination.candidate_objectives": (_candidate_count, _objectives_after),
    "elimination.eliminate": (_candidate_count, _eliminate_after),
    "elimination.run_ocmesp": (None, _ocmesp_after),
    "agents.run_etc_discrete": (None, _etc_after),
    "agents.run_etc_gaussian": (None, _etc_after),
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str, worker_dir):
        self.run_id = run_id
        self.worker_dir = Path(worker_dir)
        self.main_pid = os.getpid()
        self.stack = []  # open span ids, innermost last
        self.base_depth = 0  # depth of the stack inherited at fork
        self.originals = {}  # span name -> unwrapped function
        self._flushes = 0
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []  # (id, name, start, end, parent id)
        self.counters = defaultdict(int)
        self.deferred = []  # callables read when the spans are written
        self._seq = 0

    def _after_fork(self):
        self._reset()
        self.base_depth = len(self.stack)
        self._flushes = 0

    def wrap(self, name, fn):
        before, after = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer._seq += 1
            sid = (tracer.pid << 32) | tracer._seq
            token = before(args, kwargs) if before is not None else None
            stack.append(sid)
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
                if done and after is not None:
                    after(tracer, token, args, kwargs, result)
                if tracer.pid != tracer.main_pid and len(stack) == tracer.base_depth:
                    tracer._write_worker()

        self.originals[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every public function and listed method at every binding."""
        package = importlib.import_module("seqtest")
        modules = {layer: importlib.import_module(f"seqtest.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn))
        self._namespaces = [package] + list(modules.values())
        for namespace in self._namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])

    def unwrapped_bindings(self) -> list:
        """Module attributes that still hold a function the tracer wrapped."""
        originals = {id(fn) for fn in self.originals.values()}
        return sorted(
            f"{namespace.__name__}.{attr}"
            for namespace in self._namespaces
            for attr, obj in vars(namespace).items()
            if id(obj) in originals
        )

    def _payload(self) -> dict:
        counters = dict(self.counters)
        for read in self.deferred:
            for key, value in read().items():
                counters[key] = counters.get(key, 0) + value
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "names": names,
            "spans": [[sid, index[n], start, end, parent] for sid, n, start, end, parent in self.spans],
            "counters": counters,
        }

    def _write_worker(self):
        self._flushes += 1
        path = self.worker_dir / f"worker-{self.pid}-{self._flushes}.json"
        path.write_text(json.dumps(self._payload()))
        self._reset()

    def write(self, path, extra: dict) -> None:
        """Write the traced process's spans, counters and ``extra`` fields."""
        payload = self._payload()
        payload.update(extra)
        Path(path).write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def load_spans(main_path, worker_dir):
    """(spans, counters, main payload) from the traced process's file and its
    workers' files. A span is (id, name, start, end, parent id)."""
    spans = []
    counters = defaultdict(int)
    main = None
    paths = [main_path] + sorted(glob.glob(os.path.join(worker_dir, "worker-*.json")))
    for path in paths:
        payload = json.loads(Path(path).read_text())
        if main is None:
            main = payload
        names = payload["names"]
        spans.extend((sid, names[n], start, end, parent)
                     for sid, n, start, end, parent in payload["spans"])
        for key, value in payload["counters"].items():
            counters[key] += value
    return spans, counters, main


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
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


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that its child spans
    cover. Children may overlap each other (parallel pool workers)."""
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _ in spans
    }


# metric base name -> span name prefix it sums over, where they differ
_SPAN_GROUPS = {"generators.gen": "generators.gen_"}


def layer_metrics(spans, counters, metric_names, simulate_wall, untraced_simulate_s) -> dict:
    """Value of every named per-layer metric; 0 where the layer did not run."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for sid, name, start, end, _ in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        total_s[name] += end - start

    def over(table, base):
        prefix = _SPAN_GROUPS.get(base)
        if prefix is None:
            return table.get(base, 0)
        return sum(v for name, v in table.items() if name.startswith(prefix))

    derived = {
        "envs.trace_rows_per_s": (
            counters.get("envs.trace_rows", 0.0) / self_s["envs.write_trace_csv"]
            if self_s.get("envs.write_trace_csv") else 0.0
        ),
        "elimination.useful_eliminate_ratio": (
            counters.get("elimination.useful_eliminate_calls", 0.0)
            / counters["elimination.objective_rounds"]
            if counters.get("elimination.objective_rounds") else 0.0
        ),
        "trace.overhead_frac": simulate_wall / untraced_simulate_s,
    }
    out = {}
    for metric in metric_names:
        base, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "calls":
            out[metric] = over(calls, base)
        elif kind == "self_s":
            out[metric] = over(self_s, base)
        elif kind == "s":
            out[metric] = over(total_s, base)
        else:
            out[metric] = counters.get(metric, 0)
    return out
