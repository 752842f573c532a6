"""Spans recorded around the program's layers, from outside the program.

:class:`Tracer` wraps public functions of each layer at the names
where callers look them up (``runtime.engine`` imports
``find_schedule``, ``derive_schedule_set``, ``build_kernel`` and
``kernel_cost`` by name, so those are patched in its namespace; a
function imported inside a function body is patched in its home
module). Each call records a :class:`Span` — name, start, end, the
span that was open on the same thread when it started, and the
operation it belongs to — in memory; :meth:`Tracer.dump` writes them
out when the run ends. Nothing is installed unless the benchmark runs
with ``--trace 1``, so the end-to-end run measures the program as
shipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One wrapped call. Times are ``perf_counter_ns`` values."""

    span_id: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    op: Optional[int]


#: (module, attribute path, span name): what the traced run wraps.
#: An attribute path ``"Class.method"`` wraps a method on its class.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.program", "parse_program", "lang.parse"),
    ("repro.runtime.program", "check_program", "lang.check"),
    ("repro.service.programs", "parse_program", "lang.parse"),
    ("repro.service.programs", "check_program", "lang.check"),
    ("repro.runtime.engine", "find_schedule", "schedule.find"),
    ("repro.runtime.engine", "derive_schedule_set", "schedule.derive_set"),
    ("repro.runtime.engine", "Engine.schedule_for", "engine.schedule_for"),
    ("repro.verify", "verify_schedule", "verify.schedule"),
    ("repro.runtime.engine", "Engine.verify_compiled", "engine.verify_compiled"),
    ("repro.verify.races", "analyze_parallelism", "verify.races"),
    ("repro.runtime.engine", "build_kernel", "ir.lower"),
    ("repro.ir.cbackend", "emit_native_source", "ir.emit"),
    ("repro.runtime.native", "build_shared_object", "native.cc"),
    ("repro.runtime.native", "probe_shared_object", "native.probe"),
    ("repro.runtime.native", "NativeRun.__call__", "native.launch_run"),
    ("repro.runtime.native", "NativeBatchedRun.__call__", "native.launch_batched"),
    ("repro.runtime.engine", "Engine.prepare_map", "engine.prepare_map"),
    ("repro.runtime.engine", "Engine.build_context", "engine.build_context"),
    ("repro.runtime.engine", "Engine.result_coords", "engine.result_coords"),
    ("repro.runtime.engine", "Engine.domain_of", "engine.domain_of"),
    ("repro.runtime.engine", "kernel_cost", "gpu.kernel_cost"),
    ("repro.runtime.engine", "batched_launch_cost", "gpu.kernel_cost"),
    ("repro.runtime.batching", "pack_group", "batching.pack"),
    ("repro.service.workers", "WorkerPool.execute_batch", "service.execute_batch"),
)


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the part its children cover.

    Children are the spans whose ``parent`` is the span; their
    intervals are clipped to the parent's and merged before the
    covered length is taken, so overlapping children count once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0
        reach = span.start
        for lo, hi in sorted(children.get(span.span_id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Values read by the wrappers' hooks (see :meth:`_hooks`).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def operation(self, op_id: int) -> "_Operation":
        """Context manager: spans opened inside belong to ``op_id``
        and the ``op`` span is their root."""
        return _Operation(self, op_id)

    def _record(self, name: str, fn: Callable, args, kwargs, op=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        if op is None:
            op = stack[-1][1] if stack else None
        stack.append((span_id, op))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def wrap(self, name: str, fn: Callable, on_result=None, on_call=None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``on_result(result)`` returns a number to keep in
        :attr:`samples` under ``name``; ``on_call(args)`` runs before
        the call and returns the operation id of a call made outside
        any :meth:`operation` (a service worker's batch), or None.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = on_call(args) if on_call is not None else None
            result = self._record(name, fn, args, kwargs, op)
            if on_result is not None:
                self.samples[name].append(on_result(result))
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every :data:`WRAPPED` name."""
        hooks = self._hooks()
        for key in ("ir.emit", "batching.pack", "service.queue_wait_ms"):
            self.samples[key] = []  # created before worker threads append
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **hooks.get(name, {})))

    def _hooks(self) -> Dict[str, dict]:
        """Values read at a wrapped call besides its span: the size of
        each emitted C source, the useful share of each packed group's
        cells, and how long each job of a service batch waited between
        ``submit`` and the worker taking the batch."""

        def queue_wait(args) -> int:
            batch = args[2]  # WorkerPool.execute_batch(self, engine, batch)
            now = time.monotonic()
            self.samples["service.queue_wait_ms"].extend(
                (now - job.submitted_at) * 1e3 for job in batch.jobs
            )
            return int(batch.jobs[0].job_id.rpartition("-")[2])

        return {
            "ir.emit": {"on_result": lambda source: len(source.encode("utf-8"))},
            "batching.pack": {
                "on_result": lambda packed: (
                    sum(d.size for d in packed.domains) / packed.table.size
                )
            },
            "service.execute_batch": {"on_call": queue_wait},
        }

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans, one JSON object a line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _Operation:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self) -> None:
        stack = self.tracer._stack()
        self.span_id = next(self.tracer._ids)
        self.parent = stack[-1][0] if stack else None
        stack.append((self.span_id, self.op_id))
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            Span(self.span_id, "op", self.start, end, self.parent, self.op_id)
        )


def layer_metrics(tracer: Tracer, operations: int) -> Dict[str, float]:
    """Per-layer figures from the recorded spans.

    Times are self times in milliseconds per operation; counts are per
    operation. ``operations`` is the number of operations the traced
    interval completed (requests, on serve-mixed).
    """
    per_op = 1.0 / max(1, operations)
    own = self_times(tracer.spans)
    ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        ms[span.name] += own[span.span_id] / 1e6
        calls[span.name] += 1

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def mean(name: str) -> float:
        values = tracer.samples.get(name, [])
        return sum(values) / len(values) if values else 0.0

    lookups = calls["engine.schedule_for"] + calls["engine.prepare_map"]
    solves = calls["schedule.find"] + calls["schedule.derive_set"]
    launch_ms = ms["native.launch_run"] + ms["native.launch_batched"]
    roots = [s for s in tracer.spans if s.name in ("op", "service.execute_batch")]
    root_ms = sum(s.end - s.start for s in roots) / 1e6
    return {
        "lang.parse_ms": ms["lang.parse"] * per_op,
        "lang.check_ms": ms["lang.check"] * per_op,
        "schedule.solve_ms": (ms["schedule.find"] + ms["schedule.derive_set"]) * per_op,
        "schedule.solve_calls": solves * per_op,
        "schedule.memo_hit_ratio": 1.0 - ratio(solves, lookups) if lookups else 0.0,
        "verify.schedule_ms": ms["verify.schedule"] * per_op,
        "verify.schedule_calls": calls["verify.schedule"] * per_op,
        "verify.memo_hit_ratio": (
            1.0 - ratio(calls["verify.schedule"], calls["engine.verify_compiled"])
            if calls["engine.verify_compiled"] else 0.0
        ),
        "verify.races_ms": ms["verify.races"] * per_op,
        "ir.lower_ms": ms["ir.lower"] * per_op,
        "ir.emit_ms": ms["ir.emit"] * per_op,
        "ir.c_source_bytes": mean("ir.emit"),
        "native.cc_ms": ms["native.cc"] * per_op,
        "native.cc_calls": calls["native.cc"] * per_op,
        "native.probe_ms": ms["native.probe"] * per_op,
        "native.launch_ms": launch_ms * per_op,
        "engine.prepare_map_ms": ms["engine.prepare_map"] * per_op,
        "engine.build_context_ms": ms["engine.build_context"] * per_op,
        "engine.result_coords_ms": ms["engine.result_coords"] * per_op,
        "engine.domain_of_ms": ms["engine.domain_of"] * per_op,
        "engine.host_share": 1.0 - ratio(launch_ms, root_ms) if root_ms else 0.0,
        "gpu.kernel_cost_ms": ms["gpu.kernel_cost"] * per_op,
        "gpu.kernel_cost_calls": calls["gpu.kernel_cost"] * per_op,
        "batching.pack_ms": ms["batching.pack"] * per_op,
        "batching.useful_cell_ratio": mean("batching.pack"),
        **_rungs(tracer, roots),
        "service.exec_ms": ratio(
            sum(s.end - s.start for s in tracer.spans if s.name == "service.execute_batch") / 1e6,
            calls["service.execute_batch"],
        ),
        "service.queue_wait_ms": mean("service.queue_wait_ms"),
    }


def _rungs(tracer: Tracer, roots: List[Span]) -> Dict[str, float]:
    """Share of root spans (operations, or service batches) that ran a
    per-problem native launch, a batched native launch, or neither (a
    lower rung)."""
    parent = {s.span_id: s.parent for s in tracer.spans}
    root_ids = {s.span_id for s in roots}
    reached: Dict[str, set] = {"native.launch_run": set(), "native.launch_batched": set()}
    for span in tracer.spans:
        if span.name in reached:
            node = span.parent
            while node is not None and node not in root_ids:
                node = parent.get(node)
            if node is not None:
                reached[span.name].add(node)
    count = max(1, len(roots))
    native = reached["native.launch_run"] | reached["native.launch_batched"]
    return {
        "engine.rung.native": len(reached["native.launch_run"]) / count,
        "engine.rung.native-batched": len(reached["native.launch_batched"]) / count,
        "engine.rung.other": (len(roots) - len(native)) / count,
    }
