"""The benchmark's four workloads.

Each workload sets the program up (engine or service start-up and
warm-up, so every per-size memo is hot where the workload wants it
hot), then runs timed operations through the public API until the
interval ends, keeping each output; the outputs are checked against
``perfbench.oracles`` afterwards, outside the timed interval.

Which layers each workload loads and which it bypasses is recorded in
``BENCHMARK.json`` and in :attr:`Workload.reaches` /
:attr:`Workload.bypasses`, which the traced run checks against the
spans it recorded, so a renamed function cannot silently zero a layer.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

from . import inputs, oracles


class BenchError(RuntimeError):
    """The benchmark cannot measure what it is meant to measure."""


@dataclass
class Phase:
    """What one measuring interval produced."""

    #: Seconds per completed operation (serve-mixed: from due time).
    latencies: List[float] = field(default_factory=list)
    #: DP cells each completed operation computed.
    cells: List[int] = field(default_factory=list)
    #: Open loop only: first due time to last completion, the host
    #: seconds all the cells took. (In a closed loop the operations'
    #: own latencies are that time.)
    open_loop_seconds: float = 0.0
    #: Simulated GTX-480 seconds per operation, read after its timer.
    sim_seconds: List[float] = field(default_factory=list)
    #: Operations that raised, were refused or did not finish.
    failed: int = 0
    #: serve-mixed: requests that failed or exceeded the latency limit,
    #: and how late the generator sent each request.
    misses: int = 0
    late: List[float] = field(default_factory=list)


def require_native() -> None:
    """Fail loudly when the native rung cannot run here, rather than
    time a lower rung under the same workload name."""
    from repro.runtime import native

    verdict = native.available()
    if not verdict.ok:
        raise BenchError(f"native backend unavailable: {verdict.detail}")


class Workload:
    """Set-up, timed operations and checks of one workload."""

    name = ""
    #: Span names the traced run must record on this workload.
    reaches: frozenset = frozenset()
    #: Span names the traced run must not record on this workload.
    bypasses: frozenset = frozenset()

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.attempted = 0
        #: One line per operation that raised or disagreed with its
        #: reference.
        self.failures: List[str] = []
        #: Ways in which what ran is not what the workload intends
        #: (wrong rung, a demotion, a warm cache on compile-cold).
        self.problems: List[str] = []

    def fail(self, index: int, reason: str) -> None:
        self.failures.append(f"{self.name} operation {index}: {reason}")

    # -- the parts each workload defines -------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        """One timed operation; returns what :meth:`after_op` reads."""
        raise NotImplementedError

    def before_op(self, index: int) -> None:
        """Untimed preparation of operation ``index``."""

    def after_op(self, index: int, outcome, phase: Phase) -> int:
        """Keep the output for checking; returns the cells computed."""
        raise NotImplementedError

    def verify_outputs(self) -> None:
        """Compare every kept output with the independent reference."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cache and demotion counters, for deltas over a phase."""
        raise NotImplementedError

    def check_pins(self) -> None:
        """Record in :attr:`problems` anything that ran off-plan."""

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Closed loop: the next operation starts when one ends."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while True:
            index = self.attempted
            self.attempted += 1
            self.before_op(index)
            started = time.perf_counter()
            try:
                if tracer is None:
                    outcome = self.op(index)
                else:
                    with tracer.operation(index):
                        outcome = self.op(index)
            except Exception as err:  # counted into fail_ratio
                self.fail(index, f"raised {type(err).__name__}: {err}")
                phase.failed += 1
                outcome = None
            elapsed = time.perf_counter() - started
            if outcome is not None:
                phase.latencies.append(elapsed)
                phase.cells.append(self.after_op(index, outcome, phase))
            if time.perf_counter() >= deadline:
                return phase

    def layer_extras(self, before: Dict[str, float], after: Dict[str, float],
                     phase: Phase) -> Dict[str, float]:
        """Per-layer figures that come from counters, not spans."""
        from repro.runtime import native

        delta = {key: after[key] - before.get(key, 0) for key in after}
        ops = max(1, len(phase.latencies) + phase.failed)
        lookups = delta["hits"] + delta["misses"]
        return {
            "cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "cache.misses": delta["misses"] / ops,
            "engine.demotions": delta["demotions"] / ops,
            "native.threads": float(native.effective_threads()),
            "gpu.sim_device_ms": (
                statistics.fmean(phase.sim_seconds) * 1e3 if phase.sim_seconds else 0.0
            ),
            "service.batch_size_mean": (
                delta.get("batched_jobs", 0) / delta["batches"]
                if delta.get("batches") else 0.0
            ),
            "service.shed": delta.get("shed", 0) / ops,
            "service.retries": delta.get("retries", 0) / ops,
            "service.miss_ratio": phase.misses / ops if phase.open_loop_seconds else 0.0,
            "service.generator_late_ms": (
                statistics.fmean(phase.late) * 1e3 if phase.late else 0.0
            ),
        }


def _engine_counters(engine) -> Dict[str, float]:
    info = engine.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "demotions": engine.native_demotions,
    }


class AlignLarge(Workload):
    """Warm Smith-Waterman over a few large protein pairs, cycled.

    The native C launch does nearly all the work; the verifier's brute
    force (domain above its cap), batching and the service do none.
    """

    name = "align-large"
    reaches = frozenset({
        "engine.domain_of", "engine.schedule_for", "engine.verify_compiled",
        "engine.build_context", "engine.result_coords", "gpu.kernel_cost",
        "native.launch_run",
    })
    bypasses = frozenset({
        "lang.parse", "schedule.find", "verify.schedule", "ir.lower",
        "native.cc", "native.probe", "engine.prepare_map", "batching.pack",
        "native.launch_batched", "service.execute_batch",
    })

    def setup(self) -> None:
        from repro.apps.smith_waterman import SmithWaterman
        from repro.runtime.engine import Engine
        from repro.runtime.values import PROTEIN, Sequence

        require_native()
        length = 128 if self.quick else 2048
        self.pairs = [
            (Sequence(q, PROTEIN), Sequence(d, PROTEIN))
            for q, d in inputs.align_pairs(self.seed, length)
        ]
        self.sw = SmithWaterman(Engine())
        for q, d in self.pairs:
            self.sw.align(q, d)
        self.values: List[tuple] = []

    def op(self, index: int):
        q, d = self.pairs[index % len(self.pairs)]
        return self.sw.align(q, d)

    def after_op(self, index: int, result, phase: Phase) -> int:
        pair = index % len(self.pairs)
        self.values.append((index, pair, result.value))
        phase.sim_seconds.append(result.seconds)
        q, d = self.pairs[pair]
        return len(q) * len(d)

    def verify_outputs(self) -> None:
        references = oracles.smith_waterman_scores(
            self.pairs, self.sw.matrix, self.sw.gap
        )
        for index, pair, value in self.values:
            if value != references[pair]:
                self.fail(index, f"score {value} != reference {references[pair]}")

    def counters(self) -> Dict[str, float]:
        return _engine_counters(self.sw.engine)

    def check_pins(self) -> None:
        backends = dict(self.sw.engine.cache_info().backends)
        if set(backends) != {"native"}:
            self.problems.append(f"align-large compiled {backends}, expected native only")
        if self.sw.engine.native_demotions:
            self.problems.append(
                f"align-large: {self.sw.engine.native_demotions} native demotions"
            )


class SearchMap(Workload):
    """The Figure 14 search: a warm log-space profile forward over one
    64-sequence database of varied lengths, lane-batched natively.

    Host preparation (schedule set, verification memo, packing,
    simulated cost) is a large share of each search; lane padding
    wastes cells.
    """

    name = "search-map"
    reaches = frozenset({
        "engine.prepare_map", "schedule.derive_set", "engine.verify_compiled",
        "engine.domain_of", "engine.result_coords", "gpu.kernel_cost",
        "batching.pack", "native.launch_batched",
    })
    bypasses = frozenset({
        "lang.parse", "schedule.find", "verify.schedule", "native.cc",
        "native.probe", "native.launch_run", "service.execute_batch",
    })

    def setup(self) -> None:
        from repro.apps.profile_hmm import ProfileSearch, tk_model
        from repro.runtime.engine import Engine
        from repro.runtime.values import PROTEIN, Sequence

        require_native()
        count, mean = (8, 40) if self.quick else (64, 240)
        self.texts = inputs.search_database(self.seed, count, mean)
        self.database = [Sequence(text, PROTEIN) for text in self.texts]
        self.profile = tk_model()
        self.search = ProfileSearch(self.profile, Engine(prob_mode="logspace"))
        self.cells_per_search = self.profile.n_states * sum(map(len, self.texts))
        for _ in range(2):
            self.search.search(self.database)
        self.values: List[tuple] = []

    def op(self, index: int):
        return self.search.search(self.database)

    def after_op(self, index: int, result, phase: Phase) -> int:
        run = result.map_result
        if (
            run.batched_backends != ["native-batched"]
            or run.lane_batched_problems != len(self.database)
        ):
            self.problems.append(
                f"search-map operation {index} ran groups {run.batched_backends} "
                f"covering {run.lane_batched_problems} of {len(self.database)} problems"
            )
        self.values.append((index, result.likelihoods))
        phase.sim_seconds.append(result.seconds)
        return self.cells_per_search

    def verify_outputs(self) -> None:
        references = [oracles.log_forward(self.profile, text) for text in self.texts]
        for index, likelihoods in self.values:
            for k, (value, reference) in enumerate(zip(likelihoods, references)):
                if not oracles.likelihood_matches(value, reference):
                    self.fail(
                        index,
                        f"sequence {k}: likelihood {value!r} != exp({reference!r})",
                    )
                    break

    def counters(self) -> Dict[str, float]:
        return _engine_counters(self.search.engine)

    def check_pins(self) -> None:
        if self.search.engine.native_demotions:
            self.problems.append(
                f"search-map: {self.search.engine.native_demotions} native demotions"
            )


class CompileCold(Workload):
    """A new program per operation, compiled from text and run once.

    Each operation gets a fresh ``Engine`` and an empty native build
    directory, so parse, check, schedule, verify, lower, emit, ``cc``
    and the dlopen probe all run; this is the only workload that
    writes the kernel cache instead of reading it.
    """

    name = "compile-cold"
    reaches = frozenset({
        "lang.parse", "lang.check", "schedule.find", "engine.verify_compiled",
        "verify.schedule", "verify.races", "ir.lower", "ir.emit", "native.cc",
        "native.probe", "native.launch_run", "gpu.kernel_cost",
    })
    bypasses = frozenset({
        "engine.prepare_map", "batching.pack", "native.launch_batched",
        "service.execute_batch",
    })

    def setup(self) -> None:
        from repro.runtime.engine import Engine
        from repro.runtime.program import ProgramRunner

        require_native()
        self.Engine, self.ProgramRunner = Engine, ProgramRunner
        length = 12 if self.quick else 32
        self.programs = inputs.compile_cold_programs(self.seed, length)
        # One throwaway program from another stream loads the lazily
        # imported modules, so the first timed operation is not also
        # the process's first compile.
        warm = next(inputs.compile_cold_programs(f"{self.seed}-warmup", length))
        self._build_dir("warmup")
        ProgramRunner(Engine()).run_text(warm.text)
        self.totals = {"hits": 0, "misses": 0, "demotions": 0}
        self.values: List[tuple] = []

    def _build_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, f"cold-{label}")
        os.makedirs(path)
        os.environ["REPRO_NATIVE_CACHE_DIR"] = path
        return path

    def before_op(self, index: int) -> None:
        self.spec = next(self.programs)
        self.build_dir = self._build_dir(str(index))

    def op(self, index: int):
        engine = self.Engine()
        return engine, self.ProgramRunner(engine).run_text(self.spec.text)

    def after_op(self, index: int, outcome, phase: Phase) -> int:
        engine, result = outcome
        counts = _engine_counters(engine)
        for key in self.totals:
            self.totals[key] += counts[key]
        backends = dict(engine.cache_info().backends)
        if backends != {"native": 1} or counts["misses"] != 1:
            self.problems.append(
                f"compile-cold operation {index}: cache {backends}, "
                f"{counts['misses']} misses; expected one native miss"
            )
        if not any(name.endswith(".so") for name in os.listdir(self.build_dir)):
            self.problems.append(f"compile-cold operation {index}: no cc output")
        shutil.rmtree(self.build_dir, ignore_errors=True)
        self.values.append((index, self.spec, result.last))
        phase.sim_seconds.append(result.runs[-1].seconds)
        return self.spec.cells

    def verify_outputs(self) -> None:
        for index, spec, value in self.values:
            try:
                reference = oracles.program_reference(spec)
            except Exception as err:  # the reference itself broke
                self.fail(index, f"reference raised {type(err).__name__}: {err}")
                continue
            if not oracles.values_match(value, reference):
                self.fail(index, f"{spec.kind}: {value!r} != reference {reference!r}")

    def counters(self) -> Dict[str, float]:
        return dict(self.totals)

    def check_pins(self) -> None:
        if self.totals["misses"] != len(self.values):
            self.problems.append(
                f"compile-cold: {self.totals['misses']} kernel-cache misses "
                f"for {len(self.values)} operations"
            )


class ServeMixed(Workload):
    """An in-process service under an open loop at a fixed rate.

    Bursts of fixed-length reads share a batch group key, coalesce
    and hit every memo; between bursts, a variable-length edit
    distance carries its own result coordinates, never coalesces, and
    pays the verifier's brute-force edge walk on its new domain
    (``inputs.serve_requests``). Latency counts from each request's
    due time.
    """

    name = "serve-mixed"
    #: Events per second: alternately a burst of ``inputs.BURST``
    #: reads and one variable-length request, 15 requests a second, at
    #: which the service keeps up on a 2-core host with no growing
    #: backlog.
    EVENTS_PER_SECOND = 6.0
    #: A request slower than this (from its due time) counts as missed.
    LATENCY_LIMIT = 1.0
    #: How long the drain after the last request may take.
    DRAIN_SECONDS = 60.0
    reaches = frozenset({
        "service.execute_batch", "engine.prepare_map", "schedule.derive_set",
        "engine.verify_compiled", "verify.schedule", "batching.pack",
        "native.launch_batched", "native.launch_run",
    })
    bypasses = frozenset({"lang.parse", "native.cc", "native.probe", "schedule.find"})

    def setup(self) -> None:
        from repro.service.server import ComputeService

        require_native()
        read_length, points = (16, 256) if self.quick else (48, 1600)
        self.requests = inputs.serve_requests(self.seed, read_length, points)
        self.next_request = next(self.requests)
        self.service = ComputeService(workers=os.cpu_count() or 1)
        # Warm-up domains are smaller than any timed one, so that no
        # timed request's domain is already in a verifier memo.
        warm = inputs.serve_requests(f"{self.seed}-warmup", read_length, points // 4)
        handles = [
            self.service.submit(
                inputs.SERVE_PROGRAM, request.function, request.args,
                reduce=request.reduce,
            )
            for request in [next(warm) for _ in range(inputs.BURST + 1)]
        ]
        for handle in handles:  # a burst: the batched rung warms too
            handle.result(self.DRAIN_SECONDS)
        self.values: List[tuple] = []

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Open loop; a traced run's spans come from the worker threads
        (``service.execute_batch`` roots), so ``tracer`` is unused."""
        phase = Phase()
        start = time.monotonic()
        first_event = self.next_request.event
        sent = []
        while True:
            request = self.next_request
            due = start + (request.event - first_event) / self.EVENTS_PER_SECOND
            if due >= start + seconds:
                break
            self.next_request = next(self.requests)
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            index = self.attempted
            self.attempted += 1
            submitted = time.monotonic()
            phase.late.append(submitted - due)
            try:
                handle = self.service.submit(
                    inputs.SERVE_PROGRAM, request.function, request.args,
                    reduce=request.reduce,
                )
            except Exception as err:  # refused: a miss and a failure
                self.fail(index, f"refused: {type(err).__name__}: {err}")
                phase.failed += 1
                phase.misses += 1
                continue
            sent.append((index, request, due, time.monotonic(), handle))
        drain_deadline = time.monotonic() + self.DRAIN_SECONDS
        last_done = start
        for index, request, due, accepted, handle in sent:
            if not handle.wait(max(0.0, drain_deadline - time.monotonic())):
                self.fail(index, "not finished by the end of the drain")
                phase.failed += 1
                phase.misses += 1
                continue
            if handle.error is not None:
                self.fail(index, f"raised {type(handle.error).__name__}: {handle.error}")
                phase.failed += 1
                phase.misses += 1
                continue
            # ``latency_seconds`` runs from the job's creation inside
            # ``submit``; adding ``accepted - due`` counts the
            # generator's lateness and the submit call too (and a few
            # microseconds of ``submit`` twice).
            latency = (accepted - due) + handle.latency_seconds
            last_done = max(last_done, accepted + handle.latency_seconds)
            if latency > self.LATENCY_LIMIT:
                phase.misses += 1
            phase.latencies.append(latency)
            phase.cells.append(request.cells)
            self.values.append((index, request, handle.result(0)))
        phase.open_loop_seconds = last_done - start
        return phase

    def verify_outputs(self) -> None:
        for index, request, value in self.values:
            args = request.args
            if request.fixed:
                reference = oracles.local_alignment_score(
                    args["q"], args["d"], inputs.SERVE_MATCH,
                    inputs.SERVE_MISMATCH, inputs.SERVE_GAP,
                )
            else:
                reference = oracles.edit_distance(args["s"], args["t"])
            if value != reference:
                self.fail(index, f"{request.function}: {value!r} != reference {reference!r}")

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats()
        return {
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
            "demotions": stats.demotions_native,
            "batches": stats.batches,
            "batched_jobs": stats.batched_jobs,
            "shed": stats.shed,
            "retries": stats.retries,
        }

    def check_pins(self) -> None:
        stats = self.service.stats()
        if stats.demotions_native:
            self.problems.append(f"serve-mixed: {stats.demotions_native} native demotions")
        backends = dict(self.service.kernel_cache.cache_info().backends)
        if set(backends) != {"native"}:
            self.problems.append(f"serve-mixed compiled {backends}, expected native only")

    def close(self) -> None:
        self.service.shutdown(drain=True, timeout=self.DRAIN_SECONDS)


WORKLOADS = {cls.name: cls for cls in (AlignLarge, SearchMap, CompileCold, ServeMixed)}
