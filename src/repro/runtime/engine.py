"""The end-to-end engine: parse -> check -> schedule -> synthesise -> run.

:class:`Engine` is the public entry point of the library. It owns

* the schedule search (automatic, Section 4.6 — or verification of a
  user-provided schedule, Section 4.5);
* kernel compilation (polyhedral nest + lowered cell expression) with
  an LRU-bounded cache keyed by a content hash of (function source
  form, schedule, probability mode, backend) — the paper caches
  generated code per function to amortise the ~1 s CLooG overhead
  (Section 6); pass ``kernel_cache=PersistentKernelCache(dir)`` to
  persist compilation products across processes;
* context preparation (device layout of sequences, matrices, models);
* single-problem runs and ``map`` runs over problem collections with
  conditional parallelisation (Section 4.7);
* the simulated device's functional execution and analytic timing.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from typing import Sequence as Seq

import numpy as np

from ..analysis.domain import Domain
from ..extensions.hmm import Hmm
from ..gpu.device import ProblemCost, SimulatedDevice, LaunchReport
from ..gpu.spec import GTX480
from ..gpu.timing import (
    KernelCost,
    batched_launch_cost,
    inter_task_seconds,
    kernel_cost,
    partition_sizes,
    problems_per_sm,
)
from ..ir.kernel import Kernel, build_kernel
from ..ir.pybackend import compile_kernel
from ..lang import ast
from ..lang.errors import CodegenError, RuntimeDslError, ScheduleError
from ..lang.typecheck import CheckedFunction
from ..lang.types import (
    HmmType,
    IndexType,
    IntType,
    MatrixType,
    SeqType,
    StateType,
    TransitionType,
)
from ..schedule.multi import ScheduleSet, derive_schedule_set
from ..schedule.schedule import Schedule
from ..schedule.solver import DEFAULT_BOUND, find_schedule
from ..service.cache import (
    CacheInfo,
    LRUKernelCache,
    kernel_cache_key,
)
from .interpreter import domain_extents
from .values import Bindings, Sequence

#: Default bound of the engine's in-memory kernel cache.
DEFAULT_CACHE_CAPACITY = 256

#: Below this maximum domain extent the ladder prefers scalar over
#: vector: NumPy's per-op dispatch overhead loses to the scalar loop on
#: tiny partitions (BENCH_backend.json measured the crossover between
#: sizes 64 and 128). It never gates native, which wins at every size.
VECTOR_CROSSOVER = 96


def size_bucket(domain: Optional[Domain]) -> Optional[bool]:
    """Is ``domain`` at or above the vector crossover? (None: unknown,
    which the ladder treats as large.)"""
    if domain is None:
        return None
    return max(domain.extents) >= VECTOR_CROSSOVER


def next_rung(
    kernel: Kernel, rung: str, bucket: Optional[bool] = None
) -> str:
    """The rung below ``rung`` for ``kernel`` on the ladder
    native > vector > scalar.

    Leaving native lands on vector when the kernel is vector-eligible
    and its domain is not known to be under the crossover
    (``bucket=False``); otherwise, and from vector or scalar, it lands
    on scalar, the floor every kernel supports.
    """
    if rung == "native" and bucket is not False:
        from ..ir import npbackend

        if npbackend.eligibility(kernel).ok:
            return "vector"
    return "scalar"


@dataclass
class CompiledKernel:
    """A cached compilation product.

    ``run`` accepts optional ``part_lo``/``part_hi`` keyword
    arguments clamping execution to a partition range (the resilience
    supervisor's replay unit). ``backend`` names the code generator
    that produced ``source`` — the divergence oracle picks its
    reference backend from it.
    """

    kernel: Kernel
    run: object  # the compiled callable (T, ctx, part_lo, part_hi) -> T
    source: str
    compile_seconds: float
    backend: str = "scalar"
    batched_run: object = None  # lazy lane-batched twin (vector only)
    batched_source: Optional[str] = None
    #: Lazy batched-native callable (native backend only) — the
    #: ``repro_<name>_batched`` entry of the same shared object.
    batched_native_run: object = None
    #: Path of the compiled shared object (native backend only).
    so_path: Optional[str] = None

    @property
    def schedule(self) -> Schedule:
        """The schedule this kernel was compiled for."""
        return self.kernel.schedule

    @property
    def eligibility(self):
        """The vector-backend verdict for this kernel — rule id plus
        the human sentence (``python -m repro explain`` prints it)."""
        from ..ir import npbackend

        return npbackend.eligibility(self.kernel)

    @property
    def native_eligibility(self):
        """The native (C99) backend verdict for this kernel."""
        from ..ir import cbackend

        return cbackend.native_eligibility(self.kernel)

    def ensure_batched(self):
        """Compile (once) and return the lane-batched twin kernel.

        Only meaningful for vector-backend products; the batched
        generator shares the vector backend's eligibility rules.
        """
        if self.batched_run is None:
            from ..ir import npbackend

            self.batched_run, self.batched_source = (
                npbackend.compile_batched_kernel(self.kernel)
            )
        return self.batched_run

    def ensure_batched_native(self):
        """Load (once) and return the batched-native callable.

        Only meaningful for native-backend products: the
        ``repro_<name>_batched`` entry lives in the *same* shared
        object as the per-problem run, so this is a symbol load, not
        a compile. Raises
        :class:`~repro.lang.errors.NativeBuildError` when this is not
        a native product or the artifact cannot serve the symbol
        (e.g. a stale shared-cache ``.so`` from before the batched
        entry existed) — callers demote to the vector-batched rung.
        """
        if self.batched_native_run is None:
            from ..lang.errors import NativeBuildError
            from . import native as native_rt

            if self.backend != "native" or not self.so_path:
                raise NativeBuildError(
                    f"kernel {self.kernel.name!r} compiled on the "
                    f"{self.backend!r} backend; batched-native needs "
                    f"a native product"
                )
            try:
                self.batched_native_run = native_rt.load_batched(
                    self.kernel, self.so_path
                )
            except (OSError, AttributeError) as err:
                raise NativeBuildError(
                    f"batched entry unavailable in "
                    f"{self.so_path}: {err}"
                ) from err
        return self.batched_native_run

    def cuda_source(self, windowed: bool = False) -> str:
        """The synthesised CUDA text; ``windowed=True`` emits the
        Section 4.8 shared-memory variant (uniform descents only)."""
        from ..ir.cuda import emit_cuda

        return emit_cuda(self.kernel, windowed=windowed)


@dataclass
class RunResult:
    """One problem solved on the simulated device."""

    value: object
    table: np.ndarray
    kernel: Kernel
    domain: Domain
    cost: KernelCost
    report: LaunchReport

    @property
    def schedule(self) -> Schedule:
        """The schedule the kernel ran under."""
        return self.kernel.schedule

    @property
    def seconds(self) -> float:
        """Total simulated launch time."""
        return self.report.total_seconds


@dataclass
class MapResult:
    """A ``map`` workload solved on the simulated device."""

    values: List[object]
    report: LaunchReport
    schedule_usage: Dict[Tuple[int, ...], int]
    costs: List[KernelCost] = field(repr=False, default_factory=list)
    parallelism: str = "intra"
    #: Lane-batched execution accounting: how many packed groups ran
    #: as single vectorised sweeps, covering how many problems, and
    #: their amortised analytic costs (one sync per *global*
    #: partition — see ``gpu.timing.batched_launch_cost``).
    lane_batches: int = 0
    lane_batched_problems: int = 0
    batched_costs: List[KernelCost] = field(
        repr=False, default_factory=list
    )
    #: Which rung each packed group actually ran on, in group order
    #: (``"native-batched"`` / ``"vector-batched"`` /
    #: ``"scalar-batched"`` after demotions).
    batched_backends: List[str] = field(default_factory=list)
    #: For a log-space kernel, each problem's raw table value (its
    #: log-probability), in problem order; empty otherwise. ``values``
    #: holds ``exp`` of these, which underflows to 0.0 on long inputs.
    log_values: List[Optional[float]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Total simulated launch time."""
        return self.report.total_seconds


class Engine:
    """Compiles and runs DSL functions on the simulated GPU.

    ``cache_hits``/``cache_misses`` count kernel-cache lookups. A
    single run looks up once; a ``map`` looks up once per distinct
    (schedule, size bucket) among its problems, not once per problem.
    """

    def __init__(
        self,
        prob_mode: str = "direct",
        backend: Optional[str] = None,
        kernel_cache: Optional[LRUKernelCache] = None,
        batching: bool = True,
        verify: str = "schedule",
        sanitize: bool = False,
        schedule: str = "min-partition",
    ) -> None:
        # ``backend=None`` (the default) defers to the REPRO_BACKEND
        # environment variable, then "auto". An env-provided backend
        # is a *preference* (it degrades gracefully when, say, no C
        # compiler exists); an explicit argument is *forced* and
        # raises instead of degrading.
        self.backend_forced = backend is not None
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "auto"
        if backend not in ("auto", "scalar", "vector", "native"):
            raise ValueError(f"unknown backend {backend!r}")
        if verify not in ("off", "schedule", "full"):
            raise ValueError(f"unknown verify mode {verify!r}")
        if schedule not in ("min-partition", "autotune"):
            raise ValueError(f"unknown schedule mode {schedule!r}")
        # Every figure of the paper runs on one device.
        self.spec = GTX480
        self.device = SimulatedDevice(self.spec)
        self.prob_mode = prob_mode
        self.backend = backend
        #: Lane-batch eligible ``map`` groups into single vectorised
        #: sweeps (Section 6.1's inter-task parallelism, functionally).
        self.batching = batching
        # LRU-bounded by default; pass a shared
        # ``service.cache.PersistentKernelCache`` to keep compilation
        # products across processes (and across a worker pool).
        # NB ``is not None``: an empty cache is falsy (it has __len__).
        self._cache = (
            kernel_cache
            if kernel_cache is not None
            else LRUKernelCache(DEFAULT_CACHE_CAPACITY)
        )
        self.cache_hits = 0
        self.cache_misses = 0
        #: ``"off"`` trusts the solver; ``"schedule"`` (the default)
        #: independently re-proves every schedule before first use;
        #: ``"full"`` adds the IR access/initialization analysis.
        self.verify = verify
        #: Route execution through the runtime table sanitizer
        #: (poison-filled tables, partition-barrier checks).
        self.sanitize = sanitize
        self.verified_schedules = 0
        self.verify_failures = 0
        #: Launches re-routed off the native backend by
        #: :meth:`demote`: a sandbox worker crash or hang, an open
        #: circuit breaker, or a batched entry that cannot load (the
        #: service stats endpoint sums this across its worker engines).
        self.native_demotions = 0
        self._verdicts: Dict[tuple, tuple] = {}
        # Memoised rung choice: (content hash, size bucket) -> rung.
        # Keeps the ladder's eligibility probes off the hot path and
        # makes the kernel cache key on the *chosen* rung.
        self._rungs: Dict[tuple, str] = {}
        # Memoised schedule search: (function identity, domain
        # extents) -> schedule. A lane-batched map
        # group solves one schedule for the whole batch instead of
        # one per member — on a 64-problem profile search the solver
        # otherwise dominates the host-side cost of the launch. The
        # function object rides along in the value to pin its id.
        self._schedules: Dict[tuple, tuple] = {}
        #: ``"min-partition"`` keeps the Section 4.6 solver's answer;
        #: ``"autotune"`` runs the cost-model-guided portfolio search
        #: (``schedule.autotune``), memoised per exact extents and
        #: persisted per (kernel digest, size bucket) in the kernel
        #: cache so warm processes skip the search entirely.
        self.schedule_mode = schedule
        self.autotune_searches = 0
        self.autotune_hits = 0
        #: The most recent AutotuneResult (``explain`` reports it).
        self.last_autotune = None

    def cache_info(self) -> CacheInfo:
        """Counter snapshot of the kernel cache (both tiers), extended
        with this engine's verification counters."""
        return self._cache.cache_info()._replace(
            verified=self.verified_schedules,
            verify_failures=self.verify_failures,
            autotune_searches=self.autotune_searches,
            autotune_hits=self.autotune_hits,
        )

    # -- verification ---------------------------------------------------------

    def verify_compiled(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Domain,
    ):
        """Run the independent verifier, per the engine's mode.

        Verdicts are memoised on the same content hash the kernel
        cache keys on (plus the concrete extents), so re-running a
        cached kernel costs one dict probe. Raises
        :class:`~repro.lang.errors.VerificationError` when any
        error-severity diagnostic survives; returns the certificate
        (or None when verification is off or the descents are outside
        the single-function verifier's scope).
        """
        if self.verify == "off":
            return None
        key = (
            kernel_cache_key(func, schedule, self.prob_mode, "verify"),
            tuple(domain.extents),
        )
        cached = self._verdicts.get(key)
        if cached is None:
            from ..lang.errors import AnalysisError
            from ..verify import analyze_access, verify_schedule

            try:
                certificate, diagnostics = verify_schedule(
                    func, schedule, domain
                )
            except AnalysisError:
                # Mutual groups / non-affine descents: out of the
                # single-function verifier's scope, not a failure.
                self._verdicts[key] = (None, ())
                return None
            diagnostics = list(diagnostics)
            if self.verify == "full":
                diagnostics += analyze_access(
                    func, domain,
                    schedule=schedule, prob_mode=self.prob_mode,
                )
                # Parallel-safety certificates on the real extents: a
                # refused axis is a warning (the native build simply
                # goes serial there), never a VerificationError.
                from ..ir.kernel import build_kernel
                from ..verify.races import analyze_parallelism

                try:
                    parallel = analyze_parallelism(
                        build_kernel(
                            func, schedule, prob_mode=self.prob_mode
                        ),
                        extents=domain.extents,
                    )
                except AnalysisError:
                    parallel = None
                if parallel is not None:
                    diagnostics += parallel.diagnostics()
            errors = tuple(
                d for d in diagnostics if d.severity == "error"
            )
            cached = (certificate, errors)
            self._verdicts[key] = cached
            if errors:
                self.verify_failures += 1
            else:
                self.verified_schedules += 1
        certificate, errors = cached
        if errors:
            from ..lang.errors import VerificationError

            raise VerificationError(
                "verification failed for "
                f"{func.name!r}:\n"
                + "\n".join(d.render() for d in errors),
                errors[0].span,
            )
        return certificate

    # -- the execution ladder -------------------------------------------------

    def _pick_rung(self, kernel: Kernel, bucket: Optional[bool]) -> str:
        """Resolve this engine's backend mode to a rung for one kernel.

        ``auto`` (and a ``REPRO_BACKEND=native`` preference) takes
        native when the toolchain and the kernel allow it, else the
        next rung down; a forced backend the kernel cannot take raises
        a :class:`CodegenError` naming the violated rule.
        """
        if self.backend == "scalar":
            return "scalar"
        if self.backend == "vector":
            from ..ir import npbackend

            verdict = npbackend.eligibility(kernel)
            if not verdict.ok:
                # Fail up front with the *rule* that was violated,
                # rather than letting the generator die mid-emission.
                raise CodegenError(
                    f"backend='vector' was forced but kernel "
                    f"{kernel.name!r} is not eligible "
                    f"[{verdict.rule}]: {verdict.detail}"
                )
            return "vector"
        forced = self.backend == "native" and self.backend_forced
        if self.sanitize:
            if forced:
                raise CodegenError(
                    "backend='native' cannot run sanitized: the "
                    "sanitizer instruments the generated Python "
                    "partition loop, which machine code does not "
                    "have"
                )
        else:
            from ..ir.cbackend import native_eligibility
            from . import native as native_rt

            verdict = native_rt.available()
            if verdict.ok:
                verdict = native_eligibility(kernel)
            if verdict.ok:
                return "native"
            if forced:
                raise CodegenError(
                    f"backend='native' was forced but kernel "
                    f"{kernel.name!r} cannot use it "
                    f"[{verdict.rule}]: {verdict.detail}"
                )
        return next_rung(kernel, "native", bucket)

    def compile(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Optional[Domain] = None,
    ) -> CompiledKernel:
        """Compile (or fetch) the kernel for one schedule.

        Backend choice: ``native`` emits C99 and JIT-compiles it with
        the system C compiler (whole runs execute as machine code);
        ``vector`` evaluates whole partitions as NumPy array
        operations when the kernel is eligible (2-D, no reductions);
        ``scalar`` is the cell-at-a-time generator; ``auto`` walks the
        ladder native > vector > scalar, preferring scalar/native over
        vector below the measured crossover extent when ``domain`` is
        given. The cache keys on the *resolved* backend, so a warm
        native entry is found again regardless of the engine's mode.
        """
        from ..lang.errors import NativeBuildError

        bucket = size_bucket(domain)
        rkey = (
            kernel_cache_key(func, schedule, self.prob_mode, "resolve"),
            bucket,
        )
        rung = self._rungs.get(rkey)
        kernel = None
        if rung is None:
            kernel = build_kernel(func, schedule, self.prob_mode)
            rung = self._rungs[rkey] = self._pick_rung(kernel, bucket)
        try:
            return self._compile_on(func, schedule, rung, kernel)
        except NativeBuildError as err:
            if self.backend == "native" and self.backend_forced:
                # Name the failure the way a forced-vector
                # CodegenError names its eligibility rule, so
                # callers see which toolchain step broke.
                raise NativeBuildError(
                    f"backend='native' was forced but kernel "
                    f"{func.name!r} failed to build "
                    f"[build-failed]: {err.message}",
                    err.span,
                ) from err
        # Eligibility said yes but the toolchain said no (compiler
        # rejection, dead probe). Permanent for this kernel: every
        # memoised size drops down the ladder, so later calls skip
        # the doomed build.
        kernel = kernel or build_kernel(func, schedule, self.prob_mode)
        for key, chosen in list(self._rungs.items()):
            if key[0] == rkey[0] and chosen == "native":
                self._rungs[key] = next_rung(kernel, "native", key[1])
        return self._compile_on(func, schedule, self._rungs[rkey], kernel)

    def _compile_on(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        rung: str,
        kernel: Optional[Kernel] = None,
    ) -> CompiledKernel:
        """Compile (or fetch) the kernel on one rung, through the
        kernel cache — the only place a :class:`CompiledKernel` is
        built."""
        key = kernel_cache_key(func, schedule, self.prob_mode, rung)
        cached = self._cache.lookup(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        started = time.perf_counter()
        if kernel is None:
            kernel = build_kernel(func, schedule, self.prob_mode)
        so_path = None
        if rung == "native":
            from . import native as native_rt

            run, source, so_path = native_rt.compile_native(kernel)
        elif rung == "vector":
            from ..ir import npbackend

            run, source = npbackend.compile_vector_kernel(kernel)
        else:
            run, source = compile_kernel(kernel)
        compiled = CompiledKernel(
            kernel, run, source, time.perf_counter() - started,
            backend=rung, so_path=so_path,
        )
        self._cache.store(key, compiled)
        return compiled

    def demote(self, launch, domain: Optional[Domain] = None):
        """Move a compiled kernel or batched launch one rung down.

        The ladder's one demotion step, shared by :meth:`launch`,
        :meth:`batched_launch` and the resilience supervisor. A
        batched launch drops its rung in place; a compiled kernel is
        compiled on the next rung through the kernel cache, sized by
        ``domain`` (packed groups and the supervisor pass none, so
        they take vector whenever the kernel is eligible). Each launch
        leaving native counts once in :attr:`native_demotions`.
        """
        from .batching import BatchedLaunch

        batched = isinstance(launch, BatchedLaunch)
        rung = launch.rung if batched else launch.backend
        if rung == "native":
            self.native_demotions += 1
        lower = next_rung(launch.kernel, rung, size_bucket(domain))
        if batched:
            launch.rung = lower
            return launch
        kernel = launch.kernel
        return self._compile_on(kernel.func, kernel.schedule, lower, kernel)

    def launch(self, launch, table, ctx, domain: Domain):
        """The default launch step: run a compiled kernel or batched
        launch into ``table``.

        ``domain`` is the problem's (a packed group's padded domain).
        A sanitized engine runs the table sanitizer instead. A
        sandboxed native launch that dies (worker crash, deadline
        kill, open circuit breaker) leaves ``table`` untouched: the
        launch is demoted and reruns from a zeroed table, so integer
        kernels recover bitwise-identical. Returns the launch that
        filled the table.
        """
        from ..resilience.faults import SandboxHang, WorkerCrash
        from .batching import BatchedLaunch

        if self.sanitize:
            from ..verify.sanitizer import run_sanitized

            run_sanitized(launch, table, ctx, domain)
            return launch
        try:
            launch.run(table, ctx)
        except (WorkerCrash, SandboxHang):
            # A packed group demotes with no size bucket.
            batched = isinstance(launch, BatchedLaunch)
            launch = self.demote(launch, None if batched else domain)
            table[...] = 0
            launch.run(table, ctx)
        return launch

    def batched_launch(self, packed):
        """A packed map group as a launch on its compiled rung.

        A native group whose batched entry cannot load (say, a stale
        shared object without the symbol) is demoted here, before
        anything runs.
        """
        from ..lang.errors import NativeBuildError
        from .batching import BatchedLaunch

        launch = BatchedLaunch(packed)
        if launch.rung == "native":
            try:
                packed.compiled.ensure_batched_native()
            except NativeBuildError:
                self.demote(launch)
        return launch

    def schedule_for(
        self,
        func: CheckedFunction,
        domain: Domain,
        user_schedule: Optional[ast.Expr] = None,
        bindings: Optional[Bindings] = None,
    ) -> Schedule:
        """Pick the schedule: verify the user's, search, or autotune.

        ``bindings`` (optional) lets the autotuner's measured-feedback
        mode build a real context to time candidates against; without
        it the search stays purely analytic.
        """
        if user_schedule is not None:
            from ..schedule.schedule import validate_user_schedule

            return validate_user_schedule(func, user_schedule, domain)
        if self.schedule_mode == "autotune":
            return self._autotuned_schedule(func, domain, bindings)
        key = (id(func), tuple(domain.extents))
        memo = self._schedules.get(key)
        if memo is not None and memo[0] is func:
            return memo[1]
        schedule = find_schedule(func, domain)
        self._schedules[key] = (func, schedule)
        return schedule

    def _autotuned_schedule(
        self,
        func: CheckedFunction,
        domain: Domain,
        bindings: Optional[Bindings] = None,
    ) -> Schedule:
        """The autotune path of :meth:`schedule_for`, three tiers deep:
        exact-extents memo, persistent (kernel digest, size bucket)
        record, then the full portfolio search (whose winner is
        persisted for the next process)."""
        from ..analysis.criteria import schedule_criteria
        from ..schedule.autotune import (
            autotune_schedule,
            measure_from_env,
        )
        from ..service.cache import (
            ScheduleRecord,
            autotune_cache_key,
            domain_bucket,
        )

        memo_key = (
            id(func),
            tuple(domain.extents),
            self.prob_mode,
            "autotune",
        )
        memo = self._schedules.get(memo_key)
        if memo is not None and memo[0] is func:
            self.autotune_hits += 1
            return memo[1]
        criteria = schedule_criteria(func)
        cache_key = autotune_cache_key(
            func,
            self.prob_mode,
            DEFAULT_BOUND,
            self.spec.name,
            domain_bucket(domain.extents),
        )
        record = self._cache.lookup(cache_key)
        if isinstance(record, ScheduleRecord):
            schedule = record.schedule
            # The bucket is coarser than the extents: re-validate the
            # cached winner against the *actual* box before trusting
            # it (and fall through to a fresh search if it no longer
            # holds — e.g. a record from a different extent mix).
            if tuple(schedule.dims) == tuple(
                func.dim_names
            ) and schedule.is_valid(criteria, domain):
                self.autotune_hits += 1
                self._schedules[memo_key] = (func, schedule)
                return schedule
        measure = measure_from_env()
        measure_fn = (
            self._autotune_measure_fn(func, domain, bindings)
            if measure > 0 and bindings is not None
            else None
        )
        result = autotune_schedule(
            func,
            domain,
            self.spec,
            prob_mode=self.prob_mode,
            mean_degree=(
                self.mean_degree(func, bindings) if bindings else 1.0
            ),
            measure=measure if measure_fn is not None else 0,
            measure_fn=measure_fn,
        )
        self.autotune_searches += 1
        self.last_autotune = result
        self._schedules[memo_key] = (func, result.schedule)
        self._cache.store(
            cache_key,
            ScheduleRecord(
                result.schedule,
                meta={
                    "default": list(result.default.coefficients),
                    "predicted_cycles": result.predicted.cycles,
                    "default_predicted_cycles": (
                        result.default_predicted.cycles
                    ),
                    "enumerated": result.stats.enumerated,
                    "pruned": result.stats.pruned,
                },
            ),
        )
        return result.schedule

    def _autotune_measure_fn(
        self,
        func: CheckedFunction,
        domain: Domain,
        bindings: Bindings,
    ):
        """Compile-and-time closure for measured autotune feedback.

        Any failure (ineligible backend, build error, sandbox fault)
        returns None — that candidate simply stays analytic.
        """

        def measure(schedule: Schedule) -> Optional[float]:
            try:
                compiled = self.compile(func, schedule, domain)
                ctx = self.build_context(compiled, bindings, domain)
                table = self._table_for(compiled.kernel, domain)
                started = time.perf_counter()
                compiled.run(table, ctx)
                return time.perf_counter() - started
            except Exception:
                return None

        return measure

    # -- context preparation --------------------------------------------------

    def build_context(
        self,
        compiled: CompiledKernel,
        bindings: Bindings,
        domain: Domain,
    ) -> Dict[str, object]:
        """Materialise the device context for one problem."""
        from .context import build_context

        return build_context(compiled.kernel, bindings, domain)

    def mean_degree(
        self, func: CheckedFunction, bindings: Bindings
    ) -> float:
        """Mean transition in-degree of the bound models (cost model)."""
        degrees = [
            bindings[p.name].mean_in_degree()
            for p in func.calling_params
            if isinstance(p.type, HmmType) and p.name in bindings
        ]
        return sum(degrees) / len(degrees) if degrees else 1.0

    # -- execution ------------------------------------------------------------

    def domain_of(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        initial: Optional[Dict[str, int]] = None,
    ) -> Domain:
        """The recursion domain implied by the bindings."""
        return Domain(
            func.dim_names, domain_extents(func, bindings, initial)
        )

    def result_coords(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        domain: Domain,
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
    ) -> Tuple[int, ...]:
        """Where the requested value lives in the table.

        Defaults per dimension kind: indices at the sequence length,
        integers at their initial value, states at the model's end
        state, transitions need an explicit position.
        """
        at = dict(at or {})
        initial = initial or {}
        coords = []
        for param, extent in zip(func.recursive_params, domain.extents):
            if param.name in at:
                coords.append(int(at[param.name]))
            elif isinstance(param.type, IndexType):
                coords.append(extent - 1)
            elif isinstance(param.type, IntType):
                coords.append(initial.get(param.name, extent - 1))
            elif isinstance(param.type, StateType):
                hmm = bindings[param.type.hmm_param]
                assert isinstance(hmm, Hmm)
                coords.append(hmm.end_state.index)
            elif isinstance(param.type, TransitionType):
                raise RuntimeDslError(
                    f"dimension {param.name!r}: pass at={{...}} to pick "
                    f"a transition coordinate"
                )
            else:
                raise RuntimeDslError(
                    f"cannot default a coordinate for {param.name!r}"
                )
        return tuple(coords)

    def _table_for(self, kernel: Kernel, domain: Domain) -> np.ndarray:
        if kernel.body.return_kind == "int":
            return np.zeros(domain.extents, dtype=np.int64)
        return np.zeros(domain.extents, dtype=np.float64)

    def _extract(
        self, kernel: Kernel, table, coords, reduce: Optional[str] = None
    ) -> object:
        """Read the result: a coordinate, or a whole-table reduction."""
        return self._value(kernel, self._read(table, coords, reduce))

    def _read(self, table, coords, reduce: Optional[str] = None):
        """The raw result cell: a coordinate, or a whole-table reduction.

        ``reduce='max'``/``'min'`` supports optimisation recurrences
        whose answer is the best cell anywhere in the table
        (Smith-Waterman's local alignment score).
        """
        if reduce == "max":
            return table.max()
        if reduce == "min":
            return table.min()
        if reduce is None:
            return table[coords]
        raise RuntimeDslError(f"unknown reduction {reduce!r}")

    def _value(self, kernel: Kernel, raw) -> object:
        """A raw result cell as the caller's value: an ``int``, or a
        ``float`` (the probability, for a log-space table)."""
        if kernel.body.return_kind == "int":
            return int(raw)
        if kernel.logspace:
            return math.exp(raw) if raw != float("-inf") else 0.0
        return float(raw)

    def _map_values(
        self, kernel: Optional[Kernel], raws: Seq[object]
    ) -> Tuple[List[object], List[Optional[float]]]:
        """A map's ``(values, log_values)`` from its raw result cells
        (None where a problem did not execute); ``log_values`` is
        empty unless ``kernel`` is log-space."""
        values = [
            None if raw is None else self._value(kernel, raw)
            for raw in raws
        ]
        if kernel is None or not kernel.logspace:
            return values, []
        return values, [None if raw is None else float(raw) for raw in raws]

    def _problem_bytes(self, domain: Domain, bindings: Bindings) -> float:
        """Rough host->device payload of one problem."""
        total = 8.0 * domain.extents[-1]  # result row copied back
        for value in bindings.values.values():
            if isinstance(value, Sequence):
                total += len(value)
        return total

    def run(
        self,
        func: CheckedFunction,
        bindings: Mapping[str, object],
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
        user_schedule: Optional[ast.Expr] = None,
        use_window: bool = True,
        reduce: Optional[str] = None,
        *,
        launch_step: Optional[Callable] = None,
    ) -> RunResult:
        """Solve one problem end to end on the simulated device.

        ``launch_step(launch, table, ctx, domain)`` fills the table and
        returns the launch that did; the default is :meth:`launch`.
        The resilience supervisor passes its checkpointed step.
        """
        step = launch_step or self.launch
        bound, domain, compiled = self.prepare(
            func, bindings, initial, user_schedule
        )
        ctx = self.build_context(compiled, bound, domain)
        table = self._table_for(compiled.kernel, domain)
        step(compiled, table, ctx, domain)
        cost, problem = self.price(
            compiled, domain, bound, self.mean_degree(func, bound),
            use_window,
        )
        report = self.device.launch([problem])
        coords = self.result_coords(func, bound, domain, at, initial)
        value = self._extract(compiled.kernel, table, coords, reduce)
        return RunResult(value, table, compiled.kernel, domain, cost,
                         report)

    def prepare(
        self,
        func: CheckedFunction,
        bindings: Mapping[str, object],
        initial: Optional[Dict[str, int]] = None,
        user_schedule: Optional[ast.Expr] = None,
    ) -> Tuple[Bindings, Domain, CompiledKernel]:
        """Size, schedule, verify and compile one problem.

        Returns ``(bindings, domain, compiled)``. Shared by :meth:`run`
        and the differential fuzzer's oracle leg.
        """
        bound = Bindings(dict(bindings))
        domain = self.domain_of(func, bound, initial)
        schedule = self.schedule_for(
            func, domain, user_schedule, bindings=bound
        )
        self.verify_compiled(func, schedule, domain)
        return bound, domain, self.compile(func, schedule, domain)

    def price(
        self,
        compiled: CompiledKernel,
        domain: Domain,
        bindings: Bindings,
        mean_degree: float,
        use_window: bool = True,
    ) -> Tuple[KernelCost, ProblemCost]:
        """Price one prepared problem: its kernel cost, and the
        per-problem cost the simulated device places on an SM.

        One partition profile feeds the kernel cost, the window check
        and the occupancy packing; the cost keeps it (as
        :attr:`KernelCost.profile`) for a batched launch to reuse.
        """
        kernel = compiled.kernel
        sizes = partition_sizes(kernel.schedule, domain)
        cost = kernel_cost(
            kernel,
            domain,
            self.spec,
            mean_degree=mean_degree,
            use_window=use_window,
            sizes=sizes,
        )
        problem = ProblemCost(
            cost.seconds,
            bytes_in=self._problem_bytes(domain, bindings),
            packing=problems_per_sm(
                kernel, domain, self.spec, sizes=sizes
            ),
        )
        return cost, problem

    def prepare_map(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        initial: Optional[Dict[str, int]] = None,
        use_window: bool = True,
    ):
        """Compile and price every problem of a ``map`` workload.

        Returns ``(prepared, costs, usage, problem_costs)`` where
        ``prepared`` is a list of ``(bindings, domain, compiled)``
        triples in problem order.

        Work that depends only on the group runs once: one compile
        per distinct (schedule, size bucket), one mean model degree
        per distinct set of bound model objects. Every problem is
        still verified (a memo probe when warm) and priced.
        """
        if self.schedule_mode == "autotune":
            # The compile-time schedule set encodes the min-partition
            # goal; autotune decisions are per size bucket instead
            # (memoised + persisted, so a map group still searches
            # once per bucket, not once per problem).
            schedule_set: Optional[ScheduleSet] = None
        else:
            try:
                schedule_set = derive_schedule_set(func)
            except ScheduleError:
                schedule_set = None

        prepared = []
        compiled_for: Dict[tuple, CompiledKernel] = {}
        for overrides in problems:
            bound = Bindings({**base_bindings, **overrides})
            domain = self.domain_of(func, bound, initial)
            if schedule_set is not None:
                schedule = schedule_set.select(domain.extent_map())
            else:
                schedule = self.schedule_for(
                    func, domain, bindings=bound
                )
            self.verify_compiled(func, schedule, domain)
            key = (schedule.coefficients, size_bucket(domain))
            compiled = compiled_for.get(key)
            if compiled is None:
                compiled = compiled_for[key] = self.compile(
                    func, schedule, domain
                )
            prepared.append((bound, domain, compiled))

        models = [
            p.name for p in func.calling_params
            if isinstance(p.type, HmmType)
        ]
        degrees: Dict[tuple, float] = {}
        costs: List[KernelCost] = []
        usage: Dict[Tuple[int, ...], int] = {}
        problem_costs: List[ProblemCost] = []
        for bound, domain, compiled in prepared:
            bound_models = tuple(
                id(bound[name]) for name in models if name in bound
            )
            degree = degrees.get(bound_models)
            if degree is None:
                degree = degrees[bound_models] = self.mean_degree(
                    func, bound
                )
            cost, problem = self.price(
                compiled, domain, bound, degree, use_window
            )
            costs.append(cost)
            problem_costs.append(problem)
            coeffs = compiled.schedule.coefficients
            usage[coeffs] = usage.get(coeffs, 0) + 1
        return prepared, costs, usage, problem_costs

    def map_run(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
        use_window: bool = True,
        reduce: Optional[str] = None,
        parallelism: str = "intra",
        hybrid_threshold: Optional[int] = None,
        execute: bool = True,
        *,
        launch_step: Optional[Callable] = None,
    ) -> MapResult:
        """Solve many problems: the ``map`` primitive (Section 4.7).

        Each problem overrides some calling parameters (typically the
        database sequence). Schedules come from the compile-time
        schedule set when the descents are uniform, chosen per problem
        by the minimality condition; otherwise each problem gets a
        runtime search (both paths share the kernel cache).

        ``parallelism`` picks the strategy (Section 6.1):

        * ``"intra"`` — one problem per multiprocessor, threads
          cooperate on partitions (the paper's focus);
        * ``"inter"`` — one problem per *thread* ("algorithmically
          trivial" sequence-per-thread generation);
        * ``"hybrid"`` — CUDASW++-style split: problems smaller than
          ``hybrid_threshold`` cells go inter-task, the rest intra.

        The functional results are identical in every mode; only the
        device-time accounting differs. ``execute=False`` prices the
        launch without computing the tables (``values`` stay None) —
        for large sweeps where only the timing matters.
        ``launch_step`` fills each table, per problem and per packed
        group, as in :meth:`run`.
        """
        if parallelism not in ("intra", "inter", "hybrid"):
            raise RuntimeDslError(
                f"unknown parallelism {parallelism!r}"
            )
        step = launch_step or self.launch
        prepared, costs, usage, problem_costs = self.prepare_map(
            func, base_bindings, problems,
            initial=initial, use_window=use_window,
        )
        # Raw result cells; converted to values once every problem ran.
        raws: List[object] = [None] * len(prepared)
        result_kernel = prepared[0][2].kernel if prepared else None

        def read(index: int, table) -> None:
            bound, domain, _ = prepared[index]
            coords = (
                None
                if reduce
                else self.result_coords(func, bound, domain, at, initial)
            )
            raws[index] = self._read(table, coords, reduce)

        # Lane batching (intra only): groups of same-kernel problems run
        # as single padded sweeps *before* the per-problem launch loop
        # (which then skips them). The analytic launch report keeps the
        # per-problem costs — placement and device time are modelled
        # unchanged — while ``batched_costs`` records the amortised
        # (one sync per global partition) pricing. Sanitized runs step
        # partition-by-partition; the packed sweep cannot, so batching
        # stands down.
        batch_groups: List[List[int]] = []
        batched: set = set()
        if (
            execute and parallelism == "intra" and self.batching
            and not self.sanitize and len(prepared) > 1
        ):
            from .batching import pack_group, plan_batches

            batch_groups = plan_batches(prepared)
            batched = {index for group in batch_groups for index in group}
        batched_costs: List[KernelCost] = []
        batched_backends: List[str] = []
        for group in batch_groups:
            bound0, _, compiled = prepared[group[0]]
            # One compiled object per group (plan_batches keys on it),
            # so every member was priced on its schedule.
            members = [(prepared[i][0], prepared[i][1]) for i in group]
            packed = pack_group(compiled, members, indices=group)
            # A crash fails the group as a unit: it demotes and reruns
            # whole.
            launch = step(
                self.batched_launch(packed), packed.table, packed.ctx,
                packed.padded_domain,
            )
            batched_backends.append(launch.backend)
            for slot, index in enumerate(group):
                read(index, packed.member_view(slot))
            if launch.rung == "native":
                from . import native as native_rt

                threads = native_rt.effective_threads()
            else:
                threads = 1
            batched_costs.append(
                batched_launch_cost(
                    compiled.kernel,
                    [domain for _, domain in members],
                    self.spec,
                    mean_degree=self.mean_degree(func, bound0),
                    threads=threads,
                    profiles=[costs[i].profile for i in group],
                )
            )
        if execute:
            for index, (bound, domain, compiled) in enumerate(prepared):
                if index in batched:
                    continue
                ctx = self.build_context(compiled, bound, domain)
                table = self._table_for(compiled.kernel, domain)
                step(compiled, table, ctx, domain)
                read(index, table)
        values, log_values = self._map_values(result_kernel, raws)
        if parallelism == "intra":
            return MapResult(
                values, self.device.launch(problem_costs), usage, costs,
                "intra",
                lane_batches=len(batch_groups),
                lane_batched_problems=len(batched),
                batched_costs=batched_costs,
                batched_backends=batched_backends,
                log_values=log_values,
            )

        # Inter/hybrid: functional execution is unchanged; pricing
        # splits the problem set by strategy.
        threshold = hybrid_threshold or 64 * 64
        intra_costs: List[ProblemCost] = []
        inter_domains = []
        mean = 1.0
        kernel = result_kernel
        for (bound, domain, compiled), cost in zip(
            prepared, problem_costs
        ):
            mean = self.mean_degree(func, bound)
            if parallelism == "inter" or domain.size < threshold:
                inter_domains.append(domain)
                kernel = compiled.kernel
            else:
                intra_costs.append(cost)
        seconds = 0.0
        if inter_domains and kernel is not None:
            seconds += inter_task_seconds(
                kernel, inter_domains, self.spec, mean
            )
        if intra_costs:
            seconds += self.device.launch(intra_costs).kernel_seconds
        report = LaunchReport(
            device=self.spec.name,
            problems=len(prepared),
            kernel_seconds=seconds,
            transfer_seconds=self.spec.transfer_seconds(
                sum(
                    self._problem_bytes(d, b)
                    for b, d, _ in prepared
                )
            ),
            overhead_seconds=self.spec.launch_overhead_s,
        )
        return MapResult(
            values, report, usage, costs, parallelism,
            log_values=log_values,
        )
