"""Lane-batched ``map`` execution: many problems, one vectorised sweep.

A ``map`` workload compiles every problem against the same few
kernels; executing them one launch at a time leaves the vector
backend's lanes half-idle and pays the Python interpreter overhead
per problem. This module packs same-kernel problems into a single
table with a leading problem axis — ``(B, d0max, d1max)``, padded to
the largest member domain — and runs the whole batch through the
batched codegen variant (:func:`repro.ir.npbackend.emit_batched_source`)
as *one* sweep: the functional analogue of the paper's inter-task
parallelism (Section 6.1), where small problems share the device
instead of queueing behind each other.

Grouping (:func:`plan_batches`) is deliberately conservative: two
problems batch only when they share the *same compiled kernel object*
(same function, schedule, probability mode and backend — the engine's
kernel cache already canonicalises this) on a batchable backend, and
the same model/matrix binding objects (those context arrays are
shared across the batch, not packed per problem). Per-problem
quantities — domain bounds, sequences, scalar arguments — are packed
as ``(B, 1)`` columns and padded ``(B, Lmax)`` rows; the generated
kernel masks every store with the problem's own validity, so padding
cells are never written (the unpack step slices each problem back out
of its row).

Three rungs can run a packed group, mirroring the per-problem ladder:

* **native-batched** — the compiled backend's batched entry point
  (:func:`repro.ir.cbackend.native_batched_param_spec`): one
  ``ctypes`` call runs every member's own loop nest, optionally with
  OpenMP across members — emitted only when the parallel-safety
  analyzer proved the members' padded slices disjoint
  (:mod:`repro.verify.races`, rule ``R-BATCH-OVERLAP`` on refusal).
  Bitwise-identical to the per-problem native loop at any thread
  count.
* **vector-batched** — the NumPy batched twin
  (:func:`repro.ir.npbackend.emit_batched_source`), which masks
  per-problem validity lane-wise.
* **scalar-batched** — every member on the scalar generator over its
  own slice of the padded table, the floor every kernel supports.

:class:`BatchedLaunch` starts on the rung of the group's compiled
backend. It does not demote itself: the engine's one ladder
(:meth:`~repro.runtime.engine.Engine.demote`) moves it down — when
the batched entry cannot load, when a sandboxed launch crashes, or
when the supervisor finds the kernel's circuit breaker open — to
vector-batched when the kernel is vector-eligible, else to the scalar
sweep, without losing the single-launch shape the resilience layer
supervises.

:class:`BatchedLaunch` adapts a packed batch to the compiled-kernel
protocol the resilience layer speaks (``run(T, ctx, part_lo,
part_hi)`` + ``schedule``), so the supervisor can checkpoint, replay
and verify a batched launch exactly like a single-problem one; its
``reference_run`` replays every member on the scalar backend for the
divergence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence as Seq, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..ir.kernel import UB_PREFIX
from .context import problem_context, shared_context

#: Smallest group worth packing: a singleton gains nothing over the
#: plain vector path and would only add pad/unpack overhead.
MIN_BATCH = 2

#: Per-problem backends whose map groups have a batched twin.
BATCHABLE_BACKENDS = ("vector", "native")


@dataclass
class PackedBatch:
    """One group of problems packed for a single batched launch."""

    indices: List[int]  # positions in the prepared problem list
    compiled: object  # the shared CompiledKernel
    table: np.ndarray  # (B, d0max, d1max), padded, zero-initialised
    ctx: Dict[str, object]  # batched context (see module doc)
    domains: List[Domain]  # each member's true domain, batch order
    problem_ctxs: List[Dict[str, object]] = field(repr=False,
                                                  default_factory=list)

    @property
    def padded_domain(self) -> Domain:
        """The max-extent domain: its partition range covers every
        member's (the supervisor derives epoch ranges from it)."""
        return Domain(
            self.domains[0].dims, tuple(self.table.shape[1:])
        )

    def member_view(self, slot: int) -> np.ndarray:
        """Problem ``slot``'s own cells of the padded table (a view)."""
        extents = self.domains[slot].extents
        return self.table[slot][tuple(slice(0, e) for e in extents)]


def plan_batches(
    prepared: Seq[Tuple[object, Domain, object]],
    min_batch: int = MIN_BATCH,
) -> List[List[int]]:
    """Group a prepared ``map`` workload into batchable index sets.

    ``prepared`` is the engine's ``(bindings, domain, compiled)``
    list. Problems group when they share the compiled kernel object
    (on a :data:`BATCHABLE_BACKENDS` rung — vector groups run the
    batched NumPy twin, native groups the batched C entry) and the
    identical HMM/matrix binding objects; groups smaller than
    ``min_batch`` are dropped (those problems run the ordinary path).
    Mixed-rung groups cannot arise: the compiled object identity is
    part of the key and already encodes the backend.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, (bound, _domain, compiled) in enumerate(prepared):
        if (
            getattr(compiled, "backend", "scalar")
            not in BATCHABLE_BACKENDS
        ):
            continue
        refs = compiled.kernel.referenced_names()
        shared = tuple(
            id(bound[name])
            for name in sorted(refs["hmms"]) + sorted(refs["matrices"])
        )
        key = (id(compiled), shared)
        groups.setdefault(key, []).append(index)
    return [
        members
        for members in groups.values()
        if len(members) >= min_batch
    ]


def pack_group(
    compiled,
    members: Seq[Tuple[object, Domain]],
    indices: Seq[int] = (),
) -> PackedBatch:
    """Pack ``members`` — ``(bindings, domain)`` pairs — into one batch.

    The table is padded to the largest member extents per dimension;
    bounds (``ub_*``) and scalar arguments (``arg_*``) become
    ``(B, 1)`` columns, sequences become zero-padded ``(B, Lmax)``
    rows (reads past a member's own length land in padding and only
    feed masked-off lanes), and the model/matrix arrays are shared
    verbatim from the first member (grouping guaranteed identity).
    """
    kernel = compiled.kernel
    domains = [domain for _, domain in members]
    rank = len(kernel.dims)
    max_extents = tuple(
        max(domain.extents[axis] for domain in domains)
        for axis in range(rank)
    )
    size = len(members)
    dtype = (
        np.int64 if kernel.body.return_kind == "int" else np.float64
    )
    table = np.zeros((size,) + max_extents, dtype=dtype)
    # The model arrays (mat_*/hmm_*) are built once, from the first
    # member (grouping guaranteed identity); each member's own context
    # adds only its bounds, sequences and scalar arguments.
    shared = shared_context(kernel, members[0][0])
    problem_ctxs = [
        {**shared, **problem_context(kernel, bound, domain)}
        for bound, domain in members
    ]
    ctx: Dict[str, object] = dict(shared)
    refs = kernel.referenced_names()
    for dim in kernel.dims:
        key = UB_PREFIX + dim
        ctx[key] = np.asarray(
            [[pctx[key]] for pctx in problem_ctxs], dtype=np.int64
        )
    for name in sorted(refs["seqs"]):
        key = f"seq_{name}"
        codes = [np.asarray(pctx[key]) for pctx in problem_ctxs]
        longest = max((len(arr) for arr in codes), default=0)
        packed = np.zeros((size, longest), dtype=np.int64)
        for row, arr in zip(packed, codes):
            row[: len(arr)] = arr
        ctx[key] = packed
    for name in sorted(refs["scalars"]):
        key = f"arg_{name}"
        ctx[key] = np.asarray(
            [pctx[key] for pctx in problem_ctxs]
        ).reshape(size, 1)
    return PackedBatch(
        indices=list(indices) or list(range(size)),
        compiled=compiled,
        table=table,
        ctx=ctx,
        domains=domains,
        problem_ctxs=problem_ctxs,
    )


def batched_native_eligibility(kernel) -> "Eligibility":
    """Why (or why not) map groups of this kernel can run the
    batched-native rung *in this process*: the toolchain must be
    available and the kernel must pass
    :func:`repro.ir.cbackend.batched_eligibility` (named rules —
    ``ok-batched``, ``ok-plain-body``, ``cross-table-read``,
    ``codegen``, ``no-compiler``, ``disabled``)."""
    from ..ir import cbackend
    from . import native as native_rt

    verdict = native_rt.available()
    if not verdict.ok:
        return verdict
    return cbackend.batched_eligibility(kernel)


class BatchedLaunch:
    """A packed batch speaking the compiled-kernel protocol.

    The resilience supervisor only needs ``run(T, ctx, part_lo,
    part_hi)`` plus ``schedule``/``kernel``/``backend`` — this wrapper
    provides them for a whole batch, so checkpointing, replay
    verification and partition-range recovery apply unchanged (the
    epoch ranges come from the padded domain, a superset of every
    member's range; the generated kernel clamps and masks internally,
    so out-of-range epochs are no-ops for the members they miss).

    The launch runs on a **rung** — ``"native"`` (the batched C
    entry, picked when the group compiled native), ``"vector"`` (the
    batched NumPy twin) or ``"scalar"`` (per-member sweep, the floor
    every kernel supports). :meth:`Engine.demote
    <repro.runtime.engine.Engine.demote>` lowers it.

    ``reference_run`` gives the divergence oracle an independent
    backend: every member replayed on the *scalar* generator over its
    own slice of the padded table.
    """

    def __init__(self, batch: PackedBatch) -> None:
        self.batch = batch
        self.compiled = batch.compiled
        self.rung = (
            "native"
            if getattr(self.compiled, "backend", "") == "native"
            else "vector"
        )
        self._scalar_run = None

    @property
    def backend(self) -> str:
        """Backend label for reports/oracles: ``"<rung>-batched"``."""
        return f"{self.rung}-batched"

    @property
    def kernel(self):
        """The shared kernel."""
        return self.compiled.kernel

    @property
    def schedule(self):
        """The shared schedule (epoch ranges derive from it)."""
        return self.compiled.kernel.schedule

    @property
    def source(self) -> str:
        """The batched generated source for the current rung."""
        if self.rung == "native":
            self.compiled.ensure_batched_native()
            return self.compiled.source
        if self.rung == "vector":
            self.compiled.ensure_batched()
            return self.compiled.batched_source
        from ..ir.pybackend import emit_kernel_source

        return emit_kernel_source(self.kernel)

    def run(self, table, ctx, part_lo=None, part_hi=None):
        """One batched sweep over the global partition range."""
        if self.rung == "native":
            return self.compiled.ensure_batched_native()(
                table, ctx, part_lo=part_lo, part_hi=part_hi
            )
        if self.rung == "vector":
            return self.compiled.ensure_batched()(
                table, ctx, part_lo=part_lo, part_hi=part_hi
            )
        return self._scalar_sweep(table, part_lo, part_hi)

    def _scalar_sweep(self, table, part_lo=None, part_hi=None):
        """Every member on the scalar generator, in its own slice."""
        if self._scalar_run is None:
            from ..ir.pybackend import compile_kernel

            self._scalar_run, _source = compile_kernel(self.kernel)
        for slot, (domain, pctx) in enumerate(
            zip(self.batch.domains, self.batch.problem_ctxs)
        ):
            view = table[slot][
                tuple(slice(0, e) for e in domain.extents)
            ]
            self._scalar_run(
                view, pctx, part_lo=part_lo, part_hi=part_hi
            )
        return table

    def reference_run(self, table, ctx, part_lo=None, part_hi=None):
        """Scalar per-member replay (the oracle's reference backend)."""
        return self._scalar_sweep(table, part_lo, part_hi)
