"""The execution ladder's demotion paths (native > vector > scalar).

Every way a launch leaves the native rung — a sandbox worker killed
mid-launch, an open crash circuit breaker, a batched entry that cannot
load — must land one rung down with bitwise-identical values, and
``Engine.native_demotions`` must count each re-routed launch exactly
once. A native *build* failure at compile time degrades silently and
is not counted.
"""

import pytest

from repro.lang.errors import NativeBuildError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.resilience import ExecutionSupervisor
from repro.runtime import native, sandbox
from repro.ir.kernel import build_kernel
from repro.runtime.engine import Engine, next_rung
from repro.runtime.values import ENGLISH, Bindings, Sequence

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

WORDS = ("kitten", "mitten", "sit", "knitting")
BASE = {"t": Sequence("sitting", ENGLISH)}

needs_cc = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)


@pytest.fixture
def edit_func():
    return check_function(
        parse_function(EDIT_DISTANCE.strip()), {"en": ENGLISH.chars}
    )


@pytest.fixture
def sandboxed():
    """Fresh sandbox state, enabled, torn down afterwards."""
    sandbox.configure(True)
    sandbox.reset()
    yield
    sandbox.configure(None)
    sandbox.reset()


def problems():
    return [{"s": Sequence(word, ENGLISH)} for word in WORDS]


def scalar_values(func):
    return Engine(backend="scalar").map_run(func, BASE, problems()).values


def kill_launches(monkeypatch, batched=None, limit=None):
    """Make sandboxed launches die with a real SIGKILL.

    ``batched`` restricts the kill to batched (True) or per-problem
    (False) launches; ``limit`` caps how many launches are killed.
    """
    original = sandbox.SandboxedNativeRun.__call__
    killed = []

    def dying(self, T, ctx, **kwargs):
        if (batched is None or self.batched == batched) and (
            limit is None or len(killed) < limit
        ):
            killed.append(self.digest)
            kwargs["fault"] = {"kind": "kill"}
        return original(self, T, ctx, **kwargs)

    monkeypatch.setattr(sandbox.SandboxedNativeRun, "__call__", dying)
    return killed


def open_breaker(engine, func):
    """Compile the kernel natively and trip its circuit breaker."""
    bound = Bindings({**BASE, **problems()[0]})
    domain = engine.domain_of(func, bound)
    schedule = engine.schedule_for(func, domain)
    compiled = engine.compile(func, schedule, domain)
    assert compiled.backend == "native"
    breaker = sandbox.get_breaker()
    for _ in range(breaker.threshold):
        breaker.record_failure(compiled.run.digest)
    assert not breaker.allows(compiled.run.digest)


def record_rungs(monkeypatch):
    """Spy on the supervisor: the backend of every epoch launch."""
    rungs = []
    original = ExecutionSupervisor._run_range

    def spy(self, compiled, *args, **kwargs):
        rungs.append(compiled.backend)
        return original(self, compiled, *args, **kwargs)

    monkeypatch.setattr(ExecutionSupervisor, "_run_range", spy)
    return rungs


class TestNextRung:
    """The one rule for the rung below, on a vector-eligible kernel."""

    def kernel(self, func):
        engine = Engine(backend="scalar")
        bound = Bindings({**BASE, **problems()[0]})
        domain = engine.domain_of(func, bound)
        return build_kernel(func, engine.schedule_for(func, domain))

    def test_off_native_respects_the_crossover(self, edit_func):
        kernel = self.kernel(edit_func)
        assert next_rung(kernel, "native", bucket=True) == "vector"
        assert next_rung(kernel, "native", bucket=False) == "scalar"

    def test_unsized_choice_takes_vector(self, edit_func):
        """Packed groups and the supervisor have no single size."""
        assert next_rung(self.kernel(edit_func), "native") == "vector"

    def test_scalar_is_the_floor(self, edit_func):
        kernel = self.kernel(edit_func)
        assert next_rung(kernel, "vector") == "scalar"
        assert next_rung(kernel, "scalar") == "scalar"


@needs_cc
class TestSandboxDemotion:
    def test_killed_batched_launch_reruns_on_vector(
        self, sandboxed, edit_func, monkeypatch
    ):
        expected = Engine(backend="native").map_run(
            edit_func, BASE, problems()
        )
        assert expected.batched_backends == ["native-batched"]
        killed = kill_launches(monkeypatch, batched=True, limit=1)
        engine = Engine(backend="native")
        result = engine.map_run(edit_func, BASE, problems())
        assert len(killed) == 1
        assert result.batched_backends == ["vector-batched"]
        assert result.values == expected.values
        assert engine.native_demotions == 1

    def test_open_breaker_demotes_map_group_then_run(
        self, sandboxed, edit_func
    ):
        engine = Engine(backend="native")
        open_breaker(engine, edit_func)
        result = engine.map_run(edit_func, BASE, problems())
        assert result.batched_backends == ["vector-batched"]
        assert result.values == scalar_values(edit_func)
        assert engine.native_demotions == 1
        value = engine.run(edit_func, {**BASE, **problems()[0]}).value
        assert value == 3
        assert engine.native_demotions == 2
        # The breaker is enforced at launch: nothing was spawned.
        assert sandbox.counters()["launches"] == 0

    def test_unbatched_crash_demotes_and_matches_scalar(
        self, sandboxed, edit_func, monkeypatch
    ):
        kill_launches(monkeypatch)
        engine = Engine(backend="native", batching=False)
        result = engine.map_run(edit_func, BASE, problems())
        assert result.lane_batches == 0
        assert result.values == scalar_values(edit_func)
        assert engine.native_demotions == len(WORDS)

    def test_supervisor_over_open_breaker(
        self, sandboxed, edit_func, monkeypatch
    ):
        rungs = record_rungs(monkeypatch)
        engine = Engine(backend="native")
        open_breaker(engine, edit_func)
        supervisor = ExecutionSupervisor(engine)
        value = supervisor.run(
            edit_func, {**BASE, **problems()[0]}
        ).value
        assert value == 3
        # No size bucket on the supervisor's choice: vector, not the
        # scalar rung a per-problem demotion of this 7x8 table takes.
        assert rungs[0] == "native"
        assert rungs[-1] == "vector"
        assert engine.native_demotions == 1
        del rungs[:]
        result = supervisor.map_run(edit_func, BASE, problems())
        assert result.values == scalar_values(edit_func)
        assert rungs[0] == "native-batched"
        assert rungs[-1] == "vector-batched"
        assert engine.native_demotions == 2


class TestDemotionCounter:
    @needs_cc
    def test_batched_entry_load_failure_is_counted(
        self, edit_func, monkeypatch
    ):
        def unloadable(kernel, so_path):
            raise OSError("batched entry missing")

        monkeypatch.setattr(native, "load_batched", unloadable)
        engine = Engine(backend="native")
        result = engine.map_run(edit_func, BASE, problems())
        assert result.batched_backends == ["vector-batched"]
        assert result.values == scalar_values(edit_func)
        assert engine.native_demotions == 1

    def test_build_failure_falls_back_uncounted(
        self, edit_func, monkeypatch
    ):
        """An env-preferred native backend whose build fails degrades
        at compile time, silently: no launch was re-routed. These
        tables are under the vector crossover, so they land on scalar
        and run unbatched."""

        def broken(kernel):
            raise NativeBuildError("compiler rejected the kernel")

        monkeypatch.setattr(native, "compile_native", broken)
        monkeypatch.setenv("REPRO_BACKEND", "native")
        engine = Engine()
        result = engine.map_run(edit_func, BASE, problems())
        prepared, _, _, _ = engine.prepare_map(edit_func, BASE, problems())
        assert {compiled.backend for _, _, compiled in prepared} == {
            "scalar"
        }
        assert result.lane_batches == 0
        assert result.values == scalar_values(edit_func)
        assert engine.native_demotions == 0
