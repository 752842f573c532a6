"""Tests for the native compiled backend (cc + ctypes runtime)."""

import os

import numpy as np
import pytest

from repro.ir import cbackend
from repro.lang.errors import CodegenError, DslError, NativeBuildError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.engine import (
    Engine,
    VECTOR_CROSSOVER,
)
from repro.runtime.values import Bindings, Sequence

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


def edit_func():
    return check_function(parse_function(EDIT_DISTANCE.strip()), EN)


def edit_bindings(n=9, m=11):
    return {
        "s": Sequence("abacadabra"[:n], ALPHABET),
        "t": Sequence("abracadabra"[:m], ALPHABET),
    }


def compile_edit(engine, bindings=None):
    func = edit_func()
    bound = Bindings(dict(bindings or edit_bindings()))
    domain = engine.domain_of(func, bound)
    schedule = engine.schedule_for(func, domain)
    compiled = engine.compile(func, schedule, domain)
    ctx = engine.build_context(compiled, bound, domain)
    table = engine._table_for(compiled.kernel, domain)
    return compiled, ctx, table, domain, schedule


class TestAvailability:
    def test_disable_env_checked_fresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        verdict = native.available()
        assert not verdict.ok
        assert verdict.rule == "disabled"
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        assert native.available().rule != "disabled"

    def test_no_compiler_is_machine_readable(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        try:
            verdict = native.available()
            assert not verdict.ok
            assert verdict.rule == "no-compiler"
            assert "not found" in verdict.detail
        finally:
            native.reset_toolchain_cache()

    @needs_cc
    def test_toolchain_memoised(self):
        assert native.toolchain() is native.toolchain()


class TestBuild:
    @needs_cc
    def test_artifacts_content_addressed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        source = "int repro_one(int x) { return x + 1; }\n"
        first = native.build_shared_object(source)
        stamp = os.stat(first).st_mtime_ns
        again = native.build_shared_object(source)
        assert again == first
        # Warm build never re-ran the compiler.
        assert os.stat(again).st_mtime_ns == stamp
        other = native.build_shared_object(
            "int repro_two(int x) { return x + 2; }\n"
        )
        assert other != first

    @needs_cc
    def test_concurrent_same_source_builds_never_torn(
        self, tmp_path, monkeypatch
    ):
        """Regression: the temp output used to be pid-suffixed, so two
        threads compiling the same kernel shared one temp file and the
        second cc could truncate it while the first published it —
        torn (even empty) .so artifacts in the shared cache. Each
        build now gets its own temp file."""
        import threading

        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        source = "int repro_race(int x) { return x * 3; }\n"
        paths, errors = [], []

        def build():
            try:
                paths.append(native.build_shared_object(source))
            except Exception as err:  # noqa: BLE001 - collected
                errors.append(err)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(set(paths)) == 1
        assert os.path.getsize(paths[0]) > 0
        # No temp leftovers: every racer either published or cleaned up.
        leftovers = [
            name for name in os.listdir(tmp_path) if ".tmp" in name
        ]
        assert leftovers == []

    @needs_cc
    def test_compile_error_raises_native_build_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        with pytest.raises(NativeBuildError) as err:
            native.build_shared_object("this is not C\n")
        assert "exited" in str(err.value)

    def test_no_compiler_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        try:
            with pytest.raises(NativeBuildError):
                native.build_shared_object("int f(void) { return 0; }\n")
        finally:
            native.reset_toolchain_cache()


class TestProbe:
    def test_corrupt_library_rejected_in_subprocess(self, tmp_path):
        """A garbage .so must die in the probe child, not here."""
        bogus = tmp_path / "bogus.so"
        bogus.write_bytes(b"\x7fELF not really a library")
        with pytest.raises(NativeBuildError) as err:
            native.probe_shared_object(str(bogus))
        assert "probe" in str(err.value)

    def test_probe_failure_is_permanent(self):
        """NativeBuildError is a DslError: the supervisor's retry loop
        only catches DeviceFault, so native failures never retry."""
        assert issubclass(NativeBuildError, DslError)


@needs_cc
class TestNativeExecution:
    def test_matches_scalar_bitwise(self):
        scalar_engine = Engine(backend="scalar")
        native_engine = Engine(backend="native")
        c1, ctx1, t1, d1, _ = compile_edit(scalar_engine)
        c2, ctx2, t2, d2, _ = compile_edit(native_engine)
        assert c2.backend == "native"
        assert c2.so_path is not None
        sched = c1.schedule
        c1.run(t1, ctx1, part_lo=sched.min_partition(d1),
               part_hi=sched.max_partition(d1))
        c2.run(t2, ctx2, part_lo=sched.min_partition(d2),
               part_hi=sched.max_partition(d2))
        assert t1.tobytes() == t2.tobytes()

    def test_mid_schedule_replay_split(self):
        """part_lo/part_hi splits reproduce the single full run —
        the windowed entry preloads its ring from the table."""
        engine = Engine(backend="native")
        compiled, ctx, table, domain, schedule = compile_edit(engine)
        lo = schedule.min_partition(domain)
        hi = schedule.max_partition(domain)
        full = table.copy()
        compiled.run(full, ctx, part_lo=lo, part_hi=hi)
        mid = (lo + hi) // 2
        split = table.copy()
        compiled.run(split, ctx, part_lo=lo, part_hi=mid)
        compiled.run(split, ctx, part_lo=mid + 1, part_hi=hi)
        assert split.tobytes() == full.tobytes()

    def test_windowed_entry_emitted_for_diagonal(self):
        engine = Engine(backend="native")
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert cbackend.supports_window(compiled.kernel)
        assert "repro_d_windowed" in compiled.source


class TestEngineLadder:
    @needs_cc
    def test_auto_resolves_native(self):
        engine = Engine(backend="auto")
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert compiled.backend == "native"

    def test_auto_degrades_without_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert compiled.backend in ("vector", "scalar")

    def test_forced_native_raises_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="native")
        with pytest.raises(CodegenError) as err:
            compile_edit(engine)
        assert "disabled" in str(err.value)

    def test_forced_native_build_failure_names_the_detail(
        self, monkeypatch
    ):
        """A forced backend='native' whose build fails must render
        the compiler/probe detail the way a forced vector CodegenError
        names its eligibility rule."""
        from repro.runtime import native as native_mod

        def broken_compile(kernel):
            raise NativeBuildError(
                "cc exited with status 1: synthetic probe detail"
            )

        monkeypatch.setattr(
            native_mod, "compile_native", broken_compile
        )
        monkeypatch.setattr(
            native_mod, "available",
            lambda: native_mod.Eligibility(True, "ok", "stubbed"),
        )
        engine = Engine(backend="native")
        with pytest.raises(NativeBuildError) as err:
            compile_edit(engine)
        message = str(err.value)
        assert "backend='native' was forced" in message
        assert "'d'" in message  # the kernel is named
        assert "[build-failed]" in message
        assert "synthetic probe detail" in message

    def test_env_native_is_preference_not_force(self, monkeypatch):
        """REPRO_BACKEND=native degrades down the ladder instead of
        erroring when native is unavailable."""
        monkeypatch.setenv("REPRO_BACKEND", "native")
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine()
        assert engine.backend == "native"
        assert not engine.backend_forced
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert compiled.backend in ("vector", "scalar")

    @needs_cc
    def test_engine_value_parity_end_to_end(self):
        func = edit_func()
        bindings = edit_bindings()
        a = Engine(backend="scalar").run(func, bindings)
        b = Engine(backend="native").run(func, bindings)
        assert a.value == b.value
        assert a.table.tobytes() == b.table.tobytes()


class TestCrossover:
    def test_default(self):
        """The extent BENCH_backend.json measured (between 64 and 128)."""
        assert VECTOR_CROSSOVER == 96

    def test_small_problems_prefer_scalar(self, monkeypatch):
        """Below the crossover extent, auto picks scalar over vector:
        interpreter startup dominates tiny tables."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        small, *_ = compile_edit(engine, edit_bindings(4, 5))
        assert small.backend == "scalar"

    def test_large_problems_prefer_vector(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        word = "ab" * (VECTOR_CROSSOVER // 2)  # extents of 97
        big, *_ = compile_edit(
            engine,
            {"s": Sequence(word, ALPHABET), "t": Sequence(word, ALPHABET)},
        )
        assert big.backend == "vector"

    @needs_cc
    def test_crossover_does_not_gate_native(self):
        """The crossover only arbitrates scalar vs vector; native is
        faster than both at every size."""
        engine = Engine(backend="auto")
        small, *_ = compile_edit(engine, edit_bindings(4, 5))
        assert small.backend == "native"
