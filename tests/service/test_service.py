"""End-to-end compute service: batching, determinism, HTTP, overload."""

import threading
import time

import pytest

from repro import Engine, Sequence
from repro.lang.errors import DslError
from repro.runtime import ENGLISH
from repro.service.queue import AdmissionError
from repro.service.server import (
    ComputeService,
    fetch_remote_stats,
    make_http_server,
    serve_in_thread,
    submit_remote,
)

from .conftest import EDIT_PROGRAM, FORWARD_PROGRAM

WORDS = [
    "kitten", "mitten", "sitting", "sitten", "bitten", "written",
    "smitten", "knitting", "siting", "kit",
]


class TestComputeService:
    def test_single_submission(self):
        with ComputeService(workers=1, batch_window=0.001) as service:
            handle = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            assert handle.result(timeout=30) == 3

    def test_hundred_concurrent_submissions_batch_and_match_serial(
        self, edit_func
    ):
        """The acceptance demo: >= 100 concurrent submissions complete
        with batched execution (mean batch size > 1) and results
        identical to serial ``Engine.run``."""
        problems = [(w, WORDS[(i + 1) % len(WORDS)])
                    for i, w in enumerate(WORDS * 10)]
        assert len(problems) >= 100

        engine = Engine()
        serial = [
            engine.run(
                edit_func,
                {"s": Sequence(s, ENGLISH), "t": Sequence(t, ENGLISH)},
            ).value
            for s, t in problems
        ]

        with ComputeService(
            workers=4, batch_window=0.05, max_batch=64
        ) as service:
            handles = [None] * len(problems)

            def submit(index, s, t):
                handles[index] = service.submit(
                    EDIT_PROGRAM, "d", {"s": s, "t": t}
                )

            threads = [
                threading.Thread(target=submit, args=(i, s, t))
                for i, (s, t) in enumerate(problems)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            values = [h.result(timeout=60) for h in handles]
            stats = service.stats()

        assert values == serial  # bitwise-identical results
        assert stats.completed == len(problems)
        assert stats.mean_batch_size > 1
        assert stats.batches < len(problems)
        assert stats.p95_latency_seconds >= stats.p50_latency_seconds

    def test_distinct_functions_share_service(self):
        from repro import run_script

        expected = run_script(
            FORWARD_PROGRAM + '\nprint fw(h, h.end, "acgt", 4)\n'
        ).last
        with ComputeService(workers=2, batch_window=0.01) as service:
            edit = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            forward = service.submit(
                FORWARD_PROGRAM, "fw", {"x": "acgt"}
            )
            assert edit.result(timeout=30) == 3
            # Bitwise-identical to the script-runner's serial result.
            assert forward.result(timeout=30) == expected

    def test_bad_program_rejected_synchronously(self):
        with ComputeService(workers=1) as service:
            with pytest.raises(DslError):
                service.submit("int f(=", "f", {})
            assert service.stats().submitted == 0

    def test_overload_rejected_with_reason(self):
        service = ComputeService(
            workers=1, queue_capacity=1, batch_window=5.0
        )
        try:
            # Stall admission by never letting the batcher drain:
            # the window is 5 s, so submissions pile into the queue.
            service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            rejections = 0
            for _ in range(50):
                try:
                    service.submit(
                        EDIT_PROGRAM, "d",
                        {"s": "kitten", "t": "sitting"},
                    )
                except AdmissionError as err:
                    rejections += 1
                    assert "queue full" in err.reason
            assert rejections > 0
            assert service.stats().rejected == rejections
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_busy_worker_bounds_admitted_work(self, monkeypatch):
        """Jobs the batcher has popped keep their admission slot until
        a worker starts them: with the only worker busy, submission
        number ``capacity + 2`` is refused."""
        started, release = threading.Event(), threading.Event()
        real_map_run = Engine.map_run

        def blocking_map_run(engine, *args, **kwargs):
            started.set()
            release.wait(30)
            return real_map_run(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "map_run", blocking_map_run)
        capacity = 4
        service = ComputeService(
            workers=1, queue_capacity=capacity, batch_window=0,
            max_batch=1, backend="scalar",
        )
        args = {"s": "kitten", "t": "sitting"}

        def submit_and_let_the_batcher_pop():
            handle = service.submit(EDIT_PROGRAM, "d", args)
            deadline = time.monotonic() + 10
            while service.jobs.depth() and time.monotonic() < deadline:
                time.sleep(0.001)
            return handle

        try:
            handles = [service.submit(EDIT_PROGRAM, "d", args)]
            assert started.wait(30)
            for _ in range(capacity):
                handles.append(submit_and_let_the_batcher_pop())
            with pytest.raises(AdmissionError, match="queue full"):
                service.submit(EDIT_PROGRAM, "d", args)
            release.set()
            assert [h.result(timeout=30) for h in handles] == [3] * 5
            # Every finished job gave its slot back.
            refill = [
                service.submit(EDIT_PROGRAM, "d", args)
                for _ in range(capacity)
            ]
            assert [h.result(timeout=30) for h in refill] == [3] * 4
        finally:
            release.set()
            service.shutdown(drain=True, timeout=30)

    def test_shutdown_drains_admitted_jobs(self):
        service = ComputeService(workers=2, batch_window=0.2)
        handles = [
            service.submit(
                EDIT_PROGRAM, "d", {"s": w, "t": "sitting"}
            )
            for w in WORDS
        ]
        service.shutdown(drain=True, timeout=30)
        assert all(h.done() for h in handles)
        assert [h.result(timeout=1) for h in handles[:2]] == [3, 3]

    def test_submissions_after_shutdown_rejected(self):
        service = ComputeService(workers=1)
        service.shutdown()
        with pytest.raises(AdmissionError, match="shutting down"):
            service.submit(
                EDIT_PROGRAM, "d", {"s": "a", "t": "b"}
            )

    def test_persistent_cache_warm_across_services(self, tmp_path):
        with ComputeService(
            workers=1, cache_dir=str(tmp_path), batch_window=0.001
        ) as warm:
            warm.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            ).result(timeout=30)
            assert warm.stats().cache_misses == 1

        with ComputeService(
            workers=1, cache_dir=str(tmp_path), batch_window=0.001
        ) as cold:
            value = cold.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            ).result(timeout=30)
            stats = cold.stats()
        assert value == 3
        assert stats.cache_misses == 0
        assert stats.cache_disk_hits == 1


@pytest.fixture
def http_service():
    service = ComputeService(workers=2, batch_window=0.01)
    server = make_http_server(service, "127.0.0.1", 0)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    service.shutdown()


class TestHttpFrontEnd:
    def test_submit_round_trip(self, http_service):
        host, port, _ = http_service
        reply = submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        assert reply["ok"] is True
        assert reply["value"] == 3
        assert reply["latency_seconds"] > 0
        assert reply["_status"] == 200

    def test_stats_endpoint(self, http_service):
        host, port, _ = http_service
        submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        stats = fetch_remote_stats(host, port)
        assert stats["_status"] == 200
        assert stats["completed"] >= 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_bad_program_is_400(self, http_service):
        host, port, _ = http_service
        reply = submit_remote(host, port, "int f(=", "f")
        assert reply["_status"] == 400
        assert reply["ok"] is False

    def test_bad_program_error_carries_caret_diagnostic(
        self, http_service
    ):
        """The error body is the rendered diagnostic (source line +
        caret), not just the bare message."""
        host, port, _ = http_service
        program = (
            'alphabet en = "ab"\n\n'
            "int f(seq[en] s, index[s] i) = if i == 0 then 0 "
            "else f(i-1) + notdefined\n"
        )
        reply = submit_remote(host, port, program, "f")
        assert reply["_status"] == 400
        error = reply["error"]
        assert "^" in error  # the caret line
        assert "<submit>:" in error  # file:line:column prefix
        assert "notdefined" in error  # the offending source line
        assert reply["message"] in error  # bare message still present

    def test_unknown_path_is_404(self, http_service):
        host, port, _ = http_service
        from repro.service.server import _http_json

        assert _http_json(host, port, "GET", "/nope")["_status"] == 404

    def test_concurrent_http_clients_batch(self, http_service):
        host, port, service = http_service
        replies = [None] * 24

        def call(index):
            replies[index] = submit_remote(
                host, port, EDIT_PROGRAM, "d",
                args={"s": WORDS[index % len(WORDS)], "t": "sitting"},
            )

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(len(replies))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r["ok"] for r in replies)
        assert service.stats().mean_batch_size > 1


class TestServiceCli:
    def test_submit_stats_against_live_server(
        self, http_service, capsys
    ):
        host, port, _ = http_service
        from repro.__main__ import main

        submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        assert main(
            ["submit", "--host", host, "--port", str(port), "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "service stats" in out
        assert "mean_size" in out

    def test_submit_program_file(self, http_service, tmp_path, capsys):
        host, port, _ = http_service
        from repro.__main__ import main

        program = tmp_path / "edit.dsl"
        program.write_text(EDIT_PROGRAM)
        code = main(
            ["submit", "--host", host, "--port", str(port),
             "--program", str(program), "--function", "d",
             "--args", '{"s": "kitten", "t": "sitting"}',
             "--count", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["3", "3", "3"]

    @pytest.mark.parametrize("flag", ["--chaos-kill", "--chaos-hang"])
    def test_sandbox_chaos_without_sandbox_is_a_usage_error(
        self, flag, monkeypatch, capsys
    ):
        from repro.__main__ import main
        from repro.runtime import sandbox

        monkeypatch.delenv("REPRO_NATIVE_SANDBOX", raising=False)
        monkeypatch.setattr(sandbox, "_ENABLED_OVERRIDE", None)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", flag, "0.1"])
        assert excinfo.value.code == 2
        assert "require --sandbox" in capsys.readouterr().err
