"""Fuzz service round-trip mode: every case replayed through HTTP.

A second leg of differential testing: each generated case's scalar
oracle value is compared against what a live in-process compute
service returns over HTTP — with optional chaos (sandbox kills,
launch faults) injected underneath. Degraded-but-correct replies
(503 shed, 504 deadline) are *not* findings; wrong values and dead
services are.
"""

import json

import pytest

from repro.__main__ import main
from repro.fuzz.campaign import run_campaign
from repro.fuzz.differential import FAILURE_CLASSES
from repro.fuzz.service_mode import (
    SERVICE_FAILURE_CLASSES,
    ServiceRoundTrip,
)
from repro.runtime import sandbox


class TestServiceRoundTrip:
    def test_close_restores_the_sandbox_override(self):
        previous = sandbox.configure(False)
        try:
            round_trip = ServiceRoundTrip(chaos_rate=0.2, use_native=True)
            round_trip._endpoint("direct")
            assert sandbox.enabled()
            round_trip.close()
            assert sandbox.configure(previous) is False
        finally:
            sandbox.configure(previous)

    def test_clean_campaign_through_http(self):
        report = run_campaign(seed=41, count=6, service_mode=True)
        assert report.ok
        assert report.cases_run == 6

    def test_chaos_campaign_stays_clean(self):
        """Sandbox kills and launch faults under the service must
        never surface as findings — the fault-tolerance machinery is
        supposed to absorb them."""
        report = run_campaign(
            seed=42, count=6, service_mode=True, chaos_rate=0.3
        )
        assert report.ok, report.render()

    def test_same_seed_same_report(self):
        first = run_campaign(
            seed=43, count=5, service_mode=True, chaos_rate=0.2
        )
        second = run_campaign(
            seed=43, count=5, service_mode=True, chaos_rate=0.2
        )
        assert first.render() == second.render()

    def test_service_classes_registered(self):
        for cls in SERVICE_FAILURE_CLASSES:
            assert cls in FAILURE_CLASSES


class TestCli:
    def test_service_flag(self, capsys):
        assert main(
            ["fuzz", "--seed", "44", "--count", "3", "--service"]
        ) == 0
        out = capsys.readouterr().out
        assert "failures: none" in out

    def test_chaos_rate_requires_service(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seed", "45", "--count", "3",
                  "--chaos-rate", "0.3"])
        assert "--chaos-rate requires --service" in (
            capsys.readouterr().err
        )

    def test_service_chaos_json(self, capsys):
        assert main(
            ["fuzz", "--seed", "46", "--count", "3", "--service",
             "--chaos-rate", "0.25", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases_run"] == 3
        assert payload["failures"] == []
