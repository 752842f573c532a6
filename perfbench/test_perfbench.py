"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import math
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from perfbench import inputs, oracles, spans
from perfbench.run import percentile, windows
from perfbench.workloads import CompileCold, SearchMap, ServeMixed

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- oracles -----------------------------------------------------------------

def test_plain_references_on_known_values():
    assert oracles.edit_distance("kitten", "sitting") == 3
    assert oracles.edit_distance("", "acgt") == 4
    assert oracles.local_alignment_score("acgt", "acgt", 2, -1, 2) == 8
    assert oracles.local_alignment_score("aaaa", "cccc", 2, -1, 2) == 0


def _served(request, value):
    return (0, request, value)


def test_serve_oracle_rejects_a_corrupted_value():
    workload = ServeMixed(seed=1, quick=True, workdir="")
    requests = list(islice(inputs.serve_requests(1, 16, 256), inputs.BURST + 1))
    good = []
    for request in requests:
        args = request.args
        if request.fixed:
            value = oracles.local_alignment_score(
                args["q"], args["d"], inputs.SERVE_MATCH,
                inputs.SERVE_MISMATCH, inputs.SERVE_GAP,
            )
        else:
            value = oracles.edit_distance(args["s"], args["t"])
        good.append(_served(request, value))
    workload.values = good
    workload.verify_outputs()
    assert workload.failures == []
    workload.values = good[:-1] + [_served(requests[-1], good[-1][2] + 1)]
    workload.verify_outputs()
    assert len(workload.failures) == 1


def test_log_forward_agrees_with_the_direct_space_reference():
    from repro.apps.baselines.hmm_tools import forward_reference
    from repro.apps.profile_hmm import tk_model
    from repro.runtime.values import PROTEIN, Sequence

    profile = tk_model()
    text = inputs.search_database(3, count=1, mean=40)[0]
    direct = forward_reference(profile, Sequence(text, PROTEIN))
    log_value = oracles.log_forward(profile, text)
    assert oracles.likelihood_matches(direct, log_value)
    assert not oracles.likelihood_matches(direct * (1 + 1e-6), log_value)


def test_search_oracle_rejects_a_corrupted_likelihood():
    from repro.apps.profile_hmm import tk_model

    workload = SearchMap(seed=2, quick=True, workdir="")
    workload.profile = tk_model()
    workload.texts = inputs.search_database(2, count=3, mean=30)
    likelihoods = [
        math.exp(oracles.log_forward(workload.profile, t)) for t in workload.texts
    ]
    workload.values = [(0, likelihoods)]
    workload.verify_outputs()
    assert workload.failures == []
    workload.values = [(1, likelihoods[:1] + [likelihoods[1] * 1.001] + likelihoods[2:])]
    workload.verify_outputs()
    assert len(workload.failures) == 1


def test_compile_cold_oracle_rejects_a_corrupted_value():
    workload = CompileCold(seed=4, quick=True, workdir="")
    specs = list(islice(inputs.compile_cold_programs(4, length=8), 3))
    references = [oracles.program_reference(spec) for spec in specs]
    workload.values = [(k, spec, ref) for k, (spec, ref) in enumerate(zip(specs, references))]
    workload.verify_outputs()
    assert workload.failures == []
    corrupted = references[0] + 1
    workload.values = [(0, specs[0], corrupted)]
    workload.verify_outputs()
    assert len(workload.failures) == 1


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_merged_child_coverage():
    tree = [
        spans.Span(1, "op", 0, 100, None, 7),
        spans.Span(2, "a", 10, 30, 1, 7),
        spans.Span(3, "b", 20, 50, 1, 7),   # overlaps a: 10..50 covered once
        spans.Span(4, "c", 60, 70, 1, 7),
        spans.Span(5, "leaf", 12, 18, 2, 7),
        spans.Span(6, "late", 95, 120, 1, 7),  # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own[1] == 100 - (40 + 10 + 5)
    assert own[2] == 20 - 6
    assert own[3] == 30
    assert own[5] == 6


def test_tracer_records_nesting_and_restores_what_it_patched():
    from repro.runtime import engine as engine_module
    from repro.runtime.engine import Engine

    originals = {
        name: getattr(engine_module, name)
        for name in ("find_schedule", "kernel_cost", "build_kernel")
    }
    method = Engine.domain_of
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine_module.find_schedule is not originals["find_schedule"]
        with tracer.operation(3):
            engine_module.Engine.domain_of  # attribute lookups are not calls
    finally:
        tracer.uninstall()
    assert Engine.domain_of is method
    for name, original in originals.items():
        assert getattr(engine_module, name) is original
    (root,) = tracer.spans
    assert (root.name, root.parent, root.op) == ("op", None, 3)


def test_windows_and_percentile():
    assert windows(79) == [(0, 79)]
    assert windows(99) == [(0, 50), (50, 99)]
    assert windows(1000) == [(0, 200), (200, 400), (400, 600), (600, 800), (800, 1000)]
    assert percentile([5.0], 0.9) == 5.0
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.0)


# -- inputs ------------------------------------------------------------------

def _inputs_digest(seed):
    return inputs.digest({
        "align": inputs.align_pairs(seed, length=64),
        "search": inputs.search_database(seed),
        "cold": [spec.text for spec in islice(inputs.compile_cold_programs(seed), 9)],
        "serve": [
            [r.event, r.function, r.args]
            for r in islice(inputs.serve_requests(seed), 30)
        ],
    })


def test_inputs_are_deterministic_per_seed():
    assert _inputs_digest(11) == _inputs_digest(11)
    assert _inputs_digest(11) != _inputs_digest(12)
    # A fresh interpreter with another string-hash seed agrees.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from perfbench.test_perfbench import _inputs_digest;"
        "print(_inputs_digest(11))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT)], capture_output=True, text=True,
        env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"}, timeout=120,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == _inputs_digest(11)


def test_work_per_operation_does_not_depend_on_the_seed():
    assert [len(s) for s in inputs.search_database(1)] == [
        len(s) for s in inputs.search_database(2)
    ]
    shapes = inputs.serve_shapes(1600)
    assert len(shapes) == 81 and all(
        1500 <= rows * cols <= 1700 and rows * cols <= 4096 for rows, cols in shapes
    )
    sizes = lambda seed: sorted(
        (r.args["i"] + 1, r.args["j"] + 1)
        for r in islice(inputs.serve_requests(seed), (inputs.BURST + 1) * len(shapes))
        if not r.fixed
    )
    assert sizes(1) == sizes(2) == shapes


def test_compile_cold_programs_are_all_new():
    bodies = set()
    for spec in islice(inputs.compile_cold_programs(5), 60):
        body = spec.text.split("let ")[0]
        if spec.kind != "forward":
            body = body.split("int ", 1)[1]  # matrices are run-time context
        else:
            body = body.split("prob ", 1)[1]
        bodies.add(body)
    assert len(bodies) == 60


# -- the command -------------------------------------------------------------

def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(workload, trace):
    out = _run("--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", trace, "--quick")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"),
    )
    out = _run("--workload", "align-large", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
