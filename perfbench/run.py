"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the program untouched and prints the
end-to-end metrics. The interval is split over :data:`PROCESSES`
processes (this one and fresh ``--part`` subprocesses run one after
another), each set up from scratch: on a 2-core virtual machine a
process runs its native kernels in a fast or a slow state for its
whole life (about 25% apart), and the mean over three processes
spreads far less from run to run than one process does. ``--trace 1``
measures, in this process only, the first half of the interval
untouched and the second half with every layer wrapped
(``perfbench.spans``), and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
host fingerprint and every figure by name with its unit. The exit code
is 0 only when every output matched its reference and the intended
rung ran; the run writes only below ``perfbench/.work`` (removed at
exit) and ``perfbench/.out`` (span files of traced runs).
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Processes an end-to-end run measures in, each for an equal share of
#: the interval: ``setup_s`` is the median of their set-ups, the other
#: metrics the mean of their figures.
PROCESSES = 3
#: Operations run and checked, but not timed, between set-up and the
#: timed interval. The first second after set-up is at times twice as
#: slow as the rest on a 2-core host; a fixed window keeps that out of
#: both the latencies and ``setup_s``.
SETTLE_SECONDS = 1.0
#: The timed interval's operations are cut into up to this many
#: consecutive windows of equal count, each of at least
#: :data:`WINDOW_MIN` operations (so that each window's p90 has ten
#: samples beyond it); a latency percentile is the median of the
#: windows' percentiles, so a burst of host contention that slows one
#: part of the interval moves it less than a pooled percentile would.
WINDOWS = 5
WINDOW_MIN = 40

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs, one process (the benchmark's own tests)",
    )
    parser.add_argument(
        "--part", action="store_true",
        help="measure one process's share and print it as JSON (internal)",
    )
    return parser.parse_args(argv)


def scrub_environment() -> list:
    """Drop every inherited ``REPRO_*`` variable: each can change the
    rung, the thread count or the sandboxing of what is measured."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``,
    inclusive method) of at least one value."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def source_digest() -> str:
    """SHA-256 over the program's sources (path and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint(scrubbed: list) -> dict:
    import numpy
    from repro.runtime import native

    cc, openmp, _detail = native.toolchain()
    cc_version = None
    if cc is not None:
        out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=60)
        cc_version = (out.stdout.splitlines() or [""])[0]
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cc": cc_version,
        "openmp": openmp,
        "native_threads": native.effective_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "scrubbed_env": scrubbed,
    }


def child_part(args) -> dict:
    """One fresh process's share of the interval (``--part``)."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds / PROCESSES),
        "--trace", "0", "--part",
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"measuring subprocess failed: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def windows(count: int) -> list:
    """``(lo, hi)`` slices cutting ``count`` operations into
    consecutive windows of equal count (see :data:`WINDOWS`)."""
    parts = max(1, min(WINDOWS, count // WINDOW_MIN))
    bounds = [round(k * count / parts) for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def throughput(phase) -> float:
    """Million DP cells per host second: over the whole interval in
    the open loop, else the median over windows of cells over the
    operations' summed wall time."""
    if not phase.latencies:
        return 0.0
    if phase.open_loop_seconds:
        return sum(phase.cells) / phase.open_loop_seconds / 1e6
    return statistics.median(
        sum(phase.cells[lo:hi]) / sum(phase.latencies[lo:hi]) / 1e6
        for lo, hi in windows(len(phase.latencies))
    )


def measure_part(workload, seconds: float, setup_s: float) -> dict:
    """One process's end-to-end figures over ``seconds`` of operations."""
    phase = workload.measure(seconds)
    latencies = [x * 1e3 for x in phase.latencies] or [0.0]
    cuts = windows(len(latencies))
    pooled_p90 = percentile(latencies, 0.90)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(
            percentile(latencies[lo:hi], 0.50) for lo, hi in cuts
        ),
        "latency_p90_ms": statistics.median(
            percentile(latencies[lo:hi], 0.90) for lo, hi in cuts
        ),
        "throughput_mcups": throughput(phase),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(phase.latencies),
        "windows": len(cuts),
        "beyond_pooled_p90": sum(x > pooled_p90 for x in latencies),
        "sim_device_ms": (
            statistics.fmean(phase.sim_seconds) * 1e3 if phase.sim_seconds else None
        ),
        "miss_ratio": (
            phase.misses / max(1, len(phase.latencies) + phase.failed)
            if phase.open_loop_seconds else None
        ),
        "generator_late_ms": (
            statistics.fmean(phase.late) * 1e3 if phase.late else None
        ),
    }


def end_to_end(parts: list) -> dict:
    """Combine the processes' figures and print each one's."""
    for k, part in enumerate(parts):
        line = (
            f"process {k}: setup {part['setup_s']:.4f} s, {part['samples']} operations "
            f"in {part['windows']} windows ({part['beyond_pooled_p90']} beyond the "
            f"pooled p90), p50 {part['latency_p50_ms']:.4f} ms, "
            f"p90 {part['latency_p90_ms']:.4f} ms"
        )
        if part["sim_device_ms"] is not None:
            line += f", sim_device_ms {part['sim_device_ms']:.6f} (simulated GTX 480)"
        if part["miss_ratio"] is not None:
            line += (f", miss_ratio {part['miss_ratio']:.6f}, "
                     f"generator late {part['generator_late_ms']:.4f} ms")
        print(line)
    units = metric_units("end_to_end")
    figures = {
        name: statistics.fmean(part[name] for part in parts) for name in units
    }
    figures["setup_s"] = statistics.median(part["setup_s"] for part in parts)
    return {name: (figures[name], units[name]) for name in units}


def per_layer(workload, seconds: float) -> dict:
    from perfbench.spans import Tracer, layer_metrics

    untraced = workload.measure(seconds / 2)
    tracer = Tracer()
    before = workload.counters()
    tracer.install()
    try:
        traced = workload.measure(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    after = workload.counters()
    operations = len(traced.latencies) + traced.failed
    figures = layer_metrics(tracer, operations)
    figures.update(workload.layer_extras(before, after, traced))
    figures["trace.overhead_ratio"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies)
        if traced.latencies and untraced.latencies else 0.0
    )
    fired = {span.name for span in tracer.spans}
    for name in sorted(workload.reaches - fired):
        workload.problems.append(f"traced run: no {name} span on {workload.name}")
    for name in sorted(workload.bypasses & fired):
        workload.problems.append(f"traced run: unexpected {name} span on {workload.name}")
    out = BENCH / ".out"
    out.mkdir(exist_ok=True)
    tracer.dump(str(out / f"spans-{workload.name}-seed{workload.seed}.jsonl"))
    units = metric_units("per_layer")
    return {name: (figures[name], units[name]) for name in units}


def metric_units(section: str) -> dict:
    """Metric names and units of one ``BENCHMARK.json`` section, in
    its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run(args, workdir: Path, scrubbed: list) -> int:
    from perfbench.workloads import WORKLOADS, BenchError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.quick, str(workdir))
    try:
        workload.setup()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - _STARTED
    try:
        if not args.part:
            print("fingerprint " + json.dumps(host_fingerprint(scrubbed), sort_keys=True))
        workload.measure(SETTLE_SECONDS)
        if args.trace:
            metrics = per_layer(workload, args.seconds)
        else:
            share = args.seconds if args.part or args.quick else args.seconds / PROCESSES
            part = measure_part(workload, share, setup_s)
        workload.check_pins()
    finally:
        workload.close()
    workload.verify_outputs()
    if args.part:
        print(json.dumps({
            "part": part, "attempted": workload.attempted,
            "failures": workload.failures, "problems": workload.problems,
        }))
        return 0
    if not args.trace:
        parts = [part]
        if not args.quick:
            for _ in range(PROCESSES - 1):
                child = child_part(args)
                parts.append(child["part"])
                workload.attempted += child["attempted"]
                workload.failures += child["failures"]
                workload.problems += child["problems"]
        metrics = end_to_end(parts)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {len(workload.failures) / max(1, workload.attempted)!r} ratio")
    for line in workload.failures[:20] + workload.problems:
        print(f"FAILED {line}")
    correct = not workload.failures and not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            "perfbench: run from the root of a checkout of the repository, "
            "which holds src/repro and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    scrubbed = scrub_environment()
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    # Temporary files (the native build directory, the toolchain
    # probe) go below the checkout too.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return run(args, workdir, scrubbed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
