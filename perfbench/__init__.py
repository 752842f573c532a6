"""The repository benchmark: four seeded workloads, end to end and per layer.

Run one workload with::

    python3 perfbench/run.py --workload align-large --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (host wall clock, measured
with no instrumentation installed); ``--trace 1`` wraps the public
functions of each layer from this package (``perfbench.spans``) and
prints the per-layer metrics. ``BENCHMARK.json`` at the repository
root lists the workloads, the metrics and why each workload was
chosen. The tests of the benchmark itself run with
``python3 -m pytest perfbench``.

End-to-end metrics (all workloads), each the mean over the three
processes a run measures in (``run.py``): ``setup_s`` (import,
toolchain probe, start-up and warm-up; the median instead),
``latency_p50_ms`` / ``latency_p90_ms`` per operation (an alignment, a
search, a compile-and-run, or a request timed from its due time),
``throughput_mcups`` (DP cells per host second, the paper's unit) and
``peak_rss_mb``. The failure share (the result's ``failed`` over
``attempted``) and, on serve-mixed, the share of requests over the 1 s
latency limit are printed by name; they are not JSON metrics because
they are zero when the program is right. Simulated GTX-480 time, the paper's
currency, is printed apart and reported as ``gpu.sim_device_ms``.

Which end-to-end figure each per-layer metric should move (the
workloads in parentheses should show no change):

* ``lang.*`` (parse, check): compile-cold latency (the rest).
* ``schedule.*`` (solve time and calls, memo hit ratio): compile-cold
  and serve-mixed latency; search-map re-derives its schedule set on
  every map. (align-large.)
* ``verify.schedule_*``, ``verify.memo_hit_ratio``: serve-mixed p90 and
  misses, compile-cold latency. (align-large, search-map.)
* ``verify.races_ms``, ``ir.*``, ``native.cc_*``, ``native.probe_ms``:
  compile-cold latency; zero calls on the warm workloads.
* ``native.launch_ms``, ``native.threads``: align-large throughput;
  about half of search-map.
* ``engine.*`` host preparation and ``engine.host_share``: search-map
  and serve-mixed latency and throughput. (align-large.)
* ``gpu.kernel_cost_*``: search-map latency. (align-large, a few
  percent.)
* ``batching.*``: search-map throughput.
* ``cache.*``: compile-cold misses every operation; the rest hit.
* ``engine.demotions``, ``engine.rung.*``: failures, all workloads;
  expected zero demotions and only native rungs.
* ``service.*``: serve-mixed latency and misses only.
* ``trace.overhead_ratio``: traced over untraced median latency.

Out of scope: ``resilience`` and ``fuzz`` (the default path never
enters them) and ``schedule.autotune`` (not the engine default, and
one search takes seconds, too long for a per-operation workload).
"""
