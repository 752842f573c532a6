"""The warm ``map`` host path: group work once, member work once.

A 64-member map with varied lengths, on a vector-batched 2-D kernel
(edit distance) and on the Figure 14 log-space forward recursion.
The counts pin the hoisting; the pricing test pins that the simulated
times are exactly what per-member direct calls of the cost model give.
"""

import random
from collections import Counter

import pytest

from repro.apps.hmm_algorithms import FORWARD_SOURCE
from repro.apps.profile_hmm import tk_model
from repro.gpu import timing
from repro.gpu.device import ProblemCost
from repro.gpu.timing import (
    batched_launch_cost,
    kernel_cost,
    problems_per_sm,
)
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import engine as engine_mod
from repro.runtime import native
from repro.runtime.batching import plan_batches
from repro.runtime.engine import Engine, size_bucket
from repro.runtime.values import ENGLISH, PROTEIN, Sequence
from repro.service import cache

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

MEMBERS = 64


def _texts(chars, seed, low, high):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(chars) for _ in range(rng.randint(low, high)))
        for _ in range(MEMBERS)
    ]


def edit_case():
    """Edit distance against a fixed word, members on both sides of
    the vector crossover (so two size buckets)."""
    func = check_function(
        parse_function(EDIT_DISTANCE.strip()), {"en": ENGLISH.chars}
    )
    problems = [
        {"s": Sequence(text, ENGLISH)}
        for text in _texts(ENGLISH.chars, 1, 1, 130)
    ]
    base = {"t": Sequence("sitting", ENGLISH)}
    return Engine(backend="vector"), func, base, problems


def forward_case():
    """The Figure 14 search: the log-space forward over a profile."""
    func = check_function(parse_function(FORWARD_SOURCE))  # no memos yet
    problems = [
        {"x": Sequence(text, PROTEIN)}
        for text in _texts(PROTEIN.chars, 2, 5, 40)
    ]
    return Engine(prob_mode="logspace"), func, {"h": tk_model()}, problems


CASES = {"edit-vector": edit_case, "forward-logspace": forward_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper counting its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestHoisting:
    def test_one_partition_profile_per_member(self, case, monkeypatch):
        engine, func, base, problems = case
        engine.map_run(func, base, problems)  # warm
        calls = counting(monkeypatch, timing, "partition_sizes")
        monkeypatch.setattr(
            engine_mod, "partition_sizes", timing.partition_sizes
        )
        batched = counting(monkeypatch, engine_mod, "batched_launch_cost")
        result = engine.map_run(func, base, problems)
        assert len(calls) == MEMBERS
        assert len(batched) == result.lane_batches

    def test_one_hash_per_schedule_and_rung(self, case, monkeypatch):
        engine, func, base, problems = case
        hashes = []

        class CountingHashlib:
            @staticmethod
            def sha256(data):
                hashes.append(data)
                import hashlib

                return hashlib.sha256(data)

        monkeypatch.setattr(cache, "hashlib", CountingHashlib)
        first = engine.map_run(func, base, problems)
        # verify + resolve + the rung, per schedule in use.
        assert len(hashes) <= 3 * len(first.schedule_usage)
        assert len(hashes) == len(set(hashes))
        hashes.clear()
        engine.map_run(func, base, problems)
        assert hashes == []

    def test_one_cache_lookup_per_schedule_and_bucket(self, case):
        engine, func, base, problems = case
        engine.map_run(func, base, problems)
        before = engine.cache_info()
        engine.map_run(func, base, problems)
        after = engine.cache_info()
        prepared, _, _, _ = engine.prepare_map(func, base, problems)
        groups = {
            (compiled.schedule.coefficients, size_bucket(domain))
            for _, domain, compiled in prepared
        }
        assert after.hits - before.hits == len(groups)
        assert after.misses == before.misses

    def test_descents_extracted_once(self, monkeypatch):
        from repro.analysis import criteria

        engine, func, base, problems = forward_case()
        calls = counting(monkeypatch, criteria, "extract_descents")
        engine.map_run(func, base, problems[:8])
        engine.map_run(func, base, problems[:8])
        assert len(calls) == 1


class TestPricingUnchanged:
    def test_costs_match_direct_calls(self, case):
        """Every simulated-time field equals what the cost model gives
        when called once per member, with nothing shared."""
        engine, func, base, problems = case
        result = engine.map_run(func, base, problems)
        prepared, _, _, _ = engine.prepare_map(func, base, problems)

        costs, problem_costs = [], []
        for bound, domain, compiled in prepared:
            degree = engine.mean_degree(func, bound)
            cost = kernel_cost(
                compiled.kernel, domain, engine.spec, mean_degree=degree
            )
            costs.append(cost)
            problem_costs.append(
                ProblemCost(
                    cost.seconds,
                    bytes_in=engine._problem_bytes(domain, bound),
                    packing=problems_per_sm(
                        compiled.kernel, domain, engine.spec
                    ),
                )
            )
        assert result.costs == costs
        assert [c.seconds for c in result.costs] == [
            c.seconds for c in costs
        ]
        report = engine.device.launch(problem_costs)
        assert result.report.total_seconds == report.total_seconds
        assert result.schedule_usage == dict(
            Counter(c.schedule.coefficients for _, _, c in prepared)
        )

        batched_costs = []
        groups = plan_batches(prepared)
        assert len(groups) == len(result.batched_backends)
        for group, backend in zip(groups, result.batched_backends):
            bound, _, compiled = prepared[group[0]]
            batched_costs.append(
                batched_launch_cost(
                    compiled.kernel,
                    [prepared[i][1] for i in group],
                    engine.spec,
                    mean_degree=engine.mean_degree(func, bound),
                    threads=(
                        native.effective_threads()
                        if backend == "native-batched"
                        else 1
                    ),
                )
            )
        assert result.batched_costs == batched_costs
