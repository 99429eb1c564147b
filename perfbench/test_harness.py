"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

import json
import os
import random
import time

import pytest

import worker  # first: puts the checkout's src/ on sys.path

import relabel
import run
import speed
import tracing
import workloads
from fibcat import check_fi_type, grothendieck, limits
from fibcat import fitype as fitype_mod
from fibcat.generators import fi_truncated, indexed_gpow
from fibcat.groups import cyclic_group
from fibcat.ioformats import Loader, category_from_json, category_to_json, indexed_to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 9.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 3.0, 1.0, 3.0]


def test_meter_subtracts_probes_and_rescales_by_their_mean():
    meter = speed.Meter()
    meter.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.2:  # busy, so SIGPROF fires
        sum(range(1000))
    wall = time.perf_counter() - t
    own, scaled, slowdown = meter.stop()
    samples = meter.samples
    assert len(samples) >= speed.MIN_SAMPLES
    assert slowdown == pytest.approx(sum(samples) / len(samples) / speed.PROBE_REF_S)
    assert scaled == pytest.approx(own / slowdown)
    assert own < wall + 0.01
    # A region too short for a probe is topped up after it stops.
    meter.start()
    own, scaled, slowdown = meter.stop()
    assert len(meter.samples) == speed.MIN_SAMPLES and own < 0.01 and slowdown > 0


def test_traced_spans_nest_and_wrappers_are_restored():
    original = limits.is_pullback_square
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Re-exports and intra-module globals both hold the wrapper.
        assert fitype_mod.pullback is limits.pullback
        assert limits.is_pullback_square is not original
        assert limits.is_pullback_square.__wrapped__ is original
        report = check_fi_type(fi_truncated(2))
    finally:
        tracer.restore()
    assert limits.is_pullback_square is original
    tracing.assert_unwrapped()
    assert report.holds

    m = tracer.metrics(pass_s=1.0)
    assert m["limits.pullback.calls"] > 0
    assert m["limits.is_pullback_square.calls"] > 0
    own = tracing.self_times(tracer.parent, tracer.start, tracer.end)
    outer = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert abs(sum(own) - sum(tracer.end[i] - tracer.start[i] for i in outer)) < 1e-9


def test_leftover_wrapper_is_detected():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped()
    finally:
        tracer.restore()
    tracing.assert_unwrapped()


class _Args:
    workload = "build"
    seed = 0
    dir = "."


def _pass_with(monkeypatch, jobs, expected):
    monkeypatch.setattr(workloads, "jobs", lambda *a: jobs)
    return worker.Pass(_Args(), expected).run()


def test_wrong_expected_digest_counts_as_failure(monkeypatch):
    C = fi_truncated(2)
    got = workloads.outcome("build", C)
    wrong = json.loads(json.dumps(got))
    wrong["exact"]["composites"] += 1
    wrong["invariant"]["composites"] += 1
    ok = _pass_with(monkeypatch, [("fi2", lambda: C)], {"fi2": got})
    bad = _pass_with(monkeypatch, [("fi2", lambda: C)], {"fi2": wrong})
    assert ok.failures == []
    assert len(bad.failures) == 1 and "differs" in bad.failures[0]

    stdout = '{"verdict": {"holds": true}}\n'
    cli = workloads.outcome("cli", (0, stdout))
    other = workloads.outcome("cli", (0, stdout.replace("true", "true ")))
    assert workloads.mismatch(cli, other, seed=0) is not None  # digest differs
    assert workloads.mismatch(cli, other, seed=1) is None  # invariant agrees


def test_raising_and_slow_jobs_count_as_failures(monkeypatch):
    import signal

    def boom():
        raise ValueError("broken")

    monkeypatch.setattr(worker, "JOB_TIMEOUT_S", 0.2)
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        p = _pass_with(monkeypatch, [("boom", boom), ("slow", lambda: time.sleep(5))], {})
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(p.failures) == 2
    assert "ValueError" in p.failures[0] and "timed out" in p.failures[1]
    assert p.times["slow"] < 2


def test_relabelling_keeps_every_invariant():
    rng = random.Random(7)
    data = category_to_json(fi_truncated(3))
    moved = relabel.category(rng, data)
    assert set(moved["objects"]).isdisjoint(data["objects"])
    a, b = check_fi_type(category_from_json(data)), check_fi_type(category_from_json(moved))
    assert workloads.invariant(a.as_dict()) == workloads.invariant(b.as_dict())

    M = indexed_gpow(cyclic_group(2), 2)
    total = grothendieck(Loader().indexed(relabel.indexed(rng, indexed_to_json(M)))).total
    assert workloads.outcome("build", total) == workloads.outcome("build", grothendieck(M).total)


def test_triples_count_composable_chains():
    # FI_1 is the poset 0 <= 1: the chains a<=b<=c<=d are 0000 0001 0011 0111 1111.
    assert workloads.triples(fi_truncated(1)) == 5


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    emitted = set(tracing.Tracer().metrics(pass_s=1.0))
    emitted |= {"trace.overhead_ratio", "pass.wall_s", "pass.slowdown"}
    for wl, names in workloads.JOB_NAMES.items():
        for job in names:
            emitted |= {"job.%s.%s.s" % (wl, job), "job.%s.%s.rss_growth_mb" % (wl, job)}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])

    with open(os.path.join(os.path.dirname(__file__), "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert {wl: sorted(v) for wl, v in expected.items()} == {
        wl: sorted(v) for wl, v in workloads.JOB_NAMES.items()
    }
    groth = expected["build"]["groth_z2_4"]["exact"]
    assert (groth["composites"], groth["triples"]) == (263_137, 100_412_401)
