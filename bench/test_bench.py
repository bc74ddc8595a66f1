"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest bench -q`.  The smoke
runs take a few minutes: each issues its workload's full request list twice.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibration  # noqa: E402
import client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fairslice.cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _bench(workload, 3, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["latency_p50_ms"]["value"] <= result["metrics"]["latency_p90_ms"]["value"]


def test_traced_counts_repeat_across_runs():
    first = _bench("welfare", 4, 1)
    second = _bench("welfare", 4, 1)
    _assert_metrics(first, SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        if spec["unit"] != "s" and spec["name"] != "trace.overhead":
            name = spec["name"]
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["simplex.pivots"]["value"] > 0


def test_setup_is_deterministic(tmp_path):
    one = workloads.build("revelation", 5, str(tmp_path / "one"))
    two = workloads.build("revelation", 5, str(tmp_path / "two"))
    assert [r["kind"] for r in one["requests"]] == [r["kind"] for r in two["requests"]]
    for name in sorted(os.listdir(tmp_path / "one")):
        if name != "manifest.json":
            assert (tmp_path / "one" / name).read_text() == (tmp_path / "two" / name).read_text()


def test_broken_requests_are_counted_and_do_not_stop_the_run(tmp_path):
    manifest = workloads.build("protocols", 6, str(tmp_path))
    good = manifest["requests"][manifest["head"]]
    broken = [
        # The CLI has no handler for a non-numeric range: a traceback.
        {"kind": "bench", "argv": ["bench", "--mechanism", "even-paz", "--n-range", "abc"],
         "check": "bench"},
        # A missing scenario file: exit 2.
        {"kind": "run:even-paz", "argv": ["run", str(tmp_path / "missing.json"),
                                          "--mechanism", "even-paz"], "check": "exit0"},
        # An argument argparse rejects: SystemExit(2).
        {"kind": "run:even-paz", "argv": ["run", "--mechanism", "no-such"], "check": "exit0"},
        # A correct output judged against an impossible bound: a wrong answer.
        dict(good, check="queries", bound=1),
    ]
    responses = []
    run._run_pass(client, broken + [good], responses, client.Digest())
    assert [r.outcome for r in responses] == ["exception", "exit", "exit", "wrong", "ok"]
    assert "Traceback" in responses[0].stderr
    outcomes, _, failures = run._outcome_summary(responses)
    assert len(responses) - outcomes["ok"] == 4
    assert sum(failures.values()) == 4


def test_layer_self_times_sum_to_the_traced_duration(tmp_path):
    manifest = workloads.build("welfare", 7, str(tmp_path))
    request = next(r for r in manifest["requests"] if r["kind"] == "pof:envy-free")
    original_main = fairslice.cli.main
    original_table = dict(fairslice.cli.QUERY_MECHANISMS)
    with tracing.Tracer().install() as tracer:
        response = client.issue(request)
        assert fairslice.cli.main is not original_main
    assert response.outcome == "ok"
    assert tracer.root_s > 0
    assert tracer.root_s <= response.seconds
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-9)
    assert tracer.counts["cli.requests"] == 1
    assert tracer.counts["simplex.solves"] == 2
    assert fairslice.cli.main is original_main
    assert fairslice.cli.QUERY_MECHANISMS == original_table


def test_reentrant_calls_are_counted_once_and_timed_once():
    from fairslice.intervals import IntervalSet

    with tracing.Tracer().install() as tracer:
        # difference() calls intersect() and complement() inside the same layer.
        IntervalSet([(0, 1)]).difference(IntervalSet([(0, "1/2")]))
    assert tracer.counts["intervals.ops"] == 3
    assert tracer.self_s["intervals"] == pytest.approx(tracer.root_s)


def test_scaling_divides_out_a_slower_machine():
    raw = [0.010, 0.020, 0.030, 0.040, 0.050, 0.060, 0.070, 0.080, 0.090]
    at_reference = [calibration.REFERENCE_S] * (len(raw) // calibration.EVERY + 1)
    assert calibration.scale(raw, at_reference) == pytest.approx(raw)
    slower = [2 * p for p in at_reference]
    assert calibration.scale([2 * t for t in raw], slower) == pytest.approx(raw)
    assert calibration.probe() > 0
