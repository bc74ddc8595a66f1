"""fairslice benchmark: one closed-loop client issuing seeded requests.

Usage, from the repository root:

    python3 bench/run.py --workload protocols --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Set-up runs SETUP_REPEATS times, each in a fresh interpreter that imports
fairslice and writes the workload's scenario files and manifest under
`.bench_build/`; `setup_s` is the median wall time of those runs.  The
timed run then issues the manifest's requests one at a time, in order, in
rounds until `--seconds` have passed (two to four rounds).  Request and
set-up times are scaled to a reference CPU speed by probes run between
them (see calibration.py), and each request is timed at its fastest round.  With `--trace 1` it instead runs the head and
the first block once untraced and twice traced, and reports per-layer
counts and self times.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md
for the workloads and metrics."""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_ROUNDS = 2
MAX_ROUNDS = 4
TRACED_PASSES = 2
WORKLOADS = ("protocols", "revelation", "welfare")
# A second seed, never used while tuning, for checking later claims.
HELD_OUT_SEED = 90210


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _workdir(workload, seed):
    return os.path.join(".bench_build", "%s-%d" % (workload, seed))


def _tree_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _setup_only(args):
    # Probes run in this process, around the import and the build, because
    # the parent may be on another CPU than this child.  Prints the input
    # digest, the median probe and the seconds the probes took.
    import calibration

    probes = [calibration.probe() for _ in range(3)]
    import workloads

    directory = _workdir(args.workload, args.seed)
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            os.remove(os.path.join(directory, name))
    workloads.build(args.workload, args.seed, directory)
    probes += [calibration.probe() for _ in range(3)]
    print(_tree_digest(directory), statistics.median(probes), sum(probes))
    return 0


def _timed_setups(args, calibration):
    """Run set-up in fresh interpreters; returns (scaled seconds per run, input digests)."""
    command = [sys.executable, os.path.join("bench", "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    seconds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError("set-up failed:\n" + done.stderr)
        digest, probe, probing = done.stdout.split()
        seconds.append((elapsed - float(probing)) * calibration.REFERENCE_S / float(probe))
        digests.add(digest)
    return seconds, digests


def _git_commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if os.path.exists(os.path.join(".git", ref)):
        with open(os.path.join(".git", ref)) as handle:
            return handle.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _run_pass(client, requests, responses, digest, check=True, calibration=None, probes=None):
    if probes is not None:
        probes.append(calibration.probe())
    for i, request in enumerate(requests, 1):
        response = client.issue(request)
        if check:
            client.check(response)
        digest.add(response)
        responses.append(response)
        if probes is not None and i % calibration.EVERY == 0:
            probes.append(calibration.probe())


def _percentile_ms(latencies, q):
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return 1000.0 * cuts[q - 1]


def _timed_run(client, calibration, manifest, seconds):
    """Issue the whole request list in rounds.

    Returns (round-1 responses, output digest, best scaled times, best raw
    times, rounds, problems).  Rounds repeat until `seconds` have passed, at
    least MIN_ROUNDS and at most MAX_ROUNDS of them.  Each request time is
    scaled to the reference speed by the probes around it (see
    calibration.py), and a request's time is its fastest round.  Only round
    1 is checked; later rounds must reproduce its outputs.
    """
    requests = manifest["requests"]
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MAX_ROUNDS and (
            len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds):
        responses, digest, probes = [], client.Digest(), []
        _run_pass(client, requests, responses, digest, not rounds, calibration, probes)
        raw = [r.seconds for r in responses]
        rounds.append((responses, digest.hexdigest(), calibration.scale(raw, probes), raw))
    best = [min(times) for times in zip(*(r[2] for r in rounds))]
    best_raw = [min(times) for times in zip(*(r[3] for r in rounds))]
    problems = []
    if len({r[1] for r in rounds}) != 1:
        problems.append("outputs differ between rounds of the same requests")
    return rounds[0][0], rounds[0][1], best, best_raw, len(rounds), problems


def _traced_run(client, tracing, workloads, manifest, args):
    """One untraced pass, then traced set-up and traced passes whose counts must agree.

    A pass is the head and the first block: fixed work, so counts repeat.
    """
    work = manifest["requests"][:manifest["head"] + manifest["block"]]
    responses, digest = [], client.Digest()
    started = time.perf_counter()
    _run_pass(client, work, responses, digest)
    untraced = time.perf_counter() - started

    tracer = tracing.Tracer()
    scratch = os.path.join(".bench_build", "traced-setup-%s-%d" % (args.workload, args.seed))
    with tracer.install(extra_namespaces=[workloads]):
        workloads.build(args.workload, args.seed, scratch)
        setup_counts, setup_self = dict(tracer.counts), dict(tracer.self_s)
        passes = []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            traced_digest = client.Digest()
            t0 = time.perf_counter()
            _run_pass(client, work, [], traced_digest, check=False)
            passes.append((time.perf_counter() - t0, dict(tracer.counts), dict(tracer.self_s),
                           traced_digest.hexdigest()))
    problems = []
    if any(p[1] != passes[0][1] for p in passes):
        problems.append("traced counts differ between passes of the same requests")
    if any(p[3] != digest.hexdigest() for p in passes):
        problems.append("traced outputs differ from untraced outputs")

    tracer.counts = {k: setup_counts[k] + v for k, v in passes[0][1].items()}
    tracer.counts["simplex.max_den_bits"] = max(
        setup_counts["simplex.max_den_bits"], passes[0][1]["simplex.max_den_bits"])
    tracer.self_s = {layer: setup_self[layer] + statistics.median(p[2][layer] for p in passes)
                     for layer in setup_self}
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = (statistics.median(p[0] for p in passes) / untraced, "ratio")
    return responses, digest.hexdigest(), metrics, problems


def _outcome_summary(responses):
    outcomes = collections.Counter(r.outcome for r in responses)
    kinds = collections.Counter(r.request["kind"] for r in responses)
    failures = collections.Counter(
        "%s %s: %s" % (r.request["kind"], r.outcome, r.detail[:120])
        for r in responses if r.outcome != "ok")
    return outcomes, kinds, failures


def _benchmark(args):
    sys.path.insert(0, BENCH_DIR)
    import calibration

    setup_seconds, input_digests = _timed_setups(args, calibration)
    import client
    import tracing
    import workloads

    with open(os.path.join(_workdir(args.workload, args.seed), "manifest.json")) as handle:
        manifest = json.load(handle)
    problems = []
    if len(input_digests) != 1:
        problems.append("set-up wrote different inputs for the same seed")

    if args.trace:
        responses, out_digest, metrics, more = _traced_run(
            client, tracing, workloads, manifest, args)
        problems += more
        extra = {"traced_passes": TRACED_PASSES}
        latencies = [r.seconds for r in responses]
    else:
        responses, out_digest, latencies, raw, rounds, more = _timed_run(
            client, calibration, manifest, args.seconds)
        problems += more
        metrics = {
            "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (_percentile_ms(latencies, 50), "ms"),
            "latency_p90_ms": (_percentile_ms(latencies, 90), "ms"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {
            "rounds": rounds,
            "setup_runs_s": [round(x, 4) for x in setup_seconds],
            "unscaled": {"throughput_rps": round(len(raw) / sum(raw), 4),
                         "latency_p50_ms": round(_percentile_ms(raw, 50), 4),
                         "latency_p90_ms": round(_percentile_ms(raw, 90), 4)},
        }

    outcomes, kinds, failures = _outcome_summary(responses)
    failed = len(responses) - outcomes["ok"]
    if outcomes["wrong"]:
        problems.append("%d responses broke their correctness check" % outcomes["wrong"])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "requests_per_kind": dict(sorted(kinds.items())),
        "percentile_samples": len(responses),
        "outcomes": dict(sorted(outcomes.items())),
        "output_sha256": out_digest,
        "input_sha256": sorted(input_digests)[0],
        **extra,
    }
    by_kind = collections.defaultdict(list)
    for r, seconds in zip(responses, latencies):
        by_kind[r.request["kind"]].append(1000.0 * seconds)
    for kind, ms in sorted(by_kind.items()):
        print("kind %-24s n=%4d  median %9.2f ms  max %9.2f ms"
              % (kind, len(ms), statistics.median(ms), max(ms)))
    for line in sorted(failures):
        print("failure x%d  %s" % (failures[line], line))
    for problem in problems:
        print("PROBLEM: " + problem)
    print("failed_frac %.6f ratio (%d of %d)" % (failed / len(responses), failed, len(responses)))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(responses),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _all(args):
    # Each workload in a fresh process, one at a time, so peak RSS is its own.
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print("== %s (exit %d)" % (workload, done.returncode))
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance")))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fairslice", "cli.py")):
        print("error: %s holds no fairslice sources; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.setup_only:
        return _setup_only(args)
    if args.workload == "all":
        return _all(args)
    return _benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
