"""Every benchmark request's output, pinned by the digest the benchmark records.

Each case builds one workload at one seed with the benchmark's own
`bench/workloads.py`, under the relative path `bench/run.py` uses
(`.bench_build/<workload>-<seed>`, which a `pof` report prints), issues
every request once through `bench/client.py` and checks it, and compares
the sha256 over (exit code, stdout) of all responses with the value
recorded in `BENCH_20.json`.  A change that alters any output fails here;
one that means to updates the pinned digest and says why.
"""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# workload, seed: (output_sha256, requests that fail)
PINNED = {
    ("protocols", 1): ("be081b40fc8ad4cc1d92d30add6fd1077c8c784ac3793779d064631daebb5396", 2),
    ("protocols", 90210): ("ed4e81fd35edd9be34767425d6a318ecc72ccb4767853e8f08a7e98ad424ac4e", 4),
    ("revelation", 1): ("c84c6fe90a28a1a8f465198043883bc3cbf035347238b8a9b91101c0377e7cb1", 0),
    ("revelation", 90210): ("e41c100f7ed7706fd69ca04a213081770ffa96cd3e7b62a0c32878f7f2517511", 0),
    ("welfare", 1): ("c730a74287660e0f115745bb8f872f870a1cf39e260aa62ff8c73d64fab8e1d2", 0),
    ("welfare", 90210): ("b90d9cc38df3659befc090775859c93e3ae9680b3c285ad7ee5d721adc1ece79", 0),
}


@pytest.mark.parametrize("workload, seed", sorted(PINNED))
def test_benchmark_outputs_are_unchanged(workload, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(tmp_path)
    import client
    import workloads

    directory = os.path.join(".bench_build", "%s-%d" % (workload, seed))
    manifest = workloads.build(workload, seed, directory)
    digest, failed = client.Digest(), []
    for request in manifest["requests"]:
        response = client.issue(request)
        client.check(response)
        digest.add(response)
        if response.outcome != "ok":
            failed.append((response.request, response.outcome, response.detail))
    output_sha256, failures = PINNED[workload, seed]
    assert len(failed) == failures, failed
    assert digest.hexdigest() == output_sha256
