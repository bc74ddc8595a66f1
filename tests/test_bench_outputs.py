"""Every benchmark request's output, pinned by the digest the benchmark records.

Each case builds one workload at one seed with the benchmark's own
`bench/workloads.py`, under the relative path `bench/run.py` uses
(`.bench_build/<workload>-<seed>`, which a `pof` report prints), issues
every request once through `bench/client.py` and checks it, and compares
the sha256 over (exit code, stdout) of all responses with the value
recorded in `BENCH_20.json`; the `welfare` ones were pinned again when
the welfare LPs began to print their lexicographically least optimum.  A
change that alters any output fails here; one that means to updates the
pinned digest and says why.

A second digest covers the values alone: each response's exit code, the
`ue` and `ee` of a report, a `pof` row, and the `ee` of `max_ee` and the
verdict of the Pareto oracle.  It is checked first, so a change that
moves only allocations (another optimal vertex of a welfare LP) fails on
the output digest with the value digest still matching.  A report's
criteria flags are left out: besides the criterion a welfare LP imposes,
they describe which optimal allocation is printed, as an equitable
optimum may or may not be envy-free.
"""

import hashlib
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# workload, seed: (output_sha256, values_sha256, requests that fail)
PINNED = {
    ("protocols", 1): (
        "be081b40fc8ad4cc1d92d30add6fd1077c8c784ac3793779d064631daebb5396",
        "a5f10d3871dc8e99201921e851e72331a094773cf381ce53572c44129fc4df7b",
        2,
    ),
    ("protocols", 90210): (
        "ed4e81fd35edd9be34767425d6a318ecc72ccb4767853e8f08a7e98ad424ac4e",
        "ac0f4b0a7f5282e8109b197520076ed1698fa9184ec013815cc37f9c15ea2d28",
        4,
    ),
    ("revelation", 1): (
        "c84c6fe90a28a1a8f465198043883bc3cbf035347238b8a9b91101c0377e7cb1",
        "51870d06b3777b966e11c73a170f98276e6ad1dd748bf453e4bc3db33e20249d",
        0,
    ),
    ("revelation", 90210): (
        "e41c100f7ed7706fd69ca04a213081770ffa96cd3e7b62a0c32878f7f2517511",
        "4a2a9e3f805005b10096d7ecd04399cdb1c9da8e9d787ce68a1d07773c795805",
        0,
    ),
    ("welfare", 1): (
        "c1c5a59e7dea3813afeaf37184f5460d411b5eb4d2550d002df3af80ffe0d842",
        "cf3ecb402979a3aa790311290db17631b251a4f5aa9c2f8162ab2512e85a427f",
        0,
    ),
    ("welfare", 90210): (
        "27320c1576778126331af2b2dd6ee354415a5567382fdc44f334bd4e8f0d53e3",
        "7704c51e815adf4ad35dc8980cf4c8204456aefba15107a4e49b3c914ef2391e",
        0,
    ),
}

VALUE_KEYS = ("ue", "ee", "pareto_efficient")


def values(response):
    """The exit code and the values of one response, as text."""
    text = "%r\n" % (response.code,)
    if response.request["kind"].startswith("pof"):
        return text + response.stdout
    try:
        report = json.loads(response.stdout)
    except ValueError:
        return text
    shown = {key: report[key] for key in VALUE_KEYS if key in report}
    return text + json.dumps(shown, sort_keys=True) + "\n"


@pytest.mark.parametrize("workload, seed", sorted(PINNED))
def test_benchmark_outputs_are_unchanged(workload, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(tmp_path)
    import client
    import workloads

    directory = os.path.join(".bench_build", "%s-%d" % (workload, seed))
    manifest = workloads.build(workload, seed, directory)
    digest, value_digest, failed = client.Digest(), hashlib.sha256(), []
    for request in manifest["requests"]:
        response = client.issue(request)
        client.check(response)
        digest.add(response)
        value_digest.update(values(response).encode())
        if response.outcome != "ok":
            failed.append((response.request, response.outcome, response.detail))
    output_sha256, values_sha256, failures = PINNED[workload, seed]
    assert len(failed) == failures, failed
    assert value_digest.hexdigest() == values_sha256, "a value changed"
    assert digest.hexdigest() == output_sha256, "an output changed, no value did"
