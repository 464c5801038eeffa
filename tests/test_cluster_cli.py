"""Tests for the ``repro cluster`` CLI and cluster artifact export."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.cluster_smoke

FAST = [
    "--ops", "100", "--preload", "200", "--key-space", "200",
    "--value-size", "128",
]


def run_cluster_cli(tmp_path, tag, *extra):
    metrics = tmp_path / f"metrics-{tag}.json"
    rc = main(["cluster", *FAST, "--metrics", str(metrics), *extra])
    assert rc == 0
    return metrics.read_text()


def test_cluster_cli_prints_per_shard_table(capsys):
    assert main(["cluster", *FAST, "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shard" in out and "p99_us" in out
    assert "completed 400/400" in out
    assert "placement=hash-ring" in out


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_cluster_cli_metrics_deterministic(tmp_path, shards, capsys):
    texts = [
        run_cluster_cli(tmp_path, f"{shards}-{i}", "--shards", str(shards))
        for i in range(2)
    ]
    assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert doc["n_shards"] == shards
    assert len(doc["shards"]) == shards
    assert doc["driver"]["completed"] == 400
    capsys.readouterr()


def test_cluster_cli_skew_and_rebalance(tmp_path, capsys):
    text = run_cluster_cli(
        tmp_path, "skew", "--shards", "4", "--theta", "0.99",
        "--rebalance-every", "50",
    )
    doc = json.loads(text)
    assert doc["driver"]["rebalances"]
    assert doc["cluster"]["cluster"]["rebalances"] >= 1
    capsys.readouterr()


def test_cluster_cli_range_placement(tmp_path, capsys):
    # Also the case that sets the load shape docs/cluster.md describes:
    # an open-loop rate, a write-heavy mix, depth-1 queues that defer.
    text = run_cluster_cli(
        tmp_path, "range", "--placement", "range", "--rate", "2000000",
        "--read-frac", "0.25", "--admission", "defer",
        "--max-queue-depth", "1",
    )
    doc = json.loads(text)
    assert doc["placement"]["policy"] == "range"
    assert doc["cluster"]["cluster"]["deferred"] > 0
    assert {s["max_queue_depth"] for s in doc["driver"]["per_shard"]} == {1}
    gets = sum(s["counters"]["op"]["get"] for s in doc["shards"].values())
    assert gets < doc["driver"]["completed"] / 2
    capsys.readouterr()


def test_cluster_cli_trace_artifact(tmp_path, capsys):
    trace = tmp_path / "cluster-trace.json"
    rc = main([
        "cluster", *FAST, "--shards", "2", "--trace", str(trace),
    ])
    assert rc == 0
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    pids = {e["pid"] for e in events}
    assert pids == {1, 2}
    names = {
        e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert names == {"shard0:miodb", "shard1:miodb"}
    shard_tags = {
        e["args"]["shard"] for e in events if e["ph"] in ("X", "i")
    }
    assert shard_tags == {0, 1}
    capsys.readouterr()


def test_cluster_cli_rejects_multiple_stores(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--store", "miodb,leveldb", *FAST])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
        "error: argument --store: expected one store, got 'miodb,leveldb'"
    )


def test_info_lists_placement_policies(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "placement policies: hash-ring, range" in out
