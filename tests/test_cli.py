"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "miodb" in out
    assert "nvm" in out
    assert "bench scale" in out


def test_dbbench_single_store(capsys):
    assert main(["dbbench", "--store", "miodb", "--n", "300", "--reads", "50"]) == 0
    out = capsys.readouterr().out
    assert "miodb" in out
    assert "write_KIOPS" in out


def test_dbbench_multiple_stores(capsys):
    rc = main(
        ["dbbench", "--store", "miodb,leveldb", "--n", "200", "--reads", "20"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "miodb" in out and "leveldb" in out


def test_dbbench_fillseq_mode(capsys):
    rc = main(
        ["dbbench", "--store", "miodb", "--mode", "fillseq", "--n", "200",
         "--reads", "20"]
    )
    assert rc == 0


def test_ycsb(capsys):
    rc = main(
        ["ycsb", "--store", "miodb", "--workloads", "A,C", "--records", "200",
         "--ops", "100"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "A_KIOPS" in out and "C_KIOPS" in out


def test_ycsb_rejects_unknown_workload(capsys):
    rc = main(
        ["ycsb", "--store", "miodb", "--workloads", "Z", "--records", "100",
         "--ops", "10"]
    )
    assert rc == 2


def test_unknown_store_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["dbbench", "--store", "rocksdb"])


def test_dbbench_mode_all_rejected():
    # Every --mode runs its own fill; there is no umbrella mode.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dbbench", "--mode", "all"])


def test_store_all_expands():
    parser = build_parser()
    args = parser.parse_args(["dbbench", "--store", "all"])
    assert len(args.store) >= 6


def test_ssd_flag(capsys):
    rc = main(
        ["dbbench", "--store", "miodb", "--ssd", "--n", "200", "--reads", "20"]
    )
    assert rc == 0


def test_perf_subcommand_prints_every_kernel_beside_its_pin(capsys):
    from repro.bench.perf import KERNELS

    assert main(["perf", "--ops-scale", "tiny"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]  # header, rule
    assert [row.split()[0] for row in rows] == list(KERNELS)
    assert all(row.split()[2] == row.split()[3] for row in rows)
    assert captured.err == ""


def test_perf_subcommand_exits_1_and_names_the_drifted_kernel(monkeypatch, capsys):
    from repro.bench.perf import PINNED

    recorded = PINNED["tiny"]["flush"]
    monkeypatch.setitem(PINNED["tiny"], "flush", 0.125)
    assert main(["perf", "--ops-scale", "tiny"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "kernel flush" in line
    assert repr(recorded) in line and "0.125" in line


@pytest.mark.parametrize(
    "argv",
    [["perf", "--kernels", "put"], ["perf", "--history"],
     ["diff", "--perf", "a", "b"]],
    ids=["perf-kernels", "perf-history", "diff-perf"],
)
def test_flags_of_the_removed_timing_harness_are_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_analyze_subcommand_is_byte_identical(tmp_path, capsys):
    argv = ["analyze", "--store", "miodb", "--n", "512", "--reads", "64"]
    outs, jsons = [], []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.json"
        assert main(argv + ["--json", str(path)]) == 0
        outs.append(capsys.readouterr().out)
        jsons.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert jsons[0] == jsons[1]
    assert "conservation: exact" in outs[0]
    assert "latency attribution" in outs[0]


def test_analyze_subcommand_ycsb_mode(capsys):
    rc = main(
        ["analyze", "--store", "leveldb", "--n", "300", "--reads", "50",
         "--mode", "ycsb-a", "--no-profile"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "leveldb" in out
    assert "conservation: exact" in out


def test_slo_subcommand_is_byte_identical(tmp_path, capsys):
    argv = [
        "slo", "--store", "miodb", "--n", "512", "--reads", "64",
        "--threshold-us", "5",
    ]
    outs, jsons = [], []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.json"
        assert main(argv + ["--json", str(path)]) == 0
        outs.append(capsys.readouterr().out)
        jsons.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert jsons[0] == jsons[1]
    assert "SLO: op-latency" in outs[0]
    assert "alert log" in outs[0]


def test_compare_analyze_flag(capsys):
    rc = main(["compare", "--store", "miodb", "--analyze"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "write_KIOPS" in out
    assert "latency attribution" in out


def test_cluster_analyze_flag(tmp_path, capsys):
    path = tmp_path / "cluster-analysis.json"
    rc = main(
        ["cluster", "--store", "miodb", "--shards", "2", "--clients", "2",
         "--ops", "100", "--preload", "200", "--key-space", "200",
         "--analyze", "--analyze-json", str(path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "cluster attribution" in out
    assert "conservation: exact" in out
    doc = json.loads(path.read_text())
    assert doc["n_shards"] == 2
    assert doc["conservation"]["exact"]


def test_check_strict_is_clean(capsys):
    assert main(["check", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "check: 0 finding(s)" in out


def test_check_races_one_store(capsys):
    rc = main(
        ["check", "--skip-lint", "--skip-contracts", "--races",
         "--store", "leveldb", "--races-n", "128"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "races [leveldb]: clean" in out


def test_check_fails_on_fresh_findings(tmp_path, capsys):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "mod.py").write_text("import time\nt = time.time()\n")
    rc = main(["check", "--strict", "--skip-contracts", "--path", str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[DET001]" in out


# ------------------------------------------------------------- live telemetry


@pytest.mark.obs_live
def test_trace_live_writes_sampled_artifacts(tmp_path, capsys):
    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.om"
    rc = main([
        "trace", "--store", "miodb", "--n", "512", "--reads", "64",
        "--live", "--slo-threshold-us", "5", "--stall-alert-us", "10",
        "--openmetrics", str(metrics), "--flight-dir", str(tmp_path),
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().err
    assert "# sampled:" in printed
    assert out.exists()
    text = metrics.read_text()
    assert text.endswith("# EOF\n")
    assert "repro_ops_seen_total" in text
    dumps = sorted(tmp_path.glob("flight-*.json"))
    assert dumps, "seeded stall/SLO scenario produced no flight dumps"
    doc = json.loads(dumps[0].read_text())
    assert doc["schema"] == "repro-flight-v1"


@pytest.mark.obs_live
def test_trace_live_is_byte_identical_across_runs(tmp_path):
    texts = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"{tag}.om"
        rc = main([
            "trace", "--store", "miodb", "--n", "256", "--reads", "32",
            "--live", "--openmetrics", str(metrics),
            "--out", str(tmp_path / f"{tag}.json"),
        ])
        assert rc == 0
        texts.append(metrics.read_text())
    assert texts[0] == texts[1]


@pytest.mark.obs_live
def test_cluster_live_renders_dashboard_frames(tmp_path, capsys):
    metrics = tmp_path / "cluster.om"
    rc = main([
        "cluster", "--store", "miodb", "--shards", "2", "--clients", "2",
        "--ops", "300", "--live", "--live-refresh-us", "500",
        "--openmetrics", str(metrics),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "live telemetry @" in printed
    assert "p99" in printed
    text = metrics.read_text()
    assert 'shard="1"' in text


@pytest.mark.obs_live
def test_cluster_live_conflicts_with_trace_and_analyze(tmp_path):
    assert main([
        "cluster", "--shards", "2", "--clients", "1", "--ops", "10",
        "--live", "--trace", str(tmp_path / "t"),
    ]) == 2
    assert main([
        "cluster", "--shards", "2", "--clients", "1", "--ops", "10",
        "--live", "--analyze",
    ]) == 2


# ------------------------------------------------------ bad values exit 2


@pytest.mark.parametrize("command", ["analyze", "slo"])
def test_traced_commands_reject_an_unknown_mode(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--mode", "bogus", "--n", "64"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--mode" in error and "bogus" in error


@pytest.mark.parametrize("seeds", ["abc", "3,x", ""])
def test_chaos_rejects_malformed_seeds(seeds, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--seeds", seeds])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--seeds" in error


@pytest.mark.parametrize("argv", [
    ["cluster", "--shards", "0"],
    ["cluster", "--max-queue-depth", "0"],
    ["cluster", "--key-space", "0"],
    ["cluster", "--read-frac", "2"],
    ["cluster", "--read-frac", "nan"],
    ["slo", "--target", "1.5"],
    ["slo", "--target", "1"],
    ["slo", "--factor", "0"],
    ["slo", "--long-ms", "-1"],
    ["slo", "--threshold-us", "0"],
    ["chaos", "--ops", "0"],
    ["chaos", "--ops", "9"],
    ["chaos", "--shards", "0"],
    ["cluster", "--shards", "two"],
    ["cluster", "--rate", "nan"],
    ["cluster", "--theta", "1.5"],
    ["cluster", "--theta", "1"],
    ["cluster", "--theta", "nan"],
    ["cluster", "--ops", "-1"],
    ["cluster", "--preload", "-1"],
    ["cluster", "--rebalance-every", "-1"],
    ["cluster", "--clients", "0"],
    ["dbbench", "--value-size", "-5"],
    ["dbbench", "--n", "-1"],
    ["dbbench", "--reads", "-1"],
    ["dbbench", "--batch-size", "-2"],
    ["ycsb", "--records", "-1"],
    ["ycsb", "--ops", "-1"],
    ["check", "--races-n", "0"],
    ["cluster", "--followers", "-1"],
    ["chaos", "--followers", "-1"],
    ["chaos", "--store", "novelsm"],
    ["cluster", "--store", "novelsm-nosst", "--followers", "1"],
    ["cluster", "--live-refresh-us", "nan"],
    ["trace", "--slo-threshold-us", "nan"],
    ["trace", "--stall-alert-us", "nan"],
    ["slo", "--min-kiops", "nan"],
])
def test_out_of_range_numbers_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"argument {argv[1]}: expected" in error and repr(argv[2]) in error


def test_boundary_numbers_still_parse():
    args = build_parser().parse_args(
        ["slo", "--long-ms", "0", "--target", "0.5", "--factor", "0.1"]
    )
    assert (args.long_ms, args.target, args.factor) == (0.0, 0.5, 0.1)
    args = build_parser().parse_args(["cluster", "--read-frac", "1", "--shards", "1"])
    assert (args.read_frac, args.shards) == (1.0, 1)
    assert build_parser().parse_args(["chaos", "--ops", "10"]).ops == 10
    args = build_parser().parse_args([
        "cluster", "--rate", "-1", "--theta", "0.99", "--ops", "0",
        "--preload", "0", "--rebalance-every", "0", "--clients", "1",
        "--value-size", "0",
    ])
    assert (args.rate, args.theta, args.ops, args.preload) == (-1.0, 0.99, 0, 0)
    assert (args.rebalance_every, args.clients, args.value_size) == (0, 1, 0)
    args = build_parser().parse_args(["dbbench", "--batch-size", "0", "--n", "0"])
    assert (args.batch_size, args.n) == (0, 0)
    assert build_parser().parse_args(["check", "--races-n", "1"]).races_n == 1


# ------------------------------------------------- default namespace pins

#: Every subcommand's parsed defaults (``func`` by name), digested.  A
#: parser refactor must not move these; print ``_namespace(cmd)`` to see
#: what changed when one does.
REQUIRED_ARGS = {"diff": ["a.json", "b.json"]}

PINNED_NAMESPACES = {
    "analyze": "bf094f257577bbe7",
    "chaos": "060c3f1eb9d44cc9",
    "check": "2eaf6f8c5a10fc04",  # PR 24: --baseline, --update-baseline gone
    "cluster": "2ba3d50d213040fb",
    "compare": "a13a5c7b3f0d5496",
    "dbbench": "d37f4f9d5691ad5a",
    "diff": "41e05b7dbcbab40e",
    "info": "623d5374b3ac39bc",
    "perf": "03eedd4ff960849d",
    "slo": "1b486ec7637e5994",
    "trace": "5b57d91641b9b21b",
    "ycsb": "28c9d257a9af6397",
}


def _namespace(command):
    args = build_parser().parse_args([command, *REQUIRED_ARGS.get(command, [])])
    doc = dict(vars(args), func=args.func.__name__)
    return sorted(doc.items())


def _namespace_digest(command):
    import hashlib

    return hashlib.sha256(repr(_namespace(command)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("command", sorted(PINNED_NAMESPACES))
def test_subcommand_default_namespace_is_pinned(command):
    assert _namespace_digest(command) == PINNED_NAMESPACES[command], (
        _namespace(command)
    )


def test_every_subcommand_has_a_namespace_pin():
    sub = next(
        a for a in build_parser()._actions if hasattr(a, "choices") and a.choices
    )
    assert sorted(sub.choices) == sorted(PINNED_NAMESPACES)
