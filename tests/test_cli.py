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
    with pytest.raises(SystemExit) as exit_info:
        main(["ycsb", "--store", "miodb", "--workloads", "Z", "--records", "100",
              "--ops", "10"])
    assert exit_info.value.code == 2


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


def test_check_fails_on_fresh_findings(tmp_path, capsys):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "mod.py").write_text("import time\nt = time.time()\n")
    rc = main(["check", "--strict", "--skip-contracts", "--path", str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[DET001]" in out


def test_dbbench_n_zero_writes_no_records(capsys):
    assert main(["dbbench", "--store", "leveldb", "--n", "0"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert row[0] == "leveldb"
    assert [float(cell.replace(",", "")) for cell in row[1:]] == [0.0] * 5


def test_every_file_lands_in_a_missing_directory(tmp_path, capsys):
    new = tmp_path / "new"
    assert main(["cluster", "--shards", "1", "--clients", "1", "--ops", "20",
                 "--preload", "20", "--metrics", str(new / "c" / "m.json")]) == 0
    assert main(["chaos", "--ops", "20", "--shards", "1",
                 "--report", str(new / "h" / "r.json")]) == 0
    analysis = tmp_path / "a.json"
    assert main(["analyze", "--n", "64", "--reads", "8",
                 "--json", str(analysis)]) == 0
    assert main(["diff", str(analysis), str(analysis),
                 "--out", str(new / "d" / "d.json")]) == 0
    err = capsys.readouterr().err
    for label, path in (("metrics", "c/m.json"), ("chaos report", "h/r.json"),
                        ("diff report", "d/d.json")):
        assert json.loads((new / path).read_text())
        assert f"# {label}: {new / path}\n" in err


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
    ["check", "--races"],
    ["cluster", "--followers", "-1"],
    ["chaos", "--followers", "-1"],
    ["chaos", "--store", "novelsm"],
    ["cluster", "--store", "novelsm-nosst", "--followers", "1"],
    ["cluster", "--live-refresh-us", "nan"],
    ["trace", "--slo-threshold-us", "nan"],
    ["trace", "--stall-alert-us", "nan"],
    ["slo", "--min-kiops", "nan"],
    ["check", "--path", "no-such-dir"],
    ["dbbench", "--fsync-policy", "bogus"],
    ["dbbench", "--fsync-policy", "batch:0"],
    ["cluster", "--fsync-policy", "interval:-1"],
    ["slo", "--n", "0"],
    ["analyze", "--n", "0", "--mode", "ycsb-a"],
    ["ycsb", "--workloads", "A,Z"],
    ["ycsb", "--workloads", ","],
    # A flag that would do nothing without --live / --analyze, or that
    # --live would undo, is refused at parse time too.
    ["trace", "--openmetrics", "m.om"],
    ["trace", "--flight-dir", "."],
    ["trace", "--slo-threshold-us", "2.5"],
    ["trace", "--stall-alert-us", "2.5"],
    ["cluster", "--openmetrics", "m.om"],
    ["cluster", "--flight-dir", "."],
    ["cluster", "--slo-threshold-us", "2.5"],
    ["cluster", "--stall-alert-us", "2.5"],
    ["cluster", "--live-refresh-us", "2.5"],
    ["cluster", "--analyze-json", "a.json"],
    ["cluster", "--live", "--trace", "t.json"],
    ["cluster", "--live", "--analyze"],
    # cluster and chaos drive one store per run.
    ["cluster", "--store", "miodb,leveldb"],
    ["chaos", "--store", "miodb,leveldb"],
    # A record needs bytes, and a YCSB run draws keys from the loaded set.
    ["dbbench", "--value-size", "0"],
    ["ycsb", "--value-size", "0"],
    ["compare", "--value-size", "0"],
    ["ycsb", "--records", "0"],
])
def test_out_of_range_numbers_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    if len(argv) == 2:  # a flag that no longer exists
        assert error.endswith(f"error: unrecognized arguments: {argv[1]}")
    else:
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


# ------------------------------------------------- default namespace pins

#: Every subcommand's parsed defaults (``func`` by name), digested: a
#: parser refactor must not move them.
REQUIRED_ARGS = {"diff": ["a.json", "b.json"]}
SUBCOMMANDS = sorted(next(
    a.choices for a in build_parser()._actions if hasattr(a, "choices") and a.choices
))


def _namespace(command):
    args = build_parser().parse_args([command, *REQUIRED_ARGS.get(command, [])])
    doc = dict(vars(args), func=args.func.__name__)
    return sorted(doc.items())


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_default_namespace_is_pinned(command, pin):
    import hashlib

    digest = hashlib.sha256(repr(_namespace(command)).encode()).hexdigest()[:16]
    pin(f"cli-namespace/{command}", digest)


def test_every_subcommand_has_a_namespace_pin():
    from tests.conftest import load_pins

    family = "cli-namespace/"
    pinned = sorted(n[len(family):] for n in load_pins() if n.startswith(family))
    assert pinned == SUBCOMMANDS
