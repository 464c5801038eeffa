"""Byte pins for the replicated planes' CLI artifacts.

``tests/test_obs_repl_trace.py`` checks the *shape* of the ``repl.*``
causal events; nothing pinned their bytes.  These digests are of the
files ``repro chaos --store miodb --seeds 3,7,42 --report F --trace F``
and ``repro cluster --followers 2 --shards 2 --ops 300 --trace F
--metrics F --analyze --analyze-json F`` write, so a refactor of
``cluster/`` or ``replication/`` is correct iff they do not move.

A digest changes only when a simulated result is meant to move; say
which and why in the commit that re-pins it.
"""

import hashlib

import pytest

from repro.cli import main

pytestmark = pytest.mark.chaos_smoke

CHAOS_PINS = {
    "report.json":
        "0ef1295c32086eb338d8262eb592e02e314cc99106d72badc9877242ac6d1821",
    "chaos-s3.json":
        "4e4395dd1ddb5bd187d608292c62c4da8890a1ec0615e9d8bb2826f2b0f7dfbb",
    "chaos-s7.json":
        "9c82d9376b04041e0dfd849997a75aa73c8b8941e067f64ffacd4beefcf16210",
    "chaos-s42.json":
        "432ec6313f3203b70d60bf6116ab411a96f80af0bcccb5254cd7bec528ec3d43",
}

CLUSTER_PINS = {
    "trace.json":
        "6e2a0dcd66a0401dc36b2d36062e80881561701ac303049a51639dff929ed84e",
    "metrics.json":
        "2922cd23d50f49dc9eb5459bc7637081cf238d7e1e30ce2769bad6e06edb6eff",
    "analyze.json":
        "a5cf35804fa039edc2bf09eb244781902f0463f63a08914f601b6215ae11d130",
}


def digests(directory, names):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in names
    }


def test_chaos_report_and_merged_traces_are_pinned(tmp_path, capsys):
    rc = main([
        "chaos", "--store", "miodb", "--seeds", "3,7,42",
        "--report", str(tmp_path / "report.json"),
        "--trace", str(tmp_path / "chaos.json"),
    ])
    capsys.readouterr()
    assert rc == 0
    assert digests(tmp_path, CHAOS_PINS) == CHAOS_PINS


def test_replicated_cluster_artifacts_are_pinned(tmp_path, capsys):
    rc = main([
        "cluster", "--followers", "2", "--shards", "2", "--ops", "300",
        "--trace", str(tmp_path / "trace.json"),
        "--metrics", str(tmp_path / "metrics.json"),
        "--analyze", "--analyze-json", str(tmp_path / "analyze.json"),
    ])
    capsys.readouterr()
    assert rc == 0
    assert digests(tmp_path, CLUSTER_PINS) == CLUSTER_PINS
