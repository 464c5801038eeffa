"""Byte pins for the replicated planes' CLI artifacts.

``tests/test_obs_repl_trace.py`` checks the *shape* of the ``repl.*``
causal events; nothing pinned their bytes.  These digests are of the
files ``repro chaos --store miodb --seeds 3,7,42 --report F --trace F``
and ``repro cluster --followers 2 --shards 2 --ops 300 --trace F
--metrics F --analyze --analyze-json F`` write, so a refactor of
``cluster/`` or ``replication/`` is correct iff they do not move.
"""

import hashlib

import pytest

from repro.cli import main

pytestmark = pytest.mark.chaos_smoke


def digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_chaos_report_and_merged_traces_are_pinned(tmp_path, capsys, pin):
    rc = main([
        "chaos", "--store", "miodb", "--seeds", "3,7,42",
        "--report", str(tmp_path / "report.json"),
        "--trace", str(tmp_path / "chaos.json"),
    ])
    capsys.readouterr()
    assert rc == 0
    pin("repl/chaos", digests(tmp_path))


def test_replicated_cluster_artifacts_are_pinned(tmp_path, capsys, pin):
    rc = main([
        "cluster", "--followers", "2", "--shards", "2", "--ops", "300",
        "--trace", str(tmp_path / "trace.json"),
        "--metrics", str(tmp_path / "metrics.json"),
        "--analyze", "--analyze-json", str(tmp_path / "analyze.json"),
    ])
    capsys.readouterr()
    assert rc == 0
    pin("repl/cluster", digests(tmp_path))
