"""Differential trace analysis (``repro diff``): ranking and verdicts.

The pinned behavior anchoring the module: a same-seed self-diff reports
exactly zero deltas (analysis documents are byte-identical, so nothing
can differ).
"""

import json

import pytest

from repro.obs.analyze import diff_analysis, render_diff
from repro.obs.export import document_json

pytestmark = pytest.mark.obs_diff


def analysis_doc(**overrides):
    doc = {
        "store": "miodb",
        "sim_time_s": 2.0,
        "events": 100,
        "attribution": {
            "ops": 50,
            "measured_s": 1.0,
            "queue_s": 0.25,
            "stall_s": {"memtable-full": 0.1},
            "slowest": {"index": 3, "measured_s": 0.5},
        },
        "stall_seconds_by_cause": {"memtable-full": 0.1},
        "conservation": {"ok": True},
    }
    doc.update(overrides)
    return doc


def test_self_diff_reports_exactly_zero_deltas():
    doc = analysis_doc()
    diff = diff_analysis(doc, doc, "run-a", "run-b")
    assert diff["deltas"] == []
    assert diff["verdict"].startswith("no differences")


def test_self_diff_is_byte_stable():
    doc = analysis_doc()
    first = document_json(diff_analysis(doc, doc))
    second = document_json(diff_analysis(json.loads(json.dumps(doc)), doc))
    assert first == second


def test_deltas_rank_by_relative_magnitude():
    a = analysis_doc()
    b = analysis_doc(sim_time_s=2.2)  # 10% shift
    b["attribution"] = dict(a["attribution"], queue_s=0.75)  # 3x shift
    diff = diff_analysis(a, b)
    metrics = [row["metric"] for row in diff["deltas"]]
    assert metrics == ["attribution.queue_s", "sim_time_s"]
    top = diff["deltas"][0]
    assert top["a"] == 0.25 and top["b"] == 0.75
    assert top["delta"] == 0.5
    assert top["ratio"] == 3.0


def test_metrics_absent_on_one_side_diff_against_zero():
    a = analysis_doc()
    b = analysis_doc()
    b["stall_seconds_by_cause"] = {}
    diff = diff_analysis(a, b)
    rows = {row["metric"]: row for row in diff["deltas"]}
    assert rows["stall_seconds_by_cause.memtable-full"]["b"] == 0.0


def test_bookkeeping_and_examples_never_alarm_a_diff():
    a = analysis_doc()
    b = analysis_doc()
    b["conservation"] = {"ok": False}  # not a compared section
    b["attribution"] = dict(a["attribution"],
                            slowest={"index": 9, "measured_s": 9.0})
    assert diff_analysis(a, b)["deltas"] == []


def test_verdict_names_the_biggest_mover():
    a = analysis_doc()
    b = analysis_doc(events=200)
    verdict = diff_analysis(a, b, "old", "new")["verdict"]
    assert "events" in verdict
    assert "100" in verdict and "200" in verdict
    assert "from old to new" in verdict


# -------------------------------------------------------------- CLI surface


def test_cli_diff_analysis_mode(tmp_path, capsys):
    from repro.cli import main

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "diff.json"
    a.write_text(json.dumps(analysis_doc()))
    b.write_text(json.dumps(analysis_doc(sim_time_s=3.0)))
    rc = main(["diff", str(a), str(b), "--out", str(out)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "repro diff (analysis)" in shown
    assert "sim_time_s" in shown
    saved = json.loads(out.read_text())
    assert saved["mode"] == "analysis"
    assert saved["deltas"][0]["metric"] == "sim_time_s"


def test_cli_diff_self_is_silent_about_deltas(tmp_path, capsys):
    from repro.cli import main

    a = tmp_path / "a.json"
    a.write_text(json.dumps(analysis_doc()))
    rc = main(["diff", str(a), str(a)])
    assert rc == 0
    assert "no differences" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text", ["not json", "[1, 2]", "7"], ids=["text", "array", "number"]
)
def test_cli_diff_rejects_a_document_that_is_not_a_json_object(
    tmp_path, capsys, text
):
    from repro.cli import main

    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(json.dumps(analysis_doc()))
    bad.write_text(text)
    for argv in ([str(good), str(bad)], [str(bad), str(good)]):
        assert main(["diff"] + argv) == 2
        captured = capsys.readouterr()
        assert f"cannot read analysis JSON {bad}" in captured.err
        assert captured.out == ""


def test_render_diff_truncates_with_a_pointer():
    a = analysis_doc()
    b = analysis_doc()
    b["stall_seconds_by_cause"] = {f"cause{i}": float(i + 1) for i in range(25)}
    # Not in the stall vocabulary, but diff inputs are plain documents.
    diff = diff_analysis(a, b)
    text = render_diff(diff)
    assert f"... {len(diff['deltas']) - 20} more rows" in text
