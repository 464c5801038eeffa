"""Smoke test of the host-time benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Runs ``run.py --smoke`` (every workload, both modes, a fiftieth of the
size) and checks that every metric BENCHMARK.json names is printed with
its unit.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_prints_every_named_metric_with_its_unit(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    results = json.loads(done.stdout.splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in contract["workloads"])
    for workload, modes in results.items():
        for mode in ("end_to_end", "per_layer"):
            result = modes[mode]
            assert result["correct"] and result["failed"] == 0, (workload, mode)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in contract[mode]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            assert printed == expected, (workload, mode)
        for name in ("host_kops", "cpu_us_per_op", "peak_rss_mb", "setup_s"):
            assert modes["end_to_end"]["metrics"][name]["value"] > 0
        assert (tmp_path / f"{workload}.spans.json").exists()
        assert (tmp_path / f"{workload}.ledger.json").exists()
