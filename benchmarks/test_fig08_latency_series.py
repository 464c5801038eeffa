"""Figure 8: latency over time for YCSB workload A (4 KB values).

The paper plots per-request latency during the run: NoveLSM and MatrixKV
show periodic spikes from write stalls, MioDB stays flat and low.  We
regenerate the time series with bucketed averages and quantify
"spikiness" as max-bucket / median-bucket.
"""

from conftest import run_once

from repro.bench import format_table, make_store
from repro.sim.latency import equal_bins
from repro.workloads import YCSB_WORKLOADS, load_phase, run_workload

KB = 1 << 10
STORES = ("novelsm", "matrixkv", "miodb")
BUCKETS = 40


def run_latency_series(scale):
    n = scale.records_for(4 * KB)
    series = {}
    for name in STORES:
        store, system = make_store(name, scale)
        load_phase(store, n, 4 * KB)
        marker = system.latency.count()
        run_workload(store, YCSB_WORKLOADS["A"], scale.rw_ops, n, 4 * KB)
        # series over the workload phase only (drop the load samples)
        window = [
            (at, lat)
            for kind in system.latency.kinds()
            for at, lat in system.latency.samples_since(kind, 0)
        ]
        window.sort()
        window = window[marker:]
        series[name] = _bucketise(window)
    return series


def _bucketise(rows):
    if not rows:
        return []
    times = [at for at, __ in rows]
    __, slots = equal_bins(times, times[0], times[-1], BUCKETS)
    sums, counts = [0.0] * BUCKETS, [0] * BUCKETS
    for idx, (__, lat) in zip(slots, rows):
        sums[idx] += lat
        counts[idx] += 1
    return [
        (i, sums[i] / counts[i] * 1e6) for i in range(BUCKETS) if counts[i]
    ]


def spikiness(buckets):
    values = sorted(lat for __, lat in buckets)
    if not values:
        return 0.0
    median = values[len(values) // 2]
    return values[-1] / median if median else 0.0


def test_fig08_latency_series(benchmark, scale, emit):
    series = run_once(benchmark, lambda: run_latency_series(scale))
    rows = []
    for name in STORES:
        for bucket, lat_us in series[name]:
            rows.append([name, bucket, lat_us])
    text = format_table(["store", "time_bucket", "avg_latency_us"], rows)
    spikes = {name: spikiness(series[name]) for name in STORES}
    text += "\n\nspikiness (max bucket / median bucket): " + ", ".join(
        f"{name}={val:.1f}x" for name, val in spikes.items()
    )
    emit("fig08_latency_series", text)

    # MioDB's latency curve is the flattest and the lowest
    assert spikes["miodb"] < spikes["matrixkv"]
    assert spikes["miodb"] < spikes["novelsm"]
    mio_peak = max(lat for __, lat in series["miodb"])
    matrix_peak = max(lat for __, lat in series["matrixkv"])
    novel_peak = max(lat for __, lat in series["novelsm"])
    assert mio_peak < matrix_peak
    assert mio_peak < novel_peak
