"""One-call traced workload runs, shared by the CLI and the tests.

``run_traced`` builds a fresh store, attaches a recorder, drives a
deterministic workload, quiesces, and hands back everything needed to
export artifacts.  Because store, system, and recorder are all freshly
constructed and all time is simulated, two calls with the same arguments
produce identical events -- the property the ``repro trace`` CLI and the
pinned-determinism tests rely on.
"""

from typing import Tuple

from repro.obs.recorder import check_vocabulary


def run_traced(
    store_name: str,
    n: int = 2048,
    value_size: int = 1024,
    mode: str = "fillrandom",
    reads: int = 256,
    seed: int = 1,
    ssd: bool = False,
    live=None,
) -> Tuple[object, object, object]:
    """Run a traced workload; returns ``(store, system, recorder)``.

    ``mode`` is ``fillrandom``/``fillseq`` (a fill of ``n`` records plus
    ``reads`` random/sequential reads), or ``ycsb-<X>`` for any YCSB
    workload letter (a load phase of ``n`` records followed by ``reads``
    operations of workload X).

    ``live`` switches from the full-fidelity recorder to the sampled
    :class:`~repro.obs.live.recorder.LiveRecorder`: pass a dict of its
    ``seed`` / ``slo_threshold_s`` / ``stall_alert_s`` options (or ``{}``
    for defaults).  The workload, clock, and store state are
    identical either way -- only what the recorder retains differs.

    The recorder is detached before returning, so the caller can export
    its events without further mutation; ``check_vocabulary`` then
    raises ``ValueError`` on any event outside the closed vocabularies
    rather than let a run widen the pinned schema.  The store runs at a
    *trace-tuned* scale, not the benchmark default: a small MemTable so
    a few thousand operations drive many flushes and multi-level
    compactions, and (for MioDB) a capped elastic buffer so the trace
    also shows write stalls.  MioDB's whole point is that it barely
    stalls, so without the cap a short trace would contain no stall
    spans to look at.
    """
    # Imported here, not at module scope: the stores import the event
    # vocabulary from this package, so pulling the bench layer in at
    # obs-import time would be circular.
    from repro.bench.config import KB, MB, BenchScale
    from repro.bench.factory import make_store
    from repro.workloads import (
        YCSB_WORKLOADS,
        fill_random,
        fill_seq,
        load_phase,
        read_random,
        read_seq,
        run_workload,
    )

    ycsb_name = None
    if mode.startswith("ycsb-"):
        ycsb_name = mode[len("ycsb-"):].upper()
        if ycsb_name not in YCSB_WORKLOADS:
            raise ValueError(
                f"unknown YCSB workload {ycsb_name!r} "
                f"(choose from {sorted(YCSB_WORKLOADS)})"
            )
    elif mode not in ("fillrandom", "fillseq"):
        raise ValueError(
            f"unknown trace mode {mode!r} (use fillrandom|fillseq|ycsb-<X>)"
        )
    scale = BenchScale(
        memtable_bytes=64 * KB,
        dataset_bytes=2 * MB,
        value_size=KB,
        nvm_buffer_bytes=512 * KB,
    )
    overrides = {}
    if store_name == "miodb":
        overrides["max_nvm_buffer_bytes"] = 256 * KB
    store, system = make_store(store_name, scale, ssd=ssd, **overrides)
    recorder = (
        system.attach_live(**live) if live is not None else system.attach_tracing()
    )
    try:
        if ycsb_name is not None:
            load_phase(store, n, value_size, seed=seed)
            if reads > 0:
                run_workload(
                    store, YCSB_WORKLOADS[ycsb_name], reads, n, value_size,
                    seed=seed + 7,
                )
        elif mode == "fillseq":
            fill_seq(store, n, value_size)
            if reads > 0:
                read_seq(store, min(reads, n), n)
        else:
            fill_random(store, n, value_size, seed=seed)
            if reads > 0:
                read_random(store, min(reads, n), n, seed=seed + 1)
        store.quiesce()
    finally:
        recorder.detach()
    check_vocabulary(recorder)
    return store, system, recorder
