"""Sampling determinism for the live telemetry plane.

The contract under test: head/tail sampling decisions are pure functions
of ``(seed, op sequence number)`` and the simulated latency stream, so
two identical runs retain identical op sets, produce identical
OpenMetrics text, and never perturb the simulation itself.  Stalled ops
are retained at 100% regardless of the sampling rate.
"""

import pytest

from repro.obs.events import CAT_OP, CAT_STALL, CAT_TRANSFER
from repro.obs.live import HeadSampler, TailSampler, openmetrics_text, splitmix64
from repro.obs.live import sampling
from repro.obs.live.sampling import HEAD_RATE, HEAD_RUN, TAIL_REFRESH
from repro.obs.runner import run_traced
from tests.support.oracles import head_keep

pytestmark = pytest.mark.obs_live

LIVE = {"seed": 1, "stall_alert_s": 1e-5, "slo_threshold_s": 5e-6}


def _op_events(recorder):
    return [
        (e.name, e.ts, e.dur) for e in recorder.events if e.cat == CAT_OP
    ]


# ------------------------------------------------------------ pure functions


def test_splitmix64_is_a_64bit_pure_function():
    assert splitmix64(0) == splitmix64(0)
    seen = {splitmix64(x) for x in range(256)}
    assert len(seen) == 256, "finalizer collided on trivially small inputs"
    assert all(0 <= v < 2**64 for v in seen)


def test_head_keep_depends_only_on_seed_and_run():
    run_len = 16
    for seq in range(0, 512):
        assert head_keep(7, seq, 0.25, run_len) == head_keep(
            7, seq, 0.25, run_len
        )
        # Every seq in one run shares the run's decision.
        assert head_keep(7, seq, 0.25, run_len) == head_keep(
            7, (seq // run_len) * run_len, 0.25, run_len
        )
    # Different seeds disagree somewhere.
    assert any(
        head_keep(1, s, 0.25) != head_keep(2, s, 0.25) for s in range(512)
    )


def test_head_keep_rate_edges():
    assert not any(head_keep(3, s, 0.0) for s in range(256))
    assert all(head_keep(3, s, 1.0) for s in range(256))


def test_head_sampler_matches_head_keep_and_counts_exactly():
    sampler = HeadSampler(seed=5)
    decisions = [sampler.advance() for _ in range(8000)]
    expected = [head_keep(5, s, HEAD_RATE, HEAD_RUN) for s in range(8000)]
    assert decisions == expected
    assert sampler.seen == 8000
    assert sampler.kept == sum(expected) > 0


# ------------------------------------------------------------- tail sampler


def test_tail_scalar_observe_matches_manual_threshold():
    tail = TailSampler()
    for i in range(TAIL_REFRESH - 1):
        assert not tail.observe(float(i + 1))  # threshold still inf
    assert tail.threshold == float("inf")
    assert not tail.observe(float(TAIL_REFRESH))  # refresh fires after this op
    assert tail.threshold == 254.0  # nearest-rank p99 of 1..256
    assert tail.observe(tail.threshold + 1.0)
    assert not tail.observe(tail.threshold)


# ------------------------------------------------------- end-to-end retention


def test_identical_runs_retain_identical_op_sets_and_metrics():
    __, __, a = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    __, __, b = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    assert _op_events(a) == _op_events(b)
    assert a.sampling_meta() == b.sampling_meta()
    assert openmetrics_text(a) == openmetrics_text(b)


def test_retained_ops_are_a_subset_of_the_full_trace():
    __, __, live = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    __, __, full = run_traced("miodb", n=512, reads=64)
    full_ops = set(_op_events(full))
    retained = _op_events(live)
    assert retained, "live run retained nothing"
    assert len(retained) < len(full_ops), "sampling retained everything"
    missing = [op for op in retained if op not in full_ops]
    assert not missing, f"retained ops absent from the full trace: {missing[:3]}"


def test_every_stalled_op_is_retained():
    __, __, live = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    __, __, full = run_traced("miodb", n=512, reads=64)
    stall_times = [e.ts for e in full.events if e.cat == CAT_STALL]
    assert stall_times, "scenario produced no stalls; test is vacuous"
    ops = sorted(
        (e.ts, e.dur) for e in full.events if e.cat == CAT_OP
    )
    retained_starts = {ts for __, ts, __ in _op_events(live)}
    for stall_ts in stall_times:
        containing = [
            (ts, dur) for ts, dur in ops if ts <= stall_ts <= ts + dur
        ]
        assert containing, f"no op span contains stall at {stall_ts}"
        assert any(ts in retained_starts for ts, __ in containing), (
            f"op containing stall at {stall_ts} was not retained"
        )


def test_job_transfers_are_kept_and_tagged_with_device_hooks_off(monkeypatch):
    # No head run is ever drawn, so the device hooks are off all run:
    # only the job scopes' slot can deliver a transfer.
    monkeypatch.setattr(sampling, "_HEAD_THRESHOLD", 0)
    __, __, live = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    __, __, full = run_traced("miodb", n=512, reads=64)
    assert live.head.kept == 0

    def transfers(recorder, job_only):
        return [
            (e.track, e.name, e.ts, e.args)
            for e in recorder.events
            if e.cat == CAT_TRANSFER and (e.args.get("job") or not job_only)
        ]

    kept = transfers(live, job_only=False)
    assert kept, "no flush or compaction ran; test is vacuous"
    assert all(args.get("job") for __, __, __, args in kept)
    assert kept == transfers(full, job_only=True)


def test_live_plane_never_perturbs_the_simulation():
    __, sys_live, live = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    __, sys_full, __ = run_traced("miodb", n=512, reads=64)
    assert sys_live.clock.now == sys_full.clock.now
    live_stats = {
        k: v for k, v in sys_live.stats.snapshot().items()
        if not k.startswith("live.")
    }
    assert live_stats == sys_full.stats.snapshot()
    meta = live.sampling_meta()
    assert meta["ops_seen"] == 576  # 512 puts + 64 reads
    assert meta["ops_retained"] == len(_op_events(live))
    assert meta["ops_retained"] == (
        meta["retained_head"] + meta["retained_tail"] + meta["retained_stall"]
    )
