"""Flight recorder: bounded ring, dump triggers, byte-identical dumps."""

import hashlib

import pytest

from repro.obs.events import CAT_OP, CAT_QUEUE, CAT_STALL, TraceEvent
from repro.obs.live import FlightRecorder, LiveRecorder
from repro.obs.live.flight import (
    BURN_RULE,
    DROP_BURST_N,
    FLIGHT_CAPACITY,
    FLIGHT_SCHEMA,
    MAX_DUMPS,
    TRIGGER_DROPS,
    TRIGGER_MANUAL,
    TRIGGER_SLO,
    TRIGGER_STALL,
)
from repro.obs.runner import run_traced

pytestmark = pytest.mark.obs_live

LIVE = {"seed": 1, "stall_alert_s": 1e-5, "slo_threshold_s": 5e-6}


def _stall(ts, seconds):
    """A ``memtable-full`` interval stall of ``seconds`` starting at ``ts``."""
    return TraceEvent("foreground", "stall", CAT_STALL, ts, seconds,
                      {"cause": "memtable-full"})


def _drop(client, ts):
    return TraceEvent("router", "drop", CAT_QUEUE, ts, None,
                      {"cause": "queue_full", "client": client})


def test_ring_is_bounded():
    flight = FlightRecorder()
    for i in range(FLIGHT_CAPACITY + 100):
        flight.record(TraceEvent("foreground", "put", CAT_OP, float(i), 1e-6))
    assert len(flight.ring) == FLIGHT_CAPACITY == 4096
    assert flight.ring[0].ts == 100.0  # oldest surviving entry


def test_stall_trigger_fires_at_threshold():
    flight = FlightRecorder(stall_alert_s=1e-5)
    flight.record(_stall(1.0, 9e-6))  # below threshold
    assert not flight.dumps
    flight.record(_stall(2.0, 1e-5))  # at threshold
    assert [d["trigger"] for d in flight.dumps] == [TRIGGER_STALL]
    doc = flight.dumps[0]
    assert doc["schema"] == FLIGHT_SCHEMA
    assert doc["at_s"] == 2.0
    assert doc["detail"]["cause"] == "memtable-full"
    # The ring snapshot includes both stalls, in order.
    assert [entry[0] for entry in doc["ring"]] == ["stall", "stall"]


def test_drop_burst_trigger_needs_n_drops_within_window():
    flight = FlightRecorder()
    flight.record(_drop("c0", 0.0))
    for i in range(DROP_BURST_N - 1):  # the first drop has aged out
        flight.record(_drop(f"c{i + 1}", 2e-3 + i * 1e-4))
    assert not flight.dumps
    flight.record(_drop("c8", 2.7e-3))  # eighth within 1ms
    assert [d["trigger"] for d in flight.dumps] == [TRIGGER_DROPS]
    assert flight.dumps[0]["detail"]["drops_in_window"] == DROP_BURST_N == 8


def test_slo_burn_trigger_needs_short_and_long_lookbacks():
    from repro.obs.analyze.slo import SloObjective

    flight = FlightRecorder(slo=SloObjective("t", 1e-6, 0.9))  # 10% error budget
    # 50% bad = 5x budget burn on both lookbacks once windows exist.
    flight.on_window(1e-3, 100, 50)
    assert [d["trigger"] for d in flight.dumps] == [TRIGGER_SLO]
    assert flight.dumps[0]["detail"]["burn_short"] == pytest.approx(5.0)


def test_dumps_are_capped_but_triggers_keep_counting():
    flight = FlightRecorder(stall_alert_s=0.0)
    for i in range(MAX_DUMPS + 3):
        flight.record(_stall(float(i), 1.0))
    assert len(flight.dumps) == MAX_DUMPS == 4  # oldest kept
    assert [d["at_s"] for d in flight.dumps] == [0.0, 1.0, 2.0, 3.0]
    assert flight.trigger_counts[TRIGGER_STALL] == MAX_DUMPS + 3


def test_manual_dump_always_returns_a_document():
    flight = FlightRecorder(stall_alert_s=0.0)
    for i in range(MAX_DUMPS):
        flight.record(_stall(float(i), 1.0))
    doc = flight.dump_now(9.0)
    assert doc["trigger"] == TRIGGER_MANUAL
    assert doc not in flight.dumps and len(flight.dumps) == MAX_DUMPS  # cap honoured
    assert flight.trigger_counts[TRIGGER_MANUAL] == 1


def test_seeded_slo_breach_dump_is_byte_identical_and_pinned(pin):
    """The first flight dump of ``run_traced("miodb", n=512, reads=64)``
    with the live plane at seed 1, a 10us stall alert and a 5us SLO
    threshold.  If it moves, the simulation or the dump format changed."""
    texts = []
    for __ in range(2):
        __, __, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
        dumps = rec.flight.dumps
        assert [d["trigger"] for d in dumps] == [
            "stall-alert", "stall-alert", "slo-burn", "stall-alert",
        ]
        texts.append(rec.flight.dump_json(dumps[0]))
    assert texts[0] == texts[1]
    pin("obs/flight-dump", hashlib.sha256(texts[0].encode()).hexdigest())


def test_dump_embeds_sampling_context():
    __, __, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    doc = rec.flight.dumps[-1]
    context = doc["context"]
    assert context["sampling"]["ops_seen"] > 0
    assert isinstance(context["windows"], list)


def test_live_recorder_ring_stays_within_capacity():
    from repro.mem.system import HybridMemorySystem

    system = HybridMemorySystem()
    rec = LiveRecorder(system.clock).attach(system)
    for i in range(5000):
        rec.span("foreground", "put", "op", i * 1e-6, i * 1e-6 + 1e-7)
    assert len(rec.flight.ring) == FLIGHT_CAPACITY
    rec.detach()


def test_slo_window_history_is_bounded_by_the_long_lookback():
    from repro.obs.analyze.slo import SloObjective

    # No op is ever bad, so the SLO trigger never fires (and never
    # clears the history): only the long lookback bounds it.
    flight = FlightRecorder(slo=SloObjective("t", 1e-6, 0.999))
    window_s = 1e-3
    bound = BURN_RULE.long_s / window_s + 1
    for i in range(1, 10_001):
        flight.on_window(i * window_s, 100, 0)
        assert len(flight._slo_windows) <= bound
    assert not flight.dumps
