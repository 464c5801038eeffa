"""Compaction accounting conserves: the stats and the trace agree.

Every engine's compaction jobs enter the executor through
``submit_compaction``, which adds ``compact.time_s`` and tags the job
``compact``.  Each applied job then counts once in ``compact.count``
(zero-copy, level, column and selective merges) or
``compact.lazy_count`` (MioDB's lazy copy).  So after a quiesced run the
number of ``compact`` worker spans equals the two counts' sum, and their
durations sum to ``compact.time_s``.  A compaction that is accounted or
submitted anywhere else breaks one of the two equalities.
"""

import math

import pytest

from repro.baselines import lsm
from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.kvstore.values import SizedValue
from repro.obs.events import CAT_COMPACT

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, nvm_buffer_bytes=128 * KB, value_size=512)

#: label -> (store name, ssd, slowdown delay patched in, or None)
CASES = {
    "miodb": ("miodb", False, None),
    "miodb-ssd": ("miodb", True, None),
    "leveldb": ("leveldb", False, 1e-6),
    "novelsm": ("novelsm", False, None),
    "novelsm-hier": ("novelsm-hier", False, None),
    "novelsm-nosst": ("novelsm-nosst", False, None),
    "matrixkv": ("matrixkv", False, 1e-6),
    "slmdb": ("slmdb", False, None),
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_compaction_time_and_count_match_the_traced_spans(label, monkeypatch):
    name, ssd, delay = CASES[label]
    if delay is not None:
        monkeypatch.setattr(lsm, "SLOWDOWN_DELAY_S", delay)
    store, system = make_store(name, SCALE, ssd=ssd)
    recorder = system.attach_tracing()
    n = 2000
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % n), SizedValue(i, 512))
    for i in range(0, n, 3):
        store.delete(b"key%06d" % i)
    store.quiesce()

    spans = recorder.index().of(CAT_COMPACT)
    stats = system.stats
    count = stats.get("compact.count") + stats.get("compact.lazy_count")
    if name == "novelsm-nosst":
        assert count == 0  # one skip list, nothing to compact
    else:
        assert count > 0, f"{label}: no compaction ran"
    if name == "miodb":
        assert stats.get("compact.lazy_count") > 0
    assert count == len(spans)
    assert math.isclose(
        stats.get("compact.time_s"), sum(e.dur for e in spans),
        rel_tol=1e-12, abs_tol=0.0,
    )
