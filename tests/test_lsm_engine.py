"""Unit tests for the shared leveled SSTable engine."""

import pytest

from repro.baselines.lsm import L0_COMPACTION_TRIGGER, LeveledLSM
from repro.kvstore.options import StoreOptions
from repro.kvstore.scans import merged_scan

KB = 1 << 10


@pytest.fixture
def engine(system):
    options = StoreOptions(memtable_bytes=4 * KB, sstable_bytes=4 * KB, num_levels=4)
    return LeveledLSM(system, options, system.nvm, nworkers=1, label="t")


def entries_for(keys, start_seq=1, vbytes=200):
    return [(k, start_seq + i, b"v" + k, vbytes) for i, k in enumerate(keys)]


def add_l0(engine, keys, start_seq):
    table, __ = engine.build_table(entries_for(keys, start_seq))
    engine.add_table(0, table)
    return table


def test_build_table_has_bloom(engine):
    table, seconds = engine.build_table(entries_for([b"a", b"b"]))
    assert seconds > 0
    assert table.bloom.may_contain(b"a")


def test_add_table_out_of_range_level(engine):
    table, __ = engine.build_table(entries_for([b"a"]))
    with pytest.raises(ValueError):
        engine.add_table(9, table)


def test_get_from_l0_newest_table_wins(engine):
    add_l0(engine, [b"k"], start_seq=1)
    add_l0(engine, [b"k"], start_seq=10)
    entry, cost = engine.get(b"k")
    assert entry[1] == 10
    assert cost > 0


def test_get_miss(engine):
    add_l0(engine, [b"a"], start_seq=1)
    entry, __ = engine.get(b"zzz")
    assert entry is None


def test_compaction_triggers_at_l0_threshold(engine, system):
    for i in range(L0_COMPACTION_TRIGGER):
        add_l0(engine, [b"k%02d" % i], start_seq=i + 1)
    assert system.executor.pending > 0
    system.drain_background()
    assert engine.l0_table_count() == 0
    assert len(engine.levels[1]) >= 1
    assert system.stats.get("compact.count") >= 1


def test_compaction_preserves_all_data(engine, system):
    keys = [b"k%02d" % i for i in range(12)]
    for i, key in enumerate(keys):
        add_l0(engine, [key], start_seq=i + 1)
    system.drain_background()
    for key in keys:
        entry, __ = engine.get(key)
        assert entry is not None, key


def test_compaction_dedups_versions(engine, system):
    for round_ in range(6):
        add_l0(engine, [b"same"], start_seq=round_ + 1)
    system.drain_background()
    entry, __ = engine.get(b"same")
    assert entry[1] == 6
    # the compacted run holds exactly one version; only L0 leftovers
    # (tables added after the compaction was scheduled) may remain
    l1_entries = sum(len(t) for t in engine.levels[1])
    assert l1_entries == 1
    total = sum(len(t) for level in engine.levels for t in level)
    assert total <= 3


def test_compaction_releases_inputs(engine, system):
    tables = [add_l0(engine, [b"k%02d" % i], start_seq=i + 1) for i in range(4)]
    system.drain_background()
    assert all(t.released for t in tables)


def test_scan_from_merges_levels(engine, system):
    add_l0(engine, [b"a", b"c"], start_seq=1)
    add_l0(engine, [b"b", b"d"], start_seq=10)
    pairs, cost = merged_scan(system, b"a", 3, engine.scan_sources(b"a"))
    assert [key for key, __ in pairs] == [b"a", b"b", b"c"]
    assert cost > 0


def test_try_reserve_and_replace(engine, system):
    table, __ = engine.build_table(entries_for([b"a"]))
    engine.add_table(1, table)
    assert engine.try_reserve([table])
    assert not engine.try_reserve([table])  # already busy
    newer, __ = engine.build_table(entries_for([b"a"], start_seq=5))
    engine.replace_tables(1, [table], [newer])
    assert table.released
    assert engine.levels[1] == [newer]


def test_completion_listener_fires(engine, system):
    fired = []
    engine.on_compaction = lambda: fired.append(1)
    for i in range(4):
        add_l0(engine, [b"k%02d" % i], start_seq=i + 1)
    system.drain_background()
    assert fired


def test_write_amplification_accumulates(engine, system):
    for i in range(8):
        add_l0(engine, [b"k%02d" % (i % 3)], start_seq=i + 1)
    system.drain_background()
    # L0 bytes + compaction rewrites: strictly more written than stored
    assert system.nvm.bytes_written > engine.total_data_bytes()


def test_table_counts_shape(engine):
    assert engine.table_counts() == [0, 0, 0, 0]


def test_split_entries_respects_size(engine):
    entries = entries_for([b"k%03d" % i for i in range(40)], vbytes=500)
    chunks = engine.split_entries(entries)
    assert len(chunks) > 1
    assert sum(len(c) for c in chunks) == 40


def test_split_entries_never_splits_a_key_run(engine):
    """Regression: a chunk boundary inside one key's version run lets an
    older version land in a younger L0 table and serves stale reads."""
    entries = []
    seq = 1000
    for i in range(6):
        key = b"key%02d" % i
        for version in range(10):  # 10 versions per key, seq descending
            entries.append((key, seq - version, b"v", 500))
        seq += 100
    entries.sort(key=lambda e: (e[0], -e[1]))
    chunks = engine.split_entries(entries)
    assert len(chunks) > 1
    seen = set()
    for chunk in chunks:
        chunk_keys = {e[0] for e in chunk}
        assert not (chunk_keys & seen), "key spans two chunks"
        seen |= chunk_keys
