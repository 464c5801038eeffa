"""Unit tests for the benchmark harness helpers."""

import pytest

from repro.bench import STORE_NAMES, default_scale, format_table, make_store, make_system
from repro.bench.config import BenchScale


def test_make_system_variants():
    assert make_system().ssd is None
    assert make_system(ssd=True).ssd is not None


@pytest.mark.parametrize("name", STORE_NAMES)
def test_make_store_all_names(name):
    store, system = make_store(name)
    assert store.name == name
    assert store.system is system


def test_make_store_unknown_name():
    with pytest.raises(ValueError):
        make_store("rocksdb")


def test_make_store_rejects_system_as_positional_scale():
    system = make_system()
    with pytest.raises(TypeError, match="system="):
        make_store("miodb", system)


def test_make_store_rejects_wrong_scale_type():
    with pytest.raises(TypeError, match="BenchScale"):
        make_store("miodb", scale=1024)


def test_make_store_rejects_wrong_system_type():
    with pytest.raises(TypeError, match="HybridMemorySystem"):
        make_store("miodb", BenchScale(), system="nope")


def test_make_store_rejects_non_string_name():
    with pytest.raises(TypeError, match="store name"):
        make_store(BenchScale())


def test_make_store_applies_overrides():
    store, __ = make_store("miodb", num_levels=5)
    assert store.options.num_levels == 5
    assert len(store.levels) == 5


@pytest.mark.parametrize(
    "name, num_levels, ssd",
    [
        ("miodb", 0, False),
        ("miodb", 1, True),  # the SSD repository is a leveled engine
        ("leveldb", 0, False),
        ("leveldb", 1, False),
        ("novelsm", 0, False),
        ("novelsm", 1, False),
        ("matrixkv", 0, False),
        ("matrixkv", 1, False),
    ],
)
def test_make_store_rejects_a_level_count_it_cannot_run(name, num_levels, ssd):
    # These used to construct, then fail mid-run: an IndexError at the
    # first flush, or an L0 stop that no compaction could ever clear.
    with pytest.raises(ValueError, match=f"num_levels >= .*got {num_levels}"):
        make_store(name, num_levels=num_levels, ssd=ssd)


def test_make_store_rejects_unknown_override():
    with pytest.raises(AttributeError):
        make_store("miodb", not_an_option=1)


def test_make_store_ssd_modes():
    store, system = make_store("miodb", ssd=True)
    assert store.options.ssd_mode
    assert system.ssd is not None
    store, system = make_store("matrixkv", ssd=True)
    assert store.device is system.ssd


def test_scale_records_math():
    scale = BenchScale(dataset_bytes=32 << 20, value_size=4096)
    assert scale.n_records == 8192
    assert scale.records_for(1024) == 32768


def test_default_scale_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert default_scale().dataset_bytes == 32 << 20
    monkeypatch.setenv("REPRO_BENCH_SCALE", "large")
    assert default_scale().dataset_bytes == 128 << 20
    monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
    with pytest.raises(ValueError):
        default_scale()


def test_format_table_alignment():
    text = format_table(["name", "value"], [["miodb", 1.5], ["x", 100]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "-" in lines[1]
    assert "1.50" in lines[2]


def test_format_table_small_floats_scientific():
    text = format_table(["v"], [[0.000015]])
    assert "e" in text.splitlines()[-1]
