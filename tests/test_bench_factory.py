"""Unit tests for the benchmark harness helpers."""

import pytest

from repro.bench import STORE_NAMES, default_scale, format_table, make_store
from repro.bench.config import BenchScale
from repro.core import MioDB
from repro.core.repository import NvmRepository, SsdRepository
from repro.mem.system import HybridMemorySystem


@pytest.mark.parametrize("name", STORE_NAMES)
def test_make_store_all_names(name):
    store, system = make_store(name)
    assert store.name == name
    assert store.system is system


def test_make_store_unknown_name():
    with pytest.raises(ValueError):
        make_store("rocksdb")


def test_make_store_rejects_system_as_positional_scale():
    system = HybridMemorySystem()
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


@pytest.mark.parametrize(
    "name, ssd",
    [
        ("leveldb", False),
        ("novelsm", False),
        ("novelsm-hier", False),
        ("matrixkv", False),
        ("miodb", True),
    ],
)
def test_a_refused_level_count_leaves_the_machine_empty(name, ssd):
    system = HybridMemorySystem(ssd=ssd)
    with pytest.raises(ValueError, match="num_levels >= "):
        make_store(name, system=system, num_levels=1)
    assert {device.bytes_in_use for device in system.devices()} == {0}


@pytest.mark.parametrize("name", ["slmdb", "novelsm-nosst"])
def test_make_store_refuses_a_level_count_for_a_store_without_levels(name):
    # Both used to build and ignore it.
    with pytest.raises(ValueError, match=f"{name} has no levels"):
        make_store(name, num_levels=0)


def test_make_store_rejects_unknown_override():
    with pytest.raises(AttributeError):
        make_store("miodb", not_an_option=1)


def test_make_store_ssd_modes():
    store, system = make_store("miodb", ssd=True)
    assert isinstance(store.repository, SsdRepository)
    assert system.ssd is not None
    store, system = make_store("matrixkv", ssd=True)
    assert store.device is system.ssd


def level_device(store):
    """The device a store keeps its levels on (MioDB: its repository)."""
    if not isinstance(store, MioDB):
        return store.lsm.device
    if isinstance(store.repository, NvmRepository):
        return store.repository.arena.device
    return store.repository.lsm.device


@pytest.mark.parametrize("name", ["leveldb", "novelsm", "matrixkv", "miodb"])
def test_the_machine_decides_where_levels_live(name):
    store, system = make_store(name)
    assert level_device(store) is system.nvm
    for ssd in (True, False):
        # A machine with an SSD puts the levels there, asked or not.
        system = HybridMemorySystem(ssd=True)
        store, __ = make_store(name, system=system, ssd=ssd)
        assert level_device(store) is system.ssd


@pytest.mark.parametrize("name", STORE_NAMES)
def test_make_store_refuses_ssd_on_a_machine_without_one(name):
    with pytest.raises(ValueError, match="no SSD"):
        make_store(name, system=HybridMemorySystem(), ssd=True)


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
