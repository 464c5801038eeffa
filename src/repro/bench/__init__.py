"""Benchmark harness helpers: store factory, scaling, table formatting."""

from repro.bench.config import BenchScale, default_scale
from repro.bench.factory import STORE_NAMES, make_store
from repro.bench.report import format_table

__all__ = [
    "BenchScale",
    "default_scale",
    "STORE_NAMES",
    "make_store",
    "format_table",
]
