"""Shared fixtures: a fresh simulated machine, tiny store options, and pins.

Every pinned simulated output lives in ``tests/pins.json`` under a
``family/case`` name and is checked by the ``pin`` fixture.  When a
change is *meant* to move simulated results, one command rewrites the
table and reports every pin that moved::

    PYTHONPATH=src python -m pytest --regen-pins [-k EXPR]

The commit that re-pins pastes that report.
"""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, settings

# Store-level property tests run thousands of simulated operations per
# example; wall-clock deadlines would make them flaky on slow machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core import MioOptions
from repro.kvstore.options import StoreOptions
from repro.mem.system import HybridMemorySystem

KB = 1 << 10

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")


@pytest.fixture
def system():
    """A fresh DRAM+NVM machine."""
    return HybridMemorySystem()


@pytest.fixture
def ssd_system():
    """A fresh DRAM+NVM+SSD machine."""
    return HybridMemorySystem(ssd=True)


@pytest.fixture
def tiny_options():
    """Small tables so flushing/compaction triggers in a few dozen puts."""
    return StoreOptions(memtable_bytes=8 * KB, sstable_bytes=8 * KB)


@pytest.fixture
def tiny_mio_options():
    """MioDB options matched to the tiny baseline options."""
    return MioOptions(memtable_bytes=8 * KB, sstable_bytes=8 * KB, num_levels=4)


# ------------------------------------------------------------------ pins


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def dump_pins(table: dict) -> str:
    return json.dumps(table, sort_keys=True, indent=1) + "\n"


def _canonical(value) -> str:
    # Text equality: 1 and 1.0, or 0.0 and -0.0, are different pins.
    return json.dumps(value, sort_keys=True)


def moved_leaves(old, new, path=""):
    """``(path, old, new)`` for every leaf that differs; ``...`` is absent."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from moved_leaves(
                old.get(key, ...), new.get(key, ...), f"{path}[{key!r}]"
            )
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from moved_leaves(
                old[i] if i < len(old) else ...,
                new[i] if i < len(new) else ...,
                f"{path}[{i}]",
            )
    elif ... in (old, new) or _canonical(old) != _canonical(new):
        yield path, old, new


def _render(value) -> str:
    return "(absent)" if value is ... else json.dumps(value)


def describe_move(name: str, path: str, old, new) -> str:
    """``name path: old -> new``, plus the relative change for numbers."""
    line = f"{name}{' ' + path if path else ''}: {_render(old)} -> {_render(new)}"
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)
    )
    if numbers and old:
        line += f" ({100 * (new - old) / abs(old):+.3g}%)"
    return line


def _fail(header: str, name: str, old, new):
    moves = (describe_move(name, *move) for move in moved_leaves(old, new))
    pytest.fail("\n  ".join([header, *moves]), pytrace=False)


class PinTable:
    """The loaded table; checks observations, or records them to regenerate."""

    def __init__(self, table: dict, regen: bool):
        self.table = table
        self.regen = regen
        self.observed = {}

    def check(self, name: str, observed) -> None:
        """The ``pin`` fixture: ``observed`` must equal the entry ``name``."""
        value = json.loads(json.dumps(observed))
        if self.regen:
            seen = self.observed.setdefault(name, value)
            if _canonical(seen) != _canonical(value):
                _fail(f"pin {name} observed twice with different values:",
                      name, seen, value)
        elif name not in self.table:
            pytest.fail(f"no pin {name}; run --regen-pins", pytrace=False)
        elif _canonical(self.table[name]) != _canonical(value):
            _fail(f"pin {name} moved (pinned -> observed):",
                  name, self.table[name], value)

    def regenerate(self):
        """Fold the observed values in; return ``(new table, report lines)``."""
        lines = []
        unchanged = 0
        for name in sorted(self.observed):
            moves = list(moved_leaves(self.table.get(name, ...), self.observed[name]))
            lines.extend(describe_move(name, *move) for move in moves)
            unchanged += not moves
        moved = len(self.observed) - unchanged
        lines.append(f"{moved} pins moved, {unchanged} unchanged")
        unobserved = sorted(set(self.table) - set(self.observed))
        if unobserved:
            lines.append(f"{len(unobserved)} pins not observed (left as they are):")
            lines.extend("  " + name for name in unobserved)
        return {**self.table, **self.observed}, lines


_TABLE = pytest.StashKey()
_REPORT = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--regen-pins", action="store_true",
        help="rewrite tests/pins.json with the observed values of every pin "
             "the run reaches and report each one that moved",
    )


def pytest_configure(config):
    config.stash[_TABLE] = PinTable(load_pins(), config.getoption("--regen-pins"))


@pytest.fixture
def pin(request):
    """``pin(name, observed)``: check one value against ``tests/pins.json``."""
    return request.config.stash[_TABLE].check


def pytest_sessionfinish(session):
    table = session.config.stash[_TABLE]
    if table.regen:
        new, session.config.stash[_REPORT] = table.regenerate()
        PINS_PATH.write_text(dump_pins(new))


def pytest_terminal_summary(terminalreporter, config):
    report = config.stash.get(_REPORT, None)
    if report is not None:
        terminalreporter.section("pins")
        for line in report:
            terminalreporter.write_line(line)
