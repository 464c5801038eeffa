"""Module boundaries the rest of the suite does not see.

- The device is the only pricer: no module outside ``repro.mem`` reads a
  ``DeviceProfile`` price field, so a second charge formula cannot creep
  back beside ``Device.read`` / ``write`` / ``seq_read_rate`` /
  ``write_words`` / ``search_time``.  ``repro info``'s device table is
  the one reader.
- A charge never picks its medium by name: no call outside ``repro.mem``
  passes a device-name literal, so the price of a pointer chase comes
  from the device that holds the nodes.
- The machine decides the persistent tier: no module outside
  ``repro.mem`` reads a machine's ``.ssd``, so a store cannot grow its
  own tier switch beside ``HybridMemorySystem.bottom_tier``.  The CLI's
  ``args.ssd`` flag only chooses the machine built.
- A package keeps its state to itself: no module reads another
  package's private attribute (``clock._now``, ``executor._heap``,
  ``SSTable._keys``), so what a package publishes is the whole of what
  the rest of ``repro`` may depend on.
- Module-level imports that replaced function-local ones hold from a
  fresh interpreter: importing the module first, before anything else
  of the package, finds no cycle.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

#: The ``DeviceProfile`` fields a charge is computed from.
PRICE_FIELDS = frozenset({
    "read_latency",
    "write_latency",
    "seq_read_bw",
    "seq_write_bw",
    "rand_read_bw",
    "rand_write_bw",
    "hop_latency",
})

#: Prints the profiles; charges nothing.
PRICE_TABLE = PACKAGE / "cli" / "bench.py"


def price_reads(source: str):
    """``(line, field)`` for every attribute read of a price field."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRICE_FIELDS
    ]


def test_only_the_device_reads_profile_prices():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PRICE_TABLE or (PACKAGE / "mem") in path.parents:
            continue
        for line, field in price_reads(path.read_text()):
            found.append(f"{path.relative_to(SRC)}:{line}: {field}")
    assert not found, (
        "price a transfer through repro.mem.Device, not its profile:\n"
        + "\n".join(found)
    )


def test_price_guard_sees_a_read_and_its_exemption_is_live():
    assert price_reads("seconds += n * nvm.profile.write_latency\n") == [
        (1, "write_latency")
    ]
    assert price_reads(PRICE_TABLE.read_text())


#: The ``DeviceProfile`` names.
DEVICE_NAMES = frozenset({"dram", "nvm", "ssd", "repl-link"})


def device_name_arguments(source: str):
    """``(line, name)`` for every call argument that is a device-name literal."""
    return [
        (node.lineno, arg.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for arg in (*node.args, *(kw.value for kw in node.keywords))
        if isinstance(arg, ast.Constant) and arg.value in DEVICE_NAMES
    ]


def test_no_charge_picks_its_device_by_name():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if (PACKAGE / "mem") in path.parents:
            continue
        for line, name in device_name_arguments(path.read_text()):
            found.append(f"{path.relative_to(SRC)}:{line}: {name!r}")
    assert not found, (
        "take the price from the device (e.g. system.nvm.search_time), "
        "not from a name:\n" + "\n".join(found)
    )


def test_device_name_guard_sees_a_literal():
    assert device_name_arguments('hop = costs.hop_time("nvm")\n') == [(1, "nvm")]
    assert device_name_arguments("f(device=\"repl-link\")\n") == [
        (1, "repl-link")
    ]
    assert device_name_arguments("hop = system.nvm.hop_time()\n") == []


#: The receiver whose ``.ssd`` is the CLI flag, not a machine's device.
SSD_FLAG_RECEIVER = "args"


def ssd_reads(source: str):
    """``(line, receiver)`` for every read of an ``.ssd`` attribute."""
    return [
        (node.lineno, ast.unparse(node.value))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "ssd"
        and isinstance(node.ctx, ast.Load)
    ]


def test_only_the_machine_decides_the_persistent_tier():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if (PACKAGE / "mem") in path.parents:
            continue
        for line, receiver in ssd_reads(path.read_text()):
            if receiver != SSD_FLAG_RECEIVER:
                found.append(f"{path.relative_to(SRC)}:{line}: {receiver}.ssd")
    assert not found, (
        "take the device from system.bottom_tier, not from system.ssd:\n"
        + "\n".join(found)
    )


def test_tier_guard_sees_a_read_and_its_exemption_is_live():
    assert ssd_reads("device = system.ssd\n") == [(1, "system")]
    assert (1, SSD_FLAG_RECEIVER) in ssd_reads(
        "make_store(name, ssd=args.ssd)\n"
    )
    assert any(
        receiver == SSD_FLAG_RECEIVER
        for path in (PACKAGE / "cli").glob("*.py")
        for __, receiver in ssd_reads(path.read_text())
    )


def package_of(path: pathlib.Path) -> str:
    """The first path part under ``src/repro``."""
    return path.relative_to(PACKAGE).parts[0]


def private_definitions(source: str):
    """Private names a module defines: a ``def`` or ``class``, an
    assignment to ``self._x`` or ``cls._x``, or a class-body assignment."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def private_reads(source: str):
    """``(line, expression)`` for every read of ``x._name`` where ``x`` is
    not ``self`` or ``cls`` (dunders are not private)."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls"))
    ]


def tree_sources():
    """``{path: source}`` for every module under ``src/repro``."""
    return {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}


def cross_package_reads(sources):
    """Every private read whose name the reading package does not define."""
    defined = {}
    for path, source in sources.items():
        defined.setdefault(package_of(path), set()).update(
            private_definitions(source)
        )
    return [
        f"{path.relative_to(SRC)}:{line}: {text}"
        for path, source in sources.items()
        for line, text in sorted(private_reads(source))
        if text.rsplit(".", 1)[1] not in defined[package_of(path)]
    ]


def test_no_package_reads_another_packages_private_state():
    found = cross_package_reads(tree_sources())
    assert not found, (
        "read what the owning package publishes (clock.now, "
        "executor.next_due, table.keys, require_key), not its private "
        "state:\n" + "\n".join(found)
    )


def test_private_read_guard_sees_a_planted_read():
    assert private_reads("now = self.system.clock._now\n") == [
        (1, "self.system.clock._now")
    ]
    assert private_reads("self._now = 0.0\nn = self._now + cls._x\n") == []
    assert private_reads("name = type(x).__name__\n") == []
    assert private_definitions(
        "class C:\n    _ids = 0\n    def _f(self):\n        self._n = 1\n"
    ) == {"_ids", "_f", "_n"}
    # Planted (in memory) in a package that does not define the name, the
    # read is named; ``executor._heap`` in ``repro.sim``, its owner, is not.
    for package, read, named in (
        ("kvstore", "clock._now", True),
        ("kvstore", "executor._heap", True),
        ("sim", "executor._heap", False),
    ):
        sources = tree_sources()
        sources[PACKAGE / package / "planted.py"] = f"x = {read}\n"
        found = cross_package_reads(sources)
        assert (f"repro/{package}/planted.py:1: {read}" in found) is named, found


@pytest.mark.parametrize(
    "module",
    [
        "repro.mem.system",
        "repro.obs.analyze.replication",
        "repro.obs.live.sampling",
        "repro.cluster.driver",
        "repro.cluster.metrics",
        "repro.cluster.router",
        "repro.cluster.placement",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
