"""The boundaries between packages hold over the live tree, one test per
boundary, and module-level imports that replaced function-local ones hold
from a fresh interpreter: importing the module first, before anything else
of the package, finds no cycle.

Each boundary (the device is the only pricer, no charge picks its device by
name, the machine decides the persistent tier, no package reads another's
private state) is a ``repro check`` rule, BND001-BND004
(docs/static_analysis.md); the rule's fixtures are in
``tests/test_check_lint.py`` and ``tests/test_check_contracts.py``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.check.contracts import check_private_reads, read_sources
from repro.check.lint import package_root, run_lint

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def tree_lint():
    return run_lint()


def _rendered(findings, rule):
    return [f.render() for f in findings if f.rule == rule]


def test_only_the_device_reads_profile_prices(tree_lint):
    """BND001: no module outside ``repro/mem`` reads a ``DeviceProfile``
    price field, save under an ``allow[BND001]`` pragma."""
    assert _rendered(tree_lint, "BND001") == []


def test_no_charge_picks_its_device_by_name(tree_lint):
    """BND002: no call outside ``repro/mem`` passes a device name."""
    assert _rendered(tree_lint, "BND002") == []


def test_only_the_machine_decides_the_persistent_tier(tree_lint):
    """BND003: no module outside ``repro/mem`` reads a machine's ``.ssd``."""
    assert _rendered(tree_lint, "BND003") == []


def test_no_package_reads_another_packages_private_state():
    """BND004: no package reads a private name that it does not define."""
    found = check_private_reads(read_sources(package_root()))
    assert _rendered(found, "BND004") == []


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
