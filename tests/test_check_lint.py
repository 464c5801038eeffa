"""Per-file lint: per-rule fixtures and pragmas.

Every rule gets a positive fixture (the escape is flagged, with the
right ID and severity) and a negative one (the idiomatic repo pattern
passes).  A boundary rule's positive fixture is the violation it was
written against.  The last test asserts the live tree lints clean --
the property the CI ``check`` job gates on.
"""

import pytest

from repro.check.lint import RULES, lint_text, run_lint
from repro.check.report import SEV_ERROR, SEV_WARNING


def _rules(findings):
    return [f.rule for f in findings]


def test_rule_registry_is_consistent():
    assert set(RULES) == {
        "DET001", "DET002", "DET003", "ORD001", "VOC001", "STAT001",
        "BND001", "BND002", "BND003",
    }
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.severity in (SEV_ERROR, SEV_WARNING)
        assert rule.summary


# ------------------------------------------------------------------ DET001


def test_det001_flags_wall_clock_call():
    findings = lint_text("import time\nt = time.perf_counter()\n")
    assert _rules(findings) == ["DET001"]
    assert findings[0].severity == SEV_ERROR
    assert findings[0].line == 2


def test_det001_flags_datetime_now():
    src = "import datetime\nstamp = datetime.datetime.now()\n"
    assert _rules(lint_text(src)) == ["DET001"]


def test_det001_flags_from_import_alias():
    src = "from time import perf_counter as tick\nt = tick()\n"
    assert _rules(lint_text(src)) == ["DET001"]


def test_det001_passes_simulated_clock():
    src = "def f(system):\n    return system.clock.now\n"
    assert lint_text(src) == []


# ------------------------------------------------------------------ DET002


def test_det002_flags_time_sleep():
    findings = lint_text("import time\ntime.sleep(0.5)\n")
    assert _rules(findings) == ["DET002"]


def test_det002_passes_executor_wait():
    src = "def f(system, job):\n    return system.executor.wait_for(job)\n"
    assert lint_text(src) == []


# ------------------------------------------------------------------ DET003


def test_det003_flags_random_import():
    assert _rules(lint_text("import random\n")) == ["DET003"]
    assert _rules(lint_text("from random import shuffle\n")) == ["DET003"]


def test_det003_flags_entropy_calls():
    assert _rules(lint_text("import os\nos.urandom(8)\n")) == ["DET003"]
    assert _rules(lint_text("import uuid\nuuid.uuid4()\n")) == ["DET003"]
    assert _rules(lint_text("import secrets\n")) == ["DET003"]


def test_det003_exempts_the_rng_seam():
    src = "import random\n"
    assert lint_text(src, "src/repro/sim/rng.py") == []
    assert _rules(lint_text(src, "src/repro/workloads/keys.py")) == ["DET003"]


def test_det003_passes_xorshift():
    src = "from repro.sim.rng import XorShiftRng\nrng = XorShiftRng(1)\n"
    assert lint_text(src) == []


# ------------------------------------------------------------------ ORD001


def test_ord001_flags_set_iteration():
    findings = lint_text("for x in {1, 2, 3}:\n    pass\n")
    assert _rules(findings) == ["ORD001"]
    assert findings[0].severity == SEV_WARNING


def test_ord001_flags_set_through_wrappers_and_comprehensions():
    assert _rules(lint_text("xs = list({1, 2})\n")) == ["ORD001"]
    assert _rules(lint_text("s = ','.join({'a', 'b'})\n")) == ["ORD001"]
    assert _rules(lint_text("ys = [x for x in {1, 2}]\n")) == ["ORD001"]


def test_ord001_passes_sorted_sets_and_dicts():
    assert lint_text("for x in sorted({1, 2}):\n    pass\n") == []
    assert lint_text("for k in {'a': 1}:\n    pass\n") == []


# ------------------------------------------------------------------ VOC001


def test_voc001_flags_unknown_stall_cause():
    src = "def f(self, s):\n    return self._stall_wait('made-up', s)\n"
    findings = lint_text(src)
    assert _rules(findings) == ["VOC001"]
    assert "made-up" in findings[0].message
    src = "def f(self):\n    self._stall_until('made-up', blocked, kick)\n"
    assert _rules(lint_text(src)) == ["VOC001"]


def test_voc001_flags_unknown_cause_in_dict_literal():
    src = "args = {'cause': 'novel-reason'}\n"
    assert _rules(lint_text(src)) == ["VOC001"]


def test_voc001_passes_closed_vocabulary():
    src = (
        "def f(self, s):\n"
        "    self._stall_wait('memtable-full', s)\n"
        "    self._stall_delay('l0-slowdown', s)\n"
        "    return {'cause': 'queue_full'}\n"
    )
    assert lint_text(src) == []


def test_voc001_flags_unknown_trace_category():
    src = "def f(obs, t):\n    obs.instant('x', 'ev', 'repl.novel', t)\n"
    findings = lint_text(src)
    assert _rules(findings) == ["VOC001"]
    assert "repl.novel" in findings[0].message


def test_voc001_passes_registered_trace_categories():
    src = (
        "def f(obs, t):\n"
        "    obs.instant('repl:g0', 'append', 'repl.ship', t)\n"
        "    obs.span('repl:g0', 'ack', 'repl.ack', t, t)\n"
        "    obs.span('repl:g0:r1', 'apply', 'repl.apply', t, t)\n"
        "    obs.instant('repl:g0', 'kill', 'repl.election', t)\n"
        "    obs.span('foreground', 'put', 'op', t, t)\n"
    )
    assert lint_text(src) == []


def test_voc001_ignores_dynamic_trace_categories():
    # Non-literal categories (the CAT_* constants) are checked after a
    # run by ``check_vocabulary``, not statically.
    src = "def f(obs, cat, t):\n    obs.span('x', 'ev', cat, t, t)\n"
    assert lint_text(src) == []


# ----------------------------------------------------------------- STAT001


def test_stat001_flags_unregistered_family():
    src = "def f(system):\n    system.stats.add('novel.bytes', 1)\n"
    findings = lint_text(src)
    assert _rules(findings) == ["STAT001"]
    assert "novel" in findings[0].message


def test_stat001_flags_missing_family_prefix():
    src = "def f(system):\n    system.stats.add('bytes', 1)\n"
    assert _rules(lint_text(src)) == ["STAT001"]


def test_stat001_checks_fstring_head():
    bad = "def f(system, n):\n    system.stats.add(f'novel.L{n}', 1)\n"
    good = "def f(system, n):\n    system.stats.add(f'compact.L{n}', 1)\n"
    assert _rules(lint_text(bad)) == ["STAT001"]
    assert lint_text(good) == []


def test_stat001_passes_registered_family_and_dynamic_keys():
    src = (
        "def f(system, key):\n"
        "    system.stats.add('flush.bytes', 1)\n"
        "    system.stats.add(key, 1)\n"  # fully dynamic: not checkable
    )
    assert lint_text(src) == []


# ------------------------------------------------------------- BND001-003


def test_bnd001_flags_a_profile_price_read_outside_mem():
    src = "seconds += (pointers - 1) * self.system.nvm.profile.write_latency\n"
    findings = lint_text(src, "src/repro/core/miodb.py")
    assert _rules(findings) == ["BND001"]
    assert "write_latency" in findings[0].message
    assert lint_text(src, "src/repro/mem/device.py") == []


def test_bnd002_flags_a_device_name_passed_outside_mem():
    src = 'hop = self.system.cpu.hop_cost("nvm")\n'
    findings = lint_text(src, "src/repro/baselines/novelsm.py")
    assert _rules(findings) == ["BND002"]
    assert "'nvm'" in findings[0].message
    assert _rules(lint_text('f(device="repl-link")\n')) == ["BND002"]
    assert lint_text(src, "src/repro/mem/system.py") == []
    assert lint_text("hop = system.nvm.hop_time()\nfast = media == 'dram'\n") == []


def test_bnd003_flags_a_machine_ssd_read_outside_mem():
    src = 'device = system.nvm if media == "nvm" else system.ssd\n'
    findings = lint_text(src, "src/repro/baselines/lsm.py")
    assert _rules(findings) == ["BND003"]
    assert findings[0].message.startswith("system.ssd read")
    assert lint_text(src, "src/repro/mem/system.py") == []
    # The CLI flag is not a machine; a store to .ssd reads nothing.
    assert lint_text("make_store(name, ssd=args.ssd)\nsystem.ssd = None\n") == []


# ----------------------------------------------------------------- pragmas


def test_pragma_suppresses_on_the_flagged_line():
    src = "import time\nt = time.time()  # repro: allow[DET001] -- test\n"
    assert lint_text(src) == []


def test_pragma_on_the_line_above():
    src = (
        "import time\n"
        "# repro: allow[DET001] -- test\n"
        "t = time.time()\n"
    )
    assert lint_text(src) == []


def test_pragma_for_the_wrong_rule_does_not_suppress():
    src = "import time\nt = time.time()  # repro: allow[DET002] -- wrong\n"
    assert _rules(lint_text(src)) == ["DET001"]


def test_pragmas_can_be_ignored():
    src = "import time\nt = time.time()  # repro: allow[DET001] -- test\n"
    findings = lint_text(src, respect_pragmas=False)
    assert _rules(findings) == ["DET001"]


# ---------------------------------------------------------------- the tree


def test_repo_lints_clean():
    """The live src/repro tree has no unsuppressed findings."""
    assert run_lint() == []
