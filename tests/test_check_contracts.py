"""Whole-tree sweeps: the tree is clean, and each rule catches its case.
BND004's positive fixture is the violation it was written against.

The engine interface and the trace-event schema are not checked here:
the model checker calls every public method on every store, DEAD001
catches an unregistered batched path nothing calls, and the schema's
fingerprint is the ``schema/trace-events`` pin in ``tests/pins.json``.
"""

import pytest

from repro.check.contracts import (
    check_contracts,
    check_dead_names,
    check_private_reads,
    check_unset_options,
    read_sources,
)


def test_registered_engines_conform():
    """``repro check``'s sweeps find no dead name, no unset option and no
    private read across packages."""
    assert check_contracts() == []


def test_registry_covers_every_benchmark_store():
    """The engine interface's gate reaches every engine: each benchmark
    store is a bare-store target of the model checker."""
    from repro.bench.factory import STORE_NAMES
    from tests.test_model_checker import TARGETS

    assert {t.store for t in TARGETS.values() if not t.shards} == set(STORE_NAMES)


def test_drifted_store_is_flagged(tmp_path):
    """A batched entry point that nothing calls -- so no test or run
    holds it to its per-op twin -- is a DEAD001 finding."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "store.py").write_text(
        "class DriftedStore:\n"
        "    def put(self, key, value):\n        return 0.0\n"
        "    def multi_upsert(self, items):\n        return []\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.store import DriftedStore\nDriftedStore().put(b'k', 1)\n"
    )
    found = check_dead_names(read_sources(tmp_path / "pkg"))
    assert [(f.rule, f.line, f.message.split()[0]) for f in found] == [
        ("DEAD001", 4, "multi_upsert"),
    ]


def test_dead_name_is_reported_and_pragma_is_honoured(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "from pkg.mod import planted\n__all__ = ['planted']\n"
    )
    (tmp_path / "pkg" / "mod.py").write_text(
        "def planted():\n    return planted\n\n"
        "# repro: allow[DEAD001] test-facing\n"
        "def kept():\n    pass\n\n"
        "class Used:\n    def dead_method(self):\n        pass\n"
    )
    (tmp_path / "examples" / "demo.py").write_text("import pkg\npkg.mod.Used()\n")
    found = check_dead_names(read_sources(tmp_path / "pkg"))
    assert [(f.rule, f.path, f.line, f.message.split()[0]) for f in found] == [
        ("DEAD001", "pkg/mod.py", 1, "planted"),
        ("DEAD001", "pkg/mod.py", 9, "dead_method"),
    ]


def test_a_method_is_kept_alive_by_attribute_access_not_by_spelling(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(
        "class Recorder:\n"
        "    def series(self):\n"          # dead: only a local shares its name
        "        return self.series()\n"   # (self-recursion does not count)
        "    def total(self):\n"           # alive: read as an attribute below
        "        return 0\n"
        "    def _visit(self):\n"          # alive: bare name in its class body
        "        return 1\n"
        "    alias = _visit\n\n"
        "def report(recorder):\n"
        "    series = [recorder.total(), recorder.alias()]\n"
        "    return series\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import Recorder, report\nreport(Recorder())\n"
    )
    found = check_dead_names(read_sources(tmp_path / "pkg"))
    assert [(f.line, f.message.split()[0]) for f in found] == [(2, "series")]


# ---------------------------------------------------------------- OPT001


def _unset(tmp_path, definition, use):
    """OPT001 over a one-module package and one ``examples/`` caller."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(definition)
    (tmp_path / "examples" / "demo.py").write_text(use)
    found = check_unset_options(read_sources(tmp_path / "pkg"))
    assert {f.rule for f in found} <= {"OPT001"}
    return [(f.line, f.message.split()[0]) for f in found]


_KNOB = "def tune(x, depth=3, width=4):\n    return x, depth, width\n"
_BASE = "class Base:\n    def __init__(self, size=1, seed=2):\n        pass\n"
# Line 4 has no default, so only lines 5 and 8 are checked.
_FIELDS = (
    "from dataclasses import dataclass\n"
    "@dataclass\nclass Shape:\n    size: int\n    depth: int = 3\n"
    "@dataclass\nclass Opts(Shape):\n    width: int = 4\n"
)


@pytest.mark.parametrize("definition, use, unset", [
    pytest.param(_KNOB, "tune(1, width=2, depth=1)\n", [], id="keyword"),
    pytest.param(_KNOB, "import pkg.mod\npkg.mod.tune(1, 2, 3)\n", [], id="position"),
    pytest.param(_KNOB, "tune(1, 2)\n", [(1, "tune(width=)")], id="one-short"),
    pytest.param(
        _KNOB,
        "from functools import partial\nhalf = partial(tune, 1, 2)\n"
        "partial(tune, width=5)\n", [], id="partial"),
    pytest.param(_KNOB, "tune(*row)\n", [], id="star-args"),
    pytest.param(_KNOB, "tune(1, **options)\n", [], id="star-dict"),
    pytest.param(
        _BASE + "class Child(Base):\n    def __init__(self):\n"
                "        super().__init__(4, seed=5)\n",
        "Child()\n", [], id="super-init"),
    pytest.param(
        _BASE + "class Child(Base):\n    pass\n", "Child(size=3)\n",
        [(2, "Base(seed=)")], id="inherited-init"),
    pytest.param(
        _BASE.replace("pass", "pass\n    @classmethod\n    def small(cls):\n"
                              "        return cls(1, 2)"),
        "Base.small()\n", [], id="cls-call"),
    pytest.param(
        "def tune(self, depth=3):\n    pass\n"
        "class T:\n    def tune(self, depth=3):\n        pass\n",
        "t.tune(1)\n", [(1, "tune(depth=)")], id="a-method's-self-is-bound"),
    pytest.param(
        _FIELDS, "Opts(1)\n", [(5, "Shape.depth"), (8, "Opts.width")],
        id="field-unset"),
    pytest.param(_FIELDS, "make(width=1, depth=2)\n", [], id="field-keyword"),
    pytest.param(
        _FIELDS, "overrides = {'depth': 1, 'width': 2}\n", [], id="field-dict-key"),
    pytest.param(
        _FIELDS, "o = Opts(1)\no.depth = 2\nq.o.width = 3\n", [],
        id="field-attribute"),
    pytest.param(_FIELDS, "Opts(1, 2, 3)\n", [], id="field-positional"),
    pytest.param(
        _FIELDS, "Opts(1, 2)\n", [(8, "Opts.width")], id="field-base-slots-first"),
    pytest.param(
        _FIELDS.replace("    width", "    # repro: allow[OPT001] test-facing\n    width"),
        "Opts(1)\n", [(5, "Shape.depth")], id="field-pragma"),
])
def test_the_ways_a_parameter_is_set(tmp_path, definition, use, unset):
    assert _unset(tmp_path, definition, use) == unset


def test_kwargs_forward_one_hop_and_hide_nothing(tmp_path):
    definition = (
        "class Machine:\n"
        "    def __init__(self, ssd=None, clock=None, cpu=None):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def with_ssd(cls, label='m', **kwargs):\n"
        "        return cls(ssd=True, **kwargs)\n"
        "def outer(**kwargs):\n"
        "    return Machine.with_ssd(**kwargs)\n"
    )
    # with_ssd's callers pass clock=: it reaches Machine through the
    # **kwargs; label= is with_ssd's own; cpu= reaches nothing.  outer's
    # cpu= is two hops from Machine and does not count.
    use = "Machine.with_ssd(label='x', clock=1)\nouter(cpu=2)\n"
    assert _unset(tmp_path, definition, use) == [(2, "Machine(cpu=)")]


def test_unset_option_pragma_is_honoured_on_the_def(tmp_path):
    definition = (
        "# repro: allow[OPT001] test-facing\n"
        "def kept(x, page=8):\n    pass\n"
        "class Store:\n"
        "    @staticmethod\n"
        "    # repro: allow[OPT001] test-facing\n"
        "    def items(start=0, page=8):\n        pass\n"
        "def flagged(x, page=8):\n    pass\n"
    )
    assert _unset(tmp_path, definition, "kept(1)\nflagged(1)\nStore.items()\n") == [
        (9, "flagged(page=)")
    ]


def test_the_tree_has_no_unset_option_and_few_pragmas():
    """Both bounds may only go down: code that only tests call lives in
    ``tests/support/``, not behind a pragma in ``src/``.  The OPT001
    bound counts pragmas on defs and on dataclass fields alike."""
    from repro.check.contracts import option_defs, option_fields
    from repro.check.lint import iter_source_files, package_root

    sources = read_sources(package_root())
    assert check_unset_options(sources) == []
    checked = [(d.allows, d.node) for d in option_defs(sources)]
    checked += [(allows, f) for __, allows, __, f, __ in option_fields(sources)]
    allowed = [
        node for allows, node in checked
        if any("OPT001" in allows.get(line, ())
               for line in (node.lineno, node.lineno - 1))
    ]
    assert 0 < len(allowed) <= 7
    dead_pragmas = [
        (path, number)
        for path in iter_source_files(package_root())
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if line.lstrip().startswith("# repro: allow[") and "DEAD001" in line
    ]
    assert 0 < len(dead_pragmas) <= 5, dead_pragmas


# ---------------------------------------------------------------- BND004


def test_bnd004_flags_a_private_read_across_packages(tmp_path):
    """The executor's heap and the clock's time read from a store package
    that defines neither name; the same reads in the package that owns
    them, through ``self``, of a dunder, under a pragma or outside the
    package are not findings."""
    (tmp_path / "pkg" / "sim").mkdir(parents=True)
    (tmp_path / "pkg" / "kvstore").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sim" / "executor.py").write_text(
        "class SimClock:\n    _now = 0.0\n"
        "class Executor:\n    def __init__(self):\n        self._heap = []\n"
        "def _due(executor, clock):\n"
        "    return executor._heap and executor._heap[0][0] <= clock._now\n"
    )
    (tmp_path / "pkg" / "kvstore" / "api.py").write_text(
        "def put(self, system, executor):\n"
        "    heap = executor._heap\n"
        "    if heap and heap[0][0] <= system.clock._now:\n"
        "        executor.settle()\n"
        "    self._seq = type(self).__name__\n"
        "    return self._seq, executor._due  # repro: allow[BND004] test\n"
    )
    (tmp_path / "examples" / "demo.py").write_text("print(clock._now)\n")
    found = check_private_reads(read_sources(tmp_path / "pkg"))
    assert [(f.rule, f.path, f.line, f.message.split(":")[0]) for f in found] == [
        ("BND004", "pkg/kvstore/api.py", 2, "executor._heap"),
        ("BND004", "pkg/kvstore/api.py", 3, "system.clock._now"),
    ]
    assert "package 'kvstore' defines no _now" in found[1].message
