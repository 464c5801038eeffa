"""API-contract checker: the engines conform, and drift is caught.

``DriftedStore`` below is the deliberately broken subclass from the
issue: a renamed parameter on a public method and an unregistered
``multi_*`` path.  The checker must flag exactly those, while every
registered engine and the pinned trace-event schema pass clean.
"""

import pytest

from repro.bench.factory import STORE_NAMES
from repro.check.contracts import (
    ENGINE_HOOKS,
    PINNED_EVENT_SCHEMA,
    PUBLIC_API,
    check_contracts,
    check_dead_names,
    check_event_schema,
    check_store_class,
    check_unset_options,
    read_sources,
    schema_fingerprint,
    store_classes,
)
from repro.kvstore.api import BATCH_EQUIVALENCE, KVStore
from repro.obs.events import STALL_CAUSES, TraceEvent


class _ConformingStore(KVStore):
    """A minimal subclass that satisfies the whole contract."""

    name = "conforming"

    def _put(self, key, seq, value, value_bytes):
        return 0.0

    def _get(self, key):
        return None, 0.0

    def _scan(self, start_key, count):
        return [], 0.0


class DriftedStore(_ConformingStore):
    """Deliberate contract drift, each kind asserted on below."""

    name = "drifted"

    # API001: first parameter renamed from `key`.
    def put(self, k, value):
        return 0.0

    # API001: extra parameter without a default.
    def get(self, key, flavor):
        return None, 0.0

    # API002: a batched path with no registered per-op oracle.
    def multi_upsert(self, items):
        return []


def _messages(findings):
    return [f"{f.rule}: {f.message}" for f in findings]


# ---------------------------------------------------------- real engines


def test_registered_engines_conform():
    assert check_contracts() == []


def test_registry_covers_every_benchmark_store():
    assert set(store_classes()) == set(STORE_NAMES)


def test_public_api_matches_batch_oracles():
    for multi, oracle in BATCH_EQUIVALENCE.items():
        assert multi in PUBLIC_API
        assert oracle in PUBLIC_API
    assert set(ENGINE_HOOKS) == {"_put", "_get", "_scan", "_batch_lookup"}


def test_conforming_subclass_passes():
    assert check_store_class(_ConformingStore) == []


# ----------------------------------------------------------------- drift


def test_drifted_store_is_flagged():
    findings = check_store_class(DriftedStore)
    messages = _messages(findings)
    assert any(
        "API001" in m and "put()" in m and "'k'" in m for m in messages
    ), messages
    assert any(
        "API001" in m and "get()" in m and "flavor" in m for m in messages
    ), messages
    assert any(
        "API002" in m and "multi_upsert()" in m for m in messages
    ), messages
    assert all(f.severity == "error" for f in findings)


def test_abstract_methods_flagged():
    class Incomplete(KVStore):
        name = "incomplete"

        def _put(self, key, seq, value, value_bytes):
            return 0.0

    findings = check_store_class(Incomplete)
    assert any(
        f.rule == "API001" and "abstract" in f.message for f in findings
    )


def test_missing_name_attribute_flagged():
    class Nameless(_ConformingStore):
        name = "abstract"  # never overridden from the base placeholder

    findings = check_store_class(Nameless)
    assert any(
        f.rule == "API001" and "`name`" in f.message for f in findings
    )


def test_lost_default_flagged():
    class NoDefaults(_ConformingStore):
        name = "nodefaults"

        def items(self, start_key, end_key, page_size):
            return iter(())

    findings = check_store_class(NoDefaults)
    assert any(
        f.rule == "API001" and "lost its default" in f.message
        for f in findings
    )


def test_var_args_override_is_compatible():
    class Forwarding(_ConformingStore):
        name = "forwarding"

        def put(self, *args, **kwargs):
            return 0.0

    assert check_store_class(Forwarding) == []


def test_unknown_oracle_method_flagged(monkeypatch):
    monkeypatch.setitem(BATCH_EQUIVALENCE, "multi_put", "put_one")
    findings = check_store_class(_ConformingStore)
    assert any(
        f.rule == "API002" and "put_one" in f.message for f in findings
    )


def test_non_kvstore_class_rejected():
    class NotAStore:
        name = "imposter"

    findings = check_store_class(NotAStore)
    assert [f.rule for f in findings] == ["API001"]
    assert "not a KVStore" in findings[0].message


# ---------------------------------------------------------------- schema


def test_schema_fingerprint_matches_pin():
    assert schema_fingerprint() == PINNED_EVENT_SCHEMA
    assert check_event_schema() == []


def test_schema_drift_changes_the_fingerprint():
    widened = schema_fingerprint(
        stall_causes=tuple(STALL_CAUSES) + ("brand-new-cause",)
    )
    renamed = schema_fingerprint(
        slots=tuple(s + "_" for s in TraceEvent.__slots__)
    )
    dropped = schema_fingerprint(drop_causes=("queue_full",))
    assert len({widened, renamed, dropped, PINNED_EVENT_SCHEMA}) == 4


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
    from repro.check.contracts import option_defs
    from repro.check.lint import package_root

    sources = read_sources(package_root())
    assert check_unset_options(sources) == []
    allowed = [
        d for d in option_defs(sources)
        if any("OPT001" in d.allows.get(line, ())
               for line in (d.node.lineno, d.node.lineno - 1))
    ]
    assert 0 < len(allowed) <= 24
