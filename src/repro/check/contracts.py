"""API-contract checker: the six engines must stay interchangeable.

Every benchmark, workload, and cluster component in this repo treats
stores as drop-in replacements behind :class:`repro.kvstore.api.KVStore`.
This module verifies, by reflection (no store is instantiated), that the
contract actually holds:

- **Surface** (API001): every registered engine class implements the
  full public KVStore surface and its abstract hooks, with signatures a
  base-class caller can rely on -- same required parameters, extras
  only with defaults, no leftover abstract methods.
- **Batch oracles** (API002): every ``multi_*`` entry point an engine
  exposes has a registered per-op equivalence oracle in
  :data:`repro.kvstore.api.BATCH_EQUIVALENCE` (the method each batched
  op must be byte-identical to), and the oracle method exists.
- **Event schema** (API003): the trace-event shape -- ``TraceEvent``
  slots, the category tuple, and the closed stall/drop vocabularies --
  hashes to the pinned fingerprint.  ``tests/test_obs_schema.py`` pins
  trace *content*; this pins the *schema*, so widening a vocabulary or
  renaming a field fails the check until the pin (and the docs) are
  deliberately updated together.
- **Dead names** (DEAD001): every function, class and method under
  ``src/repro`` is referred to from ``src/repro``, ``benchmarks/`` or
  ``examples/``; API kept only for ``tests/`` says so with a pragma.
- **Unset options** (OPT001): every defaulted parameter of those
  functions and methods is set by some call in the same three trees --
  by keyword or by position.  Calls resolve by name: ``f(...)`` and
  ``x.f(...)`` reach every definition called ``f``; a class name,
  ``cls(...)`` and ``super().m(...)`` reach the method the class
  inherits; ``partial(f, ...)`` is a call of ``f``.  A function's own
  ``**kwargs`` forwards what *its* callers passed beyond its named
  parameters, one hop; ``*args`` or any other ``**dict`` may set
  anything.  A parameter with one value in use is a constant.
"""

import ast
import hashlib
import inspect
from collections import Counter
from typing import Dict, List, Optional

from repro.check.lint import (
    _dotted,
    _pragma_allows,
    _suppressed,
    iter_source_files,
    package_root,
)
from repro.check.report import SEV_ERROR, Finding, sort_findings
from repro.kvstore.api import BATCH_EQUIVALENCE, KVStore

#: Public methods every engine must serve (the benchmark surface).
PUBLIC_API = (
    "put",
    "delete",
    "get",
    "multi_put",
    "multi_delete",
    "multi_get",
    "scan",
    "items",
    "write",
    "quiesce",
)

#: Engine hooks the base class dispatches to.
ENGINE_HOOKS = ("_put", "_get", "_scan", "_batch_lookup")

#: Pinned fingerprint of the trace-event schema (see
#: :func:`schema_fingerprint`).  Update deliberately, together with
#: docs/observability.md and the pinned traces in tests/test_obs_schema.py.
PINNED_EVENT_SCHEMA = (
    "7f4d3bfc6425a024feeda57e0df3909020e4b97fd2d405b236bd8fc66ad4c7b4"
)


def store_classes() -> Dict[str, type]:
    """The registered engine classes, keyed by benchmark store name."""
    from repro.baselines import (
        LevelDBStore,
        MatrixKVStore,
        NoveLSMNoSSTStore,
        NoveLSMStore,
        SLMDBStore,
    )
    from repro.core import MioDB

    return {
        "miodb": MioDB,
        "matrixkv": MatrixKVStore,
        "novelsm": NoveLSMStore,
        "novelsm-hier": NoveLSMStore,
        "novelsm-nosst": NoveLSMNoSSTStore,
        "leveldb": LevelDBStore,
        "slmdb": SLMDBStore,
    }


def _where(cls: type) -> str:
    module = inspect.getmodule(cls)
    path = getattr(module, "__file__", None) or f"<{cls.__module__}>"
    return path


def _finding(cls: type, rule: str, message: str) -> Finding:
    line = 1
    try:
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        pass
    return Finding(rule, SEV_ERROR, _where(cls), line, message)


def _signature_compatible(base_fn, override_fn) -> Optional[str]:
    """None when ``override_fn`` can serve every base-signature call.

    Required: the base's parameters appear in the override with the
    same names, in the same order, and no stricter kinds; any extra
    parameters the override adds must carry defaults (or be ``*args``/
    ``**kwargs``).  Returns a human-readable mismatch description.
    """
    base_params = [
        p for p in inspect.signature(base_fn).parameters.values()
        if p.name != "self"
    ]
    over_params = [
        p for p in inspect.signature(override_fn).parameters.values()
        if p.name != "self"
    ]
    catch_all = {
        inspect.Parameter.VAR_POSITIONAL,
        inspect.Parameter.VAR_KEYWORD,
    }
    over_named = [p for p in over_params if p.kind not in catch_all]
    has_var = any(p.kind in catch_all for p in over_params)
    for at, base_param in enumerate(base_params):
        if at >= len(over_named):
            if has_var:
                continue
            return f"missing parameter {base_param.name!r}"
        over_param = over_named[at]
        if over_param.name != base_param.name:
            return (
                f"parameter {at + 1} is {over_param.name!r}, "
                f"expected {base_param.name!r}"
            )
        if (
            base_param.default is not inspect.Parameter.empty
            and over_param.default is inspect.Parameter.empty
        ):
            return f"parameter {base_param.name!r} lost its default"
    for extra in over_named[len(base_params):]:
        if extra.default is inspect.Parameter.empty:
            return f"extra required parameter {extra.name!r}"
    return None


def check_store_class(cls: type, name: Optional[str] = None) -> List[Finding]:
    """Contract findings for one engine class (empty when conformant)."""
    label = name or getattr(cls, "name", cls.__name__)
    findings: List[Finding] = []
    if not issubclass(cls, KVStore):
        findings.append(_finding(
            cls, "API001", f"{label}: {cls.__name__} is not a KVStore"
        ))
        return findings
    abstract = getattr(cls, "__abstractmethods__", frozenset())
    if abstract:
        findings.append(_finding(
            cls, "API001",
            f"{label}: abstract methods not implemented: "
            f"{', '.join(sorted(abstract))}",
        ))
    for method_name in PUBLIC_API + ENGINE_HOOKS:
        base_fn = getattr(KVStore, method_name, None)
        override_fn = getattr(cls, method_name, None)
        if override_fn is None:
            findings.append(_finding(
                cls, "API001", f"{label}: missing method {method_name}()"
            ))
            continue
        if base_fn is None or override_fn is base_fn:
            continue
        mismatch = _signature_compatible(base_fn, override_fn)
        if mismatch is not None:
            findings.append(_finding(
                cls, "API001",
                f"{label}: incompatible signature for {method_name}(): "
                f"{mismatch}",
            ))
    store_name = getattr(cls, "name", None)
    if not isinstance(store_name, str) or store_name in ("", "abstract"):
        findings.append(_finding(
            cls, "API001",
            f"{label}: class must set a concrete `name` attribute",
        ))
    # Every batched entry point needs a per-op equivalence oracle.
    for attr in sorted(dir(cls)):
        if not attr.startswith("multi_") or not callable(
            getattr(cls, attr, None)
        ):
            continue
        oracle = BATCH_EQUIVALENCE.get(attr)
        if oracle is None:
            findings.append(_finding(
                cls, "API002",
                f"{label}: batched path {attr}() has no per-op "
                "equivalence oracle registered in "
                "repro.kvstore.api.BATCH_EQUIVALENCE",
            ))
        elif not callable(getattr(cls, oracle, None)):
            findings.append(_finding(
                cls, "API002",
                f"{label}: {attr}()'s registered oracle {oracle}() "
                "does not exist",
            ))
    return findings


# repro: allow[OPT001] lint fixtures fingerprint hypothetical schemas
def schema_fingerprint(
    slots=None, categories=None, stall_causes=None, drop_causes=None,
    repl_names=None,
) -> str:
    """SHA-256 over the canonical trace-event schema description.

    Defaults to the live definitions in ``repro.obs.events``; the
    keyword arguments exist so tests can fingerprint hypothetical
    schemas and assert that any drift changes the hash.
    """
    from repro.obs.events import (
        CATEGORIES,
        DROP_CAUSES,
        REPL_EVENT_NAMES,
        STALL_CAUSES,
        TraceEvent,
    )

    names = REPL_EVENT_NAMES if repl_names is None else repl_names
    description = repr((
        tuple(TraceEvent.__slots__ if slots is None else slots),
        tuple(CATEGORIES if categories is None else categories),
        tuple(sorted(STALL_CAUSES if stall_causes is None else stall_causes)),
        tuple(DROP_CAUSES if drop_causes is None else drop_causes),
        tuple((cat, tuple(names[cat])) for cat in sorted(names)),
    ))
    return hashlib.sha256(description.encode()).hexdigest()


def check_event_schema() -> List[Finding]:
    """API003: the live event schema must match the pinned fingerprint."""
    live = schema_fingerprint()
    if live == PINNED_EVENT_SCHEMA:
        return []
    from repro.obs import events

    return [
        Finding(
            "API003", SEV_ERROR, events.__file__, 1,
            f"trace-event schema drifted: fingerprint {live[:16]}... != "
            f"pinned {PINNED_EVENT_SCHEMA[:16]}...; update "
            "repro.check.contracts.PINNED_EVENT_SCHEMA deliberately, "
            "together with docs and the pinned traces",
        )
    ]


def _references(tree: ast.AST):
    """Identifier occurrences as bare names and as attribute accesses."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def read_sources(package):
    """What DEAD001 and OPT001 read: every ``*.py`` under ``package`` and
    under ``benchmarks/`` and ``examples/`` beside it, parsed once, as
    ``(repo-relative path, tree, pragmas)`` -- pragmas are None for the
    two user trees, whose definitions are not checked.
    """
    base = package.parent.parent if package.parent.name == "src" else package.parent
    files = []
    for root in (package, base / "benchmarks", base / "examples"):
        for path in iter_source_files(root):
            source = path.read_text()
            allows = _pragma_allows(source.splitlines()) if root is package else None
            files.append((path.relative_to(base).as_posix(),
                          ast.parse(source, filename=str(path)), allows))
    return files


def _unsuppressed(rule, path, allows, node, message) -> List[Finding]:
    finding = Finding(rule, SEV_ERROR, path, node.lineno, message)
    return [] if _suppressed(finding, allows) else [finding]


def check_dead_names(sources) -> List[Finding]:
    """DEAD001: a module-level function or class, or a method of one,
    that nothing in :func:`read_sources` refers to outside its own
    definition.  A function or class is referred to
    by any occurrence of its identifier; a method only by an attribute
    access (``x.name``) or a bare name in its own class body (``visit_B
    = _visit_a``) -- a local variable that happens to share its
    spelling does not keep it alive.  Import lines and ``__all__``
    strings are not occurrences; dunders, ``visit_*`` and nested defs
    are not checked.
    """
    names: Counter = Counter()
    attrs: Counter = Counter()
    defined = []  # (path, pragmas, def node, its class body's names | None)
    for path, tree, allows in sources:
        file_names, file_attrs = _references(tree)
        names.update(file_names)
        attrs.update(file_attrs)
        if allows is None:
            continue
        for node in tree.body:
            if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                continue
            defined.append((path, allows, node, None))
            if isinstance(node, ast.ClassDef):
                in_class = _references(node)[0]
                defined += [
                    (path, allows, m, in_class)
                    for m in node.body if isinstance(m, _FUNCTIONS)
                ]
    findings = []
    for path, allows, node, in_class in defined:
        name = node.name
        if name.startswith(("__", "visit_")):
            continue
        own_names, own_attrs = _references(node)
        if in_class is None:
            used = names[name] + attrs[name] > own_names[name] + own_attrs[name]
        else:
            used = attrs[name] > own_attrs[name] or in_class[name] > own_names[name]
        if not used:
            findings += _unsuppressed(
                "DEAD001", path, allows, node,
                f"{name} has no reference in src/repro, benchmarks/ or examples/:"
                " delete it, or mark test-facing API `# repro: allow[DEAD001] why`",
            )
    return findings


class _Def:
    """One function or method under the package, and what calls pass it."""

    def __init__(self, path, allows, node, owner=None) -> None:
        self.path, self.allows, self.node = path, allows, node
        self.label = owner if node.name == "__init__" else node.name
        static = any(_dotted(d) == ("staticmethod",) for d in node.decorator_list)
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        self.positional = positional[1:] if owner and not static else positional
        self.named = set(positional) | {a.arg for a in args.kwonlyargs}
        self.defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        #: Names some call passed (parameters, ``**kwargs`` keys); ``"*"``
        #: when one spread ``*args`` or a ``**dict``, which may set anything.
        self.set = set()


def _calls(node, cls=None, fn=None):
    """Each call under ``node`` with the class and function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, child, None)
        elif isinstance(child, _FUNCTIONS):
            yield from _calls(child, cls, child)
        else:
            if isinstance(child, ast.Call):
                yield child, cls, fn
            yield from _calls(child, cls, fn)


def option_defs(sources) -> List[_Def]:
    """Every function and method DEAD001 checks, with what calls set
    (the module docstring says how a call finds its definitions)."""
    by_name: Dict[str, List[_Def]] = {}
    classes = {}  # name -> (base names, {method name: _Def})
    for path, tree, allows in sources:
        for node in tree.body if allows is not None else ():
            owner = node.name if isinstance(node, ast.ClassDef) else None
            members = node.body if owner else [node]
            defs = {m.name: _Def(path, allows, m, owner)
                    for m in members if isinstance(m, _FUNCTIONS)}
            for name, d in defs.items():
                by_name.setdefault(name, []).append(d)
            if owner:
                classes[owner] = ([b[-1] for b in map(_dotted, node.bases) if b], defs)
    by_node = {id(d.node): d for defs in by_name.values() for d in defs}

    def inherited(cls_names, method):
        for bases, methods in (classes[c] for c in cls_names if c in classes):
            found = [methods[method]] if method in methods else inherited(bases, method)
            if found:
                return found
        return []

    forwards = []  # (the _Def whose **kwargs is spread, the _Def it reaches)
    for _, tree, _ in sources:
        for call, cls, fn in _calls(tree):
            func, args = call.func, call.args
            if (_dotted(func) or ("",))[-1] == "partial" and args:
                func, args = args[0], args[1:]
            name = (_dotted(func) or ("",))[-1]
            if cls and isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Call) and _dotted(func.value.func) == ("super",):
                targets = inherited(classes.get(cls.name, ((),))[0], func.attr)
            elif name in classes or (name == "cls" and cls):
                targets = inherited([cls.name if name == "cls" else name], "__init__")
            else:
                targets = by_name.get(name, ()) if name != "__init__" else ()
            via = by_node.get(id(fn))  # the checked definition around the call
            own_kwargs = via and fn.args.kwarg and fn.args.kwarg.arg
            for target in targets:
                target.set.update(target.positional[:len(args)])
                target.set.update("*" for a in args if isinstance(a, ast.Starred))
                for kw in call.keywords:
                    if kw.arg or not own_kwargs or _dotted(kw.value) != (own_kwargs,):
                        target.set.add(kw.arg or "*")
                    else:
                        forwards.append((via, target))
    for to, names in [(to, via.set - via.named) for via, to in forwards]:
        to.set |= names
    return list(by_node.values())


def check_unset_options(sources) -> List[Finding]:
    """OPT001: a defaulted parameter no call sets has one value in use."""
    return [
        finding
        for d in option_defs(sources) if "*" not in d.set
        for param in d.defaulted if param not in d.set
        for finding in _unsuppressed(
            "OPT001", d.path, d.allows, d.node,
            f"{d.label}({param}=) is set by no call in src/repro, benchmarks/ "
            "or examples/: make it a constant beside the code that reads it, or "
            "mark test-facing API `# repro: allow[OPT001] why` on its def",
        )
    ]


def check_contracts() -> List[Finding]:
    """Engine contracts, the event schema, and the dead-name and
    unset-option sweeps."""
    findings: List[Finding] = []
    for name, cls in store_classes().items():
        findings.extend(check_store_class(cls, name))
    findings.extend(check_event_schema())
    sources = read_sources(package_root())
    findings.extend(check_dead_names(sources))
    findings.extend(check_unset_options(sources))
    return sort_findings(findings)
