"""Whole-tree sweeps: what nothing refers to, what nothing sets, and
what a package reads of another's private state.

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
  anything.  A defaulted ``@dataclass`` field is set by a keyword in any
  call, a dict-literal key, ``x.field = ...``, or a positional argument
  in its slot of a call to its class or a subclass.  A parameter or
  field with one value in use is a constant.
- **Private reads across packages** (BND004): no module reads ``x._name``
  (``x`` not ``self`` or ``cls``, dunders aside) unless its own package
  -- the first path part under the package root -- defines ``_name`` by
  ``def``, ``class``, ``self._name =`` / ``cls._name =`` or a class-body
  assignment.  What a package publishes is the whole of what the rest
  may depend on.  Only the package's own files are checked.

The engine interface and the event schema are not checked here: the
model checker (``tests/test_model_checker.py``) calls every public
method on every store, and the schema is a pin in ``tests/pins.json``.
"""

import ast
import os
from collections import Counter
from typing import Dict, List

from repro.check.lint import (
    _dotted,
    _pragma_allows,
    _suppressed,
    iter_source_files,
    package_root,
)
from repro.check.report import SEV_ERROR, Finding, sort_findings


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
    """What DEAD001, OPT001 and BND004 read: every ``*.py`` under ``package`` and
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


def option_fields(sources) -> List[tuple]:
    """Every defaulted ``@dataclass`` field under the package, as ``(path,
    pragmas, class name, AnnAssign, set?)``; the module docstring says how."""
    classes = {}  # name -> (base names, its fields as (path, pragmas, node))
    for path, tree, allows in sources:
        for node in tree.body if allows is not None else ():
            if isinstance(node, ast.ClassDef):
                dataclass = "dataclass" in {(_dotted(getattr(d, "func", d)) or ("",))[-1]
                                            for d in node.decorator_list}
                classes[node.name] = ([b[-1] for b in map(_dotted, node.bases) if b], [
                    (path, allows, f) for f in node.body
                    if dataclass and isinstance(f, ast.AnnAssign) and f.simple])

    def slots(name):  # base-class fields first; an override keeps its slot
        bases, own = classes.get(name, ((), ()))
        names = [n for base in bases for n in slots(base)]
        return names + [f.target.id for _, _, f in own if f.target.id not in names]

    spelled = set()
    for _, tree, _ in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spelled.update(kw.arg for kw in node.keywords)
                spelled.update(slots((_dotted(node.func) or ("",))[-1])[:len(node.args)])
            elif isinstance(node, ast.Dict):
                spelled.update(k.value for k in node.keys if isinstance(k, ast.Constant))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                spelled.add(node.attr)
    return [(path, allows, name, f, f.target.id in spelled)
            for name, (_, own) in classes.items()
            for path, allows, f in own if f.value is not None]


def check_unset_options(sources) -> List[Finding]:
    """OPT001: a defaulted parameter or field nothing sets is a constant."""
    unset = [(d.path, d.allows, d.node, f"{d.label}({param}=)", "def")
             for d in option_defs(sources) if "*" not in d.set
             for param in d.defaulted if param not in d.set]
    unset += [(path, allows, f, f"{name}.{f.target.id}", "line")
              for path, allows, name, f, is_set in option_fields(sources) if not is_set]
    return [
        finding
        for path, allows, node, what, where in unset
        for finding in _unsuppressed(
            "OPT001", path, allows, node,
            f"{what} is set by nothing in src/repro, benchmarks/ or examples/: "
            "make it a constant beside the code that reads it, or mark "
            f"test-facing API `# repro: allow[OPT001] why` on its {where}",
        )
    ]


def check_private_reads(sources) -> List[Finding]:
    """BND004: a read of another package's private name (module docstring)."""
    own = [(path, tree, allows) for path, tree, allows in sources if allows is not None]
    root = os.path.commonpath([os.path.dirname(path) for path, __, __ in own])
    root_parts = len(root.split("/"))
    defined: Dict[str, set] = {}
    reads = []  # (package, path, pragmas, node)
    for path, tree, allows in own:
        package = path.split("/")[root_parts]
        names = defined.setdefault(package, set())
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                               else [])
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))):
                receiver = _dotted(node.value)
                if receiver in (("self",), ("cls",)):
                    if isinstance(node.ctx, ast.Store):
                        names.add(node.attr)
                elif isinstance(node.ctx, ast.Load):
                    reads.append((package, path, allows, node))
    return [
        finding
        for package, path, allows, node in reads
        if node.attr not in defined[package]
        for finding in _unsuppressed(
            "BND004", path, allows, node,
            f"{ast.unparse(node)}: package {package!r} defines no {node.attr};"
            " read what the owning package publishes (clock.now,"
            " executor.next_due, table.keys)",
        )
    ]


def check_contracts(root=None) -> List[Finding]:
    """The dead-name, unset-option and private-read sweeps over the package
    at ``root`` (default: ``src/repro``)."""
    sources = read_sources(package_root() if root is None else root)
    return sort_findings(
        check_dead_names(sources) + check_unset_options(sources)
        + check_private_reads(sources)
    )
