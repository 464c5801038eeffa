"""Per-file lint: AST rules that keep the simulation a pure function
priced by one device model.

The repo's determinism contract -- byte-identical clocks, traces, and
fingerprints for the same seeded workload -- only holds while no code
path consults the host machine, and the paper's DRAM/NVM cost asymmetry
only holds while ``repro.mem.Device`` is the one place that prices a
transfer.  This module walks ``src/repro/**`` with the stdlib ``ast``
module (no third-party deps) and flags escapes:

========  ========  =====================================================
rule      severity  what it flags
========  ========  =====================================================
DET001    error     wall-clock reads (``time.time``, ``time.monotonic``,
                    ``time.perf_counter``, ``datetime.now``, ...)
DET002    error     real-thread sleeps (``time.sleep``) -- simulated
                    waiting goes through the SimClock/executor
DET003    error     entropy outside ``repro.sim.rng`` (``import random``,
                    ``os.urandom``, ``uuid.uuid4``, ``secrets``)
ORD001    warning   iteration over a ``set``/``frozenset`` (hash order
                    feeds stats/trace output; sort or use a dict/list)
VOC001    error     stall-cause / drop-reason string literals outside the
                    closed vocabularies in ``repro.obs.events``
STAT001   error     ``stats.add/set/max`` keys whose family is not
                    registered in ``repro.sim.stats.KEY_FAMILIES``
BND001    error     a ``DeviceProfile`` price field read outside
                    ``repro/mem`` -- charges come from the ``Device``
BND002    error     a device-name literal (``"nvm"``, ...) passed to a call
                    outside ``repro/mem`` -- no charge picks its medium by
                    name
BND003    error     a ``.ssd`` read outside ``repro/mem`` (the CLI's
                    ``args.ssd`` flag aside) -- the machine decides the
                    persistent tier, ``system.bottom_tier``
========  ========  =====================================================

Suppression is explicit, never silent, and has one form:
``# repro: allow[RULE] -- why`` on the flagged line (or the line directly
above) suppresses that rule there.
"""

import ast
import pathlib
import re
from typing import Dict, List, Optional, Tuple

from repro.check.report import SEV_ERROR, SEV_WARNING, Finding, sort_findings
from repro.obs.events import CATEGORIES, DROP_CAUSES, STALL_CAUSES
from repro.sim.stats import KEY_FAMILIES


class Rule:
    """One lint rule: an ID, a severity, and a one-line summary."""

    __slots__ = ("id", "severity", "summary")

    def __init__(self, rule_id: str, severity: str, summary: str) -> None:
        self.id = rule_id
        self.severity = severity
        self.summary = summary

    def __repr__(self) -> str:
        return f"Rule({self.id}, {self.severity}: {self.summary})"


#: The rule registry, in report order.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule("DET001", SEV_ERROR,
             "wall-clock read; simulated time comes from the SimClock"),
        Rule("DET002", SEV_ERROR,
             "real-thread sleep; model waiting with the executor/clock"),
        Rule("DET003", SEV_ERROR,
             "entropy source outside repro.sim.rng; route randomness "
             "through XorShiftRng"),
        Rule("ORD001", SEV_WARNING,
             "iteration over a set; hash order is not part of the "
             "determinism contract -- sort it or keep a list/dict"),
        Rule("VOC001", SEV_ERROR,
             "stall/drop cause or trace-category literal outside the "
             "closed vocabularies in repro.obs.events"),
        Rule("STAT001", SEV_ERROR,
             "stats key family not registered in "
             "repro.sim.stats.KEY_FAMILIES"),
        Rule("BND001", SEV_ERROR,
             "device profile price read outside repro.mem; price the "
             "transfer through repro.mem.Device"),
        Rule("BND002", SEV_ERROR,
             "device-name literal passed outside repro.mem; take the "
             "price from the device that holds the data"),
        Rule("BND003", SEV_ERROR,
             "machine .ssd read outside repro.mem; the persistent tier "
             "is system.bottom_tier"),
    )
}

#: Files exempt from DET003: the designated entropy seam itself.
_ENTROPY_SEAM = ("repro/sim/rng.py",)

#: The package that owns the devices, their profiles and their names:
#: BND001-003 hold everywhere else.
_DEVICE_PACKAGE = "/repro/mem/"
#: The ``DeviceProfile`` fields a charge is computed from (BND001).
_PRICE_FIELDS = frozenset({
    "read_latency", "write_latency", "seq_read_bw", "seq_write_bw",
    "rand_read_bw", "rand_write_bw", "hop_latency",
})
#: The ``DeviceProfile`` names (BND002).
_DEVICE_NAMES = frozenset({"dram", "nvm", "ssd", "repl-link"})
#: The receiver whose ``.ssd`` is the CLI flag, not a machine (BND003).
_SSD_FLAG_RECEIVER = "args"

# Dotted-call suffixes that read the host clock.
_WALLCLOCK_SUFFIXES = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
_SLEEP_SUFFIXES = {("time", "sleep")}
_ENTROPY_SUFFIXES = {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
#: ``from <module> import <name>`` pairs flagged when the name is called.
_FROM_IMPORT_RULES = {
    ("time", "time"): "DET001",
    ("time", "time_ns"): "DET001",
    ("time", "monotonic"): "DET001",
    ("time", "perf_counter"): "DET001",
    ("time", "process_time"): "DET001",
    ("datetime", "datetime"): None,  # tracked; flagged via .now()/.utcnow()
    ("time", "sleep"): "DET002",
    ("os", "urandom"): "DET003",
    ("uuid", "uuid1"): "DET003",
    ("uuid", "uuid4"): "DET003",
}
_SET_WRAPPERS = ("list", "tuple", "enumerate")

_CAUSE_VOCAB = frozenset(STALL_CAUSES) | frozenset(DROP_CAUSES)

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")


def _dotted(node) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return None


def _is_set_expr(node) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _const_str(node) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _LintVisitor(ast.NodeVisitor):
    """One file's AST walk; emits findings through :meth:`flag`."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.findings: List[Finding] = []
        self.entropy_exempt = any(relpath.endswith(s) for s in _ENTROPY_SEAM)
        self.device_owner = _DEVICE_PACKAGE in f"/{relpath}"
        #: Local names bound by ``from <mod> import <name>`` to a
        #: flagged symbol, mapped to the rule they trigger when called.
        self.flagged_names: Dict[str, str] = {}

    # ------------------------------------------------------------- helpers

    def flag(self, rule_id: str, node, message: str) -> None:
        rule = RULES[rule_id]
        line_no = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(rule.id, rule.severity, self.relpath, line_no, message)
        )

    def _check_iteration(self, iter_node) -> None:
        if _is_set_expr(iter_node):
            self.flag(
                "ORD001", iter_node,
                "iterating a set; wrap in sorted(...) or keep an ordered "
                "container",
            )

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random" and not self.entropy_exempt:
                self.flag(
                    "DET003", node,
                    "import of the global `random` module; use "
                    "repro.sim.rng.XorShiftRng",
                )
            elif root == "secrets":
                self.flag("DET003", node, "import of `secrets` (entropy)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if module == "random" and not self.entropy_exempt:
            self.flag(
                "DET003", node,
                "from-import of the global `random` module; use "
                "repro.sim.rng.XorShiftRng",
            )
        elif module == "secrets":
            self.flag("DET003", node, "from-import of `secrets` (entropy)")
        else:
            for alias in node.names:
                rule = _FROM_IMPORT_RULES.get((module, alias.name))
                if rule is not None:
                    self.flagged_names[alias.asname or alias.name] = rule
        self.generic_visit(node)

    # --------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted is not None and len(dotted) >= 2:
            suffix = dotted[-2:]
            if suffix in _WALLCLOCK_SUFFIXES:
                self.flag(
                    "DET001", node,
                    f"wall-clock call {'.'.join(dotted)}(); use the "
                    "simulated clock",
                )
            elif suffix in _SLEEP_SUFFIXES:
                self.flag(
                    "DET002", node,
                    "time.sleep(); model waiting with executor.wait_for "
                    "or clock.advance",
                )
            elif (
                suffix in _ENTROPY_SUFFIXES
                or dotted[0] in ("random", "secrets")
            ) and not self.entropy_exempt:
                self.flag(
                    "DET003", node,
                    f"entropy call {'.'.join(dotted)}(); use "
                    "repro.sim.rng.XorShiftRng",
                )
        elif isinstance(func, ast.Name):
            rule = self.flagged_names.get(func.id)
            if rule is not None:
                self.flag(
                    rule, node,
                    f"call of {func.id}() imported from a host-state "
                    "module",
                )
        # Unordered iteration through common eager wrappers.
        if isinstance(func, ast.Name) and func.id in _SET_WRAPPERS:
            if node.args and _is_set_expr(node.args[0]):
                self._check_iteration(node.args[0])
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            if node.args and _is_set_expr(node.args[0]):
                self._check_iteration(node.args[0])
        # Stall-cause literals at the canonical call sites.
        if isinstance(func, ast.Attribute) and func.attr in (
            "_stall_wait", "_stall_delay", "_stall_until"
        ):
            if node.args:
                cause = _const_str(node.args[0])
                if cause is not None and cause not in STALL_CAUSES:
                    self.flag(
                        "VOC001", node,
                        f"stall cause {cause!r} is not in "
                        "repro.obs.events.STALL_CAUSES",
                    )
        # Trace-category literals at span/instant emission sites: the
        # third positional argument is the category, and only the
        # closed vocabulary keeps analyzers and fingerprints total.
        if isinstance(func, ast.Attribute) and func.attr in (
            "span", "instant"
        ):
            if len(node.args) >= 3:
                cat = _const_str(node.args[2])
                if cat is not None and cat not in CATEGORIES:
                    self.flag(
                        "VOC001", node,
                        f"trace category {cat!r} is not in "
                        "repro.obs.events.CATEGORIES",
                    )
        # StatsRegistry keys must carry a registered family.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("add", "set", "max")
            and dotted is not None
            and len(dotted) >= 2
            and dotted[-2] == "stats"
            and node.args
        ):
            self._check_stats_key(node.args[0])
        if not self.device_owner:
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                name = _const_str(arg)
                if name in _DEVICE_NAMES:
                    self.flag(
                        "BND002", arg,
                        f"device name {name!r} passed to a call; take the "
                        "price from the device (e.g. system.nvm.search_time)",
                    )
        self.generic_visit(node)

    def _check_stats_key(self, key_node) -> None:
        head = _const_str(key_node)
        if head is None and isinstance(key_node, ast.JoinedStr):
            # f"family.metric.{dynamic}" -- validate the constant head.
            if key_node.values:
                head = _const_str(key_node.values[0])
        if head is None:
            return  # fully dynamic key: nothing checkable statically
        if "." not in head:
            self.flag(
                "STAT001", key_node,
                f"stats key {head!r} has no family prefix "
                "(expected 'family.metric')",
            )
            return
        family = head.split(".", 1)[0]
        if family not in KEY_FAMILIES:
            self.flag(
                "STAT001", key_node,
                f"stats family {family!r} is not registered in "
                "repro.sim.stats.KEY_FAMILIES",
            )

    # ------------------------------------------------------- attributes

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.device_owner:
            if node.attr in _PRICE_FIELDS:
                self.flag(
                    "BND001", node,
                    f"profile price {node.attr} read; price the transfer "
                    "through repro.mem.Device",
                )
            elif (
                node.attr == "ssd"
                and isinstance(node.ctx, ast.Load)
                and _dotted(node.value) != (_SSD_FLAG_RECEIVER,)
            ):
                self.flag(
                    "BND003", node,
                    f"{ast.unparse(node)} read; take the device from "
                    "system.bottom_tier",
                )
        self.generic_visit(node)

    # ----------------------------------------------------- other contexts

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if _const_str(key) == "cause":
                cause = _const_str(value)
                if cause is not None and cause not in _CAUSE_VOCAB:
                    self.flag(
                        "VOC001", value,
                        f"cause literal {cause!r} is not in the closed "
                        "STALL_CAUSES/DROP_CAUSES vocabularies",
                    )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


# ---------------------------------------------------------------- pragmas


def _pragma_allows(lines: List[str]) -> Dict[int, frozenset]:
    """The suppression pragmas of a source file, by line number."""
    by_line: Dict[int, frozenset] = {}
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match:
            by_line[number] = frozenset(
                p.strip() for p in match.group(1).split(",") if p.strip()
            )
    return by_line


def _suppressed(finding: Finding, by_line) -> bool:
    for line in (finding.line, finding.line - 1):
        if finding.rule in by_line.get(line, ()):
            return True
    return False


# ----------------------------------------------------------------- driver


def package_root() -> pathlib.Path:
    """The ``src/repro`` directory of this installation."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def repo_root() -> pathlib.Path:
    """The repository root (parent of ``src``), best effort."""
    root = package_root()
    if root.parent.name == "src":
        return root.parent.parent
    return root.parent


# repro: allow[OPT001] lint fixtures look under a pragma with respect_pragmas=False
def lint_text(
    source: str, relpath: str = "<memory>", respect_pragmas: bool = True
) -> List[Finding]:
    """Lint one source string; the unit under every rule test."""
    visitor = _LintVisitor(relpath)
    visitor.visit(ast.parse(source, filename=relpath))
    findings = visitor.findings
    if respect_pragmas:
        by_line = _pragma_allows(source.splitlines())
        findings = [f for f in findings if not _suppressed(f, by_line)]
    return sort_findings(findings)


def iter_source_files(root: pathlib.Path) -> List[pathlib.Path]:
    return sorted(root.rglob("*.py"))


def run_lint(root: Optional[pathlib.Path] = None) -> List[Finding]:
    """Lint every Python file under ``root`` (default: ``src/repro``).

    Paths in findings are repo-relative when possible, so a report
    reads the same from any checkout.
    """
    scan_root = package_root() if root is None else pathlib.Path(root)
    base = repo_root() if root is None else scan_root.parent
    findings: List[Finding] = []
    for path in iter_source_files(scan_root):
        try:
            rel = path.relative_to(base).as_posix()
        except ValueError:
            rel = path.as_posix()
        findings.extend(lint_text(path.read_text(), rel))
    return sort_findings(findings)
