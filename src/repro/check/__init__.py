"""Machine-checked invariants: lint and whole-tree sweeps.

``repro.check`` is the correctness-tooling layer the rest of the repo
runs under (``repro check`` on the CLI, the ``check`` CI job):

- :mod:`repro.check.lint` -- per-file AST lint over ``src/repro``:
  wall-clock/entropy escapes, unordered set iteration, closed-vocabulary
  violations, unregistered stats families, and the device boundary
  (BND001-003: no profile price, device-name literal or ``.ssd`` read
  outside ``repro/mem``).  Rules have IDs and severities; suppression
  is via ``# repro: allow[...]`` pragmas.
- :mod:`repro.check.contracts` -- AST sweeps over the whole tree for
  names nothing refers to (DEAD001), defaulted parameters nothing sets
  (OPT001) and private names read across package lines (BND004), under
  the same pragmas and report.

No other code walks the tree's AST for a rule.

See docs/static_analysis.md, "One gate per contract", for what guards
the engine interface and the event schema instead.
"""

from repro.check.contracts import check_contracts
from repro.check.lint import RULES, lint_text, run_lint
from repro.check.report import (
    SEV_ERROR,
    SEV_WARNING,
    Finding,
    render_findings,
    sort_findings,
)

__all__ = [
    "Finding",
    "RULES",
    "SEV_ERROR",
    "SEV_WARNING",
    "check_contracts",
    "lint_text",
    "render_findings",
    "run_lint",
    "sort_findings",
]
