"""Machine-checked invariants: lint and API contracts.

``repro.check`` is the correctness-tooling layer the rest of the repo
runs under (``repro check`` on the CLI, the ``check`` CI job):

- :mod:`repro.check.lint` -- AST determinism lint over ``src/repro``:
  wall-clock/entropy escapes, unordered set iteration, closed-vocabulary
  violations, unregistered stats families.  Rules have IDs and
  severities; suppression is via ``# repro: allow[...]`` pragmas.
- :mod:`repro.check.contracts` -- reflection checks that all engines
  implement the full KVStore surface, batched paths have registered
  per-op oracles, and the trace-event schema matches its pinned hash;
  AST sweeps for names nothing refers to (DEAD001) and defaulted
  parameters nothing sets (OPT001).

See docs/static_analysis.md.
"""

from repro.check.contracts import (
    PINNED_EVENT_SCHEMA,
    check_contracts,
    check_store_class,
    schema_fingerprint,
)
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
    "PINNED_EVENT_SCHEMA",
    "RULES",
    "SEV_ERROR",
    "SEV_WARNING",
    "check_contracts",
    "check_store_class",
    "lint_text",
    "render_findings",
    "run_lint",
    "schema_fingerprint",
    "sort_findings",
]
