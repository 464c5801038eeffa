"""Findings: the common currency of every ``repro.check`` engine.

A :class:`Finding` is one diagnostic -- a lint hit or a contract
violation -- with a rule ID, a severity, and a location.
Findings render deterministically (sorted by path, line, rule) so check
output is byte-stable across runs.
"""

from typing import List

#: Finding that must be fixed (or explicitly suppressed) before merging.
SEV_ERROR = "error"
#: Finding worth a look; ``repro check --strict`` still fails on it.
SEV_WARNING = "warning"

SEVERITIES = (SEV_ERROR, SEV_WARNING)


class Finding:
    """One diagnostic emitted by a check engine."""

    __slots__ = ("rule", "severity", "path", "line", "message")

    def __init__(
        self,
        rule: str,
        severity: str,
        path: str,
        line: int,
        message: str,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {severity!r}; expected one of {SEVERITIES}"
            )
        self.rule = rule
        self.severity = severity
        self.path = path
        self.line = line
        self.message = message

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity}: "
            f"[{self.rule}] {self.message}"
        )

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__
        )


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: by path, then line, then rule ID."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def render_findings(findings: List[Finding]) -> str:
    """A plain-text report, one finding per line, stable across runs."""
    return "\n".join(finding.render() for finding in sort_findings(findings))
