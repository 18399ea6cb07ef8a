"""Structured compile-time diagnostics.

A :class:`Diagnostic` is one finding: a stable code (``R001``,
``W101``, ``V003``, ...), a severity, a message, and the
:class:`~repro.lang.errors.SourceLocation` span it points at — the
same span type AST nodes, bytecode instructions and crash-dump
snapshots carry, so a finding can be correlated with a runtime fault
at the same location.  ``notes`` carry follow-up guidance, including
machine-applicable suggestions ("pass assume_min_trips=True").

A :class:`DiagnosticReport` aggregates findings from any producer
(lint rules, the bytecode verifier, the frontend) and renders them as
text or JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lang.errors import UNKNOWN_LOCATION, SourceLocation


class Severity(enum.IntEnum):
    """Diagnostic severities, ordered so ``max`` picks the worst."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static toolchain.

    Attributes:
        code: Stable identifier.  ``Rxxx`` — lint errors, ``Wxxx`` —
            lint warnings, ``Vxxx`` — bytecode-verifier findings,
            ``Pxxx`` — frontend (parse/semantic) errors.
        severity: :class:`Severity` of the finding.
        message: One-line human-readable description.
        location: Source span of the finding.
        routine: Name of the routine the finding is in ("" if n/a).
        notes: Follow-up lines: context, bounds, and
            machine-applicable suggestions.
    """

    code: str
    severity: Severity
    message: str
    location: SourceLocation = UNKNOWN_LOCATION
    routine: str = ""
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        """``file:line:col: severity: [CODE] message`` plus note lines."""
        where = self.location.span_text() if self.location.line else "<unknown>"
        head = f"{where}: {self.severity}: [{self.code}] {self.message}"
        lines = [head]
        lines.extend(f"    note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out: dict = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "location": self.location.to_dict() if self.location.line else None,
        }
        if self.routine:
            out["routine"] = self.routine
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _sort_key(diag: Diagnostic):
    return (
        diag.location.filename,
        diag.location.line,
        diag.location.column,
        -int(diag.severity),
        diag.code,
    )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def sorted(self) -> "DiagnosticReport":
        """A copy ordered by location, then severity (worst first)."""
        return DiagnosticReport(sorted(self.diagnostics, key=_sort_key))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def worst(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    def render(self) -> str:
        """Text rendering: one block per finding plus a summary line."""
        lines = [d.render() for d in self.sorted()]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        if not self.diagnostics:
            return "no findings"
        return f"{n_err} error(s), {n_warn} warning(s), {len(self)} finding(s)"

    def to_dict(self) -> dict:
        return {
            "findings": [d.to_dict() for d in self.sorted()],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }
