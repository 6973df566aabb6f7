"""Structured lint diagnostics.

Every lint pass emits :class:`Diagnostic` records: a stable rule id, a
severity, a human message, the Indus :class:`~repro.indus.errors.
SourceSpan` the offending IR was lowered from (``UNKNOWN_SPAN`` for
synthesized nodes — never a crash), the path/object the finding is
about, and a fix hint.  Diagnostics order deterministically (severity
first, then source position, then rule/path) so repeated runs over the
same program produce byte-identical output.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..indus.errors import SourceSpan, UNKNOWN_SPAN


class Severity(enum.IntEnum):
    """Diagnostic severity; integer ordering is escalation order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        aliases = {"info": cls.INFO, "warn": cls.WARNING,
                   "warning": cls.WARNING, "error": cls.ERROR}
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(sorted(aliases))}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding."""

    rule: str                     # stable id, e.g. "IH001"
    severity: Severity
    message: str
    span: SourceSpan = UNKNOWN_SPAN
    path: str = ""                # field/register/table the finding names
    block: str = ""               # fragment or placement context
    hint: str = ""                # how to fix it

    def sort_key(self):
        return (-int(self.severity), self.span.line, self.span.column,
                self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.span.line:
            out["span"] = {"line": self.span.line,
                           "column": self.span.column,
                           "end_line": self.span.end_line,
                           "end_column": self.span.end_column}
        if self.path:
            out["path"] = self.path
        if self.block:
            out["block"] = self.block
        if self.hint:
            out["hint"] = self.hint
        return out

    def format(self, name: str = "") -> str:
        where = f"{name}:" if name else ""
        if self.span.line:
            where += f"{self.span.line}:{self.span.column}:"
        ctx = f" [{self.block}]" if self.block else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return (f"{where} {self.severity.label}[{self.rule}]{ctx} "
                f"{self.message}{hint}")


def sort_diagnostics(diags: List[Diagnostic]) -> List[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def max_severity(diags: List[Diagnostic]) -> Optional[Severity]:
    return max((d.severity for d in diags), default=None)


def render_json(diags: List[Diagnostic], name: str = "") -> str:
    return json.dumps({
        "program": name,
        "diagnostics": [d.to_dict() for d in sort_diagnostics(diags)],
    }, indent=2, sort_keys=True)


__all__ = ["Diagnostic", "Severity", "max_severity", "render_json",
           "sort_diagnostics"]
