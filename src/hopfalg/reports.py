"""Verification reports: named pass/fail checks with optional witnesses,
and the one store of answers computed once per object."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructuralError


class AnswerStore:
    """An object that keeps each answer about itself alone (a verdict, a
    basis, a count) once computed, under a key naming its kind and what
    it depends on.  The object must not change after the first read, and
    no kept answer may refer back to it (reference counting frees it)."""

    def _kept(self, key: tuple, compute):
        """The answer under ``key``, computed on the first read; read-only."""
        store = vars(self).setdefault("_answers", {})
        if key not in store:
            store[key] = compute()
        return store[key]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    witness: object = None
    informational: bool = False


@dataclass
class VerificationReport:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name, passed, detail="", witness=None, informational=False):
        self.checks.append(Check(name, bool(passed), detail, witness, informational))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    def copy(self) -> "VerificationReport":
        """A new report over copies of the checks (witnesses shared)."""
        return VerificationReport(self.title, [
            Check(c.name, c.passed, c.detail, c.witness, c.informational)
            for c in self.checks])

    @property
    def passed(self) -> bool:
        """True when every non-informational check passes."""
        return all(c.passed for c in self.checks if not c.informational)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed and not c.informational]

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "witness": None if c.witness is None else str(c.witness),
                    "informational": c.informational,
                }
                for c in self.checks
            ],
        }

    def __str__(self):
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "info" if c.informational else ("ok" if c.passed else "FAIL")
            line = f"  [{mark:4}] {c.name}"
            if c.detail:
                line += f"  ({c.detail})"
            if c.witness is not None and not c.passed:
                line += f"  witness: {c.witness}"
            lines.append(line)
        return "\n".join(lines)


def require_passed(need: str, *reports: VerificationReport) -> None:
    """StructuralError after ``need`` naming each failed row of ``reports``."""
    failed = [c.name for report in reports for c in report.failures()]
    if failed:
        raise StructuralError(f"{need}: {'; '.join(failed)} fails")
