"""Structured records for verification runs.

A report is a list of checks, each carrying an identifier, a one-line
statement of the verified relation, the measured value, the budget or
expected value it is held against, the tolerance and the verdict.  A check
that aborted has no measured value or budget (``None``, JSON ``null``, an
empty CSV cell) and carries the exception in its ``error`` field.  Reports
serialize to JSON (checks sorted by identifier, so reruns with one seed are
byte-identical apart from timestamps) and to CSV, one row per check with
the columns check_id, claim, measured, budget, tolerance, pass, detail and
error (the last two empty where the check has none).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    check_id: str
    claim: str
    measured: float | None
    budget: float | None
    tolerance: float | None
    passed: bool
    detail: str = ""
    error: str = ""

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "claim": self.claim,
            "measured": self.measured,
            "budget": self.budget,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.error:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Check":
        return cls(
            check_id=data["check_id"],
            claim=data.get("claim", ""),
            measured=data["measured"],
            budget=data["budget"],
            tolerance=data["tolerance"],
            passed=data["pass"],
            detail=data.get("detail", ""),
            error=data.get("error", ""),
        )


@dataclass
class Report:
    suite: str
    seed: int
    started: str = ""
    finished: str = ""
    checks: list[Check] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in self.checks if c.passed),
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["passed"] == self.summary["total"]

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=lambda c: c.check_id)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "started": self.started,
            "finished": self.finished,
            "checks": [c.to_dict() for c in self.sorted_checks()],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["check_id", "claim", "measured", "budget",
                         "tolerance", "pass", "detail", "error"])
        for c in self.sorted_checks():
            writer.writerow([c.check_id, c.claim,
                             *("" if v is None else repr(v)
                               for v in (c.measured, c.budget, c.tolerance)),
                             "true" if c.passed else "false", c.detail, c.error])
        return out.getvalue()

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(
            suite=data["suite"],
            seed=data["seed"],
            started=data.get("started", ""),
            finished=data.get("finished", ""),
            checks=[Check.from_dict(c) for c in data["checks"]],
        )
