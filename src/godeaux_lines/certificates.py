"""Verification certificates: named exact checks with a machine-readable dump."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class Certificate:
    """Outcome of one verifier run; ``data`` holds extra exact payloads."""

    name: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    seconds: Optional[float] = None

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, passed, detail))
        return passed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "certificate": self.name,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "data": self.data,
        }
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 3)
        return out
