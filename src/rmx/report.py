"""Check reports with exact residuals.

A report's verdict is "pass" iff the residual count is zero; "inconclusive"
is reserved for a check whose least pole-clearing exponent is above its
``r_max``, or where a pole remains that no power clears, and "error" for a
check that raised an exception (its witness names it).  Residuals are entry
counts plus one witness entry, never norms: the arithmetic is exact, so any
nonzero residual is meaningful.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["CheckReport", "timed_report"]

_FIELD_ORDER = ("name", "params", "verdict", "residual_count", "witness",
                "elapsed_ms")


@dataclass
class CheckReport:
    name: str
    params: dict
    verdict: str                 # "pass" | "fail" | "inconclusive" | "error"
    residual_count: int
    witness: object              # None, or (row, col, entry-repr), or str
    elapsed_ms: int

    def __post_init__(self):
        if self.verdict not in ("inconclusive", "error") \
                and (self.verdict == "pass") != (self.residual_count == 0):
            raise ValueError(
                f"verdict {self.verdict!r} contradicts residual count "
                f"{self.residual_count}")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _FIELD_ORDER}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=_jsonable)

    def to_text(self) -> str:
        head = f"{self.verdict.upper():12s} {self.name}"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tail = f"[{self.elapsed_ms} ms]"
        if self.residual_count:
            tail = f"residuals={self.residual_count} " \
                   f"witness={self.witness!r} " + tail
        elif self.verdict in ("inconclusive", "error") and self.witness:
            tail = f"{self.witness} " + tail
        return f"{head} ({params}) {tail}"


def _jsonable(value):
    from fractions import Fraction
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return repr(value)


def timed_report(name, params, fn) -> CheckReport:
    """Run fn() -> (verdict, residual_count, witness) and time it."""
    start = time.monotonic()
    verdict, count, witness = fn()
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(name, params, verdict, count, witness, elapsed)
