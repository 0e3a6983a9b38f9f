"""Structured pass/fail reports shared by every checker."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import SparseTensor, Vector


def render_vector(v: Vector) -> str:
    """Exact text form of a coordinate vector, e.g. ``(1, -1/2, 0)``."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def _render_fields(fields: Iterable[tuple[int, Fraction]], dim: int) -> str:
    """`render_vector` of the vector of length dim that holds each (index,
    value) of fields and 0 elsewhere: no coordinate is built for a zero."""
    tokens = ["0"] * dim
    for c, x in fields:
        tokens[c] = str(x)
    return "(" + ", ".join(tokens) + ")"


def render_tensor(t: SparseTensor) -> str:
    """Exact text form of a sparse tensor as ``idx:value`` pairs in sorted order."""
    if t.is_zero:
        return "0"
    return " + ".join(
        f"{value}*e{'x'.join(str(i) for i in idx)}" for idx, value in t.items()
    )


def render_residual(residual) -> str | None:
    """A failure's residual as exact text: None stays None, a tensor and a
    vector of Fractions are rendered by `render_tensor` and `render_vector`,
    and anything else by `str`."""
    if residual is None:
        return None
    if isinstance(residual, SparseTensor):
        return render_tensor(residual)
    if isinstance(residual, tuple) and residual and isinstance(residual[0], Fraction):
        return render_vector(residual)
    return str(residual)


@dataclass(frozen=True, order=True)
class Failure:
    """One failing check instance: which condition, at which basis indices, what was left over."""

    check: str
    index: tuple[int, ...] | None = None
    residual: str | None = None


@dataclass
class CheckReport:
    """Outcome of a verification: a sorted list of failures, or an inapplicability notice."""

    name: str
    failures: list[Failure] = field(default_factory=list)
    applicable: bool = True
    reason: str | None = None

    def __post_init__(self) -> None:
        self.failures = sorted(self.failures, key=lambda f: (f.check, f.index or ()))

    @property
    def passed(self) -> bool:
        return self.applicable and not self.failures

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "verdict": self.verdict,
            "failures": [
                {
                    "check": f.check,
                    "index": list(f.index) if f.index is not None else None,
                    "residual": f.residual,
                }
                for f in self.failures
            ],
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def failure(check: str, index: Sequence[int] | None = None, residual=None) -> Failure:
    """Build a Failure with the residual rendered to exact text."""
    return Failure(
        check=check,
        index=tuple(index) if index is not None else None,
        residual=render_residual(residual),
    )


def combine(name: str, reports: Iterable[CheckReport]) -> CheckReport:
    """Merge sub-reports into one; inapplicable sub-reports surface as failures."""
    failures: list[Failure] = []
    for report in reports:
        if not report.applicable:
            failures.append(Failure(check=report.name, residual=f"inapplicable: {report.reason}"))
        else:
            failures.extend(
                Failure(check=f"{report.name}.{f.check}" if f.check != report.name else f.check,
                        index=f.index, residual=f.residual)
                for f in report.failures
            )
    return CheckReport(name=name, failures=failures)
