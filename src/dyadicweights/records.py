"""Result records shared across the functional and verification modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """An input the runners cannot act on, reported as one error line."""


def require_finite(**values: float) -> None:
    """Refuse a NaN or infinite value: ValueError naming the first one."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# Largest lhs/rhs ratio a check passes when its bound carries a constant that
# is only estimated.
RATIO_CEILING = 100.0


def ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, 0 when lhs = 0 (0 <= C * 0 holds for every C) and inf
    when rhs = 0 < lhs."""
    if lhs == 0:
        return 0.0
    return lhs / rhs if rhs > 0 else math.inf


@dataclass
class FunctionalProfile:
    """Values of a supremum-type functional over an evaluation grid of lambda.

    ``sup`` is the maximum over the stored grid and ``argmax_lambda`` the
    grid point attaining it.  ``boundary_share`` reports the fraction of the
    functional value carried by cubes touching the window boundary, as a
    truncation diagnostic.
    """

    lambdas: list[float]
    values: list[float]
    sup: float
    argmax_lambda: float
    boundary_share: float = 0.0
    n_cubes: list[int] = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def as_rows(self):
        return list(zip(self.lambdas, self.values, self.n_cubes))


@dataclass
class VerificationRecord:
    """One inequality instance lhs <= C rhs and its verdict, by the one rule
    every check of the package shares.

    ratio is ratio(lhs, rhs).  The record passes when it is certified and its
    ratio is at most ``ceiling``; ``certified`` is False when a premise of the
    comparison fails (an unbounded constant estimate, a missed lower
    constant, an inconclusive truncation).
    """

    name: str
    lhs: float
    rhs: float
    ceiling: float
    certified: bool
    details: dict = field(default_factory=dict)
    ratio: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.ratio = ratio(self.lhs, self.rhs)
        self.passed = bool(self.certified) and self.within_ceiling

    @property
    def within_ceiling(self) -> bool:
        return bool(self.ratio <= self.ceiling)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def summary(self) -> dict:
        """Both sides, ratio, ceiling, certification and verdict: the keys
        every summary of a checked run writes."""
        return {
            "verdict": self.verdict,
            "check": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "ceiling": self.ceiling,
            "certified": bool(self.certified),
            "details": self.details,
        }
