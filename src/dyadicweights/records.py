"""Result records shared across the functional and verification modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


class ConfigError(ValueError):
    """An input the runners cannot act on, reported as one error line."""


# The types a config value may have, by the type of its setting's default.
_TAKES = {bool: bool, str: str, int: int, float: (int, float), Fraction: (int, float, Fraction)}
_SPELLED = {bool: "true or false", str: "text", int: "an integer"}


def typed(key: str, value, kind: type):
    """value read as a setting of `kind`, or one ConfigError naming the key.
    A bool is only true or false and never a number; an int setting takes an
    integral float as its int; a Fraction setting is the decimal a number spells."""
    if kind is list:
        return value if isinstance(value, list) else [value]
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, _TAKES[kind]):
        raise ConfigError(f"{key} must be {_SPELLED.get(kind, 'a number')}, got {value!r}")
    try:  # Fraction("inf") and float() of an int past the float range fail
        return Fraction(str(value)) if kind is Fraction else kind(value)
    except (OverflowError, ValueError):
        raise ConfigError(f"{key} must be finite, got {value}") from None


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
