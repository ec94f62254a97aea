"""Result records shared across the functional and verification modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Largest lhs/rhs ratio a check passes when its bound carries a constant that
# is only estimated.
RATIO_CEILING = 100.0


@dataclass
class FunctionalProfile:
    """Values of a supremum-type functional over an evaluation grid of lambda.

    ``sup`` is the maximum over the stored grid and ``argmax_lambda`` the
    grid point attaining it.  ``certifying`` lists the objects (cubes, or
    sample descriptors) that realize the defining strict inequality at the
    argmax.  ``boundary_share`` reports the fraction of the functional value
    carried by cubes touching the window boundary, as a truncation diagnostic.
    """

    lambdas: list[float]
    values: list[float]
    sup: float
    argmax_lambda: float
    certifying: list = field(default_factory=list)
    boundary_share: float = 0.0
    n_cubes: list[int] = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def as_rows(self):
        counts = self.n_cubes if self.n_cubes else [0] * len(self.lambdas)
        return list(zip(self.lambdas, self.values, counts))


@dataclass
class VerificationRecord:
    """One inequality instance lhs <= C rhs and its verdict, by the one rule
    every check of the package shares.

    ratio = lhs / rhs, 0 when lhs = 0 (0 <= C * 0 holds for every C) and inf
    when rhs = 0 < lhs.  The record passes when it is certified and its ratio
    is at most ``ceiling``; ``certified`` is False when a premise of the
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
        if self.lhs == 0:
            self.ratio = 0.0
        else:
            self.ratio = self.lhs / self.rhs if self.rhs > 0 else math.inf
        self.passed = bool(self.certified) and self.within_ceiling

    @property
    def within_ceiling(self) -> bool:
        return bool(self.ratio <= self.ceiling)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"
