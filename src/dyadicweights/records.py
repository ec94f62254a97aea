"""Result records shared across the functional and verification modules."""

from __future__ import annotations

from dataclasses import dataclass, field


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
    """One inequality instance: left side, right side, ratio, and verdict."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"
