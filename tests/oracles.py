"""Pointwise oracles of the difference-quotient level sets, used only by the
tests: one pair (x, y) at a time, by scalar arithmetic."""

from __future__ import annotations

import numpy as np

from dyadicweights.diffquot import ball_mean


def in_level_set(f, x: float, y: float, lam: float, s: float) -> bool:
    """Exact membership predicate of (x, y) in E(lam, s)[f]."""
    if x == y:
        raise ValueError("x = y is excluded")
    d = abs(x - y)
    fx = float(f.value(np.array([x]))[0])
    fy = float(f.value(np.array([y]))[0])
    return abs(fx - fy) > lam * d ** (1.0 + s)


def split_and_mean_sets(
    f, x: float, y: float, lam: float, s: float
) -> tuple[bool, bool, bool]:
    """Membership of (x,y) in E(lam), and in the two halved-threshold sets
    built through the ball mean over B(y, |x-y|/20).

    The triangle inequality through the common mean guarantees the pointwise
    split: membership in E implies membership in at least one of the others.
    """
    if x == y:
        raise ValueError("x = y is excluded")
    d = abs(x - y)
    fx = float(f.value(np.array([x]))[0])
    fy = float(f.value(np.array([y]))[0])
    fb = float(ball_mean(f, [y], [d / 20.0])[0])
    denom = d ** (1.0 + s)
    in_e = abs(fx - fy) > lam * denom
    in_e1 = abs(fx - fb) > 0.5 * lam * denom
    in_e2 = abs(fy - fb) > 0.5 * lam * denom
    return in_e, in_e1, in_e2
