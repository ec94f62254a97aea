"""Oscillation level sets over dyadic windows, the weighted weak-type
functional

    sup over lambda of  lambda^p * sum over {Q : omega_Q(f) > lambda |Q|^b}
                        of |Q|^(beta p - 1) * v(Q),      b = beta + 1 - 1/p,

good/bad cube classification, and the verification records comparing the
functional against weighted gradient norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dyadicweights.funcspace import (
    _sorted_unique,
    grad_power_mass,
    mean_abs,
    omega_boxes,
    sobolev_seminorm,
    weighted_lp_mass,
)
from dyadicweights.grid import AxisCube, Cube, GridWindow, axis_interval
from dyadicweights.records import (
    RATIO_CEILING,
    FunctionalProfile,
    VerificationRecord,
    ratio,
    require_finite,
)
from dyadicweights.weights import Weight, ap_constant, dyadic_powers, standard_probes

# Relative margin within which a threshold comparison or an inequality is
# decided only up to the accuracy of omega and of floating-point sums.
REL_TOL = 1e-9


def admissible_beta(p: float, beta: float, n: int) -> bool:
    """Admissible smoothness offsets: the endpoint column beta = 1/p is
    excluded for p > 1; at p = 1 the band [1 - 1/n, 1] is excluded too."""
    if p == 1:
        return beta < 1.0 - 1.0 / n or beta > 1.0
    return beta != 1.0 / p


def alpha_exponent(p: float, beta: float) -> float:
    """Weight-constant exponent: p' on the critical band, 1 elsewhere."""
    if p > 1 and (1.0 / p - 1.0) <= beta < 1.0 / p:
        return p / (p - 1.0)
    return 1.0


@dataclass
class OscillationConfig:
    p: float
    beta: float
    weight: Weight
    window: GridWindow
    lambda_count: int = 64
    exploratory: bool = False

    def __post_init__(self):
        require_finite(p=self.p, beta=self.beta)
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.lambda_count < 0:
            raise ValueError(f"lambda_count must be >= 0, got {self.lambda_count}")
        self.admissible = admissible_beta(self.p, self.beta, self.window.n)
        if not self.admissible and not self.exploratory:
            raise ValueError(
                f"beta={self.beta} is outside the admissible set for "
                f"p={self.p}, n={self.window.n}; pass exploratory=True to force"
            )
        self.alpha = alpha_exponent(self.p, self.beta)

    @property
    def level_exponent(self) -> float:
        return self.beta + 1.0 - 1.0 / self.p


def level_set(oms, window: GridWindow, lam: float, b: float):
    """Cubes of the window with omega_Q(f) / |Q|^b > lam (strict), in window
    order, from the omega values ``oms`` of f in the row order of
    ``window.arrays``: the level rule of LevelMass.of_cubes, each cube
    carrying weight 1.

    Returns (members, flagged) where flagged lists the cubes, members or not,
    whose threshold omega_Q(f) / |Q|^b is within REL_TOL relative of lam,
    hence decided only up to the accuracy of omega.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    arr = window.arrays
    levels = LevelMass.of_cubes(oms, window.n * arr.j, np.ones(len(arr)), b, 0.0)
    count, _ = levels.above(lam)
    thr = levels.thresholds
    near = np.abs(thr - lam) <= REL_TOL * np.maximum(thr, lam)
    members = [arr.cube(i) for i in np.sort(levels.index[:count])]
    flagged = [arr.cube(i) for i in np.sort(levels.index[near])]
    return members, flagged


class LevelMass:
    """Weight of the entries whose threshold exceeds a level.

    The one weak-type kernel of the package: entries with a positive
    threshold are sorted by threshold, descending, and their weights
    prefix-summed once, so the mass above any level is one binary search
    and the supremum of lam^p * mass(lam) is read off the sorted
    thresholds, where it is attained.
    """

    def __init__(self, thresholds, weights):
        thresholds = np.asarray(thresholds, dtype=float)
        weights = np.asarray(weights, dtype=float)
        pos = np.flatnonzero(thresholds > 0)
        order = np.argsort(-thresholds[pos])
        self.index = pos[order]  # source index of each sorted entry
        self.thresholds = thresholds[self.index]
        self.weights = weights[self.index]
        # prefix[k] = weight of the k largest thresholds
        self.prefix = np.concatenate(([0.0], np.cumsum(self.weights)))

    @staticmethod
    def cube_entries(values, logvols, masses, b: float, wexp: float):
        """(thresholds, weights) of the level rule of every weak-type
        functional of the package.

        Cube i, with criterion value values[i] (its omega or its mean of |f|),
        volume |Q| = 2^logvols[i] (n j for a generation-j cube in R^n) and
        weight mass masses[i], enters above lam when values[i] / |Q|^b > lam,
        and then carries |Q|^wexp * masses[i]; wexp is beta p - 1 in every
        functional.
        """
        values = np.asarray(values, dtype=float)
        thr = np.where(values > 0, values / dyadic_powers(logvols, b), 0.0)
        return thr, dyadic_powers(logvols, wexp) * np.asarray(masses, dtype=float)

    @classmethod
    def of_cubes(cls, values, logvols, masses, b: float, wexp: float) -> LevelMass:
        """The LevelMass of the cubes' entries by ``cube_entries``."""
        return cls(*cls.cube_entries(values, logvols, masses, b, wexp))

    def above(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """(count, mass) of the entries with threshold > lam, per lam."""
        count = np.searchsorted(-self.thresholds, -np.asarray(lams), side="left")
        return count, self.prefix[count]

    def sup(self, p: float) -> float:
        """sup over lam of lam^p * mass(lam), 0 when no threshold is positive."""
        return float(np.max(self.thresholds**p * self.prefix[1:], initial=0.0))


def _window_profile(
    window: GridWindow,
    values,
    weight: Weight,
    p: float,
    beta: float,
    b: float,
    lambda_count: int,
) -> FunctionalProfile:
    """Profile of lambda^p * (weight of the window's cubes with threshold >
    lambda), the cubes' criterion values given in window order.

    The grid is log-spaced over the auto bracket plus a point just below each
    distinct threshold; over a finite window the supremum is attained there,
    so the grid max is the exact truncated supremum (up to the 1e-12 nudge).
    flags["near_threshold"] is the relative supremum spread when every cube
    within REL_TOL of its threshold is counted as a member: strict membership
    cannot be certified closer than the accuracy of the criterion values.
    Weight.masses, which takes each row alone, runs only on the cubes whose
    criterion value is > 0; the others enter no level set, and read 0.0.
    With no positive value the grid is the lambda_count log-spaced points
    alone, so lambda_count must be >= 1 there.
    """
    arr = window.arrays
    live = np.flatnonzero(np.asarray(values, dtype=float) > 0)
    masses = np.zeros(len(arr))
    masses[live] = weight.masses(arr.lo[live], arr.hi[live])
    levels = LevelMass.of_cubes(values, window.n * arr.j, masses, b, beta * p - 1.0)
    thr = levels.thresholds
    base = levels.sup(p)
    near = thr * (1.0 - 2.0 * REL_TOL)
    inclusive = float(np.max(near**p * levels.above(near)[1], initial=0.0))
    flags = {"near_threshold": abs(inclusive - base) / max(base, 1e-300)}
    if len(thr) == 0:
        if lambda_count < 1:
            # no threshold to add a grid point below: the grid would be empty
            raise ValueError(
                "lambda_count must be >= 1 when no cube has a positive "
                f"criterion value, got {lambda_count}"
            )
        lams = np.logspace(-3, 0, lambda_count)
    else:
        lo, hi = float(thr[-1]), float(thr[0])
        grid = np.logspace(math.log10(lo * 0.5), math.log10(hi * 1.5), lambda_count)
        nudged = _sorted_unique(thr) * (1.0 - 1e-12)
        lams = _sorted_unique(np.concatenate([grid, nudged]))
    idx, mass = levels.above(lams)
    vals = lams**p * mass
    k = int(np.argmax(vals))
    sup = float(vals[k])
    arg = float(lams[k])
    nk = int(idx[k])
    share = 0.0
    if nk > 0 and mass[k] > 0:
        boundary = window.boundary_flags()[levels.index[:nk]]
        on_boundary = np.cumsum(np.where(boundary, levels.weights[:nk], 0.0))
        share = float(on_boundary[-1] / mass[k])
    return FunctionalProfile(
        lambdas=[float(x) for x in lams],
        values=[float(v) for v in vals],
        sup=sup,
        argmax_lambda=arg,
        boundary_share=share,
        n_cubes=[int(i) for i in idx],
        flags=flags,
    )


def oscillation_functional(cfg: OscillationConfig, f) -> FunctionalProfile:
    """Profile of the weak-type oscillation functional over the window."""
    window = cfg.window
    oms = omega_boxes(f, window.arrays.lo, window.arrays.hi)
    return _window_profile(
        window, oms, cfg.weight, cfg.p, cfg.beta, cfg.level_exponent, cfg.lambda_count
    )


def verify_oscillation(
    cfg: OscillationConfig,
    f,
    profile: FunctionalProfile | None = None,
    probes=None,
) -> VerificationRecord:
    """Compare the functional supremum against the weighted gradient bound.

    rhs = (constant estimate)^alpha * seminorm^p by ApEstimate.bound; the
    constant estimate is a certified lower bound from a finite probe family,
    so PASS ratios witness the inequality with the estimated constant, and
    blow-up under window growth witnesses failure.  An unbounded estimate
    leaves the record uncertified, with the bare seminorm^p as rhs.  A
    profile already built for (cfg, f) is used as it stands; otherwise it is
    built here.
    """
    prof = profile or oscillation_functional(cfg, f)
    w = cfg.weight
    n = cfg.window.n
    if probes is None:
        lo = min(float(b[0]) for b in cfg.window.box)
        hi = max(float(b[1]) for b in cfg.window.box)
        span = max(hi - lo, 1.0)
        if n == 1:
            probes = standard_probes(
                w,
                scales=range(cfg.window.j_min - 2, cfg.window.j_max + 3),
                centers=(0.0, 0.5 * (lo + hi)) + tuple(w.breakpoints()),
            )
            probes = [q for q in probes if q[1] - q[0] <= 8 * span]
        else:
            probes = [
                AxisCube((Fraction(-(2**k)),) * n, Fraction(2 ** (k + 1)))
                for k in range(-6, max(1, cfg.window.j_max) + 1)
            ]
    est = ap_constant(w, cfg.p, probes)
    if n == 1:
        grad_p = grad_power_mass(f, *_norm_interval(f, cfg.window), cfg.p, w)
    else:
        grad_p = sobolev_seminorm(f, w, cfg.p, cfg.window.box) ** cfg.p
    rhs, certified = est.bound(grad_p, cfg.alpha)
    details = {
        "sup": prof.sup,
        "argmax_lambda": prof.argmax_lambda,
        "constant_estimate": est.value,
        "constant_exponent": cfg.alpha,
        "grad_norm_p": grad_p,
        "boundary_share": prof.boundary_share,
        "admissible": cfg.admissible,
        "p": cfg.p,
        "beta": cfg.beta,
    }
    if not certified:
        details["constant_unbounded"] = True
    if cfg.p > 1 and (1.0 / cfg.p - 1.0) <= cfg.beta < 1.0 / cfg.p:
        # on the critical band alpha = p', so rhs carries the p' power
        gap = 1.0 / cfg.p - cfg.beta
        details["critical_band_ratio"] = ratio(prof.sup * gap, rhs)
    return VerificationRecord(
        name="oscillation_functional",
        lhs=prof.sup,
        rhs=rhs,
        ceiling=RATIO_CEILING,
        certified=certified,
        details=details,
    )


def _norm_interval(f, window: GridWindow) -> tuple[float, float]:
    """The one-dimensional window's interval widened to [-r, r], r the
    function's grad_radius when finite, so the norm covers its support."""
    lo, hi = float(window.box[0][0]), float(window.box[0][1])
    radius = getattr(f, "grad_radius", math.inf)
    if math.isfinite(radius):
        lo, hi = min(lo, -radius), max(hi, radius)
    return lo, hi


# ---------------------------------------------------------------------------
# mean-criterion functional
# ---------------------------------------------------------------------------


def mean_admissible_beta(p: float, beta: float) -> bool:
    return beta < 1.0 / p - 1.0 or beta > 1.0 / p


def mean_functional(
    f,
    weight: Weight,
    p: float,
    beta: float,
    window: GridWindow,
) -> FunctionalProfile:
    """Weak-type functional with the average |f| criterion instead of omega,
    over a one-dimensional window: cubes enter at level lam when their mean
    of |f| exceeds lam |Q|^(beta-1/p).  The lambda grid has 64 log-spaced
    points besides the thresholds.
    """
    require_finite(p=p, beta=beta)
    if not mean_admissible_beta(p, beta):
        raise ValueError(
            f"beta={beta} rejected: the mean functional needs "
            f"beta < 1/p - 1 or beta > 1/p"
        )
    if not math.isfinite(getattr(f, "value_bound", math.inf)):
        raise ValueError("mean functional needs a bounded function")
    if window.n != 1:
        raise ValueError("mean functional needs a one-dimensional window")
    arr = window.arrays
    means = mean_abs(f, arr.lo[:, 0], arr.hi[:, 0]).tolist()
    b = beta - 1.0 / p
    return _window_profile(window, means, weight, p, beta, b, 64)


def verify_mean_functional(
    f,
    weight: Weight,
    p: float,
    beta: float,
    window: GridWindow,
    profile: FunctionalProfile | None = None,
) -> VerificationRecord:
    """Mean-criterion functional against estimate * ||f||_{L^p_w}^p by
    ApEstimate.bound, passed up to RATIO_CEILING; a profile already built by
    mean_functional for these inputs is reused."""
    prof = profile or mean_functional(f, weight, p, beta, window)
    scales = range(window.j_min - 2, window.j_max + 3)
    est = ap_constant(weight, p, standard_probes(weight, scales=scales))
    fp = weighted_lp_mass(f, weight, p, *_norm_interval(f, window))
    rhs, certified = est.bound(fp, 1.0)
    return VerificationRecord(
        name="mean_functional",
        lhs=prof.sup,
        rhs=rhs,
        ceiling=RATIO_CEILING,
        certified=certified,
        details={
            "constant_estimate": est.value,
            "lp_norm_p": fp,
            "boundary_share": prof.boundary_share,
        },
    )


# ---------------------------------------------------------------------------
# good and bad cubes
# ---------------------------------------------------------------------------


def _family_arrays(family: list[Cube], w: Weight):
    """(j, inside, mass) of a same-shift family without repeats: each cube's
    generation, inside[i, k] whether cube i lies strictly inside cube k, and
    each mass w(q) from one Weight.masses call on the cubes' float ends.

    Containment is one comparison of integer corners at the family's lowest
    generation j0, where a generation-j corner c is c << (j - j0) and the
    edge 3 << (j - j0), as Python ints: a family may span more than 63
    generations.
    """
    if len({q.shift for q in family}) > 1:
        raise ValueError("good/bad classification needs a same-shift family")
    if len(set(family)) != len(family):
        raise ValueError("family has repeated cubes")
    j = np.array([q.j for q in family])
    j0 = int(j.min())
    lo = np.array([[c << (q.j - j0) for c in q.corner()] for q in family], dtype=object)
    hi = lo + np.array([3 << (q.j - j0) for q in family], dtype=object)[:, None]
    within = (lo[None, :] <= lo[:, None]) & (hi[:, None] <= hi[None, :])
    inside = np.all(within, axis=2) & (j[:, None] < j[None, :])
    ends = np.array([[axis_interval(t, q.j, m) for t, m in zip(q.shift.thirds, q.m)] for q in family])
    return j, inside, w.masses(ends[..., 0], ends[..., 1])


def _cube_weights(j, n: int, sigma: float, mass) -> np.ndarray:
    """|q|^(sigma - 1) w(q) of each cube, |q| = 2^(j n)."""
    return dyadic_powers(n * j, sigma - 1.0) * mass


def classify_good(
    family: list[Cube], sigma: float, w: Weight
) -> tuple[list[Cube], list[Cube]]:
    """Split a same-shift family into good and bad cubes.

    A cube is good when it is minimal in the family or no antichain of its
    strict descendants outweighs it; the heaviest antichain below each node
    comes from the tree recursion best(node) = max(own, sum best(children)).
    """
    if not family:
        return [], []
    j, inside, mass = _family_arrays(family, w)
    good = _good(j, inside, _cube_weights(j, family[0].n, sigma, mass))
    return [q for q, g in zip(family, good) if g], [q for q, g in zip(family, good) if not g]


def _good(j, inside, wgt: np.ndarray) -> list[bool]:
    """Whether each cube of a family is good, from its arrays and weights.

    A cube's parent in the containment forest is the member of the smallest
    generation that holds it strictly (the ancestors of a cube in a
    same-shift family form a chain)."""
    wgt = wgt.tolist()
    parent = np.where(inside, j[None, :], np.iinfo(np.int64).max).argmin(axis=1).tolist()
    children: list[list[int]] = [[] for _ in wgt]
    for i in np.flatnonzero(inside.any(axis=1)).tolist():
        children[parent[i]].append(i)
    best = [0.0] * len(wgt)
    for i in np.argsort(j, kind="stable").tolist():  # ascending generation: children first
        best[i] = max(wgt[i], sum(best[c] for c in children[i]))
    return [
        not kids or sum(best[c] for c in kids) <= own * (1 + 1e-12)
        for kids, own in zip(children, wgt)
    ]


def check_domination(
    family: list[Cube],
    sigma: float,
    exponent: float,
    w: Weight,
    which: str,
) -> VerificationRecord:
    """The two good-cube domination inequalities, evaluated exactly up to
    a relative REL_TOL.

    which = 'all_over_good': with gamma = exponent < sigma, the full family
    sum is at most 1/(1 - 2^{n(gamma-sigma)}) times the good-cube sum.
    which = 'good_chain': with alpha = exponent > sigma, the sum over all
    good cubes is at most 1/(1 - 2^{n(sigma-alpha)}) times the sum over the
    maximal good cubes; every good cube lies in a maximal one, as a good
    strict ancestor has a maximal good ancestor.
    """
    if not family:
        raise ValueError("empty family")
    n = family[0].n
    j, inside, mass = _family_arrays(family, w)
    good = np.array(_good(j, inside, _cube_weights(j, n, sigma, mass)))
    if which == "all_over_good":
        gamma = exponent
        if gamma >= sigma:
            raise ValueError("needs exponent < sigma")
        wgt = _cube_weights(j, n, gamma, mass)
        lhs = sum(wgt.tolist())
        factor = 1.0 / (1.0 - 2.0 ** (n * (gamma - sigma)))
        rhs = factor * sum(wgt[good].tolist())
    elif which == "good_chain":
        alpha = exponent
        if alpha <= sigma:
            raise ValueError("needs exponent > sigma")
        # the good cubes inside no other good cube
        maximal = good & ~np.any(inside & good, axis=1)
        wgt = _cube_weights(j, n, alpha, mass)
        lhs = sum(wgt[good].tolist())
        factor = 1.0 / (1.0 - 2.0 ** (n * (sigma - alpha)))
        rhs = factor * sum(wgt[maximal].tolist())
    else:
        raise ValueError(f"unknown check {which!r}")
    return VerificationRecord(
        name=f"good_cube_domination[{which}]",
        lhs=lhs,
        rhs=rhs,
        ceiling=1.0 + REL_TOL,
        certified=True,
        details={"sigma": sigma, "exponent": exponent, "n_good": int(good.sum())},
    )
