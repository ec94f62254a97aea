"""Scripted experiments: sharpness sweeps of the weight-constant exponents
and the empirical weight classifier.

The sweeps evaluate the functional on the explicit certifying cube families
of each construction (exactly, in log space where cube scales overflow
doubles), so the scaling exponents are exhibited free of window-truncation
noise.  The classifier probes a weight with scale-adaptive transition
functions: for a weight in the class every probe ratio stays bounded by a
constant, while a failing weight lets the probe place oscillation where the
weight cannot pay for it, and the ratio blows up at a known rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dyadicweights.diffquot import DiffQuotConfig, diffquot_functional
from dyadicweights.oscillation import LevelMass, level_set
from dyadicweights.funcspace import (
    catalog,
    grad_power_mass,
    omega,
    omega_window,
)
from dyadicweights.grid import (
    Cube,
    Shift,
    all_shifts,
    axis_interval,
    cube_at,
    window_1d,
)
from dyadicweights.weights import (
    ConstantWeight,
    PowerWeight,
    Weight,
    ap_constant,
    power_ap_member,
    standard_probes,
)

S0 = Shift((0,))
S13 = Shift((1,))


@dataclass
class SweepResult:
    case: str
    p: float
    grid: list[float]
    lhs: list[float]
    constants: list[float]
    grad_norms: list[float]
    slope: float
    slope_residual: float
    expected_slope: float
    certified: list[bool]
    verdict: str
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def fit_loglog_slope(xs, ys, down_weight: float = 0.25) -> tuple[float, float]:
    """Asymptotic log-log slope via pairwise slopes extrapolated to x -> 0.

    Pairwise slopes between consecutive grid points are regressed linearly
    against x (weighted least squares, the two extreme pairs down-weighted)
    and the intercept is the x -> 0 slope.  A plain global fit would be
    biased by the slowly-varying prefactors of the constructions.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if len(xs) < 5:
        raise ValueError("slope fit needs at least 5 grid points")
    s = np.diff(np.log(ys)) / np.diff(np.log(xs))
    xm = np.sqrt(xs[:-1] * xs[1:])
    w = np.ones(len(s))
    w[0] *= down_weight
    w[-1] *= down_weight
    a = np.vstack([np.ones(len(s)), xm]).T
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(a * sw[:, None], s * sw, rcond=None)
    resid = float(np.sqrt(np.mean(w * (s - a @ coef) ** 2) / np.mean(w)))
    return float(coef[0]), resid


def _log_geometric_sum(log_first: float, log_ratio: float, terms: int) -> float:
    """sum of exp(log_first + k*log_ratio) for k = 0..terms-1, stably."""
    if log_ratio >= 0:
        raise ValueError("needs a decaying series")
    ratio = math.exp(log_ratio)
    return math.exp(log_first) * (1.0 - ratio**terms) / (1.0 - ratio)


def sharpness_sweep(
    case: str,
    p: float,
    grid,
    window=None,
    slope_tol: float | None = None,
    tail_tol: float = 1e-10,
) -> SweepResult:
    """Reproduce one of the three lower-bound constructions over a parameter
    grid and fit the scaling exponent of the certifying-family functional."""
    case = case.lower()
    grid = [float(g) for g in grid]
    if case == "a1":
        return _sweep_a1(p, grid, window, slope_tol or 0.05)
    if case == "ap":
        return _sweep_ap(p, grid, slope_tol or 0.15, tail_tol)
    if case == "betalimit":
        return _sweep_beta(p, grid, slope_tol or 0.15, tail_tol)
    raise ValueError(f"unknown sweep case {case!r}")


def _sweep_a1(p, deltas, window, slope_tol):
    """Weight |x - 1/2|^(delta-1), bump squeezed over (0,1): the one-sided
    mass of the interval (0,4) from the singular center scales like 1/delta."""
    beta = 2.0
    f = catalog("sharp1_bump")
    lam_star = 4.0 ** (-beta - 3.0 + 1.0 / p)
    b = beta + 1.0 - 1.0 / p
    if window is None:
        window = window_1d(-8, 8, 0, 3)
    i0 = Cube(S0, 2, (0,))
    omega_map = omega_window(f, window)
    members, _ = level_set(f, window, lam_star, b, omega_map=omega_map)
    lhs, consts, grads, certified = [], [], [], []
    for d in deltas:
        w = PowerWeight(d - 1.0, center=0.5)
        mass_i0 = w.interval_mass(0.5, 4.0)  # equals (7/2)^d / d exactly
        certified.append(i0 in members)
        lhs.append(lam_star**p * float(i0.volume) ** (beta * p - 1.0) * mass_i0)
        est = ap_constant(w, 1.0, standard_probes(w, scales=range(-14, 6)))
        consts.append(est.value)
        grads.append(grad_power_mass(f, -1.0, 2.0, p, w))
    slope, resid = fit_loglog_slope(deltas, lhs)
    ok = abs(slope - (-1.0)) <= slope_tol and all(certified)
    return SweepResult(
        case="a1",
        p=p,
        grid=deltas,
        lhs=lhs,
        constants=consts,
        grad_norms=grads,
        slope=slope,
        slope_residual=resid,
        expected_slope=-1.0,
        certified=certified,
        verdict="pass" if ok else "fail",
        extras={"lambda_star": lam_star, "tracked": "one_sided_mass_I0"},
    )


def _sweep_ap(p, deltas, slope_tol, tail_tol):
    """Weight |x|^((p-1)(1-delta)) with the power-ramp function; certifying
    family [-2^(2j-1)/3, 2^(2j)/3) in the 1/3-shifted grid at level 1/(9 delta).

    Terms decay like 2^(-2 j delta (p-1)); they are summed in log space, so
    cube scales far beyond float range contribute exactly.
    """
    if p <= 1:
        raise ValueError("this construction needs p > 1")
    lhs, consts, grads, certified = [], [], [], []
    for d in deltas:
        a = (p - 1.0) * (1.0 - d)
        f = catalog("sharp2_fdelta", delta=d)
        lam = 1.0 / (9.0 * d)
        # membership lower bound (2 - 6*4^-j)/(9 d) exceeds 1/(9 d)
        # exactly when j >= 2; verify the first cubes against the computed
        # oscillation as well
        cert = True
        for j in (2, 3, 4):
            q = Cube(S13, 2 * j - 1, (0,))
            lo, hi = map(float, q.interval())
            assert math.isclose(hi - lo, 2.0 ** (2 * j - 1))
            cert = cert and omega(f, (lo, hi)) > lam
        certified.append(cert)
        # term_j = |I_j|^{-p} v(I_j) = c * 2^{-(2j-1) d (p-1)}
        logc = math.log((1.0 / 3.0) ** (a + 1.0) + (2.0 / 3.0) ** (a + 1.0)) - math.log(
            a + 1.0
        )
        log_ratio = -2.0 * d * (p - 1.0) * math.log(2.0)
        log_first = logc + 3.0 * (-d * (p - 1.0)) * math.log(2.0)
        terms = max(8, int(math.ceil(math.log(tail_tol) / log_ratio)))
        total = _log_geometric_sum(log_first, log_ratio, terms)
        lhs.append(lam**p * total)
        consts.append(d ** (1.0 - p))
        grads.append(1.0 / d)  # closed form of the gradient integral
    slope, resid = fit_loglog_slope(deltas, lhs)
    ok = abs(slope - (-(p + 1.0))) <= slope_tol and all(certified)
    return SweepResult(
        case="ap",
        p=p,
        grid=deltas,
        lhs=lhs,
        constants=consts,
        grad_norms=grads,
        slope=slope,
        slope_residual=resid,
        expected_slope=-(p + 1.0),
        certified=certified,
        verdict="pass" if ok else "fail",
    )


def _sweep_beta(p, epsilons, slope_tol, tail_tol):
    """beta decreasing to 1/p - 1 with matched weight and function; the
    certifying cubes (-2^(-2j-1)/3, 2^(-2j)/3) rescale exactly, so one unit
    oscillation check certifies every member of the family."""
    if p <= 1:
        raise ValueError("this construction needs p > 1")
    lhs, consts, grads, certified = [], [], [], []
    for eps in epsilons:
        beta = 1.0 / p - 1.0 + eps
        a = (p - 1.0) * (1.0 - eps)
        f = catalog("sharp3_fbeta", beta=beta, p=p)
        lam = 1.0 / (27.0 * eps)
        # scale invariance: omega over Q_j equals |Q_j|^eps times the omega
        # of the unit profile over (-1/3, 2/3); one exact check covers all j
        unit_omega = omega(f, (-1.0 / 3.0, 2.0 / 3.0))
        certified.append(unit_omega > lam)
        # verify the scaling on the first two cubes numerically
        for j in (1, 2):
            q = Cube(S13, -2 * j - 1, (0,))
            lo, hi = map(float, q.interval())
            om = omega(f, (lo, hi))
            scale_check = om / (hi - lo) ** eps
            assert math.isclose(scale_check, unit_omega, rel_tol=1e-9)
        logc = math.log((1.0 / 3.0) ** (a + 1.0) + (2.0 / 3.0) ** (a + 1.0)) - math.log(
            a + 1.0
        )
        log_ratio = -2.0 * eps * math.log(2.0)
        log_first = logc - 3.0 * eps * math.log(2.0)
        terms = max(8, int(math.ceil(math.log(tail_tol) / log_ratio)))
        total = _log_geometric_sum(log_first, log_ratio, terms)
        lhs.append(lam**p * total)
        consts.append(eps ** (1.0 - p))
        grads.append(1.0 / eps)
    slope, resid = fit_loglog_slope(epsilons, lhs)
    ok = abs(slope - (-(p + 1.0))) <= slope_tol and all(certified)
    return SweepResult(
        case="betalimit",
        p=p,
        grid=epsilons,
        lhs=lhs,
        constants=consts,
        grad_norms=grads,
        slope=slope,
        slope_residual=resid,
        expected_slope=-(p + 1.0),
        certified=certified,
        verdict="pass" if ok else "fail",
    )


# ---------------------------------------------------------------------------
# weight classifier
# ---------------------------------------------------------------------------


def _probe_family_sup(
    f, weight: Weight, p: float, beta: float, centers, j_min: int, j_max: int
) -> float:
    """Sup of the functional restricted to cubes around the probe centers.

    For each shift and generation the cube containing the center and its two
    index neighbors enter the family; the restricted sup is a lower bound of
    the full-window value, which is all blow-up detection needs.
    """
    b = beta + 1.0 - 1.0 / p
    thr, wts = [], []
    seen = set()
    from fractions import Fraction

    for c in centers:
        pt = (Fraction(c).limit_denominator(3 * 2**40),)
        for shift in all_shifts(1):
            for j in range(j_min, j_max + 1):
                (m0,) = cube_at(shift, j, pt).m
                for m in (m0 - 1, m0, m0 + 1):
                    key = (shift.thirds, j, m)
                    if key in seen:
                        continue
                    seen.add(key)
                    lo, hi = axis_interval(shift.thirds[0], j, m)
                    om = omega(f, (lo, hi))
                    if om <= 0:
                        continue
                    vol = 2.0**j
                    thr.append(om / vol**b)
                    wts.append(vol ** (beta * p - 1.0) * weight.interval_mass(lo, hi))
    return LevelMass(thr, wts).sup(p)


@dataclass
class ClassifierReport:
    weight: str
    p: float
    verdict: str
    ratios: dict
    growth: dict
    schedule: list
    details: dict = field(default_factory=dict)


def _linear_plateau(width: float = 0.25) -> object:
    """Plateau with linear edges: 1 on (0,1), 0 outside (-width, 1+width).

    Same role as the smoothed indicator in the verification battery, but
    piecewise linear so the classifier's deep probe windows stay on the
    exact oscillation path.
    """
    from dyadicweights.funcspace import Piece, TestFunction

    w = float(width)
    return TestFunction(
        [
            Piece(-math.inf, -w, "poly", (0.0,)),
            Piece(-w, 0.0, "poly", (1.0, 1.0 / w)),
            Piece(0.0, 1.0, "poly", (1.0,)),
            Piece(1.0, 1.0 + w, "poly", (1.0 + 1.0 / w, -1.0 / w)),
            Piece(1.0 + w, math.inf, "poly", (0.0,)),
        ],
        name="linear_plateau",
        params={"width": width},
        lipschitz=1.0 / w,
        grad_radius=1.0 + w,
        value_bound=1.0,
    )


def weight_classifier(
    weight: Weight,
    p: float,
    betas=(2.0, -1.0),
    depths=(6, 12, 24, 48),
    growth_threshold: float = 4.0,
    bounded_factor: float = 2.0,
    with_quotient: bool = True,
) -> ClassifierReport:
    """Empirical membership verdict for the weight class with exponent p.

    Fixed battery members (tent, plateau, wide ramp) check stability of the
    functional ratio; scale-adaptive step probes with transition width
    2^-depth concentrate gradient where the weight is smallest, and supply
    window-scale oscillation, over a doubling depth schedule.  Bounded ratios
    across the schedule are consistent with membership; sustained growth by
    the threshold factor per doubling is a violation.
    """
    centers = [0.0] + [c for c in weight.breakpoints() if c != 0.0]
    fixed = {
        "tent": catalog("tent"),
        "plateau": _linear_plateau(0.25),
        "ramp10": catalog("linear_ramp", slope=1.0, cutoff=10.0),
    }
    ratios: dict[str, list[float]] = {k: [] for k in fixed}
    ratios["step_probe"] = []
    ratios["tail_ramp"] = []

    for d in depths:
        j_min, j_max = -d, max(4, d // 2)
        # fixed battery on probe-anchored families
        for name, f in fixed.items():
            best = 0.0
            for beta in betas:
                sup = _probe_family_sup(
                    f, weight, p, beta, centers + [1.0], j_min, j_max
                )
                norm = grad_power_mass(
                    f, -f.grad_radius - 1, f.grad_radius + 1, p, weight
                )
                if norm > 0:
                    best = max(best, sup / norm)
            ratios[name].append(best)
        # adaptive step probe at each candidate singular center
        wprobe = 2.0**j_min
        best = 0.0
        for c in centers:
            f = catalog("linear_ramp", slope=0.5 / wprobe, cutoff=wprobe, center=c)
            norm = grad_power_mass(f, c - wprobe, c + wprobe, p, weight)
            if norm <= 0:
                continue
            for beta in betas:
                sup = _probe_family_sup(f, weight, p, beta, [c], j_min, j_max)
                best = max(best, sup / norm)
        ratios["step_probe"].append(best)
        # window-scale ramp probing the weight's tail
        big = 2.0**j_max
        f = catalog("linear_ramp", slope=1.0, cutoff=big)
        norm = grad_power_mass(f, -big, big, p, weight)
        best = 0.0
        if norm > 0:
            for beta in betas:
                sup = _probe_family_sup(f, weight, p, beta, centers, 0, j_max + 2)
                best = max(best, sup / norm)
        ratios["tail_ramp"].append(best)

    if with_quotient:
        vals = []
        for d in depths:
            wprobe = 2.0**-d
            f = catalog("linear_ramp", slope=0.5 / wprobe, cutoff=wprobe)
            cfg = DiffQuotConfig(
                p=p,
                q=max(p, 1.0),
                gamma=1.0,
                weight=weight,
                window=(-2.0, 2.0),
                lambda_lo=1e-1,
                lambda_hi=1e1,
                lambda_count=5,
                exploratory=True,
            )
            prof = diffquot_functional(cfg, f)
            norm = grad_power_mass(f, -wprobe, wprobe, p, weight)
            vals.append(prof.sup**p / norm if norm > 0 else 0.0)
        ratios["quotient_step"] = vals

    growth = {}
    for name, vals in ratios.items():
        g = []
        for a, b in zip(vals, vals[1:]):
            g.append(b / a if a > 0 else math.inf if b > 0 else 1.0)
        growth[name] = g

    violating = [
        name
        for name, g in growth.items()
        if g and all(x >= growth_threshold * 0.999 for x in g)
    ]
    bounded = all(
        (max(v) / max(min(x for x in v if x > 0), 1e-300) <= bounded_factor)
        if any(x > 0 for x in v)
        else True
        for v in ratios.values()
    )
    if violating:
        verdict = "violates"
    elif bounded:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return ClassifierReport(
        weight=repr(weight),
        p=p,
        verdict=verdict,
        ratios=ratios,
        growth=growth,
        schedule=list(depths),
        details={"violating_members": violating},
    )


def classifier_reference(weight: Weight, p: float):
    """Analytic membership for centered power weights; None when unknown."""
    if isinstance(weight, ConstantWeight):
        return True
    if isinstance(weight, PowerWeight):
        return power_ap_member(weight.a, p)
    return None
