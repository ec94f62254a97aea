"""Scripted experiments: sharpness sweeps of the weight-constant exponents
and the empirical weight classifier.

The sweeps evaluate the functional on the explicit certifying cube families
of each construction (in log space where cube scales overflow doubles; the
infinite families of the ap and betalimit cases are geometric series,
summed in closed form), so the scaling exponents are exhibited free of
window-truncation noise.  The classifier probes a weight with
scale-adaptive transition functions: for a weight in the class every
probe ratio stays bounded by a constant, while a failing weight lets the
probe place oscillation where the weight cannot pay for it, and the ratio
blows up at a known rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from dyadicweights.diffquot import DiffQuotConfig, diffquot_functionals
from dyadicweights.oscillation import LevelMass, level_set
from dyadicweights.funcspace import (
    catalog,
    grad_power_mass,
    omega_boxes,
    omega_intervals,
)
from dyadicweights.grid import (
    THIRDS,
    Cube,
    Shift,
    axis_index,
    axis_interval,
    window_1d,
)
from dyadicweights.records import ConfigError
from dyadicweights.weights import (
    ConstantWeight,
    PowerWeight,
    Weight,
    ap_constant,
    power_ap_member,
    standard_probes,
)

S0 = Shift((0,))


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


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Asymptotic log-log slope via pairwise slopes extrapolated to x -> 0.

    Pairwise slopes between consecutive grid points are regressed linearly
    against x (weighted least squares, the two extreme pairs at weight 1/4)
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
    w[[0, -1]] = 0.25
    a = np.vstack([np.ones(len(s)), xm]).T
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(a * sw[:, None], s * sw, rcond=None)
    resid = float(np.sqrt(np.mean(w * (s - a @ coef) ** 2) / np.mean(w)))
    return float(coef[0]), resid


def _family_total(a: float, r: float) -> float:
    """Sum over k = 0, 1, ... of c * 2^(-(2k+3) r), c = ((1/3)^(a+1) +
    (2/3)^(a+1)) / (a+1): the |I|^-p v(I) terms of the ap and betalimit
    certifying families, for weight exponent a and decay rate r > 0.

    The first term is formed in log space, so cube scales far beyond
    float range contribute, and the series is summed in closed form,
    first / (1 - ratio).
    """
    logc = math.log((1.0 / 3.0) ** (a + 1.0) + (2.0 / 3.0) ** (a + 1.0)) - math.log(
        a + 1.0
    )
    log_ratio = -2.0 * r * math.log(2.0)
    log_first = logc - 3.0 * r * math.log(2.0)
    return math.exp(log_first) / (1.0 - math.exp(log_ratio))


def sharpness_sweep(case: str, p: float, grid) -> SweepResult:
    """Reproduce one of the three lower-bound constructions over a parameter
    grid and fit the scaling exponent of the certifying-family functional;
    the slope passes within 0.05 (a1) or 0.15 (ap, betalimit) of its target."""
    case = case.lower()
    grid = [float(g) for g in grid]
    if case == "a1":
        return _sweep_a1(p, grid)
    if case == "ap":
        return _sweep_ap(p, grid)
    if case == "betalimit":
        return _sweep_beta(p, grid)
    raise ValueError(f"unknown sweep case {case!r}")


def _sweep_a1(p, deltas):
    """Weight |x - 1/2|^(delta-1), bump squeezed over (0,1): the one-sided
    mass of the interval (0,4) from the singular center scales like 1/delta."""
    beta = 2.0
    f = catalog("sharp1_bump")
    lam_star = 4.0 ** (-beta - 3.0 + 1.0 / p)
    b = beta + 1.0 - 1.0 / p
    window = window_1d(-8, 8, 0, 3)
    i0 = Cube(S0, 2, (0,))
    arr = window.arrays
    members, _ = level_set(omega_boxes(f, arr.lo, arr.hi), window, lam_star, b)
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
    ok = abs(slope - (-1.0)) <= 0.05 and all(certified)
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


def _sweep_ap(p, deltas):
    """Weight |x|^((p-1)(1-delta)) with the power-ramp function; certifying
    family [-2^(2j-1)/3, 2^(2j)/3) in the 1/3-shifted grid at level 1/(9 delta).

    Terms decay like 2^(-2 j delta (p-1)); _family_total sums them in closed
    form from a first term taken in log space, so cube scales far beyond
    float range contribute.
    """
    if p <= 1:
        raise ValueError("this construction needs p > 1")
    # membership lower bound (2 - 6*4^-j)/(9 d) exceeds 1/(9 d) exactly
    # when j >= 2; verify the first cubes' edges and their computed
    # oscillation as well
    gens = (3, 5, 7)  # 2j - 1 for j = 2, 3, 4, in the 1/3-shifted grid
    ends = [axis_interval(1, g, 0) for g in gens]
    edges_ok = all(math.isclose(hi - lo, 2.0**g) for g, (lo, hi) in zip(gens, ends))
    lhs, consts, grads, certified = [], [], [], []
    for d in deltas:
        a = (p - 1.0) * (1.0 - d)
        f = catalog("sharp2_fdelta", delta=d)
        lam = 1.0 / (9.0 * d)
        oms = omega_intervals(f, *zip(*ends))
        certified.append(edges_ok and bool(np.all(oms > lam)))
        # term_j = |I_j|^{-p} v(I_j) = c * 2^{-(2j-1) d (p-1)}, j >= 2
        lhs.append(lam**p * _family_total(a, d * (p - 1.0)))
        consts.append(d ** (1.0 - p))
        grads.append(1.0 / d)  # closed form of the gradient integral
    slope, resid = fit_loglog_slope(deltas, lhs)
    ok = abs(slope - (-(p + 1.0))) <= 0.15 and all(certified)
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


def _sweep_beta(p, epsilons):
    """beta decreasing to 1/p - 1 with matched weight and function; the
    certifying cubes (-2^(-2j-1)/3, 2^(-2j)/3) rescale exactly, so one unit
    oscillation check certifies every member of the family."""
    if p <= 1:
        raise ValueError("this construction needs p > 1")
    # scale invariance: omega over Q_j equals |Q_j|^eps times the omega of
    # the unit profile over (-1/3, 2/3); one exact check covers all j, and a
    # mismatch of the scaling on the first two cubes, j = 1, 2, uncertifies
    ends = [(-1.0 / 3.0, 2.0 / 3.0), axis_interval(1, -3, 0), axis_interval(1, -5, 0)]
    lhs, consts, grads, certified = [], [], [], []
    for eps in epsilons:
        beta = 1.0 / p - 1.0 + eps
        a = (p - 1.0) * (1.0 - eps)
        f = catalog("sharp3_fbeta", beta=beta, p=p)
        lam = 1.0 / (27.0 * eps)
        unit_omega, *oms = omega_intervals(f, *zip(*ends)).tolist()
        cert = unit_omega > lam
        for om, (lo, hi) in zip(oms, ends[1:]):
            scale_check = om / (hi - lo) ** eps
            cert = cert and math.isclose(scale_check, unit_omega, rel_tol=1e-9)
        certified.append(cert)
        lhs.append(lam**p * _family_total(a, eps))
        consts.append(eps ** (1.0 - p))
        grads.append(1.0 / eps)
    slope, resid = fit_loglog_slope(epsilons, lhs)
    ok = abs(slope - (-(p + 1.0))) <= 0.15 and all(certified)
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


def _probe_family(centers, j_min: int, j_max: int):
    """(generation, lo, hi) arrays of the cubes around the probe centers, the
    ends (N, 1) by axis_interval.

    For each shift and generation the cube containing the center and its two
    index neighbors enter the family, each cube once.  Rows are ordered by
    center, shift and generation, so the family of a narrower generation
    range is that of a wider one masked by j, in the same order.
    """
    seen = set()
    gens, ends = [], []
    for c in centers:
        pt = Fraction(c).limit_denominator(3 * 2**40)
        for t in THIRDS:
            for j in range(j_min, j_max + 1):
                m0 = axis_index(t, j, pt.numerator, pt.denominator)
                for m in (m0 - 1, m0, m0 + 1):
                    if (t, j, m) not in seen:
                        seen.add((t, j, m))
                        gens.append(j)
                        ends.append(axis_interval(t, j, m))
    ends = np.array(ends, dtype=float).reshape(-1, 2)
    return np.array(gens, dtype=np.int64), ends[:, :1], ends[:, 1:]


def _resolved_depth(center: float, depth: int) -> int:
    """The deepest d <= depth at which the probe cubes of generation -d
    around the center have distinct float ends (0 when none has)."""
    while depth > 0 and not np.less(*_probe_family([center], -depth, -depth)[1:]).all():
        depth -= 1
    return depth


def _generations(rows, j_min: int, j_max: int):
    """The rows, arrays led by the generations, with j in [j_min, j_max]."""
    sel = (j_min <= rows[0]) & (rows[0] <= j_max)
    return tuple(a[sel] for a in rows)


def _probe_rows(f, weight: Weight, family):
    """(generation, omega, volume, mass) arrays of the cubes of a probe
    family with positive omega: omega by one omega_boxes call (one array
    pass over the cubes inside one linear piece of f, the scalar exact path
    on the others), the masses by one Weight.masses call."""
    oms = omega_boxes(f, family[1], family[2])
    j, lo, hi = (a[oms > 0] for a in family)
    return j, oms[oms > 0], np.ldexp(1.0, j), weight.masses(lo, hi)


def _rows_sup(rows, p: float) -> float:
    """Sup of the functional restricted to the probe rows, the larger of its
    values at beta = 2 and beta = -1; a lower bound of the full-window value,
    which is all blow-up detection needs."""
    _, oms, vols, masses = rows
    best = 0.0
    for beta in (2.0, -1.0):
        b = beta + 1.0 - 1.0 / p
        levels = LevelMass.of_cubes(oms, vols, masses, b, beta * p - 1.0)
        best = max(best, levels.sup(p))
    return best


@dataclass
class ClassifierReport:
    weight: str
    p: float
    verdict: str
    ratios: dict
    growth: dict
    schedule: list
    details: dict = field(default_factory=dict)


def _linear_plateau() -> object:
    """Plateau with linear edges: 1 on (0,1), 0 outside (-1/4, 5/4).

    Same role as the smoothed indicator in the verification battery, but
    piecewise linear so the classifier's deep probe windows stay on the
    exact oscillation path.
    """
    from dyadicweights.funcspace import Piece, TestFunction

    w = 0.25
    return TestFunction(
        [
            Piece(-math.inf, -w, "poly", (0.0,)),
            Piece(-w, 0.0, "poly", (1.0, 1.0 / w)),
            Piece(0.0, 1.0, "poly", (1.0,)),
            Piece(1.0, 1.0 + w, "poly", (1.0 + 1.0 / w, -1.0 / w)),
            Piece(1.0 + w, math.inf, "poly", (0.0,)),
        ],
        name="linear_plateau",
        params={"width": w},
        lipschitz=1.0 / w,
        grad_radius=1.0 + w,
        value_bound=1.0,
    )


def weight_classifier(
    weight: Weight,
    p: float,
    depths=(6, 12, 24, 48),
    with_quotient: bool = True,
) -> ClassifierReport:
    """Empirical membership verdict for the weight class with exponent p.

    Fixed battery members (tent, plateau, wide ramp) check stability of the
    functional ratio; scale-adaptive step probes with transition width
    2^-depth concentrate gradient where the weight is smallest, and supply
    window-scale oscillation, over a doubling depth schedule.  Each ratio is
    the larger of its values at beta = 2 and beta = -1.  Ratios whose largest
    and smallest positive values are within a factor 2 are consistent with
    membership; sustained growth by a factor 4 per doubling is a violation.
    """
    centers = [0.0] + [c for c in weight.breakpoints() if c != 0.0]
    fixed = {
        "tent": catalog("tent"),
        "plateau": _linear_plateau(),
        "ramp10": catalog("linear_ramp", slope=1.0, cutoff=10.0),
    }
    ratios: dict[str, list[float]] = {k: [] for k in fixed}
    ratios["step_probe"] = []
    ratios["tail_ramp"] = []

    ranges = [(-d, max(4, d // 2)) for d in depths]
    j_lo = min((r[0] for r in ranges), default=0)
    j_hi = max((r[1] for r in ranges), default=-1)
    for c in centers + [1.0]:
        # far from 0 the deepest probe cubes can be narrower than the float spacing
        if (resolved := _resolved_depth(c, -j_lo)) < -j_lo:
            raise ConfigError(
                f"probe cubes of depth {-j_lo} around centre {c!r} are narrower than "
                f"the float spacing there; the deepest depth whose probe cubes have "
                f"distinct float ends there is {resolved}"
            )
    # each centre set's family is built once, over its widest generation
    # range, and masked by j per depth
    fixed_family = _probe_family(centers + [1.0], j_lo, j_hi)
    step_families = {c: _probe_family([c], j_lo, j_hi) for c in centers}
    tail_family = _probe_family(centers, 0, j_hi + 2)
    # fixed battery: one norm and one set of rows per member
    for name, f in fixed.items():
        norm = grad_power_mass(f, -f.grad_radius - 1, f.grad_radius + 1, p, weight)
        if norm <= 0 or not ranges:
            ratios[name] = [0.0] * len(ranges)
            continue
        rows = _probe_rows(f, weight, fixed_family)
        ratios[name] = [
            _rows_sup(_generations(rows, j_min, j_max), p) / norm
            for j_min, j_max in ranges
        ]
    for j_min, j_max in ranges:
        # adaptive step probe at each candidate singular center
        wprobe = 2.0**j_min
        best = 0.0
        for c in centers:
            f = catalog("linear_ramp", slope=0.5 / wprobe, cutoff=wprobe, center=c)
            norm = grad_power_mass(f, c - wprobe, c + wprobe, p, weight)
            if norm <= 0:
                continue
            family = _generations(step_families[c], j_min, j_max)
            sup = _rows_sup(_probe_rows(f, weight, family), p)
            best = max(best, sup / norm)
        ratios["step_probe"].append(best)
        # window-scale ramp probing the weight's tail
        big = 2.0**j_max
        f = catalog("linear_ramp", slope=1.0, cutoff=big)
        norm = grad_power_mass(f, -big, big, p, weight)
        best = 0.0
        if norm > 0:
            family = _generations(tail_family, 0, j_max + 2)
            sup = _rows_sup(_probe_rows(f, weight, family), p)
            best = max(best, sup / norm)
        ratios["tail_ramp"].append(best)

    if with_quotient:
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
        # centred at 0, not at weight.center: bench/reference.json pins the values this gives
        widths = [2.0**-d for d in depths]
        probes = [catalog("linear_ramp", slope=0.5 / wp, cutoff=wp) for wp in widths]
        vals = []
        for wp, f, prof in zip(widths, probes, diffquot_functionals(cfg, probes)):
            norm = grad_power_mass(f, -wp, wp, p, weight)
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
        # growth by a factor 4 per doubling, less a 0.1% margin for rounding
        if g and all(x >= 4.0 * 0.999 for x in g)
    ]
    bounded = all(
        (max(v) / max(min(x for x in v if x > 0), 1e-300) <= 2.0)
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
