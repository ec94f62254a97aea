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

from dyadicweights.funcspace import grad_power_mass, mean_abs, omega_window
from dyadicweights.grid import Cube, GridWindow, Relation, relate
from dyadicweights.quadrature import adaptive_quad
from dyadicweights.records import FunctionalProfile, VerificationRecord
from dyadicweights.weights import Weight, ap_constant, standard_probes


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
    tolerance: float = 1e-9
    ratio_ceiling: float = 100.0
    exploratory: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
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


def level_set(
    f,
    window: GridWindow,
    lam: float,
    b: float,
    omega_map: dict | None = None,
    tol: float = 1e-9,
):
    """Cubes of the window with omega_Q(f) > lam * |Q|^b (strict).

    Returns (members, flagged) where flagged lists the members-or-not whose
    margin from the threshold is within tol relative, hence decided only up
    to quadrature accuracy.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    omega_map = omega_map or omega_window(f, window)
    arr = window.arrays
    members, flagged = [], []
    for i, (key, vol) in enumerate(zip(arr.keys, arr.vol.tolist())):
        om = omega_map[key]
        thr = lam * vol**b
        if om > thr:
            members.append(arr.cube(i))
        if abs(om - thr) <= tol * max(abs(om), abs(thr), 1e-300):
            flagged.append(arr.cube(i))
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
        # prefix[k] = weight of the k largest thresholds
        self.prefix = np.concatenate(([0.0], np.cumsum(weights[self.index])))

    def above(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """(count, mass) of the entries with threshold > lam, per lam."""
        count = np.searchsorted(-self.thresholds, -np.asarray(lams), side="left")
        return count, self.prefix[count]

    def sup(self, p: float) -> float:
        """sup over lam of lam^p * mass(lam), 0 when no threshold is positive."""
        return float(np.max(self.thresholds**p * self.prefix[1:], initial=0.0))


def _sup_profile(
    levels: LevelMass,
    weights: np.ndarray,
    p: float,
    lambda_count: int,
    boundary: np.ndarray,
    cube,
) -> FunctionalProfile:
    """Build the profile of lambda^p * (weight of cubes with threshold > lambda).

    The grid is log-spaced over the auto bracket plus a point just below each
    distinct threshold; over a finite window the supremum is attained there,
    so the grid max is the exact truncated supremum (up to the 1e-12 nudge).
    ``cube(i)`` builds the Cube of entry i; only certifying cubes are built.
    """
    thr = levels.thresholds
    if len(thr) == 0:
        lams = np.logspace(-3, 0, lambda_count)
        return FunctionalProfile(
            lambdas=list(lams),
            values=[0.0] * len(lams),
            sup=0.0,
            argmax_lambda=float(lams[0]),
            certifying=[],
            boundary_share=0.0,
            n_cubes=[0] * len(lams),
        )
    lo, hi = float(thr[-1]), float(thr[0])
    grid = np.logspace(
        math.log10(lo * 0.5), math.log10(hi * 1.5), lambda_count
    )
    nudged = np.unique(thr) * (1.0 - 1e-12)
    lams = np.unique(np.concatenate([grid, nudged]))

    idx, mass = levels.above(lams)
    vals = lams**p * mass
    k = int(np.argmax(vals))
    sup = float(vals[k])
    arg = float(lams[k])
    nk = int(idx[k])
    share = 0.0
    if nk > 0 and mass[k] > 0:
        inside = levels.index[:nk]
        on_boundary = np.cumsum(np.where(boundary[inside], weights[inside], 0.0))
        share = float(on_boundary[-1] / mass[k])
    certifying = [cube(i) for i in levels.index[:nk][:64]]
    return FunctionalProfile(
        lambdas=[float(x) for x in lams],
        values=[float(v) for v in vals],
        sup=sup,
        argmax_lambda=arg,
        certifying=certifying,
        boundary_share=share,
        n_cubes=[int(i) for i in idx],
    )


def oscillation_functional(
    cfg: OscillationConfig, f, omega_map: dict | None = None
) -> FunctionalProfile:
    """Profile of the weak-type oscillation functional over the window.

    flags["near_threshold"] is the relative supremum spread when every cube
    within the tolerance of its threshold is counted as a member: strict
    membership cannot be certified closer than the omega accuracy.
    """
    window = cfg.window
    omega_map = omega_map or omega_window(f, window)
    arr = window.arrays
    b = cfg.level_exponent
    wexp = cfg.beta * cfg.p - 1.0
    vols = arr.vol.tolist()
    oms = [omega_map[key] for key in arr.keys]
    masses = cfg.weight.masses(arr.lo, arr.hi)
    thr = np.array([om / v**b if om > 0 else 0.0 for om, v in zip(oms, vols)])
    wts = np.array([v**wexp * m for v, m in zip(vols, masses)])
    levels = LevelMass(thr, wts)
    prof = _sup_profile(
        levels, wts, cfg.p, cfg.lambda_count, window.boundary_flags(), arr.cube
    )
    base = levels.sup(cfg.p)
    lam = levels.thresholds * (1.0 - 2.0 * cfg.tolerance)
    inclusive = float(np.max(lam**cfg.p * levels.above(lam)[1], initial=0.0))
    prof.flags["near_threshold"] = abs(inclusive - base) / max(base, 1e-300)
    return prof


def verify_oscillation(
    cfg: OscillationConfig,
    f,
    profile: FunctionalProfile | None = None,
    probes=None,
) -> VerificationRecord:
    """Compare the functional supremum against the weighted gradient bound.

    rhs = (constant estimate)^alpha * seminorm^p; the constant estimate is a
    certified lower bound from a finite probe family, so PASS ratios witness
    the inequality with the estimated constant, and blow-up under window
    growth witnesses failure.  A profile already built for (cfg, f) is used
    as it stands; otherwise it is built here.
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
            from dyadicweights.grid import AxisCube

            probes = [
                AxisCube((Fraction(-(2**k)),) * n, Fraction(2 ** (k + 1)))
                for k in range(-6, max(1, cfg.window.j_max) + 1)
            ]
    est = ap_constant(w, cfg.p, probes)
    if n == 1:
        lo, hi = (float(cfg.window.box[0][0]), float(cfg.window.box[0][1]))
        radius = getattr(f, "grad_radius", math.inf)
        if math.isfinite(radius):
            lo, hi = min(lo, -radius), max(hi, radius)
        grad_p = grad_power_mass(f, lo, hi, cfg.p, w)
    else:
        from dyadicweights.funcspace import sobolev_seminorm

        box = [(float(b[0]), float(b[1])) for b in cfg.window.box]
        grad_p = sobolev_seminorm(f, w, cfg.p, box) ** cfg.p
    if est.unbounded:
        # the constant estimate certifies nothing; report the bare gradient
        # ratio and record a failure finding
        ratio = prof.sup / grad_p if grad_p > 0 else math.inf
        return VerificationRecord(
            name="oscillation_functional",
            lhs=prof.sup,
            rhs=grad_p,
            ratio=ratio,
            tolerance=cfg.ratio_ceiling,
            passed=False,
            details={
                "sup": prof.sup,
                "constant_estimate": math.inf,
                "constant_unbounded": True,
                "grad_norm_p": grad_p,
                "boundary_share": prof.boundary_share,
                "p": cfg.p,
                "beta": cfg.beta,
            },
        )
    rhs = est.value**cfg.alpha * grad_p
    ratio = prof.sup / rhs if rhs > 0 else (0.0 if prof.sup == 0 else math.inf)
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
    if cfg.p > 1 and (1.0 / cfg.p - 1.0) <= cfg.beta < 1.0 / cfg.p:
        gap = 1.0 / cfg.p - cfg.beta
        details["critical_band_ratio"] = (
            prof.sup * gap / (est.value ** (cfg.p / (cfg.p - 1.0)) * grad_p)
            if grad_p > 0
            else 0.0
        )
    passed = ratio <= cfg.ratio_ceiling
    return VerificationRecord(
        name="oscillation_functional",
        lhs=prof.sup,
        rhs=rhs,
        ratio=ratio,
        tolerance=cfg.ratio_ceiling,
        passed=passed,
        details=details,
    )


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
    lambda_count: int = 64,
) -> FunctionalProfile:
    """Weak-type functional with the average |f| criterion instead of omega:
    cubes enter at level lam when their mean of |f| exceeds lam |Q|^(beta-1/p).
    """
    if not mean_admissible_beta(p, beta):
        raise ValueError(
            f"beta={beta} rejected: the mean functional needs "
            f"beta < 1/p - 1 or beta > 1/p"
        )
    if not math.isfinite(getattr(f, "value_bound", math.inf)):
        raise ValueError("mean functional needs a bounded function")
    arr = window.arrays
    b = beta - 1.0 / p
    wexp = beta * p - 1.0
    vols = arr.vol.tolist()
    ends = zip(arr.lo[:, 0].tolist(), arr.hi[:, 0].tolist())
    means = [mean_abs(f, lo, hi) for lo, hi in ends]
    masses = weight.masses(arr.lo, arr.hi)
    thr = np.array([m / v**b if m > 0 else 0.0 for m, v in zip(means, vols)])
    wts = np.array([v**wexp * m for v, m in zip(vols, masses)])
    return _sup_profile(
        LevelMass(thr, wts), wts, p, lambda_count, window.boundary_flags(), arr.cube
    )


def verify_mean_functional(
    f,
    weight: Weight,
    p: float,
    beta: float,
    window: GridWindow,
    ratio_ceiling: float = 100.0,
    probes=None,
    profile: FunctionalProfile | None = None,
) -> VerificationRecord:
    """Mean-criterion functional against estimate * ||f||_{L^p_w}^p; a
    profile already built by mean_functional for these inputs is reused."""
    prof = profile or mean_functional(f, weight, p, beta, window)
    if probes is None:
        probes = standard_probes(
            weight, scales=range(window.j_min - 2, window.j_max + 3)
        )
    est = ap_constant(weight, p, probes)
    radius = getattr(f, "grad_radius", 0.0)
    lo = min(float(window.box[0][0]), -radius)
    hi = max(float(window.box[0][1]), radius)
    bps = list(getattr(f, "breakpoints", ())) + list(weight.breakpoints())
    fp = adaptive_quad(
        lambda x: np.abs(f.value(x)) ** p * weight.value(x), lo, hi, breakpoints=bps
    )
    rhs = est.value * fp
    ratio = prof.sup / rhs if rhs > 0 else (0.0 if prof.sup == 0 else math.inf)
    return VerificationRecord(
        name="mean_functional",
        lhs=prof.sup,
        rhs=rhs,
        ratio=ratio,
        tolerance=ratio_ceiling,
        passed=ratio <= ratio_ceiling,
        details={
            "constant_estimate": est.value,
            "lp_norm_p": fp,
            "boundary_share": prof.boundary_share,
        },
    )


# ---------------------------------------------------------------------------
# good and bad cubes
# ---------------------------------------------------------------------------


def _containment_forest(family: list[Cube]) -> list[list[int]]:
    """children[i] = indices of maximal family members strictly inside i."""
    order = sorted(range(len(family)), key=lambda i: -family[i].j)
    parent = [None] * len(family)
    for pos, i in enumerate(order):
        # smallest strict ancestor among already-placed (larger) cubes
        best = None
        for j in order[:pos]:
            r = relate(family[i], family[j])
            if r is Relation.P_INSIDE_Q:
                if best is None or family[j].j < family[best].j:
                    best = j
        parent[i] = best
    children: list[list[int]] = [[] for _ in family]
    for i, par in enumerate(parent):
        if par is not None:
            children[par].append(i)
    return children


def cube_weight(q: Cube, sigma: float, w: Weight) -> float:
    return float(q.volume) ** (sigma - 1.0) * w.mass(q)


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
    shifts = {q.shift.thirds for q in family}
    if len(shifts) > 1:
        raise ValueError("good/bad classification needs a same-shift family")
    if len(set(family)) != len(family):
        raise ValueError("family has repeated cubes")
    children = _containment_forest(family)
    wgt = [cube_weight(q, sigma, w) for q in family]
    best = [0.0] * len(family)
    order = sorted(range(len(family)), key=lambda i: family[i].j)
    for i in order:  # ascending generation: children first
        below = sum(best[c] for c in children[i])
        best[i] = max(wgt[i], below)
    good, bad = [], []
    for i, q in enumerate(family):
        if not children[i]:
            good.append(q)
        elif sum(best[c] for c in children[i]) <= wgt[i] * (1 + 1e-12):
            good.append(q)
        else:
            bad.append(q)
    return good, bad


def max_antichain_weight_bruteforce(
    family: list[Cube], sigma: float, w: Weight, inside: Cube
) -> float:
    """Exhaustive oracle: heaviest pairwise-disjoint subfamily strictly
    inside the given cube (cross-checks the tree recursion).

    Enumerates antichains as cliques of the disjointness graph; fine for
    family sizes in the teens.
    """
    cands = [q for q in family if relate(q, inside) is Relation.P_INSIDE_Q]
    k = len(cands)
    wgt = [cube_weight(q, sigma, w) for q in cands]
    disjoint = [
        [relate(cands[i], cands[j]) is Relation.DISJOINT for j in range(k)]
        for i in range(k)
    ]
    best = 0.0

    def extend(start: int, chosen: list[int], total: float):
        nonlocal best
        best = max(best, total)
        for i in range(start, k):
            if all(disjoint[i][j] for j in chosen):
                chosen.append(i)
                extend(i + 1, chosen, total + wgt[i])
                chosen.pop()

    extend(0, [], 0.0)
    return best


def check_domination(
    family: list[Cube],
    sigma: float,
    exponent: float,
    w: Weight,
    which: str,
    tol: float = 1e-9,
) -> VerificationRecord:
    """The two good-cube domination inequalities, evaluated exactly.

    which = 'all_over_good': with gamma = exponent < sigma, the full family
    sum is at most 1/(1 - 2^{n(gamma-sigma)}) times the good-cube sum.
    which = 'good_chain': with alpha = exponent > sigma, the sum over good
    cubes below the maximal good antichain is at most
    1/(1 - 2^{n(sigma-alpha)}) times the sum over that antichain.
    """
    if not family:
        raise ValueError("empty family")
    n = family[0].n
    good, _ = classify_good(family, sigma, w)
    if which == "all_over_good":
        gamma = exponent
        if gamma >= sigma:
            raise ValueError("needs exponent < sigma")
        lhs = sum(cube_weight(q, gamma, w) for q in family)
        factor = 1.0 / (1.0 - 2.0 ** (n * (gamma - sigma)))
        rhs = factor * sum(cube_weight(q, gamma, w) for q in good)
    elif which == "good_chain":
        alpha = exponent
        if alpha <= sigma:
            raise ValueError("needs exponent > sigma")
        maximal = [
            q
            for q in good
            if not any(
                relate(q, r) is Relation.P_INSIDE_Q for r in good if r != q
            )
        ]
        covered = [
            q
            for q in good
            if any(
                q == r or relate(q, r) is Relation.P_INSIDE_Q for r in maximal
            )
        ]
        lhs = sum(cube_weight(q, alpha, w) for q in covered)
        factor = 1.0 / (1.0 - 2.0 ** (n * (sigma - alpha)))
        rhs = factor * sum(cube_weight(q, alpha, w) for q in maximal)
    else:
        raise ValueError(f"unknown check {which!r}")
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return VerificationRecord(
        name=f"good_cube_domination[{which}]",
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        tolerance=tol,
        passed=lhs <= rhs * (1 + tol),
        details={"sigma": sigma, "exponent": exponent, "n_good": len(good)},
    )


# ---------------------------------------------------------------------------
# chain sparsity of level sets
# ---------------------------------------------------------------------------


def sparse_chain_check(
    f,
    lam: float,
    beta: float,
    p: float,
    r: float,
    window: GridWindow,
    sample_points,
    omega_map: dict | None = None,
    tol: float = 1e-9,
) -> dict:
    """At each sample x, the level-set cubes containing x form a chain whose
    |Q|^{r(beta-1/p)} sum is controlled by the extreme cube via the geometric
    series 1/(1 - 2^{-n r |beta - 1/p|}).
    """
    if beta == 1.0 / p:
        raise ValueError("beta = 1/p is excluded")
    n = window.n
    dev = beta - 1.0 / p
    members, _ = level_set(
        f, window, lam, beta + 1.0 - 1.0 / p, omega_map=omega_map
    )
    geom = 1.0 / (1.0 - 2.0 ** (-n * r * abs(dev)))
    calibrated = abs(dev) * geom
    results = []
    for x in sample_points:
        pt = (Fraction(x).limit_denominator(10**9),) * n if n == 1 else x
        chain = [q for q in members if q.contains_point(pt)]
        by_shift: dict = {}
        for q in chain:
            by_shift.setdefault(q.shift.thirds, []).append(q)
        if not chain:
            results.append({"x": x, "skipped": True})
            continue
        for thirds, cs in by_shift.items():
            total = sum(float(q.volume) ** (r * dev) for q in cs)
            if dev < 0:
                qx = min(cs, key=lambda q: q.j)
            else:
                qx = max(cs, key=lambda q: q.j)
            bound = geom * float(qx.volume) ** (r * dev)
            results.append(
                {
                    "x": x,
                    "shift": thirds,
                    "chain_len": len(cs),
                    "sum": total,
                    "bound": bound,
                    "ok": total <= bound * (1 + tol),
                }
            )
    checked = [r_ for r_ in results if not r_.get("skipped")]
    return {
        "lam": lam,
        "geometric_factor": geom,
        "calibrated_constant": calibrated,
        "results": results,
        "all_ok": all(r_["ok"] for r_ in checked) if checked else True,
        "n_checked": len(checked),
        "n_skipped": len(results) - len(checked),
    }
