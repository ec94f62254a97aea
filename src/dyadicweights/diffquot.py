"""Difference-quotient level sets

    E(lam, s)[f] = {(x,y) : x != y, |f(x)-f(y)| / |x-y|^(1+s) > lam}

and the weak-type functional  sup over lam of
lam * ( Int_window [ Int 1_E(x,y) |x-y|^(gamma-n) dy ]^(p/q) w(x) dx )^(1/p),
with s = gamma/q, verified against the weighted gradient norm.  The inner
integral runs over radial shells around x; shells open where a Lipschitz
bound decides membership, so the |x-y|^(gamma-n) singularity is never probed
where the indicator provably vanishes.  The outer quadratures of every
lam of the grid run in lock step, and membership and boundary bisection are
fused across every outer node of a refinement step, of every lam (all the
initial panels, then the two halves of each split): one vectorized
membership call per bisection step resolves the shells of all those nodes
together.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from dyadicweights.funcspace import grad_power_mass, omega_window
from dyadicweights.oscillation import LevelMass
from dyadicweights.quadrature import adaptive_quads
from dyadicweights.records import (
    RATIO_CEILING,
    FunctionalProfile,
    VerificationRecord,
    ratio,
)
from dyadicweights.weights import Weight

# Relative stop of the inner integral's far-tail extension.
INNER_TOL = 1e-6
# Geometric sample radii per shell of the inner integral, before kink radii.
RADIAL_SAMPLES = 193
# Decades of the lambda grid, toward the limit, that test the lower constant.
TAIL_DECADES = 1.0
# Points per membership call on the sample radii of an inner integral: the
# rows are evaluated in blocks of at most this many (node, direction, radius)
# points, which bounds the temporaries of a wide refinement step.
MASK_POINTS = 2**15


def gamma_admissible(p: float, q: float, gamma: float) -> bool:
    """Admissible difference-quotient exponents: all nonzero gamma for p > 1,
    gamma < -q or gamma > 0 at p = 1."""
    if gamma == 0:
        return False
    if p == 1:
        return gamma < -q or gamma > 0
    return True


def scale_condition(n: int, p: float, q: float) -> bool:
    return n * (1.0 / p - 1.0 / q) < 1.0


@dataclass
class DiffQuotConfig:
    p: float
    q: float
    gamma: float
    weight: Weight
    window: tuple[float, float]
    lambda_lo: float = 1e-2
    lambda_hi: float = 1e2
    lambda_count: int = 17
    exploratory: bool = False

    def __post_init__(self):
        if self.p < 1 or self.q <= 0:
            raise ValueError("need p >= 1 and q > 0")
        self.n = 1
        self.admissible = gamma_admissible(self.p, self.q, self.gamma)
        self.scale_ok = scale_condition(self.n, self.p, self.q)
        if not self.exploratory:
            if not self.admissible:
                raise ValueError(
                    f"gamma={self.gamma} violates the admissible range for "
                    f"p={self.p}, q={self.q} (needs gamma < -q or gamma > 0 "
                    f"at p = 1, any nonzero gamma otherwise); "
                    f"pass exploratory=True to force"
                )
            if not self.scale_ok:
                raise ValueError(
                    f"scale condition n(1/p - 1/q) < 1 fails for p={self.p}, "
                    f"q={self.q}; pass exploratory=True to force"
                )

    @property
    def s(self) -> float:
        return self.gamma / self.q


def in_level_set(f, x: float, y: float, lam: float, s: float) -> bool:
    """Exact membership predicate of (x, y) in E(lam, s)[f]."""
    if x == y:
        raise ValueError("x = y is excluded")
    d = abs(x - y)
    fx = float(f.value(np.array([x]))[0])
    fy = float(f.value(np.array([y]))[0])
    return abs(fx - fy) > lam * d ** (1.0 + s)


def ball_mean(f, centers, radii) -> np.ndarray:
    """Average of the one-dimensional f over (c - r, c + r) for each center c
    and radius r, given as arrays of one shape, by the primitive of f."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    masses = f.primitive(centers + radii) - f.primitive(centers - radii)
    return masses / (2.0 * radii)


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


# ---------------------------------------------------------------------------
# inner radial integral
# ---------------------------------------------------------------------------


def _radial_bounds(f, lam: float, s: float):
    """Certified radii (r_lo, r_hi) outside which membership is impossible.

    Bounds use inflated Lipschitz/value hints so they stay valid for the
    ball-mean variants as well (the mean sits within 1.05 |x-y| of x).
    """
    lip = 1.05 * getattr(f, "lipschitz", math.inf)
    bound = 2.0 * getattr(f, "value_bound", math.inf)
    one_plus = 1.0 + s

    if s < 0:
        if not math.isfinite(lip):
            raise ValueError(
                "negative-exponent shells need a finite Lipschitz hint"
            )
        r_lo = (lam / lip) ** (1.0 / (-s))
    else:
        r_lo = 0.0

    r_hi = math.inf
    if one_plus > 0:
        cands = []
        if math.isfinite(lip) and s > 0:
            cands.append((lip / lam) ** (1.0 / s))
        if math.isfinite(bound):
            cands.append((bound / lam) ** (1.0 / one_plus))
        if cands:
            r_hi = min(cands)
    return r_lo, r_hi


def _ball_mean_membership(f, b: float):
    """Membership |f(x) - mean over B(y, |x-y|/20)| > lam |x-y|^(1+b), on
    broadcast (xs, fx, ys, lam); the diagonal x = y is never a member."""

    def membership(xs, fx, ys, lam):
        d = np.abs(ys - xs)
        out = np.zeros(ys.shape, dtype=bool)
        pos = d > 0
        if pos.any():
            m = ball_mean(f, ys[pos], d[pos] / 20.0)
            fxs = np.broadcast_to(fx, ys.shape)[pos]
            lams = np.broadcast_to(lam, ys.shape)[pos]
            out[pos] = np.abs(fxs - m) > lams * d[pos] ** (1.0 + b)
        return out

    return membership


def _signed_member_mass(
    membership,
    xs: np.ndarray,
    fx: np.ndarray,
    lam: np.ndarray,
    radii: np.ndarray,
    gamma: float,
    extend_to_zero: np.ndarray,
) -> np.ndarray:
    """Integral of 1_member r^(gamma-1) over both directions y = x +- r, for
    every node x in ``xs`` at its level ``lam``.

    ``radii`` holds one ascending row of sample radii per node, padded with
    repeats of its last radius (a repeat never flips).  Membership of every
    row in both directions is evaluated in blocks of rows of at most
    MASK_POINTS points, and every boundary between consecutive sample radii,
    of every row, is bisected together: one membership call per step.
    Rows flagged in ``extend_to_zero`` count a member first radius as a
    member run from radius 0.
    Each member run contributes (r2^gamma - r1^gamma)/gamma in closed form;
    40 bisection steps put each boundary within 2^-40 of its sample gap.
    Sub-grid membership islands are the only approximation; the sample grid
    is geometric and includes the kink radii of the function.
    """
    n, width = radii.shape
    sign = np.array([1.0, -1.0])[:, None]
    block = max(1, MASK_POINTS // (2 * width))
    mask = np.concatenate(
        [
            membership(
                xs[i : i + block, None, None],
                fx[i : i + block, None, None],
                xs[i : i + block, None, None] + sign * radii[i : i + block, None, :],
                lam[i : i + block, None, None],
            )
            for i in range(0, n, block)
        ]
    )
    row, dirn, at = np.nonzero(mask[..., :-1] != mask[..., 1:])
    lo_b = radii[row, at]
    hi_b = radii[row, at + 1]
    if len(lo_b):
        xb, fb, lb = xs[row], fx[row], lam[row]
        sg = sign[dirn, 0]
        left_state = mask[row, dirn, at]
        for _ in range(40):
            mid = 0.5 * (lo_b + hi_b)
            same = membership(xb, fb, xb + sg * mid, lb) == left_state
            lo_b = np.where(same, mid, lo_b)
            hi_b = np.where(same, hi_b, mid)
    # cut radii per (node, direction), in increasing order, between the
    # first and last sample radius; unused slots repeat the last radius
    group = 2 * row + dirn
    ncuts = np.bincount(group, minlength=2 * n)
    rank = np.arange(len(row)) - (np.cumsum(ncuts) - ncuts)[group]
    ncuts = ncuts.reshape(n, 2)
    edges = np.empty((n, 2, int(ncuts.max()) + 2))
    edges[...] = radii[:, None, -1:]
    edges[..., 0] = radii[:, None, 0]
    from_zero = mask[..., 0] & extend_to_zero[:, None]
    edges[..., 0] = np.where(from_zero, 0.0, edges[..., 0])
    edges[row, dirn, 1 + rank] = 0.5 * (lo_b + hi_b)
    seg_member = (np.arange(edges.shape[-1] - 1) % 2 == 0) == mask[..., :1]
    with np.errstate(divide="ignore"):
        powers = edges**gamma
    mass = np.where(seg_member, (powers[..., 1:] - powers[..., :-1]) / gamma, 0.0)
    # sum each run list at its own length, so every row adds up exactly as
    # it would alone
    nseg = ncuts + 1
    sums = np.empty((n, 2))
    for k in np.unique(nseg):
        sel = nseg == k
        sums[sel] = mass[sel][:, :k].sum(axis=1)
    return 0.0 + sums[:, 0] + sums[:, 1]


def inner_integral(
    f,
    x,
    lam,
    cfg: DiffQuotConfig,
    membership=None,
) -> tuple:
    """Integral over y of 1_E(x,y) |x-y|^(gamma - 1) for n = 1, at one node
    or at an array of nodes, at one level ``lam`` or at one level per node.

    Radial membership is resolved per direction as a union of intervals
    (geometric sampling, kink radii included, boundaries bisected) and the
    power weight is integrated in closed form on each member interval.
    Membership and bisection are fused across all nodes and levels: a
    quadrature refinement step costs one membership call per bisection
    step, not one per node.  The certified shell is taken once per distinct
    level, and each node gets the shell of its own level.
    ``membership(xs, fx, ys, lam)`` decides pairs elementwise on broadcast
    arrays (fx = f(xs), lam the nodes' levels); the default is the
    difference-quotient level set.

    A scalar ``x`` returns (float, diag); an array returns (array, diag) with
    per-node ``tail_bound`` and ``truncated``.  ``r_lo`` and ``r_hi`` have
    the shape of ``lam``.  Diagnostics carry the truncation tail bound when
    the integral had to be cut at a finite radius with membership not
    provably dead.
    """
    gamma, s = cfg.gamma, cfg.s
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lams = np.broadcast_to(np.asarray(lam, dtype=float), xs.shape)
    fx = f.value(xs)
    if membership is None:

        def membership(xs, fx, ys, lam):
            d = np.abs(ys - xs)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.abs(f.value(ys) - fx) > lam * d ** (1.0 + s)

    bps = np.asarray(getattr(f, "breakpoints", ()), dtype=float)
    levels, level_of = np.unique(lams, return_inverse=True)
    bounds = np.array([_radial_bounds(f, float(v), s) for v in levels]).reshape(-1, 2)
    r_lo, r_hi = bounds[level_of, 0], bounds[level_of, 1]
    extend = (r_lo == 0.0) & (gamma > 0)

    def both_directions(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # one shell (lo, hi) per row; the sample radii of a shell are formed
        # once, however many rows share it
        shells, shell_of = np.unique(np.stack([lo, hi], axis=1), axis=0, return_inverse=True)
        base = np.geomspace(shells[:, 0], shells[:, 1], RADIAL_SAMPLES, axis=-1)
        kinks = np.abs(bps - xs[rows, None])
        inside = (lo[:, None] < kinks) & (kinks < hi[:, None])
        # geomspace ends exactly on hi, so an unused kink slot repeats it
        kinks = np.where(inside, kinks, hi[:, None])
        radii = np.concatenate([base[shell_of], kinks], axis=1)
        radii.sort(axis=1)
        return _signed_member_mass(
            membership, xs[rows], fx[rows], lams[rows], radii, gamma, extend[rows]
        )

    n = len(xs)
    vals = np.zeros(n)
    tail_bound = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)

    finite = np.isfinite(r_hi)
    lo = np.maximum(r_lo, 1e-12 * np.maximum(1.0, r_hi))
    shell = np.flatnonzero(finite & (r_hi > lo))
    if len(shell):
        vals[shell] = both_directions(shell, lo[shell], r_hi[shell])

    active = np.flatnonzero(~finite)
    if len(active):
        # far membership cannot be excluded: extend each node's shells until
        # its certified weight tail (indicator at most 1) is negligible
        if gamma >= 0:
            raise ValueError("divergent far tail: gamma > 0 needs a usable hint")
        scale = np.maximum(np.maximum(1.0, np.abs(xs)), r_lo)
        hi = 16.0 * scale
        first = np.maximum(r_lo, 1e-12 * scale)
        vals[active] = both_directions(active, first[active], hi[active])
        # a row with members stops relative to its total, at worst at
        # rounding level of its first shell's tail bound; a row without
        # members has no total, so it stops relative to the total its first
        # shell would hold if every radius in it were a member
        floor = np.finfo(float).eps * 2.0 * hi**gamma / abs(gamma)
        full = 2.0 * (first**gamma - hi**gamma) / abs(gamma)
        while len(active):
            tail = 2.0 * hi[active] ** gamma / abs(gamma)
            total = np.abs(vals[active])
            stop = np.where(
                total > 0,
                np.maximum(INNER_TOL * total, floor[active]),
                INNER_TOL * full[active],
            )
            done = tail <= stop
            tail_bound[active[done]] = tail[done]
            active, tail = active[~done], tail[~done]
            if not len(active):
                break
            vals[active] += both_directions(active, hi[active], 4.0 * hi[active])
            hi[active] *= 4.0
            cut = hi[active] > 1e12 * scale[active]
            tail_bound[active[cut]] = tail[cut]
            truncated[active[cut]] = True
            active = active[~cut]

    diag: dict = {"r_lo": r_lo, "r_hi": r_hi, "tail_bound": tail_bound, "truncated": truncated}
    if np.ndim(lam) == 0:
        diag["r_lo"], diag["r_hi"] = (float(v) for v in bounds[0])
    if np.ndim(x) == 0:
        diag["tail_bound"] = float(tail_bound[0])
        diag["truncated"] = bool(truncated[0])
        return float(vals[0]), diag
    return vals, diag


def _warn_at_split_cap(what: str, lam: float) -> None:
    print(
        f"warning: {what} at lambda={lam!r} stopped at its split cap"
        " with the error estimate above tolerance",
        file=sys.stderr,
    )


def diffquot_functional(cfg: DiffQuotConfig, f) -> FunctionalProfile:
    """Profile of lam * || inner(.,lam)^(1/q) ||_{L^p_w(window)} over the grid;
    the outer integrals are taken to relative tolerance 1e-3, in lock step
    over the grid, so each refinement step is one inner-integral call."""
    lambdas = np.logspace(
        math.log10(cfg.lambda_lo), math.log10(cfg.lambda_hi), cfg.lambda_count
    )
    lo, hi = cfg.window
    w = cfg.weight
    bps = list(getattr(f, "breakpoints", ())) + list(w.breakpoints())
    truncated = np.zeros(len(lambdas), dtype=bool)

    def outer(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        inner, diag = inner_integral(f, xs, lambdas[owner], cfg)
        truncated[owner[diag["truncated"]]] = True
        return inner ** (cfg.p / cfg.q) * w.value(xs)

    outers = adaptive_quads(outer, [(lo, hi, 1e-3, bps, 400)] * len(lambdas))
    values = []
    for lam, (integ, met) in zip(lambdas.tolist(), outers):
        if not met:
            _warn_at_split_cap("diffquot outer integral", lam)
        values.append(float(lam * integ ** (1.0 / cfg.p)))
    k = int(np.argmax(values))
    return FunctionalProfile(
        lambdas=lambdas.tolist(),
        values=values,
        sup=values[k],
        argmax_lambda=float(lambdas[k]),
        flags={"truncated": truncated.tolist()},
    )


def lower_constant(n: int, q: float, gamma: float) -> float:
    """Closed-form one-sided constant: the q-th root of
    2 Gamma((q+1)/2) pi^((n-1)/2) / (|gamma| Gamma((q+n)/2))."""
    if q <= 0 or gamma == 0:
        raise ValueError("need q > 0 and gamma != 0")
    logval = (
        math.log(2.0)
        + math.lgamma((q + 1.0) / 2.0)
        + 0.5 * (n - 1) * math.log(math.pi)
        - math.log(abs(gamma))
        - math.lgamma((q + n) / 2.0)
    )
    return math.exp(logval / q)


def verify_diffquot(cfg: DiffQuotConfig, f, tol: float = 0.05) -> VerificationRecord:
    """Two-sided check of the functional against the weighted gradient norm.

    The one-sided constant bounds the limit of the profile toward lam = inf
    (gamma > 0) or lam = 0 (gamma < 0); it is tested on the last TAIL_DECADES
    of the grid in that direction and certifies the record (vacuously when
    the gradient norm is 0).  The other side is passed up to RATIO_CEILING.
    """
    prof = diffquot_functional(cfg, f)
    lo, hi = cfg.window
    norm = grad_power_mass(f, lo, hi, cfg.p, cfg.weight) ** (1.0 / cfg.p)
    lc = lower_constant(cfg.n, cfg.q, cfg.gamma)
    lams = np.asarray(prof.lambdas)
    vals = np.asarray(prof.values)
    if cfg.gamma > 0:
        cutoff = lams.max() / 10.0**TAIL_DECADES
        tail = vals[lams >= cutoff]
    else:
        cutoff = lams.min() * 10.0**TAIL_DECADES
        tail = vals[lams <= cutoff]
    tail_value = float(np.min(tail)) if len(tail) else 0.0
    tail_ratio = ratio(tail_value, norm)
    lower_ok = bool(norm == 0 or tail_ratio >= lc * (1.0 - tol))
    rec = VerificationRecord(
        name="diffquot_functional",
        lhs=prof.sup,
        rhs=norm,
        ceiling=RATIO_CEILING,
        certified=lower_ok,
        details={
            "tail_ratio": tail_ratio,
            "lower_constant": lc,
            "lower_ok": lower_ok,
            "admissible": cfg.admissible,
            "scale_ok": cfg.scale_ok,
            "gamma": cfg.gamma,
            "p": cfg.p,
            "q": cfg.q,
            "profile_lambdas": prof.lambdas,
            "profile_values": prof.values,
            "profile_truncated": prof.flags["truncated"],
        },
    )
    rec.details["upper_ok"] = rec.within_ceiling
    return rec


# ---------------------------------------------------------------------------
# pointwise domination against shifted-grid functionals
# ---------------------------------------------------------------------------


def point_domination_check(
    f,
    weight: Weight,
    p: float,
    q: float,
    beta: float,
    lam: float,
    window,
    eps: float,
) -> VerificationRecord:
    """Ball-mean level-set functional against a truncated sum of shifted-grid
    oscillation functionals at geometrically growing thresholds.

    Informational: the constant is the observed ratio, so any finite ratio
    passes and only an inconclusive truncation fails.  The left side uses
    membership |f(x) - mean over B(y, |x-y|/20)| > lam |x-y|^(1 + n(beta-1/p)); the
    right side sums 2^(j n (beta p - 1)) times the oscillation functional at
    threshold lam(j) = lam * 2^(j (1 + n(beta-1/p) - eps)) over the three
    shifted grids, for j = 0..10; the reported tail estimate flags
    under-truncation.
    """
    if q < p:
        raise ValueError("needs q >= p")
    if beta == 1.0 / p:
        raise ValueError("beta = 1/p excluded")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    n = 1
    b = n * (beta - 1.0 / p)

    cfg = DiffQuotConfig(
        p=p,
        q=q,
        gamma=q * b,
        weight=weight,
        window=(float(window.box[0][0]), float(window.box[0][1])),
        exploratory=True,
    )

    lo, hi = cfg.window
    bps = list(getattr(f, "breakpoints", ())) + list(weight.breakpoints())

    membership = _ball_mean_membership(f, b)

    def outer(xs, _owner):
        inner, _ = inner_integral(f, xs, lam, cfg, membership=membership)
        return inner ** (p / q) * weight.value(xs)

    [(lhs, met)] = adaptive_quads(outer, [(lo, hi, 1e-4, bps, 200)])
    if not met:
        _warn_at_split_cap("point_domination left side", lam)

    # one level-set mass per threshold lam_j
    omega_map = omega_window(f, window)
    arr = window.arrays
    levels = LevelMass.of_cubes(
        [omega_map[key] for key in arr.keys],
        arr.vol.tolist(),
        weight.masses(arr.lo, arr.hi),
        beta + 1.0 - 1.0 / p,
        beta * p - 1.0,
    )
    lam_js = [
        lam * 2.0 ** (j * (1.0 + n * (beta - 1.0 / p) - eps))
        for j in range(11)
    ]
    _, ssums = levels.above(lam_js)
    terms = [
        2.0 ** (j * n * (beta * p - 1.0)) * float(ssum) for j, ssum in enumerate(ssums)
    ]
    rhs = sum(terms)
    tail = 0.0
    inconclusive = False
    nz = [t for t in terms if t > 0]
    if len(nz) >= 2 and terms[-1] > 0:
        decay = terms[-1] / terms[-2] if terms[-2] > 0 else 1.0
        if decay < 1.0:
            tail = terms[-1] * decay / (1.0 - decay)
        else:
            inconclusive = True
    if rhs > 0 and tail > 0.05 * rhs:
        inconclusive = True
    # the largest float as ceiling passes exactly the finite ratios
    rec = VerificationRecord(
        name="point_domination",
        lhs=lhs,
        rhs=rhs,
        ceiling=sys.float_info.max,
        certified=not inconclusive,
        details={
            "inconclusive": inconclusive,
            "tail_estimate": tail,
            "terms": terms,
            "eps": eps,
            "beta": beta,
            "key": (n, beta, p, q),
        },
    )
    rec.details["calibrated_c"] = rec.ratio
    return rec
