"""Difference-quotient level sets

    E(lam, s)[f] = {(x,y) : x != y, |f(x)-f(y)| / |x-y|^(1+s) > lam}

and the weak-type functional  sup over lam of
lam * ( Int_window [ Int 1_E(x,y) |x-y|^(gamma-n) dy ]^(p/q) w(x) dx )^(1/p),
with s = gamma/q, verified against the weighted gradient norm.

The inner integral has two paths.  For the level set itself on f whose
pieces are all linear (tent, linear, linear_ramp) it is exact: on each piece
of the ray y = x +- r membership is a linear function of r against
lam r^(1+s), whose roots are closed form or found by Newton's method, and
runs to infinity are integrated in closed form, so nothing is sampled or
truncated.  Any other membership (the ball-mean sets of the pointwise
domination check) or f with a cubic or power piece is sampled: radial shells
open where a Lipschitz bound decides membership, so the |x-y|^(gamma-n)
singularity is never probed where the indicator provably vanishes.  A shell
with no certified outer radius is sampled only out to where y lies on an
end piece of f; past that the exact runs of the level set are added in
closed form, so no tail is cut.  The outer quadratures of every lam of the
grid run in lock step, so a refinement step is one inner-integral call for
the nodes of every lam; on the sampled path membership and boundary
bisection are fused across all of them, one vectorized membership call per
bisection step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from dyadicweights.funcspace import grad_power_mass, omega_boxes
from dyadicweights.oscillation import LevelMass
from dyadicweights.quadrature import adaptive_quads
from dyadicweights.records import (
    RATIO_CEILING,
    FunctionalProfile,
    VerificationRecord,
    ratio,
)
from dyadicweights.weights import Weight

# Geometric sample radii per shell of the inner integral, before kink radii.
RADIAL_SAMPLES = 193
# Decades of the lambda grid, toward the limit, that test the lower constant.
TAIL_DECADES = 1.0
# Points per membership call on the sample radii of an inner integral: the
# rows are evaluated in blocks of at most this many (node, direction, radius)
# points, which bounds the temporaries of a wide refinement step.
MASK_POINTS = 2**15
# The ball of the ball-mean membership has radius |x-y| / BALL.  Past REACH
# times a node's larger distance to the outermost breakpoints of f, y and
# that ball around it lie on an end piece of f.
BALL = 20.0
REACH = BALL / (BALL - 1.0)


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


def ball_mean(f, centers, radii) -> np.ndarray:
    """Average of the one-dimensional f over (c - r, c + r) for each center c
    and radius r, given as arrays of one shape, by the primitive of f."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    masses = f.primitive(centers + radii) - f.primitive(centers - radii)
    return masses / (2.0 * radii)


# ---------------------------------------------------------------------------
# inner radial integral
# ---------------------------------------------------------------------------


def _radial_bounds(f, lam: float, s: float):
    """Certified radii (r_lo, r_hi) outside which membership is impossible.

    Bounds use inflated Lipschitz/value hints so they stay valid for the
    ball-mean variants as well (the mean sits within 1.05 |x-y| of x).  A
    Lipschitz hint of 0 (constant f) makes every radius a non-member.
    """
    lip = 1.05 * getattr(f, "lipschitz", math.inf)
    bound = 2.0 * getattr(f, "value_bound", math.inf)
    one_plus = 1.0 + s

    if s < 0:
        if not math.isfinite(lip):
            raise ValueError(
                "negative-exponent shells need a finite Lipschitz hint"
            )
        r_lo = (lam / lip) ** (1.0 / (-s)) if lip > 0 else math.inf
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
    """Membership |f(x) - mean over B(y, |x-y|/BALL)| > lam |x-y|^(1+b), on
    broadcast (xs, fx, ys, lam); the diagonal x = y is never a member."""

    def membership(xs, fx, ys, lam):
        d = np.abs(ys - xs)
        out = np.zeros(ys.shape, dtype=bool)
        pos = d > 0
        if pos.any():
            m = ball_mean(f, ys[pos], d[pos] / BALL)
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
    is geometric and includes the kink radii of the function.  This is the
    sampled path of `inner_integral`: an explicit membership, or f with a
    piece that is not linear; the level set of an all-linear f never gets
    here.
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


def _member_runs(a, b, lo, hi, lam, t: float, gamma: float):
    """Runs of r in [lo, hi] on which a + b r > lam r^t, where a + b r >= 0,
    as (m1, m2) arrays of shape (2, rows), an empty run having m1 = m2.

    h = a + b r - lam r^t is concave (t > 1 or t < 0) or convex (0 < t < 1)
    in r > 0, so it changes sign at most once on each side of its extremum
    r* = (b / (lam t))^(1/(t-1)): one run per side.  Where h has one sign
    change at most (t = 0 or 1, a = 0, b = 0) its root is closed form;
    elsewhere each root is found by Newton's method from the end of its side
    where h h'' > 0, from which the iterates move monotonically to the root,
    or from a radius nearer the root where one term of h dominates the other
    two, so that the sign of h is certain there.  A root past the float range
    whose term root^gamma of the mass would not underflow raises ValueError."""
    closed = (a == 0) | (b == 0)
    if t in (0.0, 1.0):
        # h = a1 + b1 r is linear
        a1, b1 = (a - lam, b) if t == 0.0 else (a, b - lam)
        root = np.where(b1 != 0, -a1 / b1, np.where(a1 > 0, 0.0, math.inf))
        rising = b1 >= 0
    else:
        # b = 0: lam r^t < a; a = 0: lam r^(t-1) < b; a nonpositive a or b
        # gives the root 0 or inf that leaves the run empty
        flat = b == 0
        base = np.where(flat, np.maximum(a, 0.0), np.maximum(b, 0.0)) / lam
        power = np.where(flat, 1.0 / t, 1.0 / (t - 1.0))
        root = base**power
        # a root past the float range that is an end of its run (not cut off
        # by a finite end of the part) drops its term root^gamma from the mass
        lost = (base > 0) & ((root == 0) & (lo == 0) | (root == math.inf) & (hi == math.inf))
        if np.any(lost & (gamma * power * np.log(base) > -708.0)):
            raise ValueError("a membership root lies outside the float range")
        rising = (t < 0) | (~flat & (t < 1))
    one = np.where(rising, np.clip(root, lo, hi), lo)
    two = np.where(rising, hi, np.clip(root, lo, hi))
    m1, m2 = np.stack([one, lo]), np.stack([two, lo])
    if t in (0.0, 1.0) or closed.all():
        return m1, m2

    rows = np.flatnonzero(~closed)
    a, b, lo, hi, lam = a[rows], b[rows], lo[rows], hi[rows], lam[rows]
    rstar = np.abs(b / (lam * t)) ** (1.0 / (t - 1.0))
    mid = np.where(b * t > 0, np.clip(rstar, lo, hi), hi)
    p, q = np.stack([lo, mid]), np.stack([mid, hi])
    h = lambda r: a + b * r - lam * r**t  # noqa: E731
    hp = h(p)
    # an unbounded side has b > 0: h tends to -inf for t > 1, to +inf else
    hq = np.where(q == math.inf, -1.0 if t > 1 else 1.0, h(np.where(q == math.inf, 1.0, q)))
    used = q > p
    rise = used & (hp <= 0) & (hq > 0)
    fall = used & (hp > 0) & (hq <= 0)
    every = used & (hp > 0) & (hq > 0)
    concave = t > 1 or t < 0
    from_p = rise == concave
    # within ``near`` lam r^t (t < 0) or a (0 < t < 1) is at least twice the
    # other two terms, beyond ``far`` lam r^t (t > 1) or b r (0 < t < 1), so
    # h has there the sign of the end it starts from; t > 1 may start at 0,
    # where h' = b
    aa, bb = np.abs(a), np.abs(b)
    near, far = 0.0, math.inf
    if t < 0:
        near = np.minimum((2 * aa / lam) ** (1 / t), (2 * bb / lam) ** (1 / (t - 1)))
    elif t < 1:
        near = np.minimum((aa / (2 * lam)) ** (1 / t), aa / (2 * bb))
        far = np.maximum((2 * lam / bb) ** (1 / (1 - t)), 2 * aa / bb)
    else:
        far = np.maximum((2 * aa / lam) ** (1 / t), (2 * bb / lam) ** (1 / (t - 1)))
    start = np.where(from_p, np.maximum(p, near), np.minimum(q, far))
    change = rise | fall
    side, row = np.nonzero(change)
    r = start[side, row]
    if not np.all(np.isfinite(r) & (r > 0) | (r == 0) & (t > 1)):
        raise ValueError("a membership root lies outside the float range")
    toward = np.where(from_p[side, row], 1.0, -1.0)
    ra, rb, rl = a[row], b[row], lam[row]
    for _ in range(100):
        new = r - (ra + rb * r - rl * r**t) / (rb - rl * t * r ** (t - 1.0))
        moved = (new - r) * toward > 0
        if not moved.any():
            break
        r = np.where(moved, new, r)
    else:
        raise ValueError("Newton's method did not settle on a membership root")
    root = np.zeros(p.shape)
    root[side, row] = np.clip(r, p[side, row], q[side, row])
    m1[:, rows] = np.where(rise, root, p)
    m2[:, rows] = np.where(fall, root, np.where(rise | every, q, p))
    return m1, m2


def _linear_runs(
    f, xs: np.ndarray, fx: np.ndarray, lams: np.ndarray, s: float, gamma: float, r_min: np.ndarray
):
    """The member runs at r > ``r_min`` of every node x in ``xs`` at its
    level, exactly, where the pieces of f the ray meets there are all linear
    (a non-linear one raises ValueError): (node, direction, r1, r2) arrays,
    one entry per run y = x + direction * r, r in (r1, r2), an empty run
    having r1 = r2, in the same order per node however many nodes there are.

    On the ray each piece of f spans a radius interval, on which
    f(y) - f(x) = alpha + beta r, with alpha exactly 0 on the piece that holds
    x (and, for continuous f, the piece that ends at x).  Each span is split
    at the zero of alpha + beta r, so membership on each part is
    u(r) > lam r^(1+s) with u = |alpha + beta r| linear: `_member_runs`."""
    x0, x1, slope, icpt = (row[None, None, :] for row in f._lines)
    x = xs[:, None, None]
    sign = np.array([1.0, -1.0])[:, None]
    # signed radius of each end of each piece in each direction
    end0, end1 = sign * (x0 - x), sign * (x1 - x)
    lo, hi = np.maximum(np.minimum(end0, end1), 0.0), np.maximum(end0, end1)
    alpha = icpt + slope * x - fx[:, None, None]
    alpha = np.where((lo == 0.0) & (math.isfinite(f.lipschitz) | (sign > 0)), 0.0, alpha)
    beta = sign * slope
    lo = np.maximum(lo, r_min[:, None, None])
    if np.any(np.isnan(slope) & (hi > lo)):
        raise ValueError("f has a piece that is not linear past r_min")
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0.0 - alpha/beta is +0.0 where alpha = 0
        cut = np.where(beta != 0, np.clip(0.0 - alpha / beta, lo, hi), hi)
    part_lo, part_hi = np.stack([lo, cut], -1), np.stack([cut, hi], -1)
    # the sign of alpha + beta r on each part
    sg = np.stack(
        [np.where(beta != 0, -np.sign(beta), np.sign(alpha)), np.broadcast_to(np.sign(beta), lo.shape)],
        -1,
    )
    keep = (part_hi > part_lo) & (sg != 0)
    node, direction = np.nonzero(keep)[:2]
    a = (sg * alpha[..., None])[keep]
    b = (sg * beta[..., None])[keep]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1, r2 = _member_runs(a, b, part_lo[keep], part_hi[keep], lams[node], 1.0 + s, gamma)
    return np.repeat(node, 2), np.repeat(sign[direction, 0], 2), r1.T.ravel(), r2.T.ravel()


def _run_mass(node: np.ndarray, r1: np.ndarray, r2: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """Integral of r^(gamma-1) over the runs (r1, r2) of each of ``n`` nodes,
    (r2^gamma - r1^gamma)/gamma per run.  Each run is added after the one
    before it, so every node's sum is the same however many nodes there are."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.where(r2 > r1, (r2**gamma - r1**gamma) / gamma, 0.0)
    return np.bincount(node, weights=mass, minlength=n)


def inner_integral(
    f,
    x,
    lam,
    cfg: DiffQuotConfig,
    membership=None,
) -> tuple:
    """Integral over y of 1_E(x,y) |x-y|^(gamma - 1) for n = 1, at one node
    or at an array of nodes, at one level ``lam`` or at one level per node.

    Radial membership is resolved per direction as a union of intervals,
    and the power weight is integrated in closed form on each member
    interval.  ``membership(xs, fx, ys, lam)`` decides pairs elementwise on
    broadcast arrays (fx = f(xs), lam the nodes' levels); the default is the
    difference-quotient level set.

    The default membership on a `TestFunction` whose pieces are all linear
    takes the exact path (`_linear_runs`): its intervals are exact to
    rounding, with runs to infinity in closed form.  Every other input is
    sampled (geometric sampling, kink radii included, boundaries bisected:
    `_signed_member_mass`) inside a certified shell, taken once per distinct
    level; membership and bisection are fused across all nodes and levels,
    so a quadrature refinement step costs one membership call per bisection
    step, not one per node.  A shell with no certified outer radius (gamma
    < 0 only) is sampled out to ``reach``, REACH times the node's larger
    distance to the outermost breakpoints of f, and the exact runs of the
    level set past ``reach`` are added, f being linear there.  So a
    ``membership`` must agree with the level set
    |f(y) - f(x)| > lam |x-y|^(1+s) at every |x-y| > ``reach``, as the
    ball-mean membership does: its ball then lies on one linear end piece.

    A scalar ``x`` returns (float, diag), an array (array, diag).  On the
    sampled path ``diag`` holds ``r_lo`` and ``r_hi``, the certified shell,
    in the shape of ``lam``; on the exact path it is empty.
    """
    gamma, s = cfg.gamma, cfg.s
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lams = np.broadcast_to(np.asarray(lam, dtype=float), xs.shape)
    n = len(xs)
    fx = f.value(xs)
    lines = getattr(f, "_lines", None)
    if membership is None and lines is not None and np.isfinite(lines[2]).all():
        node, _, r1, r2 = _linear_runs(f, xs, fx, lams, s, gamma, np.zeros(n))
        vals = _run_mass(node, r1, r2, gamma, n)
        return (float(vals[0]) if np.ndim(x) == 0 else vals), {}
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

    vals = np.zeros(n)
    lo = np.where(r_lo > 0, r_lo, 1e-12 * np.maximum(1.0, r_hi))
    finite = np.isfinite(r_hi)
    shell = np.flatnonzero(finite & (r_hi > lo))
    if len(shell):
        vals[shell] = both_directions(shell, lo[shell], r_hi[shell])
    far = np.flatnonzero(~finite)
    if len(far):
        if gamma >= 0:
            raise ValueError("divergent far tail: gamma > 0 needs a usable hint")
        reach = REACH * np.abs(np.subtract.outer(xs[far], bps)).max(axis=1, initial=0.0)
        near = reach > lo[far]
        if near.any():
            vals[far[near]] = both_directions(far[near], lo[far[near]], reach[near])
        node, _, r1, r2 = _linear_runs(
            f, xs[far], fx[far], lams[far], s, gamma, np.maximum(lo[far], reach)
        )
        vals[far] += _run_mass(node, r1, r2, gamma, len(far))

    diag = {"r_lo": r_lo, "r_hi": r_hi}
    if np.ndim(lam) == 0:
        diag["r_lo"], diag["r_hi"] = (float(v) for v in bounds[0])
    return (float(vals[0]) if np.ndim(x) == 0 else vals), diag


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

    def outer(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        inner, _ = inner_integral(f, xs, lambdas[owner], cfg)
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
    arr = window.arrays
    levels = LevelMass.of_cubes(
        omega_boxes(f, arr.lo, arr.hi),
        arr.vol,
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
