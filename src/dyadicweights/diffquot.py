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
truncated.  f with a cubic or power piece is sampled: radial shells open
where a Lipschitz bound decides membership, so the |x-y|^(gamma-n)
singularity is never probed where the indicator provably vanishes.  A shell
with no certified outer radius is sampled only out to where y lies on an
end piece of f; past that the exact runs of the level set are added in
closed form, so no tail is cut.  The outer quadratures of every (f, lam)
problem of a call run in lock step, so a refinement step is one exact
`_linear_runs` call, over a per-node piece table, on the nodes of every f
whose pieces are all linear, and one inner-integral call on the nodes of
each other f; the quadrature evaluates panels ahead of need, so one such
step also serves the steps after it.  On the sampled path membership and
boundary bisection are fused across all of that f's nodes, one vectorized
membership call per bisection step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from dyadicweights.funcspace import grad_power_mass
from dyadicweights.quadrature import adaptive_quads
from dyadicweights.records import (
    RATIO_CEILING,
    FunctionalProfile,
    VerificationRecord,
    ratio,
    require_finite,
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
# Past REACH times a node's larger distance to the outermost breakpoints of
# f, y and a ball of radius |x-y| / 20 around it lie on an end piece of f.
# It stays 20/19 although no package path takes a ball mean: the sampled
# verify-bsvy pins depend on it, and the ball-mean oracle of the tests, run
# through the ``membership`` seam of `inner_integral`, needs it.
REACH = 20.0 / 19.0


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
        require_finite(
            p=self.p, q=self.q, gamma=self.gamma, lambda_lo=self.lambda_lo, lambda_hi=self.lambda_hi
        )
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


# ---------------------------------------------------------------------------
# inner radial integral
# ---------------------------------------------------------------------------


def _radial_bounds(f, lam: float, s: float):
    """Certified radii (r_lo, r_hi) outside which membership is impossible.

    Bounds use inflated Lipschitz/value hints so they stay valid for the
    ball-mean membership of the test oracle as well (the mean sits within
    1.05 |x-y| of x).  A Lipschitz hint of 0 (constant f) makes every radius
    a non-member.
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
    sampled path of `inner_integral`: f with a piece that is not linear, or
    an explicit membership; the level set of an all-linear f never gets
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
        del base, power, lost
        rising = (t < 0) | (~flat & (t < 1))
    one = np.where(rising, np.clip(root, lo, hi), lo)
    two = np.where(rising, hi, np.clip(root, lo, hi))
    m1, m2 = np.stack([one, lo]), np.stack([two, lo])
    del one, two, root, rising
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
    lines: np.ndarray, continuous, xs: np.ndarray, fx: np.ndarray, lams: np.ndarray, s: float,
    gamma: float, r_min: np.ndarray,
):
    """The member runs at r > ``r_min`` of every node x in ``xs`` at its
    level, exactly, where the pieces of the node's f the ray meets there are
    all linear (a non-linear one raises ValueError): (node, direction, r1, r2)
    arrays, one entry per run y = x + direction * r, r in (r1, r2), an empty
    run having r1 = r2, in the same order per node however many nodes, and
    whichever functions, there are.

    ``lines`` is the piece table (x0, x1, slope, intercept) of each node's f,
    of shape (4, nodes, pieces), or (4, 1, pieces) when every node has the
    same f; a function with fewer pieces is padded with empty pieces at +inf
    (x0 = x1 = +inf, slope and intercept 0), which no ray meets.
    ``continuous`` says, per node or once, whether f is continuous (has a
    finite Lipschitz hint).

    On the ray each piece of f spans a radius interval, on which
    f(y) - f(x) = alpha + beta r, with alpha exactly 0 on the piece that holds
    x (and, for continuous f, the piece that ends at x).  Each span is split
    at the zero of alpha + beta r, so membership on each part is
    u(r) > lam r^(1+s) with u = |alpha + beta r| linear: `_member_runs`.
    Arrays are updated in place and dropped once used, which keeps the
    temporaries of a wide refinement step down."""
    x0, x1 = lines[:2, :, None, :]
    x = xs[:, None, None]
    sign = np.array([1.0, -1.0])[:, None]
    # signed radius of each end of each piece in each direction, then the
    # nearer and the farther end
    lo, hi = sign * (x0 - x), sign * (x1 - x)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
    np.maximum(lo, 0.0, out=lo)
    held = (lo == 0.0) & (np.reshape(continuous, (-1, 1, 1)) | (sign > 0))
    np.maximum(lo, r_min[:, None, None], out=lo)
    # the spans the ray meets past r_min
    node, way, piece = span = np.nonzero(hi > lo)
    lo, hi, held = lo[span], hi[span], held[span]
    beta, alpha = np.broadcast_to(lines[2:], (2, len(xs), lines.shape[2]))[:, node, piece]
    del span, piece
    if np.any(np.isnan(beta)):
        raise ValueError("f has a piece that is not linear past r_min")
    # alpha = intercept + slope x - f(x), beta = direction * slope
    alpha += beta * xs[node]
    alpha -= fx[node]
    alpha[held] = 0.0
    direction = sign[way, 0]
    beta *= direction
    del held, way
    flat = beta == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = np.divide(alpha, beta)
    # 0.0 - alpha/beta is +0.0 where alpha = 0
    np.clip(np.subtract(0.0, cut, out=cut), lo, hi, out=cut)
    np.copyto(cut, hi, where=flat)
    # the parts below and above the cut on which alpha + beta r is not 0
    at, up = np.nonzero(np.stack([(cut > lo) & (~flat | (alpha != 0)), (hi > cut) & ~flat], -1))
    up = up == 1
    a, b = alpha[at], beta[at]
    del alpha, beta, flat
    # the sign of alpha + beta r on each part
    sg = np.sign(b)
    np.negative(sg, out=sg, where=~up)
    np.copyto(sg, np.sign(a), where=b == 0)
    a *= sg
    b *= sg
    del sg
    # each part runs from lo to the cut or from the cut to hi
    node, direction = node[at], direction[at]
    cut, lo, hi = cut[at], lo[at], hi[at]
    np.copyto(lo, cut, where=up)
    np.copyto(hi, cut, where=~up)
    del at, up, cut
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1, r2 = _member_runs(a, b, lo, hi, lams[node], 1.0 + s, gamma)
    del a, b, lo, hi
    return np.repeat(node, 2), np.repeat(direction, 2), r1.T.ravel(), r2.T.ravel()


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
    interval.  The members are those of the difference-quotient level set.

    ``membership(xs, fx, ys, lam)`` is a seam for the tests only, which no
    package path passes: it decides pairs elementwise on broadcast arrays
    (fx = f(xs), lam the nodes' levels) in place of the level set.  The
    tests pass it to force the sampled path on linear f, to count
    membership calls, and to run the ball-mean membership of their
    pointwise domination oracle.

    The level set of a `TestFunction` whose pieces are all linear takes the
    exact path (`_linear_runs`): its intervals are exact to
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
    oracle's ball-mean membership does: its ball then lies on one linear end
    piece.

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
        continuous = math.isfinite(f.lipschitz)
        node, _, r1, r2 = _linear_runs(lines[:, None], continuous, xs, fx, lams, s, gamma, np.zeros(n))
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
            lines[:, None], math.isfinite(f.lipschitz), xs[far], fx[far], lams[far], s, gamma,
            np.maximum(lo[far], reach),
        )
        vals[far] += _run_mass(node, r1, r2, gamma, len(far))

    diag = {"r_lo": r_lo, "r_hi": r_hi}
    if np.ndim(lam) == 0:
        diag["r_lo"], diag["r_hi"] = (float(v) for v in bounds[0])
    return (float(vals[0]) if np.ndim(x) == 0 else vals), diag


def _warn_at_split_cap(what: str, f, lam: float) -> None:
    print(
        f"warning: {what} of {f!r} at lambda={lam!r} stopped at its split cap"
        " with the error estimate above tolerance",
        file=sys.stderr,
    )


def diffquot_functional(cfg: DiffQuotConfig, f) -> FunctionalProfile:
    """Profile of lam * || inner(.,lam)^(1/q) ||_{L^p_w(window)} over the grid:
    `diffquot_functionals` on f alone."""
    return diffquot_functionals(cfg, [f])[0]


def diffquot_functionals(cfg: DiffQuotConfig, fs) -> list[FunctionalProfile]:
    """The `diffquot_functional` profile of each f in ``fs``, each bit for bit
    what it is alone.

    The outer integrals are taken to relative tolerance 1e-3, in lock step
    over every (f, lam) problem, so each refinement step is one exact
    `_linear_runs` call on the nodes of every f whose pieces are all linear,
    over a per-node piece table, and one `inner_integral` call on the nodes
    of each other f; its panels include those the quadrature will need
    next, so a step often serves several.  An outer integral that stops at
    its split cap above tolerance prints one warning line naming its f and
    lam."""
    lambdas = np.logspace(math.log10(cfg.lambda_lo), math.log10(cfg.lambda_hi), cfg.lambda_count)
    lines = [getattr(f, "_lines", None) for f in fs]
    exact = np.array([t is not None and bool(np.isfinite(t[2]).all()) for t in lines], dtype=bool)
    # the piece tables of the exact fs, padded with empty pieces at +inf
    table = np.zeros((4, len(fs), max((lines[k].shape[1] for k in np.flatnonzero(exact)), default=0)))
    table[:2] = math.inf
    for k in np.flatnonzero(exact):
        table[:, k, : lines[k].shape[1]] = lines[k]
    continuous = np.array([e and math.isfinite(f.lipschitz) for f, e in zip(fs, exact)], dtype=bool)

    def outer(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        of, lams = owner // len(lambdas), lambdas[owner % len(lambdas)]
        inner, fx = np.empty(len(xs)), np.empty(len(xs))
        for k in np.unique(of).tolist():
            at = of == k
            if exact[k]:
                fx[at] = fs[k].value(xs[at])
            else:
                inner[at], _ = inner_integral(fs[k], xs[at], lams[at], cfg)
        rows = np.flatnonzero(exact[of])
        if len(rows):
            node, _, r1, r2 = _linear_runs(
                table[:, of[rows]], continuous[of[rows]], xs[rows], fx[rows], lams[rows],
                cfg.s, cfg.gamma, np.zeros(len(rows)),
            )
            inner[rows] = _run_mass(node, r1, r2, cfg.gamma, len(rows))
        return inner ** (cfg.p / cfg.q) * cfg.weight.value(xs)

    bps = [list(getattr(f, "breakpoints", ())) + list(cfg.weight.breakpoints()) for f in fs]
    outers = adaptive_quads(outer, [(*cfg.window, 1e-3, b, 400) for b in bps for _ in lambdas])
    profiles = []
    for i, f in enumerate(fs):
        values = []
        for lam, (integ, met) in zip(lambdas.tolist(), outers[i * len(lambdas) :]):
            if not met:
                _warn_at_split_cap("diffquot outer integral", f, lam)
            values.append(float(lam * integ ** (1.0 / cfg.p)))
        k = int(np.argmax(values))
        profiles.append(FunctionalProfile(lambdas.tolist(), values, values[k], float(lambdas[k])))
    return profiles


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
    require_finite(tol=tol)
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
