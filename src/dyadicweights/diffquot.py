"""Difference-quotient level sets

    E(lam, s)[f] = {(x,y) : x != y, |f(x)-f(y)| / |x-y|^(1+s) > lam}

and the weak-type functional  sup over lam of
lam * ( Int_window [ Int 1_E(x,y) |x-y|^(gamma-n) dy ]^(p/q) w(x) dx )^(1/p),
with s = gamma/q, verified against the weighted gradient norm.

The inner integral is exact for every f, whatever its pieces: on each
piece of the ray y = x +- r the member runs of r are closed form or Newton
roots on a linear piece, and bracketed crossings between the cuts of a
polynomial or power piece; runs to infinity are integrated in closed form,
so nothing is sampled or truncated.  The ray spans of a point are formed
once for all the levels it is asked at.  The outer quadratures of every
(f, lam) problem of a call run in lock step, so a refinement step is one
`inner_integral` call on the pair (fs, of) of all their nodes, and the
quadrature evaluates panels ahead of need, so one step also serves the
steps after it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from dyadicweights.funcspace import (
    _companion_roots,
    _functions,
    _stacked_curves,
    _stacked_lines,
    _taylor_rows,
    grad_power_mass,
)
from dyadicweights.quadrature import adaptive_quads
from dyadicweights.records import (
    RATIO_CEILING,
    FunctionalProfile,
    VerificationRecord,
    ratio,
    require_finite,
)
from dyadicweights.weights import Weight

# Decades of the lambda grid, toward the limit, that test the lower constant.
TAIL_DECADES = 1.0


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
        lo, hi = self.window
        require_finite(
            p=self.p, q=self.q, gamma=self.gamma, lambda_lo=self.lambda_lo,
            lambda_hi=self.lambda_hi, lo=lo, hi=hi,
        )
        if self.p < 1 or self.q <= 0:
            raise ValueError("need p >= 1 and q > 0")
        if not lo < hi:
            raise ValueError(f"bad grid window: need lo < hi, got lo={lo}, hi={hi}")
        if self.lambda_count < 1:
            raise ValueError(f"lambda_count must be >= 1, got {self.lambda_count}")
        for name, value in (("lambda_lo", self.lambda_lo), ("lambda_hi", self.lambda_hi)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
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


def _member_runs(
    parts: np.ndarray, side: np.ndarray, lam: np.ndarray, second: np.ndarray, t: float, gamma: float
):
    """Runs of r in [lo, hi] on which a + b r > lam r^t, where a + b r >= 0,
    on each side: side i is of the part whose column of ``parts`` is
    (a, b, lo, hi) at column side[i], at the level lam[i].  One run per
    side, as (r1, r2) arrays, r2 <= r1 where the side holds none.

    h = a + b r - lam r^t is concave (t > 1 or t < 0) or convex (0 < t < 1)
    in r > 0, so it changes sign at most once on each side of its extremum
    r* = (b / (lam t))^(1/(t-1)).  Where h has one sign change at most (t = 0
    or 1, a = 0, b = 0) the part is one side and its root is closed form.
    Every other part is two sides, below r* and (``second``) above it, or
    one where b t <= 0, as no r* > 0 splits it; each root is found by
    Newton's method from the end of its side where h h'' > 0, from which
    the iterates move monotonically to the root, or from a radius nearer the
    root where one term of h dominates the other two, so that the sign of h
    is certain there.  A root past the float range whose term root^gamma of
    the mass would not underflow raises ValueError."""
    a, b, lo, hi = np.take(parts, side, axis=1)
    if t in (0.0, 1.0):
        # h = a1 + b1 r is linear
        a1, b1 = (a - lam, b) if t == 0.0 else (a, b - lam)
        root = np.where(b1 != 0, -a1 / b1, np.where(a1 > 0, 0.0, math.inf))
        rising = b1 >= 0
    else:
        # b = 0: lam r^t < a; a = 0: lam r^(t-1) < b; a nonpositive a or b
        # gives the root 0 or inf that leaves the run empty
        flat = b == 0
        base = np.maximum(np.where(flat, a, b), 0.0) / lam
        power = np.where(flat, 1.0 / t, 1.0 / (t - 1.0))
        root = base**power
        # a root past the float range that is an end of its run (not cut off
        # by a finite end of the part) drops its term root^gamma from the mass
        edge = (base > 0) & ((root == 0) | (root == math.inf))
        if edge.any():
            lost = np.flatnonzero(edge & np.where(root == 0, lo == 0, hi == math.inf))
            if np.any(gamma * power[lost] * np.log(base[lost]) > -708.0):
                raise ValueError("a membership root lies outside the float range")
        del base, power, edge
        rising = (t < 0) | (~flat & (t < 1))
    np.clip(root, lo, hi, out=root)
    r1, r2 = np.where(rising, root, lo), np.where(rising, hi, root)
    del root, rising
    rows = np.flatnonzero((a != 0) & (b != 0) & (t not in (0.0, 1.0)))
    if not rows.size:
        return r1, r2
    a, b, lo, hi, lam, second = a[rows], b[rows], lo[rows], hi[rows], lam[rows], second[rows]
    rstar = np.abs(b / (lam * t)) ** (1.0 / (t - 1.0))
    mid = np.where(b * t > 0, np.clip(rstar, lo, hi), hi)
    p, q = np.where(second, mid, lo), np.where(second, hi, mid)
    h = lambda r: a + b * r - lam * r**t  # noqa: E731
    hp = h(p)
    # an unbounded side has b > 0: h tends to -inf for t > 1, to +inf else
    unbounded = q == math.inf
    hq = np.where(unbounded, -1.0 if t > 1 else 1.0, h(np.where(unbounded, 1.0, q)))
    used, p_in, q_in = q > p, hp > 0, hq > 0
    rise = used & (hp <= 0) & q_in
    fall = used & p_in & (hq <= 0)
    every = used & p_in & q_in
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
    # the sides with a root
    change = np.flatnonzero(rise | fall)
    r = start[change]
    if not np.all(np.isfinite(r) & (r > 0) | (r == 0) & (t > 1)):
        raise ValueError("a membership root lies outside the float range")
    toward = np.where(from_p[change], 1.0, -1.0)
    ra, rb, rl = a[change], b[change], lam[change]
    rlt = rl * t
    for _ in range(100):
        new = r - (ra + rb * r - rl * r**t) / (rb - rlt * r ** (t - 1.0))
        moved = (new - r) * toward > 0
        if not moved.any():
            break
        r = np.where(moved, new, r)
    else:
        raise ValueError("Newton's method did not settle on a membership root")
    root = np.zeros(p.shape)
    root[change] = np.clip(r, p[change], q[change])
    r1[rows] = np.where(rise, root, p)
    r2[rows] = np.where(fall, root, np.where(rise | every, q, p))
    return r1, r2


def _distinct(*keys):
    """The rows of the int64 arrays ``keys`` grouped by their bits, as (group,
    first): group[i] numbers the group of row i, and row first[g] stands for
    group g.  A sort on keys[0] puts the repeats of each row next to each
    other, and a row opens a group where any key differs from the row before
    it, so a repeat that the sort leaves apart from its kin only makes one
    group more."""
    order = np.argsort(keys[0])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _rows_of(owner: np.ndarray, point: np.ndarray, n: int):
    """(row, at): each row i takes, in their order, the items of its point
    point[i] of the ``n`` points, the items' points ``owner`` ascending;
    entry e is item at[e] of row row[e], in row order."""
    count = np.bincount(owner, minlength=n)
    take = count[point]
    row = np.repeat(np.arange(point.size), take)
    at = np.arange(row.size) + np.repeat(
        (np.cumsum(count) - count)[point] - (np.cumsum(take) - take), take
    )
    return row, at


def _ray_runs(
    fs, of: np.ndarray, xs: np.ndarray, fx: np.ndarray, point: np.ndarray, lams: np.ndarray,
    s: float, gamma: float,
):
    """The member runs of every row, exactly: (row, direction, r1, r2)
    arrays, one entry per run y = x + direction * r, r in (r1, r2), with
    r2 > r1, the runs of the linear pieces of a row in (part, side) order,
    then those of its other pieces in (span, bracket) order, so in the same
    order per row however many rows, and whichever functions, there are.

    Point j is xs[j] of the function fs[of[j]], fx[j] = f(xs[j]); row i is
    point point[i] at the level lams[i].  The pieces of the functions stand
    in one stacked piece table `funcspace._stacked_lines` of shape (4,
    functions, pieces); a function is continuous where its Lipschitz hint
    is finite.

    On the ray each piece of f spans a radius interval, on which
    f(y) - f(x) = alpha + beta r on a linear piece, with alpha exactly 0 on
    the piece that holds x (and, for continuous f, the piece that ends at
    x).  Each such span is split at the zero of alpha + beta r, so
    membership on each part is u(r) > lam r^(1+s) with u = |alpha + beta r|
    linear, on one side of the part or on each side of its extremum:
    `_member_runs`.  The spans of the other pieces take `_curve_runs`.  None
    of that depends on the level, so it is done once per point, and each
    row then takes the sides of its point in their order; a side with no
    run is dropped as soon as its ends are known.  Arrays are updated in
    place and dropped once used, which keeps the temporaries of a wide
    refinement step down."""
    table = _stacked_lines(fs)
    continuous = np.array([math.isfinite(g.lipschitz) for g in fs])
    t = 1.0 + s
    n, pieces = xs.size, table.shape[2]
    shape = (n, 2, pieces)
    # on (point, direction, piece) rows: the signed radius of the nearer and
    # the farther end of each piece, lo = x0 - x or x - x1 and hi = x1 - x or
    # x - x0 (x0 <= x1, and rounding keeps that order); on it
    # f(y) - f(x) = alpha + beta r, alpha = intercept + slope x - f(x) and
    # beta = direction * slope; and the cut where alpha + beta r is 0.  Each
    # is formed on whole arrays of that shape from the piece table and x,
    # both signed by direction, beta x being slope x exactly
    lines = np.empty((6, table.shape[1], 2, pieces))
    lines[0] = table[3, :, None]
    lines[1, :, 0] = table[2]
    np.negative(table[2], out=lines[1, :, 1])
    lines[2:4, :, 0] = table[:2]
    np.negative(table[1::-1], out=lines[2:4, :, 1])
    lines[5] = ((1.0,), (-1.0,))
    spans = np.take(lines, of, axis=1)
    alpha, beta, lo, hi, cut, direction = spans
    x = np.repeat(xs, 2 * pieces).reshape(shape)
    x *= direction
    lo -= x
    hi -= x
    # f(y) - f(x) is exactly 0 at r = 0 on the piece that holds x (lo <= 0,
    # and < 0 toward -inf) and, for continuous f, on the piece that ends at x
    held = np.ones((continuous.size, 2, pieces), dtype=bool)
    held[:, 1] = continuous[:, None]
    held = np.take(held, of, axis=0)
    held |= lo < 0.0
    np.maximum(lo, 0.0, out=lo)
    held &= lo == 0.0
    # the spans of pieces that are not linear, which the ray meets
    curved = np.flatnonzero(np.isnan(beta) & (hi > lo))
    if curved.size:
        curves = _curve_runs(
            fs, of, xs, fx, curved, lo.ravel()[curved], hi.ravel()[curved],
            held.ravel()[curved], point, lams, t,
        )
    alpha += beta * x
    alpha -= np.repeat(fx, 2 * pieces).reshape(shape)
    np.putmask(alpha, held, 0.0)
    del lines, x, held
    # a span the ray does not meet has hi <= lo, and no part; nor has a
    # curved one, whose beta is nan
    flat = beta == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(alpha, beta, out=cut)
    # 0.0 - alpha/beta is +0.0 where alpha = 0
    np.clip(np.subtract(0.0, cut, out=cut), lo, hi, out=cut)
    np.putmask(cut, flat, hi)
    # the parts below and above the cut on which alpha + beta r is not 0, by
    # their flat index on (point, direction, piece, above) rows
    part = np.empty((*shape, 2), dtype=bool)
    below, above = part[..., 0], part[..., 1]
    np.greater(cut, lo, out=below)
    below &= ~flat | (alpha != 0)
    np.greater(hi, cut, out=above)
    above &= ~flat
    part = np.flatnonzero(part)
    span, up = part >> 1, (part & 1).astype(bool)
    parts = np.take(spans.reshape(6, -1), span, axis=1)
    a, b, lo, hi, cut, direction = parts
    del spans, alpha, beta, flat, below, above, part
    # the sign of alpha + beta r on each part
    sg = np.sign(np.where(b == 0, a, np.where(up, b, -b)))
    a *= sg
    b *= sg
    # each part runs from lo to the cut or from the cut to hi
    np.putmask(lo, up, cut)
    np.putmask(hi, ~up, cut)
    del sg, up
    # the sides of each part, the second where it has two (`_member_runs`):
    # at t = 0 or 1, a = 0 or b = 0, or b t <= 0, whose extremum is not past
    # r = 0, the part is one side
    side = np.repeat(np.arange(a.size), 1 + ((a != 0) & (b * t > 0) & (t not in (0.0, 1.0))))
    second = np.zeros(side.size, dtype=bool)
    np.equal(side[1:], side[:-1], out=second[1:])
    # every row takes the sides of its point, which are contiguous
    row, at = _rows_of(span[side] // (2 * pieces), point, n)
    side, second = side[at], second[at]
    del at
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1, r2 = _member_runs(parts[:4], side, lams[row], second, t, gamma)
    live = np.flatnonzero(r2 > r1)
    runs = row[live], direction[side[live]], r1[live], r2[live]
    if curved.size:
        runs = tuple(np.concatenate(pair) for pair in zip(runs, curves))
    return runs


def _nonzero_roots(c: np.ndarray):
    """(row, x): the real part of each nonzero root of each row's polynomial
    sum_k c[row, k] x^k, from one stack of companion matrices per degree
    (`funcspace._companion_roots`), both as it comes and after two Newton
    steps, which give a root far nearer 0 than the others its relative
    precision.  As cuts, roots too many do no harm, and one too few would."""
    nz = c != 0
    low = np.argmax(nz, axis=1)
    degree = np.where(nz.any(axis=1), c.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1) - low, 0)
    rows, roots = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for deg in (np.flatnonzero(np.bincount(degree)[1:]) + 1).tolist():
        at = np.flatnonzero(degree == deg)
        sub = np.take_along_axis(c[at], low[at, None] + np.arange(deg + 1), axis=1)
        x = [_companion_roots(sub).real]
        with np.errstate(all="ignore"):
            for _ in range(2):
                val = slope = 0.0
                for col in sub.T[::-1, :, None]:
                    val, slope = val * x[-1] + col, slope * x[-1] + val
                x.append(x[-1] - val / slope)
        rows.append(np.repeat(at, 2 * deg))
        roots.append(np.concatenate([x[0], x[2]], axis=1).ravel())
    return np.concatenate(rows), np.concatenate(roots)


def _bisect(same, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The radius in each bracket (a[i], b[i]), 0 <= a < b <= inf, where a
    predicate turns once, to rounding: same(i, r) says whether r lies on the
    side of a[i] in bracket i (i an index array).  Nonnegative floats order
    as their bits, so halving those halves the floats between the ends: at
    most 64 steps at any scale.  An unbounded bracket is first closed by
    doubling from max(2 a, 1), and gives inf if the predicate never turns."""
    lo, hi = np.abs(a).view(np.int64), np.abs(b).view(np.int64)
    i = np.flatnonzero(b == math.inf)
    r = np.maximum(2.0 * a[i], 1.0)
    while i.size:
        on = same(i, r) & (r < math.inf)
        lo[i[on]], hi[i[~on]] = r[on].view(np.int64), r[~on].view(np.int64)
        i, r = i[on], 2.0 * r[on]
    i = np.flatnonzero(hi - lo > 1)
    while i.size:
        mid = lo[i] + (hi[i] - lo[i] >> 1)
        on = same(i, mid.view(np.float64))
        lo[i[on]], hi[i[~on]] = mid[on], mid[~on]
        i = i[hi[i] - lo[i] > 1]
    return hi.view(np.float64)


def _curve_runs(fs, of, xs, fx, span, lo, hi, held, point, lams, t: float):
    """The member runs on the spans of the pieces that are not linear, as
    (row, direction, r1, r2) in (row, span, bracket) order, r2 > r1:
    ``span`` holds their flat indices, ascending, on the (point, direction,
    piece) rows of `_ray_runs`, (lo, hi) their radius intervals, and
    ``held`` marks those on which D(0) is exactly 0.

    On a span, with D(r) = f(x +- r) - f(x), phi = |D| / r^t is monotone
    between the cuts, the zeros of D and of r D' - t D, as phi' has the sign
    of D (r D' - t D).  So each bracket between consecutive cuts holds one
    crossing of lam at most, which `_bisect` finds; the cuts, and phi at
    them, are found once per point.  On a
    polynomial piece D and r D' - t D are polynomials in rho = r - lo, from
    one Taylor shift (`funcspace._taylor_rows`), and the cuts their real
    roots.  On a power piece c (y - x0)^delta, u = x - x0, D has one zero,
    in closed form, and r D' - t D is monotone on each side of
    r* = s u / (+-(delta - 1 - s)); a sign change on a side is bisected.  A
    power piece that reaches infinity raises ValueError.  phi is never formed
    from a D that underflows: it reads its limit at r = 0 from D's lowest
    nonzero term, at infinity from its leading one, and a power piece takes
    the chord D / r.  The radius next past lo is a cut too, standing for
    the cuts that round to lo."""
    coef, anchor, power = _stacked_curves(fs)
    j, way, piece = np.unravel_index(span, (xs.size, 2, coef.shape[1]))
    k, x, d = of[j], xs[j], 1.0 - 2.0 * way
    c, delta, center = power[:, k, piece]
    poly = np.isnan(c)
    if np.any(~poly & (hi == math.inf)):
        raise ValueError("a power piece of f reaches infinity")
    # D and r D' - t D in powers of rho on polynomial spans, 0 on power ones
    e = _taylor_rows(coef[k, piece], x + d * lo - anchor[k, piece], 1.0)
    e[:, 1::2] *= d[:, None]
    e[:, 0] = np.where(held | ~poly, 0.0, e[:, 0] - fx[j])
    deg = np.arange(e.shape[1])
    g = (deg - t) * e
    g[:, :-1] += lo[:, None] * deg[1:] * e[:, 1:]
    sid, rho = _nonzero_roots(np.concatenate([e, g]))
    sid %= span.size
    cuts = [(sid, lo[sid] + rho), (np.arange(span.size), np.nextafter(lo, math.inf))]
    # D = rho^m E(rho), with E(0) = d_m its lowest nonzero coefficient, and
    # phi at infinity from its leading term d_top rho^top
    m = np.argmax(e != 0, axis=1)
    top = deg[-1] - np.argmax(e[:, ::-1] != 0, axis=1)
    with np.errstate(all="ignore"):
        at_inf = np.abs(e[np.arange(span.size), top]) * np.power(math.inf, top - t)
        # power spans: the piece at x, D(0), phi at r = 0 from D's lowest term
        # (D(0), c delta u^(delta - 1) r or c r^delta), D's zero, and r*, 0/0
        # where u = 0 and delta = t, and r D' - t D is 0
        u = x - center
        pu = c * u**delta
        base = np.where(held, pu, fx[j])
        d0 = pu - base
        lead = np.where(d0 != 0, d0, np.where(u > 0, c * delta * u ** (delta - 1.0), c))
        lowest = np.where(d0 != 0, 0.0, np.where(u > 0, 1.0, delta))
        at_zero = np.abs(lead) * np.power(0.0, lowest - t)
        zero = d * ((base / c) ** (1.0 / delta) - u)
        rstar = np.clip(np.nan_to_num((t - 1.0) * d * u / (delta - t)), lo, hi)

    def chord(i, r):
        """D / r on the power spans i at the radii r > 0: within |z| < 1,
        z = +-r / u, from c u^delta expm1(delta log1p(z)) + D(0), which
        keeps its digits, and to second order in z where that is exact to
        rounding."""
        z = d[i] * r / u[i]
        near = np.abs(z) < 1.0
        curve = np.where(
            near,
            pu[i] * np.expm1(delta[i] * np.log1p(np.where(near, z, 0.0))) + d0[i],
            c[i] * np.maximum(u[i] + d[i] * r, 0.0) ** delta[i] - base[i],
        )
        small = pu[i] * delta[i] * d[i] / u[i] * (1.0 + 0.5 * (delta[i] - 1.0) * z) + d0[i] / r
        return np.where(np.abs(z) < 1e-8, small, curve / r)

    def psi(i, r):
        """The sign of r D' - t D on the power spans i at the radii r."""
        slope = c[i] * delta[i] * d[i] * np.maximum(u[i] + d[i] * r, 0.0) ** (delta[i] - 1.0)
        return np.sign(np.where(r > 0, slope - t * chord(i, r), -t * d0[i]))

    def phi(i, r):
        """|D| / r^t on the spans i at the radii r: |E(rho)| (rho / r)^m
        r^(m - t) on a polynomial span, the ratio 1 on a span from 0, and
        |D / r| r^(1 - t) on a power span."""
        out, pw = np.empty(r.shape), ~poly[i]
        if not pw.all():
            ip, rp = i[~pw], r[~pw]
            rho, total, mp = rp - lo[ip], np.zeros(rp.shape), m[ip]
            for kk, col in zip(deg[::-1], e[ip].T[::-1]):
                total = np.where(kk >= mp, total * rho + col, total)
            total = np.abs(total) * np.where(lo[ip] == 0, 1.0, rho / rp) ** mp
            total *= np.where(total == 0, 0.0, rp ** (mp - t))
            out[~pw] = np.where(rp == math.inf, at_inf[ip], total)
        if pw.any():
            ip, rp = i[pw], r[pw]
            total = np.abs(chord(ip, rp))
            total *= np.where(total == 0, 0.0, rp ** (1.0 - t))
            out[pw] = np.where(rp == 0, at_zero[ip], total)
        return out

    with np.errstate(all="ignore"):
        # the zero of r D' - t D on each side of r*, where its sign changes
        pw = np.flatnonzero(~poly)
        side = np.concatenate([pw, pw])
        ends = np.concatenate([lo[pw], rstar[pw]]), np.concatenate([rstar[pw], hi[pw]])
        sign = psi(side, ends[0])
        turn = np.flatnonzero(sign * psi(side, ends[1]) < 0)
        side, sign = side[turn], sign[turn]
        root = _bisect(lambda i, r: psi(side[i], r) == sign[i], ends[0][turn], ends[1][turn])
        cuts += [(pw, zero[pw]), (pw, rstar[pw]), (side, root)]
        # the edges of each span, lo, its cuts and hi, in order, and phi there
        sid, cut = (np.concatenate(v) for v in zip(*cuts))
        keep = (lo[sid] < cut) & (cut < hi[sid])
        owner = np.concatenate([np.arange(span.size), sid[keep], np.arange(span.size)])
        edge = np.concatenate([lo, cut[keep], hi])
        order = np.lexsort((edge, owner))
        owner, edge = owner[order], edge[order]
        level = phi(owner, edge)
        # the brackets between consecutive edges of a span; every row takes
        # those of its point in their order
        bracket = np.flatnonzero((owner[1:] == owner[:-1]) & (edge[1:] > edge[:-1]))
        row, at = _rows_of(j[owner[bracket]], point, xs.size)
        bracket, lam = bracket[at], lams[row]
        left, right = level[bracket] > lam, level[bracket + 1] > lam
        r1, r2 = edge[bracket], edge[bracket + 1]
        turn = np.flatnonzero(left != right)
        sp, ln, was = owner[bracket[turn]], lam[turn], left[turn]
        root = _bisect(lambda i, r: (phi(sp[i], r) > ln[i]) == was[i], r1[turn], r2[turn])
        r1[turn[~was]], r2[turn[was]] = root[~was], root[was]
    live = np.flatnonzero((left | right) & (r2 > r1))
    return row[live], d[owner[bracket[live]]], r1[live], r2[live]


def _run_mass(row: np.ndarray, r1: np.ndarray, r2: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """Integral of r^(gamma-1) over the runs (r1, r2), r2 > r1, of each of
    ``n`` rows, (r2^gamma - r1^gamma)/gamma per run.  Each run is added after
    the one before it, so every row's sum is the same however many rows there
    are; with no run at all it is a float 0 too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = (r2**gamma - r1**gamma) / gamma
    return np.bincount(row, weights=mass, minlength=n) + 0.0


def inner_integral(f, x, lam, cfg: DiffQuotConfig):
    """Integral over y of 1_E(x,y) |x-y|^(gamma - 1) for n = 1, at one node
    or at an array of nodes, at one level ``lam`` or at one level per node.
    f is one function, or a pair (fs, of) giving node i the function
    fs[of[i]], as `omega_intervals` takes it.  Each node's value is bit for
    bit what it is alone.

    Radial membership is resolved per direction as a union of runs, exact
    to rounding, with runs to infinity in closed form, and the power weight
    is integrated in closed form on each run: nothing is sampled or
    truncated.  Each f is evaluated once at each of its distinct points, and
    the nodes of every f take one `_ray_runs` call, which forms the ray
    spans of each distinct point once for all its levels: closed-form or
    Newton roots on linear pieces, bracketed crossings on polynomial and
    power pieces.

    A scalar ``x`` returns a float, an array an array.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lams = np.full(xs.shape, lam, dtype=float)
    fs, of = _functions(f, xs.size)
    # the distinct (f, x) points, by their bits, each with f(x)
    point, first = _distinct(xs.view(np.int64), of)
    pof, px = of[first], xs[first]
    pfx = np.empty(first.size)
    for k in np.flatnonzero(np.bincount(pof, minlength=len(fs))).tolist():
        at = pof == k
        pfx[at] = fs[k].value(px[at])
    row, _, r1, r2 = _ray_runs(fs, pof, px, pfx, point, lams, cfg.s, cfg.gamma)
    vals = _run_mass(row, r1, r2, cfg.gamma, xs.size)
    return float(vals[0]) if np.ndim(x) == 0 else vals


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
    over every (f, lam) problem, so each refinement step is one
    `inner_integral` call on the pair (fs, of) of all of their nodes; its
    panels include those the quadrature will need next, so a step often
    serves several.  An outer integral that stops at its split cap above
    tolerance prints one warning line naming its f and lam."""
    lambdas = np.logspace(math.log10(cfg.lambda_lo), math.log10(cfg.lambda_hi), cfg.lambda_count)

    def outer(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        inner = inner_integral((fs, owner // len(lambdas)), xs, lambdas[owner % len(lambdas)], cfg)
        return inner ** (cfg.p / cfg.q) * cfg.weight.value(xs)

    bps = [list(f.breakpoints) + list(cfg.weight.breakpoints()) for f in fs]
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
    ``tol`` is the relative slack of that lower check, in [0, 1): at 1 or
    more the check passes whatever the profile.
    """
    require_finite(tol=tol)
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be in [0, 1), got {tol}")
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
