"""Oracles and helpers used only by the tests: pointwise membership in the
difference-quotient level sets, one pair (x, y) at a time by scalar
arithmetic; value oracles and norms of single wavelet atoms, from their
sampled mother function, and the per-atom coefficient; the masked wavelet cascade; results.csv spelled cell
by cell; omega of a non-linear function one interval at a time, over its
monotone parts; the closed form of omega for an indicator; the exhaustive
antichain search; the classical weight-constant checks with the
discretized maximal function; the scalar power mass and constant ratio,
one interval at a time, as the bit-for-bit references of the array
kernel; the constant ratios with one float_box per probe, the reference
of the one-array probe boxes; Python's float ** one value at a time, the
reference of ``weights.powers``; the exact inner integral with every run added, empty
ones included, the reference of the live runs of ``diffquot``; the inner
integral by radial sampling, with a membership seam, the reference of its
runs on every piece kind; the panel
sums of ``quadrature._panels`` one row at a time by np.dot; the
classifier's probe family built by one axis_index and
axis_interval call per cube; the set relation of one pair of cubes on
integer corners (``relate``, the reference of the good-cube containment
arrays) and a cube's parent; the Fraction forms of relate and
grid.cube_at; and the paper's checks that no runner reports: pointwise
domination through ball means, chain sparsity of level sets, and
dominating cubes with their multiplicity."""

from __future__ import annotations

import enum
import functools
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from dyadicweights.cli import _fmt
from dyadicweights.diffquot import DiffQuotConfig, _warn_at_split_cap
from dyadicweights.funcspace import (
    _CATALOG,
    Piece,
    TestFunction,
    _functions,
    _stacked_lines,
    omega_boxes,
)
from dyadicweights.grid import (
    THIRDS, AxisCube, Cube, DimensionError, GridWindow, Shift, all_shifts, axis_index,
    axis_interval, float_box,
)
from dyadicweights.oscillation import REL_TOL, LevelMass, level_set
from dyadicweights.quadrature import _gl, adaptive_quad, adaptive_quads
from dyadicweights.records import VerificationRecord
from dyadicweights.wavelet import (
    AtomIndex,
    WaveletSystem,
    _integer_values,
    _norms,
    atom_weights,
    daubechies_filter,
)
from dyadicweights.weights import (
    ConstantWeight,
    DomainError,
    PowerWeight,
    ProductWeight,
    TableWeight,
    Weight,
    _axis_ratios,
    ap_constant,
    ap_ratios,
)


def same_bits(got, want) -> bool:
    """The same dtype, shape and bytes: a -0.0 for +0.0 differs."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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
    fb = float(ball_mean(f, [y], [d / BALL])[0])
    denom = d ** (1.0 + s)
    in_e = abs(fx - fy) > lam * denom
    in_e1 = abs(fx - fb) > 0.5 * lam * denom
    in_e2 = abs(fy - fb) > 0.5 * lam * denom
    return in_e, in_e1, in_e2


def base(system: WaveletSystem, e: int) -> np.ndarray:
    """The sampled mother function of an atom: phi at e = 0, psi at e = 1."""
    return system.phi if e == 0 else system.psi


def sample_value(system: WaveletSystem, e: int, u: np.ndarray) -> np.ndarray:
    """Linear interpolation of the sampled mother function (phi at e = 0,
    psi at e = 1) at points u, 0 off its support."""
    arr = base(system, e)
    pos = np.asarray(u, dtype=float) / system.dx
    idx = np.clip(np.floor(pos).astype(int), 0, len(arr) - 2)
    frac = pos - idx
    inside = (pos >= 0) & (pos <= len(arr) - 1)
    out = arr[idx] * (1 - frac) + arr[idx + 1] * frac
    return np.where(inside, out, 0.0)


def normalized_atom(system: WaveletSystem, idx: AtomIndex, p: float):
    """Value oracle of the L^p-normalized atom 2^(j/p) psi^e(2^j x - k)."""
    amp = 2.0 ** (idx.j / p) if math.isfinite(p) else 1.0
    scale = 2.0**idx.j

    def value(x):
        u = scale * np.asarray(x, dtype=float) - idx.k
        return amp * sample_value(system, idx.e, u)

    return value


def atom_lp_norm(system: WaveletSystem, idx: AtomIndex, p: float) -> float:
    """L^p norm of the normalized atom computed from the samples."""
    samples = base(system, idx.e)
    if math.isinf(p):
        return float(np.max(np.abs(samples)))
    return float(np.sum(np.abs(samples) ** p) * system.dx) ** (1.0 / p)


def seq_norms(atoms, values: np.ndarray, beta: float, w: Weight, p: float) -> tuple[float, float]:
    """Strong and weak weighted sequence norms of a finite coefficient family.

    Entry weights are |I|^(beta-1) v(I).  The weak norm is
    (sup over lam of lam^p * weight of entries with |a| > lam)^(1/p); the
    supremum is attained at coefficient magnitudes, so it is exact for finite
    families.
    """
    j = np.array([a.j for a in atoms])
    k = np.array([a.k for a in atoms])
    return _norms(atom_weights(j, k, beta, w), values, p)


def exact_coefficient(f, system: WaveletSystem, idx: AtomIndex) -> float:
    """The pairing ``wavelet.coefficient`` forms at dual_p = 1, in exact
    arithmetic: f's polynomial pieces, their float coefficients in powers
    of x minus the piece's anchor taken exactly, at the atom's sample
    abscissae, against the atom's samples, both linearly interpolated
    between samples."""
    samples = [Fraction(v) for v in base(system, idx.e)]
    dx = Fraction(system.dx)
    fv = []
    for i in range(len(samples)):
        x = (i * dx + idx.k) / 2**idx.j
        piece = f.pieces[int(np.searchsorted(f._edges, float(x), side="right"))]
        t = x - Fraction(piece.anchor)
        fv.append(sum(Fraction(c) * t**k for k, c in enumerate(piece.data)))
    total = Fraction(0)
    for a0, a1, b0, b1 in zip(fv, fv[1:], samples, samples[1:]):
        total += a0 * b0 + (a0 * (b1 - b0) + b0 * (a1 - a0)) / 2 + (a1 - a0) * (b1 - b0) / 3
    return float(total * dx)  # the amplitude 2^j and the scale 2^-j cancel


def fmt_join_csv(header, rows) -> bytes:
    """results.csv as the first writer built it: every cell through
    ``cli._fmt``, each line joined and written on its own."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def masked_cascade(order: int, depth: int) -> tuple[np.ndarray, np.ndarray, float]:
    """phi, psi and the refinement residual of the order-N system at the
    given depth, by the masked index arrays of the first implementation:
    per tap, the target indices whose source index lies in the array, then
    fancy indexing with both."""
    h = daubechies_filter(order)
    last = len(h) - 1
    g = np.array([(-1.0) ** k * h[last - k] for k in range(last + 1)])
    phi = _integer_values(h)
    for d in range(1, depth + 1):
        prev = phi
        cur = np.zeros(2 * (len(prev) - 1) + 1)
        cur[0::2] = prev
        odd = np.arange(1, len(cur), 2)
        for k, hk in enumerate(h):
            src = odd - k * 2 ** (d - 1)
            ok = (src >= 0) & (src < len(prev))
            cur[odd[ok]] += math.sqrt(2.0) * hk * prev[src[ok]]
        phi = cur
    psi = np.zeros(len(phi))
    idx = np.arange(len(phi))
    for k, gk in enumerate(g):
        src = 2 * idx - k * 2**depth
        ok = (src >= 0) & (src < len(phi))
        psi[idx[ok]] += math.sqrt(2.0) * gk * phi[src[ok]]
    coarse = phi[::2]
    rec = np.zeros(len(coarse))
    idx = np.arange(len(coarse))
    for k, hk in enumerate(h):
        src2 = 2 * (2 * idx - k * 2 ** (depth - 1))
        ok = (src2 >= 0) & (src2 < len(phi))
        rec[idx[ok]] += math.sqrt(2.0) * hk * phi[src2[ok]]
    return phi, psi, float(np.max(np.abs(rec - coarse)))


class MonotonePart:
    """One piece of f restricted to [lo, hi], where it is monotone."""

    def __init__(self, piece: Piece, lo: float, hi: float):
        self.piece, self.lo, self.hi = piece, lo, hi
        self.ends = piece.eval(np.array([lo, hi]))
        self.sgn = 1.0 if self.ends[1] >= self.ends[0] else -1.0
        self.prim_ends = piece.prim(np.array([lo, hi]))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if piece.kind == "poly":
            # Gauss-Legendre exact for x f(x), on values of f: differences of
            # the primitives of the expanded coefficients cancel badly
            t, w = _gl(len(piece.data) // 2 + 1)
            fx = piece.eval(mid + half * t)
            self.mass = half * float(w @ fx)
            self.moment = half * half * float((w * t) @ fx)
        else:
            self.mass = float(self.prim_ends[1] - self.prim_ends[0])
            xp = piece.xprim(np.array([lo, hi]))
            self.moment = float(xp[1] - xp[0]) - mid * self.mass

    def self_integral(self) -> float:
        """Int Int |f(x) - f(y)| over the part squared: 4 |Int (x - mid) f|
        for monotone f."""
        return 4.0 * abs(self.moment)

    def inverse(self, v):
        """Where f takes the values v, clipped to [lo, hi].

        Bisection to 2^-32 of the part suffices: abs_dev is stationary in the
        inverse point, so its error is second order in the bisection width.
        """
        v = np.asarray(v, dtype=float)
        lo, hi = np.full(v.shape, self.lo), np.full(v.shape, self.hi)
        for _ in range(32):
            mid = 0.5 * (lo + hi)
            below = self.sgn * (self.piece.eval(mid) - v) < 0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        x = np.where(self.sgn * (v - self.ends[1]) >= 0, self.hi, 0.5 * (lo + hi))
        return np.where(self.sgn * (v - self.ends[0]) <= 0, self.lo, x)

    def abs_dev(self, v):
        """Int over [lo, hi] of |v - f(y)| dy at every v; v - f changes sign
        once, at the inverse point."""
        y = self.inverse(v)
        h0, h1 = self.prim_ends
        return self.sgn * (
            v * (2.0 * y - self.lo - self.hi) + h0 + h1 - 2.0 * self.piece.prim(y)
        )


def monotone_parts(f: TestFunction, a: float, b: float) -> list[MonotonePart]:
    """The pieces of f clipped to [a, b], polynomial pieces cut at the real
    parts of the roots of their derivative so f is monotone on every part.

    A root within 1e-12 of a part's end is not cut: f moves by at most
    ~1e-24 (hi - lo)^2 |f''| on the sliver it would split off.
    """
    parts = []
    for p in f.pieces:
        lo, hi = max(a, p.x0), min(b, p.x1)
        if hi <= lo:
            continue
        cuts = [lo, hi]
        if p.kind == "poly" and len(p.data) > 2:
            slope = [k * c for k, c in enumerate(p.data)][1:]
            margin = 1e-12 * (hi - lo)
            roots = np.polynomial.polynomial.polyroots(slope).real + p.anchor
            inside = {float(r) for r in roots if lo + margin < r < hi - margin}
            cuts[1:1] = sorted(inside)
        parts += [MonotonePart(p, s, t) for s, t in zip(cuts, cuts[1:])]
    return parts


def cross_integral(p: MonotonePart, q: MonotonePart) -> float:
    """Int over p's interval of Int over q's interval of |f(x) - f(y)|."""
    (plo, phi), (qlo, qhi) = sorted(p.ends), sorted(q.ends)
    if phi <= qlo or qhi <= plo:
        # f(x) - f(y) keeps one sign
        return abs((q.hi - q.lo) * p.mass - (p.hi - p.lo) * q.mass)
    # the inner integral is exact through q's inverse; the outer integrand is
    # smooth between the points where f on p crosses q's end values
    cuts = [float(p.inverse(v)) for v in (qlo, qhi) if plo < v < phi]
    return adaptive_quad(
        lambda x: q.abs_dev(p.piece.eval(x)),
        p.lo,
        p.hi,
        rel_tol=1e-13,
        breakpoints=cuts,
    )


def double_integral_piecewise(f: TestFunction, a: float, b: float) -> float:
    """Int Int |f(x) - f(y)| over [a, b] squared, one interval at a time: each
    monotone part with itself, then twice each pair with a later part."""
    parts = monotone_parts(f, a, b)
    total = 0.0
    for i, p in enumerate(parts):
        total += p.self_integral()
        for q in parts[i + 1 :]:
            total += 2.0 * cross_integral(p, q)
    return total


def omega_indicator(region, e_lo: float, e_hi: float) -> float:
    """Closed form for f = 1_E, E an interval: 2 |Q|^(-2) |Q ∩ E| |Q \\ E|."""
    ((a, b),) = float_box(region)
    inter = max(0.0, min(b, e_hi) - max(a, e_lo))
    return 2.0 * inter * ((b - a) - inter) / (b - a) ** 2


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def as_axis_cube(q: Cube) -> AxisCube:
    return AxisCube(q.lower(), q.edge)


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


def probe_family(centers, j_min: int, j_max: int):
    """(generation, lo, hi) arrays of the classifier's probe cubes around the
    centers, the ends (N, 1), one axis_index and axis_interval call per cube.

    For each shift and generation the cube containing the center and its two
    index neighbors enter the family, each cube once, in the order center,
    shift, generation and index: the loop form of the classifier's probe
    geometry, its bit-for-bit reference."""
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


def cube_weight(q: Cube, sigma: float, w: Weight) -> float:
    """|q|^(sigma - 1) w(q) of one cube, the mass by the scalar reference of
    the weight on R, or of a product weight's factors multiplied in axis
    order."""
    factors = w.factors if isinstance(w, ProductWeight) else [w]
    box = float_box(q)
    assert len(factors) == len(box)
    mass = math.prod(_scalar_axis_power_mass(f, lo, hi, 1.0) for f, (lo, hi) in zip(factors, box))
    return float(q.volume) ** (sigma - 1.0) * mass


def scalar_powers(x, e) -> np.ndarray:
    """x ** e element by element by Python's float **, in x's shape.
    Raises where ** raises (ZeroDivisionError, OverflowError), and
    ValueError where it gives a complex (a negative base to a fractional
    power)."""
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.ravel().tolist():
        r = v**e
        if isinstance(r, complex):
            raise ValueError(f"{v!r} ** {e!r} is complex")
        out.append(r)
    return np.array(out, dtype=float).reshape(x.shape)


def _all_sides(a, b, lo, hi, lam, t: float, gamma: float):
    """Both sides of every part [lo, hi] with a + b r >= 0 on it, as (2, parts)
    arrays (r1, r2): the runs on which a + b r > lam r^t, the second side of
    a part with a closed-form root (t = 0 or 1, a = 0 or b = 0) the empty run
    (lo, lo).  The closed form is taken on every part, and Newton's method
    overwrites the others; each run of ``diffquot._member_runs`` is one of
    these, by the same float operations."""
    closed = (a == 0) | (b == 0)
    if t in (0.0, 1.0):
        a1, b1 = (a - lam, b) if t == 0.0 else (a, b - lam)
        root = np.where(b1 != 0, -a1 / b1, np.where(a1 > 0, 0.0, math.inf))
        rising = b1 >= 0
    else:
        flat = b == 0
        base = np.where(flat, np.maximum(a, 0.0), np.maximum(b, 0.0)) / lam
        root = base ** np.where(flat, 1.0 / t, 1.0 / (t - 1.0))
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
    hq = np.where(q == math.inf, -1.0 if t > 1 else 1.0, h(np.where(q == math.inf, 1.0, q)))
    used = q > p
    rise = used & (hp <= 0) & (hq > 0)
    fall = used & (hp > 0) & (hq <= 0)
    every = used & (hp > 0) & (hq > 0)
    from_p = rise == (t > 1 or t < 0)
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
    change = np.flatnonzero(rise | fall)
    r = start.ravel()[change]
    toward = np.where(from_p.ravel()[change], 1.0, -1.0)
    row = change % rows.size
    ra, rb, rl = a[row], b[row], lam[row]
    for _ in range(100):
        new = r - (ra + rb * r - rl * r**t) / (rb - rl * t * r ** (t - 1.0))
        moved = (new - r) * toward > 0
        if not moved.any():
            break
        r = np.where(moved, new, r)
    root = np.zeros(p.shape)
    root.ravel()[change] = np.clip(r, p.ravel()[change], q.ravel()[change])
    m1[:, rows] = np.where(rise, root, p)
    m2[:, rows] = np.where(fall, root, np.where(rise | every, q, p))
    return m1, m2


def all_runs(table, continuous, of, xs, fx, lams, s: float, gamma: float, r_min):
    """Every run at r > r_min of each node x in ``xs`` (of its function of[i]
    in the stacked piece table ``table``, fx = f(xs), at its level), empty
    ones included, as (node, direction, r1, r2) in (node, part, side) order:
    each node forms its own ray spans and parts, with the float operations
    of ``diffquot._ray_runs``, and every part has both sides."""
    pieces = table.shape[2]
    lines = table.reshape(4, -1)
    base = of * pieces
    at = base[:, None] + np.arange(pieces)
    x = np.repeat(xs, pieces).reshape(at.shape)
    x0, x1 = lines[0, at] - x, lines[1, at] - x
    lo, hi = np.stack([x0, -x1], 1), np.stack([x1, -x0], 1)
    inside = lo[:, 1] < 0.0
    np.maximum(lo, 0.0, out=lo)
    held = lo == 0.0
    held[:, 1] &= continuous[of, None] | inside
    np.maximum(lo, np.repeat(r_min, 2 * pieces).reshape(lo.shape), out=lo)
    span = np.flatnonzero(hi > lo)
    node, way, piece = np.unravel_index(span, lo.shape)
    lo, hi, held = lo.ravel()[span], hi.ravel()[span], held.ravel()[span]
    piece += base[node]
    beta, alpha = lines[2, piece], lines[3, piece]
    alpha += beta * xs[node]
    alpha -= fx[node]
    alpha[held] = 0.0
    direction = 1.0 - 2.0 * way
    beta *= direction
    flat = beta == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = np.clip(0.0 - np.divide(alpha, beta), lo, hi)
    cut = np.where(flat, hi, cut)
    at, up = np.nonzero(np.stack([(cut > lo) & (~flat | (alpha != 0)), (hi > cut) & ~flat], -1))
    up = up == 1
    a, b = alpha[at], beta[at]
    sg = np.where(b == 0, np.sign(a), np.where(up, np.sign(b), -np.sign(b)))
    lo = np.where(up, cut[at], lo[at])
    hi = np.where(up, hi[at], cut[at])
    node = node[at]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1, r2 = _all_sides(a * sg, b * sg, lo, hi, lams[node], 1.0 + s, gamma)
    return np.repeat(node, 2), np.repeat(direction[at], 2), r1.T.ravel(), r2.T.ravel()


def all_runs_inner_integral(f, x, lam, cfg: DiffQuotConfig) -> np.ndarray:
    """``diffquot.inner_integral`` at an array of nodes of f whose pieces are
    all linear, with every run added: each node evaluates its f, and the
    runs of ``all_runs`` each add np.where(r2 > r1, (r2^gamma -
    r1^gamma)/gamma, 0.0), an empty run a literal +0.0, in their order."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lams = np.full(xs.shape, lam, dtype=float)
    fs, of = _functions(f, xs.size)
    fx = np.empty(xs.size)
    for k in np.unique(of).tolist():
        at = np.flatnonzero(of == k)
        fx[at] = fs[k].value(xs[at])
    continuous = np.array([math.isfinite(g.lipschitz) for g in fs])
    node, _, r1, r2 = all_runs(
        _stacked_lines(fs), continuous, of, xs, fx, lams, cfg.s, cfg.gamma, np.zeros(xs.size)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.where(r2 > r1, (r2**cfg.gamma - r1**cfg.gamma) / cfg.gamma, 0.0)
    return 0.0 + np.bincount(node, weights=mass, minlength=xs.size)


# Geometric sample radii per shell of the sampled inner integral, before
# kink radii.
RADIAL_SAMPLES = 193
# Points per membership call on the sample radii of a sampled inner
# integral: the rows are evaluated in blocks of at most this many (node,
# direction, radius) points, which bounds the temporaries of a wide call.
MASK_POINTS = 2**15
# Past REACH times a node's larger distance to the outermost breakpoints of
# f, y and a ball of radius |x-y| / BALL around it lie on an end piece of f,
# so the ball-mean membership agrees there with the level set.
REACH = 20.0 / 19.0


def radial_bounds(f, lam: float, s: float):
    """Certified radii (r_lo, r_hi) outside which membership is impossible.

    Bounds use inflated Lipschitz/value hints so they stay valid for the
    ball-mean membership as well (the mean sits within 1.05 |x-y| of x).  A
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


def signed_member_mass(
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
    Sub-grid membership islands are missed; the sample grid is geometric and
    includes the kink radii of the function.
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
    for k in np.flatnonzero(np.bincount(nseg.ravel())):
        sel = nseg == k
        sums[sel] = mass[sel][:, :k].sum(axis=1)
    return 0.0 + sums[:, 0] + sums[:, 1]


def sampled_shells(f, xs, fx, lams, cfg: DiffQuotConfig, membership):
    """The sampled inner integral on one f, at the nodes ``xs`` (fx = f(xs))
    at their levels, as (mass, r_min): the mass inside each node's sampled
    shell, and the radius past which the exact runs of the level set are
    still to be added, inf where none are.

    Geometric sampling, kink radii included, boundaries bisected
    (`signed_member_mass`) inside a certified shell (`radial_bounds`),
    taken once per distinct level; membership and bisection are fused
    across all nodes and levels, so one call costs one membership call per
    bisection step, not one per node.  A shell with no certified outer
    radius (gamma < 0 only) is sampled out to ``reach``, REACH times the
    node's larger distance to the outermost breakpoints of f, and r_min is
    ``reach``, f being linear there.  So a ``membership`` must agree with
    the level set |f(y) - f(x)| > lam |x-y|^(1+s) at every |x-y| >
    ``reach``, as the ball-mean membership does: its ball then lies on one
    linear end piece."""
    gamma, s = cfg.gamma, cfg.s
    if membership is None:

        def membership(xs, fx, ys, lam):
            d = np.abs(ys - xs)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.abs(f.value(ys) - fx) > lam * d ** (1.0 + s)

    bps = np.asarray(f.breakpoints, dtype=float)
    levels, level_of = np.unique(lams, return_inverse=True)
    bounds = np.array([radial_bounds(f, float(v), s) for v in levels]).reshape(-1, 2)
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
        return signed_member_mass(
            membership, xs[rows], fx[rows], lams[rows], radii, gamma, extend[rows]
        )

    vals, r_min = np.zeros(xs.size), np.full(xs.size, math.inf)
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
        r_min[far] = np.maximum(lo[far], reach)
    return vals, r_min


def sampled_inner_integral(f, x, lam, cfg: DiffQuotConfig, membership=None):
    """The inner integral of ``diffquot.inner_integral`` by radial sampling,
    the reference of its exact runs, with ``membership(xs, fx, ys, lam)``
    deciding pairs elementwise on broadcast arrays (fx = f(xs), lam the
    nodes' levels), or the level set where None.  Each f's nodes take one
    `sampled_shells` call, and the runs of ``all_runs`` past each node's
    r_min add the far tails exactly.  f and x are as ``inner_integral``
    takes them, and each node's value is bit for bit what it is alone."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lams = np.full(xs.shape, lam, dtype=float)
    fs, of = _functions(f, xs.size)
    vals, fx, r_min = np.zeros(xs.size), np.empty(xs.size), np.empty(xs.size)
    for k in np.unique(of).tolist():
        at = np.flatnonzero(of == k)
        fx[at] = fs[k].value(xs[at])
        vals[at], r_min[at] = sampled_shells(fs[k], xs[at], fx[at], lams[at], cfg, membership)
    rows = np.flatnonzero(r_min < math.inf)
    continuous = np.array([math.isfinite(g.lipschitz) for g in fs])
    node, _, r1, r2 = all_runs(
        _stacked_lines(fs), continuous, of[rows], xs[rows], fx[rows], lams[rows], cfg.s,
        cfg.gamma, r_min[rows],
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.where(r2 > r1, (r2**cfg.gamma - r1**cfg.gamma) / cfg.gamma, 0.0)
    vals[rows] += np.bincount(node, weights=mass, minlength=rows.size)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def rowwise_panels(v: np.ndarray, spans) -> list[tuple[float, float]]:
    """(fine, |fine - coarse|) of each span from its row of 21 integrand
    values in the column order of ``quadrature._panels`` (the 15 nodes, then
    the 7 less the centre both share, column 7), one row at a time by
    np.dot on a contiguous row, non-finite values taken as 0."""
    _, w7 = _gl(7)
    _, w15 = _gl(15)
    out = []
    for (lo, hi), row in zip(spans, np.asarray(v, dtype=float)):
        h = 0.5 * (hi - lo)
        row = np.where(np.isfinite(row), row, 0.0)
        fine = h * float(np.dot(w15, row[:15]))
        coarse = h * float(np.dot(w7, row[[15, 16, 17, 7, 18, 19, 20]]))
        out.append((fine, abs(fine - coarse)))
    return out


def scalar_power_mass(w: PowerWeight, lo: float, hi: float, s: float) -> float:
    """Integral of |x - c|^(a s) over [lo, hi] by scalar float arithmetic,
    as PowerWeight once computed it row by row; DomainError where it
    diverges."""
    if hi <= lo:
        return 0.0
    e = w.a * s
    c = w.center
    if e <= -1 and lo < c < hi:
        raise DomainError(f"|x-{c}|^{e} is not integrable across its center")
    if e <= -1 and (lo == c or hi == c):
        raise DomainError(f"|x-{c}|^{e} has endpoint singularity")
    if e == -1:  # log((near + (hi - lo)) / near), near the closer end's distance
        return math.log1p((hi - lo) / (c - hi if hi <= c else lo - c))

    def prim(d):  # integral of t^e over [0, d]
        return d ** (e + 1) / (e + 1)

    if hi <= c:
        return prim(c - lo) - prim(c - hi)
    if lo >= c:
        return prim(hi - c) - prim(lo - c)
    return prim(c - lo) + prim(hi - c)


def scalar_table_power_mass(w: TableWeight, lo: float, hi: float, s: float) -> float:
    """Integral of w^s over [lo, hi] for a table weight without zeros,
    segment by segment by scalar float arithmetic: the closed form of
    TableWeight.power_masses one row at a time, its bit-for-bit reference."""
    xs, ys = (a.tolist() for a in w._knots)
    ends = [-math.inf, *xs, math.inf]
    knots = zip([xs[0], *xs], [*xs, xs[-1]], [ys[0], *ys], [*ys, ys[-1]])
    total = 0.0
    for x0, x1, (xa, xb, ya, yb) in zip(ends, ends[1:], knots):
        u, v = max(lo, x0), min(hi, x1)
        if not v > u:
            continue
        if ya == yb or xa == xb:
            total += (v - u) * ya**s
            continue
        slope = abs(yb - ya) / (xb - xa)
        low = xa if ya <= yb else xb
        w0 = min(ya, yb) + slope * min(abs(u - low), abs(v - low))
        r = slope * (v - u) / w0
        e1 = s + 1.0
        phi = math.log1p(r) / r if e1 == 0.0 else math.expm1(e1 * math.log1p(r)) / (e1 * r)
        total += (v - u) * w0**s * phi
    return total


def _scalar_axis_power_mass(w: Weight, lo: float, hi: float, s: float) -> float:
    # the scalar mass of w^s of a weight on R without zeros
    if isinstance(w, PowerWeight):
        return scalar_power_mass(w, lo, hi, s)
    if isinstance(w, ConstantWeight):
        return w.c**s * max(0.0, hi - lo)
    assert isinstance(w, TableWeight)
    return scalar_table_power_mass(w, lo, hi, s)


def _scalar_ess_inf(w: Weight, lo: float, hi: float) -> float:
    """The ess inf of w over [lo, hi] by scalar steps: the closed forms of
    constant and power weights, and a table weight's minimum over two
    sampling grids and the knots inside the row, the form TableWeight.ess_inf
    once took and its bit-for-bit reference."""
    if isinstance(w, ConstantWeight):
        return w.c
    if isinstance(w, PowerWeight):
        c, a = w.center, w.a
        if a == 0:
            return 1.0
        if a > 0:
            if lo <= c <= hi:
                return 0.0
            return min(abs(lo - c), abs(hi - c)) ** a
        return max(abs(lo - c), abs(hi - c)) ** a
    inside = [b for b in w.breakpoints() if lo <= b <= hi]
    xs = np.concatenate([np.linspace(lo, hi, 513), np.linspace(lo, hi, 1025), inside])
    return float(np.min(w.value(xs)))


def scalar_ap_ratio(w: Weight, p: float, region) -> float:
    """The constant ratio of one region by scalar float arithmetic, as
    ap_ratio once computed it probe by probe: the mean of w over its ess inf
    at p = 1, otherwise the mean of w times the mean of w^(-1/(p-1)) to the
    p - 1, inf where that dual mass diverges.  Product weights multiply their
    per-axis ratios; a constant weight on R^n, n >= 2, gives 1.  Table
    weights are taken without zeros."""
    box = float_box(region)
    if w.n != 1:
        if isinstance(w, ConstantWeight):
            return 1.0
        out = 1.0
        for (lo, hi), f in zip(box, w.factors):
            out *= scalar_ap_ratio(f, p, (lo, hi))
        return out
    ((lo, hi),) = box
    mean = _scalar_axis_power_mass(w, lo, hi, 1.0) / (hi - lo)
    if p == 1:
        inf = _scalar_ess_inf(w, lo, hi)
        if inf == 0.0:
            return math.inf
        return mean / inf
    try:
        dual = _scalar_axis_power_mass(w, lo, hi, -1.0 / (p - 1.0)) / (hi - lo)
    except DomainError:
        return math.inf
    if not math.isfinite(dual):
        return math.inf
    return mean * dual ** (p - 1.0)


def per_probe_ap_ratios(w: Weight, p: float, probes: Sequence) -> np.ndarray:
    """ap_ratios with its (N, n, 2) boxes formed one float_box per probe, as
    it took every family before pair families became one NumPy call: the
    bit-for-bit reference of that call."""
    if isinstance(w, ConstantWeight) and w.n != 1:
        return np.ones(len(probes))
    box = np.array([float_box(q) for q in probes])
    factors = w.factors if isinstance(w, ProductWeight) else [w]
    out = _axis_ratios(factors[0], p, box[:, 0, 0], box[:, 0, 1])
    for i, f in enumerate(factors[1:], 1):
        out = out * _axis_ratios(f, p, box[:, i, 0], box[:, i, 1])
    return out


def maximal_value(w: Weight, x: float, radii: Sequence[float]) -> float:
    """Discretized centered/one-sided maximal function at x over given radii."""
    best = 0.0
    for u in radii:
        for v in radii:
            lo, hi = x - u, x + v
            best = max(best, w.mass((lo, hi)) / (hi - lo))
    return best


def check_ap_properties(
    w: Weight,
    p: float,
    probes: Sequence,
    sample_points: Sequence[float] = (),
) -> dict:
    """Run the three classical weight-constant checks, one VerificationRecord
    each; the certified records that fail are the findings.

    The estimate is the probe-family constant ap_constant(w, p, probes).
    (i)   p = 1: a discretized maximal-function value at each sample point is
          at most estimate * w(x), to ceiling 1.05; the 5% tolerance absorbs
          the mismatch between the probe-family estimate and the discretized
          supremum, which approach the true constant from below along
          different interval families.
    (ii)  doubling over measurable subsets: w(Q) <= estimate * (|Q|/|S|)^p w(S),
          to ceiling 1 + 1e-6, for unions S of dyadic subcubes of Q drawn
          from a generator seeded with 0.
    (iii) p > 1: the extremal test function w^{1-p'} reproduces the per-cube
          ratio through an independent arithmetic path, |extremal - direct|
          <= 1e-9 |direct|; a probe without a finite dual mass or direct
          ratio makes no record.
    The right sides of (i) and (ii) come from ApEstimate.bound.  Against an
    unbounded estimate they certify nothing: such a record is counted in
    ``vacuous``, never becomes a finding or a pass, and ``certified`` is
    False.  ``checks`` counts the records of each name.
    """
    rng = np.random.default_rng(0)
    est = ap_constant(w, p, probes)
    records = []

    def add(name, lhs, rhs, ceiling, certified, **details):
        records.append(VerificationRecord(name, lhs, rhs, ceiling, certified, details))

    if p == 1:
        radii = [2.0**k for k in range(-8, 5)]
        for x in sample_points:
            mv = maximal_value(w, x, radii)
            vx = float(w.value(np.array([x]))[0])
            rhs, certified = est.bound(vx, 1.0)
            add("maximal", mv, rhs, 1.05, certified, x=x)

    for q in probes:
        ((lo, hi),) = float_box(q)
        length = hi - lo
        wq = w.mass((lo, hi))
        for _ in range(3):
            # random union of depth-2 dyadic subintervals
            k = int(rng.integers(1, 4))
            picks = sorted(rng.choice(4, size=k, replace=False))
            s_mass, s_len = 0.0, 0.0
            for i in picks:
                a0 = lo + i * length / 4
                s_mass += w.mass((a0, a0 + length / 4))
                s_len += length / 4
            rhs, certified = est.bound((length / s_len) ** p * s_mass, 1.0)
            add("doubling", wq, rhs, 1.0 + 1e-6, certified, interval=(lo, hi))

    if p > 1:
        pprime = p / (p - 1.0)
        direct_ratios = ap_ratios(w, p, probes).tolist()
        for q, direct in zip(probes, direct_ratios):
            ((lo, hi),) = float_box(q)
            dual_mass = float(w.power_masses(np.array([lo]), np.array([hi]), 1.0 - pprime)[0])
            if not math.isfinite(dual_mass) or dual_mass <= 0:
                continue
            if not math.isfinite(direct):
                continue
            mean_f = dual_mass / (hi - lo)
            # extremal f = w^{1-p'}: integral of |f|^p w equals dual_mass
            extremal = mean_f**p * w.mass((lo, hi)) / dual_mass
            gap = abs(extremal - direct)
            add("dual", gap, abs(direct), 1e-9, True, interval=(lo, hi))

    return {
        "estimate": est.value,
        "p": p,
        "findings": [r for r in records if r.certified and not r.passed],
        "checks": {
            name: sum(r.name == name for r in records)
            for name in ("maximal", "doubling", "dual")
        },
        "certified": all(r.certified for r in records),
        "vacuous": sum(not r.certified for r in records),
    }


@functools.cache
def prim_offsets(f: TestFunction) -> np.ndarray:
    """The constant added to ``Piece.prim`` on each piece of f that makes the
    antiderivative continuous, 0 on the first piece; kept per f, as the
    ball-mean membership asks for it at every bisection step."""
    offs = [0.0]
    for left, right in zip(f.pieces, f.pieces[1:]):
        x = left.x1
        offs.append(offs[-1] + float(left.prim(x)) - float(right.prim(x)))
    return np.array(offs)


def primitive(f: TestFunction, x):
    """The continuous antiderivative of f from its piece table: the Horner
    rows of ``Piece.prim``, then one step that adds each piece's offset."""
    off = prim_offsets(f)
    return f._table(
        x, np.vstack([f._prim_rows, off]), lambda p, x: p.prim(x) + off[f.pieces.index(p)]
    )


# The ball of the ball-mean membership has radius |x-y| / BALL.
BALL = 20.0


def ball_mean(f, centers, radii) -> np.ndarray:
    """Average of the one-dimensional f over (c - r, c + r) for each center c
    and radius r, given as arrays of one shape, by the primitive of f.

    The difference of primitives cancels: its rounding error is about
    eps |F(c)| / r, 3.8e-8 on the tent at c = 0.403 + 3e-9, r = 1.5e-10,
    where |f(x) - f(c)| is 3e-9, so membership at such radii is decided by
    rounding."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    masses = primitive(f, centers + radii) - primitive(f, centers - radii)
    return masses / (2.0 * radii)


def ball_mean_membership(f, b: float):
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


def point_domination_check(
    f, weight: Weight, p: float, q: float, beta: float, lam: float, window, eps: float
) -> VerificationRecord:
    """Ball-mean level-set functional against a truncated sum of shifted-grid
    oscillation functionals at geometrically growing thresholds.

    Informational: the constant is the observed ratio, so any finite ratio
    passes and only an inconclusive truncation fails.  The left side uses
    membership |f(x) - mean over B(y, |x-y|/20)| > lam |x-y|^(1 + n(beta-1/p)),
    through `sampled_inner_integral`; the right side sums
    2^(j n (beta p - 1)) times the oscillation functional at threshold
    lam(j) = lam * 2^(j (1 + n(beta-1/p) - eps)) over the three shifted
    grids, for j = 0..10; the reported tail estimate flags under-truncation.
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
        p=p, q=q, gamma=q * b, weight=weight,
        window=(float(window.box[0][0]), float(window.box[0][1])), exploratory=True,
    )
    lo, hi = cfg.window
    bps = list(getattr(f, "breakpoints", ())) + list(weight.breakpoints())
    membership = ball_mean_membership(f, b)

    def outer(xs, _owner):
        inner = sampled_inner_integral(f, xs, lam, cfg, membership)
        return inner ** (p / q) * weight.value(xs)

    [(lhs, met)] = adaptive_quads(outer, [(lo, hi, 1e-4, bps, 200)])
    if not met:
        _warn_at_split_cap("point_domination left side", f, lam)

    # one level-set mass per threshold lam_j
    arr = window.arrays
    levels = LevelMass.of_cubes(
        omega_boxes(f, arr.lo, arr.hi), window.n * arr.j, weight.masses(arr.lo, arr.hi),
        beta + 1.0 - 1.0 / p, beta * p - 1.0,
    )
    lam_js = [lam * 2.0 ** (j * (1.0 + n * (beta - 1.0 / p) - eps)) for j in range(11)]
    _, ssums = levels.above(lam_js)
    terms = [2.0 ** (j * n * (beta * p - 1.0)) * float(ssum) for j, ssum in enumerate(ssums)]
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
        name="point_domination", lhs=lhs, rhs=rhs, ceiling=sys.float_info.max,
        certified=not inconclusive,
        details={
            "inconclusive": inconclusive, "tail_estimate": tail, "terms": terms,
            "eps": eps, "beta": beta, "key": (n, beta, p, q),
        },
    )
    rec.details["calibrated_c"] = rec.ratio
    return rec


def contains_point(q: Cube, x: Sequence[Fraction]) -> bool:
    return all(lo <= xi < lo + q.edge for lo, xi in zip(q.lower(), x))


def sparse_chain_check(
    oms, lam: float, beta: float, p: float, r: float, window: GridWindow, sample_points
) -> dict:
    """At each sample x, the level-set cubes containing x form a chain whose
    |Q|^{r(beta-1/p)} sum is controlled by the extreme cube via the geometric
    series 1/(1 - 2^{-n r |beta - 1/p|}), up to a relative REL_TOL.  The
    level set is read from the omega values ``oms`` of f in the row order of
    ``window.arrays``.
    """
    if beta == 1.0 / p:
        raise ValueError("beta = 1/p is excluded")
    n = window.n
    dev = beta - 1.0 / p
    members, _ = level_set(oms, window, lam, beta + 1.0 - 1.0 / p)
    geom = 1.0 / (1.0 - 2.0 ** (-n * r * abs(dev)))
    results = []
    for x in sample_points:
        pt = (Fraction(x).limit_denominator(10**9),) * n if n == 1 else x
        chain = [q for q in members if contains_point(q, pt)]
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
            rec = VerificationRecord("sparse_chain", total, bound, 1.0 + REL_TOL, True)
            results.append(
                {"x": x, "shift": thirds, "chain_len": len(cs), "sum": total,
                 "bound": bound, "ok": rec.passed}
            )
    checked = [r_ for r_ in results if not r_.get("skipped")]
    return {
        "lam": lam,
        "geometric_factor": geom,
        "calibrated_constant": abs(dev) * geom,
        "results": results,
        "all_ok": all(r_["ok"] for r_ in checked) if checked else True,
        "n_checked": len(checked),
        "n_skipped": len(results) - len(checked),
    }


def _pow2(j: int) -> Fraction:
    return Fraction(2) ** j


def _forced_generation(edge: Fraction) -> int:
    # unique t with 2^t in (3*edge/2, 3*edge]
    target = 3 * edge
    t = target.numerator.bit_length() - target.denominator.bit_length()
    # 2^t <= target < 2^(t+2); fix up to the half-open window
    while _pow2(t) > target:
        t -= 1
    while _pow2(t + 1) <= target:
        t += 1
    assert 2 * _pow2(t) > target >= _pow2(t)
    return t


def dominating_set(p: AxisCube) -> list[Cube]:
    """All shifted dyadic cubes containing p with edge in (3e/2, 3e], their
    shifts in lexicographic order of thirds.  The index and the containment
    are decided on integers, every length in units of 1 / (3 D 2^a), with D
    the common denominator of p's corner and edge and 2^a that of 2^t."""
    t = _forced_generation(p.edge)
    sgn = 1 if t % 2 == 0 else -1
    den = math.lcm(p.edge.denominator, *(lo.denominator for lo in p.lower_corner))
    a = max(0, -t)
    # p's corner and edge, and a third of the grid's edge 2^t, in those units
    corner = [lo.numerator * (den // lo.denominator) * 3 << a for lo in p.lower_corner]
    edge = p.edge.numerator * (den // p.edge.denominator) * 3 << a
    third = den << (t + a)
    out = []
    for shift in all_shifts(p.n):
        m = tuple((c - sgn * ti * third) // (3 * third) for c, ti in zip(corner, shift.thirds))
        lower = [(3 * mi + sgn * ti) * third for mi, ti in zip(m, shift.thirds)]
        if all(ql <= c and c + edge <= ql + 3 * third for ql, c in zip(lower, corner)):
            out.append(Cube(shift, t, m))
    return out


def dominating_cube(p: AxisCube) -> tuple[Shift, Cube]:
    """Some shifted dyadic cube Q with p inside Q and edge(Q) in (3e/2, 3e]:
    the first of `dominating_set`; one exists at the forced generation."""
    q = dominating_set(p)[0]
    return q.shift, q


def dom_multiplicity(base: Sequence[AxisCube], k: Fraction) -> int:
    """Max overlap count of dominating cubes over a K-scaled disjoint family.

    ``base`` must be pairwise disjoint cubes of one common edge length; the
    family examined is their concentric rescaling by k.  Returns
    max over P in Dom(S) of #{Q in S : P in Dom(Q)}, which is at most 3^n k^n.
    """
    if not base:
        raise ValueError("empty family")
    k = Fraction(k)
    counts: dict[tuple, int] = {}
    for b in base:
        half = b.edge / 2
        scaled = AxisCube(tuple(lo + half - k * half for lo in b.lower_corner), k * b.edge)
        for q in dominating_set(scaled):
            key = (q.shift.thirds, q.j, q.m)
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values())


def coefficient(f, system: WaveletSystem, idx: AtomIndex, dual_p: float = 1.0) -> float:
    """Lebesgue pairing of f with the L^dual_p-normalized atom, one atom at a
    time: the per-atom oracle of `wavelet.coefficients`.

    The atom is exact at its sample grid; f is evaluated there and both are
    treated as piecewise linear between samples, so the cell integrals are
    closed forms.
    """
    samples = base(system, idx.e)
    scale = 2.0**idx.j
    us = np.arange(len(samples)) * system.dx
    xs = (us + idx.k) / scale
    fv = f.value(xs)
    a0, a1, b0, b1 = fv[:-1], fv[1:], samples[:-1], samples[1:]
    cells = a0 * b0 + 0.5 * (a0 * (b1 - b0) + b0 * (a1 - a0)) + (a1 - a0) * (b1 - b0) / 3.0
    amp = 2.0 ** (idx.j / dual_p)  # L^p amplitude at n = 1
    return amp * (float(np.sum(cells) * system.dx) / scale)


class Relation(enum.Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    P_INSIDE_Q = "p_inside_q"
    Q_INSIDE_P = "q_inside_p"
    INCOMPARABLE = "incomparable"


def relate(p: Cube, q: Cube) -> Relation:
    """Set relation of two cubes, decided on their integer corners at the
    finer generation j0: a generation-j corner c is c << (j - j0) there,
    and the edge 3 << (j - j0).  The one-pair reference of the containment
    arrays of the good-cube families.

    Same-shift pairs always land in the first four cases (nesting trichotomy);
    cross-shift pairs may be INCOMPARABLE.
    """
    if p.n != q.n:
        raise DimensionError("cubes must share dimension")
    j0 = min(p.j, q.j)
    dp, dq = p.j - j0, q.j - j0
    plo = [c << dp for c in p.corner()]
    qlo = [c << dq for c in q.corner()]
    pe, qe = 3 << dp, 3 << dq
    pairs = list(zip(plo, qlo))
    if any(a + pe <= b or b + qe <= a for a, b in pairs):
        return Relation.DISJOINT
    if plo == qlo and pe == qe:
        return Relation.EQUAL
    if all(b <= a and a + pe <= b + qe for a, b in pairs):
        return Relation.P_INSIDE_Q
    if all(a <= b and b + qe <= a + pe for a, b in pairs):
        return Relation.Q_INSIDE_P
    return Relation.INCOMPARABLE


def parent(q: Cube) -> Cube:
    """The unique same-shift cube of generation j+1 containing q.

    Uses that 3*alpha is integral, so the index arithmetic never leaves Z^n.
    """
    jp = q.j + 1
    sgn = 1 if jp % 2 == 0 else -1
    mp = []
    for mi, ti in zip(q.m, q.shift.thirds):
        num = mi - sgn * ti
        mp.append((num - (num % 2)) // 2)
    return Cube(q.shift, jp, tuple(mp))


def fraction_relate(p: Cube, q: Cube) -> Relation:
    """Set relation of two cubes by comparing their Fraction corners: the
    reference of relate, which compares integer corners."""
    plo, qlo = p.lower(), q.lower()
    phi = tuple(l + p.edge for l in plo)
    qhi = tuple(l + q.edge for l in qlo)
    for i in range(p.n):
        if phi[i] <= qlo[i] or qhi[i] <= plo[i]:
            return Relation.DISJOINT
    if plo == qlo and p.edge == q.edge:
        return Relation.EQUAL
    if all(qlo[i] <= plo[i] and phi[i] <= qhi[i] for i in range(p.n)):
        return Relation.P_INSIDE_Q
    if all(plo[i] <= qlo[i] and qhi[i] <= phi[i] for i in range(p.n)):
        return Relation.Q_INSIDE_P
    return Relation.INCOMPARABLE


def fraction_cube_at(shift: Shift, j: int, point: Sequence[Fraction]) -> Cube:
    """The generation-j cube containing ``point`` by a Fraction floor,
    floor(x / 2^j - (-1)^j t / 3) per axis: the reference of grid.cube_at
    and axis_index."""
    h = _pow2(j)
    sgn = 1 if j % 2 == 0 else -1
    m = tuple(
        math.floor(Fraction(x) / h - Fraction(sgn * t, 3))
        for x, t in zip(point, shift.thirds)
    )
    return Cube(shift, j, m)
