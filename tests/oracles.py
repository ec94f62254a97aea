"""Oracles and helpers used only by the tests: pointwise membership in the
difference-quotient level sets, one pair (x, y) at a time by scalar
arithmetic; value oracles and norms of single wavelet atoms; the masked
wavelet cascade; results.csv spelled cell by cell; omega of a non-linear
function one interval at a time, over its monotone parts; the closed form
of omega for an indicator; the exhaustive antichain search; and the
classical weight-constant checks with the discretized maximal function."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from dyadicweights.cli import _fmt
from dyadicweights.diffquot import ball_mean
from dyadicweights.funcspace import _CATALOG, Piece, TestFunction
from dyadicweights.grid import AxisCube, Cube, Relation, float_box, relate
from dyadicweights.oscillation import cube_weight
from dyadicweights.quadrature import _gl, adaptive_quad
from dyadicweights.records import VerificationRecord
from dyadicweights.wavelet import (
    AtomIndex,
    WaveletSystem,
    _integer_values,
    _norms,
    atom_weights,
    daubechies_filter,
)
from dyadicweights.weights import DomainError, Weight, ap_constant, ap_ratio


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


def sample_value(system: WaveletSystem, e: int, u: np.ndarray) -> np.ndarray:
    """Linear interpolation of the sampled mother function (phi at e = 0,
    psi at e = 1) at points u, 0 off its support."""
    arr = system.base(e)
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
    base = system.base(idx.e)
    if math.isinf(p):
        return float(np.max(np.abs(base)))
    return float(np.sum(np.abs(base) ** p) * system.dx) ** (1.0 / p)


def seq_norms(atoms, values: np.ndarray, beta: float, w: Weight, p: float) -> tuple[float, float]:
    """Strong and weak weighted sequence norms of a finite coefficient family.

    Entry weights are |I|^(beta-1) v(I).  The weak norm is
    (sup over lam of lam^p * weight of entries with |a| > lam)^(1/p); the
    supremum is attained at coefficient magnitudes, so it is exact for finite
    families.
    """
    return _norms(atom_weights(atoms, beta, w), values, p)


def exact_coefficient(f, system: WaveletSystem, idx: AtomIndex) -> float:
    """The pairing ``wavelet.coefficient`` forms at dual_p = 1, in exact
    arithmetic: f's polynomial pieces, their float coefficients in powers
    of x minus the piece's anchor taken exactly, at the atom's sample
    abscissae, against the atom's samples, both linearly interpolated
    between samples."""
    base = [Fraction(v) for v in system.base(idx.e)]
    dx = Fraction(system.dx)
    fv = []
    for i in range(len(base)):
        x = (i * dx + idx.k) / 2**idx.j
        piece = f.pieces[int(np.searchsorted(f._edges, float(x), side="right"))]
        t = x - Fraction(piece.anchor)
        fv.append(sum(Fraction(c) * t**k for k, c in enumerate(piece.data)))
    total = Fraction(0)
    for a0, a1, b0, b1 in zip(fv, fv[1:], base, base[1:]):
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


def maximal_value(w: Weight, x: float, radii: Sequence[float]) -> float:
    """Discretized centered/one-sided maximal function at x over given radii."""
    best = 0.0
    for u in radii:
        for v in radii:
            best = max(best, w.mean((x - u, x + v)))
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
        wq = w.interval_mass(lo, hi)
        for _ in range(3):
            # random union of depth-2 dyadic subintervals
            k = int(rng.integers(1, 4))
            picks = sorted(rng.choice(4, size=k, replace=False))
            s_mass, s_len = 0.0, 0.0
            for i in picks:
                a0 = lo + i * length / 4
                s_mass += w.interval_mass(a0, a0 + length / 4)
                s_len += length / 4
            rhs, certified = est.bound((length / s_len) ** p * s_mass, 1.0)
            add("doubling", wq, rhs, 1.0 + 1e-6, certified, interval=(lo, hi))

    if p > 1:
        pprime = p / (p - 1.0)
        for q in probes:
            ((lo, hi),) = float_box(q)
            try:
                dual_mass = w.interval_power_mass(lo, hi, 1.0 - pprime)
            except DomainError:
                continue
            if not math.isfinite(dual_mass) or dual_mass <= 0:
                continue
            direct = ap_ratio(w, p, (lo, hi))
            if not math.isfinite(direct):
                continue
            mean_f = dual_mass / (hi - lo)
            # extremal f = w^{1-p'}: integral of |f|^p w equals dual_mass
            extremal = mean_f**p * w.interval_mass(lo, hi) / dual_mass
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
