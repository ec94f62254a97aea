"""Oracles and helpers used only by the tests: pointwise membership in the
difference-quotient level sets, one pair (x, y) at a time by scalar
arithmetic; value oracles and norms of single wavelet atoms; omega of a
non-linear function one interval at a time, over its monotone parts; the
closed form of omega for an indicator; and the exhaustive antichain
search."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dyadicweights.diffquot import ball_mean
from dyadicweights.funcspace import _CATALOG, Piece, TestFunction
from dyadicweights.grid import AxisCube, Cube, Relation, float_box, relate
from dyadicweights.oscillation import cube_weight
from dyadicweights.quadrature import _gl, adaptive_quad
from dyadicweights.wavelet import AtomIndex, WaveletSystem, _norms, atom_weights
from dyadicweights.weights import Weight


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
    arithmetic: f's polynomial pieces, their float coefficients taken
    exactly, at the atom's sample abscissae, against the atom's samples,
    both linearly interpolated between samples."""
    base = [Fraction(v) for v in system.base(idx.e)]
    dx = Fraction(system.dx)
    fv = []
    for i in range(len(base)):
        x = (i * dx + idx.k) / 2**idx.j
        piece = f.pieces[int(np.searchsorted(f._edges, float(x), side="right"))]
        fv.append(sum(Fraction(c) * x**k for k, c in enumerate(piece.data)))
    total = Fraction(0)
    for a0, a1, b0, b1 in zip(fv, fv[1:], base, base[1:]):
        total += a0 * b0 + (a0 * (b1 - b0) + b0 * (a1 - a0)) / 2 + (a1 - a0) * (b1 - b0) / 3
    return float(total * dx)  # the amplitude 2^j and the scale 2^-j cancel


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
            roots = np.polynomial.polynomial.polyroots(slope).real
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
