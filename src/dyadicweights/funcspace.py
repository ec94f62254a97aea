"""Test functions with gradient oracles and the renormalized oscillation
integral

    omega_Q(f) = |Q|^(-1-1/n) * Int_Q Int_Q |f(x) - f(y)| dx dy.

Catalog functions are piecewise polynomial or piecewise power with
closed-form antiderivatives, so weighted gradient norms have exact paths and
omega is exact on every cube for every one-dimensional catalog function;
tensor functions (n >= 2) are sampled on the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from dyadicweights.grid import Cube, GridWindow
from dyadicweights.quadrature import _gl, adaptive_quad
from dyadicweights.weights import ConstantWeight, PowerWeight, Weight


@dataclass
class Quadrature:
    """Sampling policy of the box-sampled omega path."""

    rel_tol: float = 1e-7
    max_nodes: int = 1 << 18


# ---------------------------------------------------------------------------
# piecewise-defined one-dimensional functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One definition piece on [x0, x1); kind 'poly' or 'power'.

    poly:  data = coefficient tuple (c0, c1, ...), f(x) = sum c_k x^k
    power: data = (coef, expo, center), f(x) = coef * (x - center)^expo,
           valid for x >= center only.
    """

    x0: float
    x1: float
    kind: str
    data: tuple

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(x)
            for c in reversed(self.data):
                out = out * x + c
            return out
        coef, e, c = self.data
        return coef * np.maximum(x - c, 0.0) ** e

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(x)
            for k in range(len(self.data) - 1, 0, -1):
                out = out * x + k * self.data[k]
            return out
        coef, e, c = self.data
        d = np.maximum(x - c, 1e-300)
        return coef * e * d ** (e - 1.0)

    def prim(self, x):
        """Local antiderivative of f (constant of integration arbitrary)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(x)
            for k in range(len(self.data) - 1, -1, -1):
                out = out * x + self.data[k] / (k + 1)
            return out * x
        coef, e, c = self.data
        return coef * np.maximum(x - c, 0.0) ** (e + 1.0) / (e + 1.0)

    def xprim(self, x):
        """Local antiderivative of t*f(t)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            # integral of sum c_k t^(k+1)
            out = np.zeros_like(x)
            for k in range(len(self.data) - 1, -1, -1):
                out = out * x + self.data[k] / (k + 2)
            return out * x * x
        coef, e, c = self.data
        d = np.maximum(x - c, 0.0)
        return coef * (d ** (e + 2.0) / (e + 2.0) + c * d ** (e + 1.0) / (e + 1.0))

    def is_linear(self) -> bool:
        return self.kind == "poly" and len(self.data) <= 2

    def as_linear(self) -> tuple[float, float]:
        c = tuple(self.data) + (0.0, 0.0)
        return c[1], c[0]  # slope, intercept


class TestFunction:
    """Piecewise function on R with value, a.e. derivative, and exact helpers."""

    def __init__(
        self,
        pieces: Sequence[Piece],
        name: str = "f",
        params: dict | None = None,
        monotone: bool = False,
        lipschitz: float = math.inf,
        grad_radius: float = math.inf,
        value_bound: float = math.inf,
    ):
        self.pieces = sorted(pieces, key=lambda p: p.x0)
        if self.pieces[0].x0 != -math.inf or self.pieces[-1].x1 != math.inf:
            raise ValueError("pieces must cover the whole line")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.x1 != b.x0:
                raise ValueError("pieces must be contiguous")
        self.n = 1
        self.name = name
        self.params = dict(params or {})
        self.monotone = monotone
        self.lipschitz = lipschitz
        self.grad_radius = grad_radius
        self.value_bound = value_bound
        self._edges = np.array([p.x1 for p in self.pieces[:-1]])
        self._prim_off = self._offsets(lambda p, x: p.prim(x))
        self._xprim_off = self._offsets(lambda p, x: p.xprim(x))

    def _offsets(self, local):
        # cumulative constants making the antiderivative continuous
        offs = [0.0]
        for left, right in zip(self.pieces, self.pieces[1:]):
            x = left.x1
            offs.append(
                offs[-1] + float(local(left, x)) - float(local(right, x))
            )
        return np.array(offs)

    def _apply(self, x, fn, offsets=None):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self._edges, arr, side="right")
        out = np.empty_like(arr)
        for i, p in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                val = fn(p, arr[mask])
                if offsets is not None:
                    val = val + offsets[i]
                out[mask] = val
        if np.isscalar(x) or np.ndim(x) == 0:
            return out.reshape(np.shape(x)) if np.ndim(x) else out[0]
        return out.reshape(np.shape(x))

    def value(self, x):
        return self._apply(x, lambda p, t: p.eval(t))

    def grad(self, x):
        return self._apply(x, lambda p, t: p.deriv(t))

    def primitive(self, x):
        return self._apply(x, lambda p, t: p.prim(t), self._prim_off)

    def xprimitive(self, x):
        return self._apply(x, lambda p, t: p.xprim(t), self._xprim_off)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(float(e) for e in self._edges)

    def linear_only_on(self, a: float, b: float) -> bool:
        return all(
            p.is_linear() for p in self.pieces if p.x1 > a and p.x0 < b
        )

    def segments(self, a: float, b: float) -> list[tuple[float, float, float, float]]:
        """Linear segments (x0, x1, slope, intercept) covering [a, b]."""
        out = []
        for p in self.pieces:
            lo, hi = max(a, p.x0), min(b, p.x1)
            if hi <= lo:
                continue
            if not p.is_linear():
                raise ValueError("segments() requires linear pieces on the range")
            s, c = p.as_linear()
            out.append((lo, hi, s, c))
        return out

    def __repr__(self):
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({ps})"


class TensorFunction:
    """Tensor product of one-dimensional test functions (n >= 2)."""

    def __init__(self, factors: Sequence[TestFunction], name: str = "tensor"):
        self.factors = list(factors)
        self.n = len(self.factors)
        self.name = name
        self.params = {}
        self.monotone = False
        self.lipschitz = math.inf
        bounds = [f.value_bound for f in self.factors]
        lips = [f.lipschitz for f in self.factors]
        if all(math.isfinite(b) for b in bounds) and all(
            math.isfinite(l) for l in lips
        ):
            self.lipschitz = max(
                lips[i] * np.prod([bounds[j] for j in range(self.n) if j != i])
                for i in range(self.n)
            ) * math.sqrt(self.n)
        self.grad_radius = max(f.grad_radius for f in self.factors)
        self.value_bound = float(np.prod(bounds))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for i, f in enumerate(self.factors):
            out = out * f.value(x[..., i])
        return out

    def grad_norm(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for i, f in enumerate(self.factors):
            gi = f.grad(x[..., i])
            for j, g in enumerate(self.factors):
                if j != i:
                    gi = gi * g.value(x[..., j])
            total += gi**2
        return np.sqrt(total)

    def __repr__(self):
        return f"{self.name}({'x'.join(f.name for f in self.factors)})"


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _smoothstep_coeffs(lo: float, width: float, rising: bool) -> tuple:
    """Cubic 3u^2 - 2u^3 on u = (x-lo)/width, expanded in x (or mirrored)."""
    w = width
    # s(u) = 3u^2 - 2u^3, u = (x - lo)/w
    c2, c3 = 3.0 / w**2, -2.0 / w**3
    # expand around x: u^2 -> (x-lo)^2/w^2 etc.
    a0 = c2 * lo**2 - c3 * lo**3
    a1 = -2 * c2 * lo + 3 * c3 * lo**2
    a2 = c2 - 3 * c3 * lo
    a3 = c3
    if rising:
        return (a0, a1, a2, a3)
    return (1.0 - a0, -a1, -a2, -a3)


def constant(c: float = 0.0) -> TestFunction:
    return TestFunction(
        [Piece(-math.inf, math.inf, "poly", (float(c),))],
        name="constant",
        params={"c": c},
        monotone=True,
        lipschitz=0.0,
        grad_radius=0.0,
        value_bound=abs(c),
    )


def linear(slope: float = 1.0) -> TestFunction:
    return TestFunction(
        [Piece(-math.inf, math.inf, "poly", (0.0, float(slope)))],
        name="linear",
        params={"slope": slope},
        monotone=slope >= 0,
        lipschitz=abs(slope),
        grad_radius=math.inf,
        value_bound=math.inf,
    )


def linear_ramp(
    slope: float = 1.0, cutoff: float | None = 10.0, center: float = 0.0
) -> TestFunction:
    """f(x) = slope * (x - center) clamped at distance cutoff from center;
    cutoff None means the unclamped linear function."""
    if cutoff is None:
        if center != 0.0:
            raise ValueError("center requires a finite cutoff")
        return linear(slope)
    s, r, c = float(slope), float(cutoff), float(center)
    if r <= 0:
        raise ValueError("cutoff must be positive")
    return TestFunction(
        [
            Piece(-math.inf, c - r, "poly", (-s * r,)),
            Piece(c - r, c + r, "poly", (-s * c, s)),
            Piece(c + r, math.inf, "poly", (s * r,)),
        ],
        name="linear_ramp",
        params={"slope": slope, "cutoff": cutoff, "center": center},
        monotone=s >= 0,
        lipschitz=abs(s),
        grad_radius=abs(c) + r,
        value_bound=abs(s) * r,
    )


def tent() -> TestFunction:
    """Height-1 tent on (0, 2) with slopes +1 and -1."""
    return TestFunction(
        [
            Piece(-math.inf, 0.0, "poly", (0.0,)),
            Piece(0.0, 1.0, "poly", (0.0, 1.0)),
            Piece(1.0, 2.0, "poly", (2.0, -1.0)),
            Piece(2.0, math.inf, "poly", (0.0,)),
        ],
        name="tent",
        params={},
        monotone=False,
        lipschitz=1.0,
        grad_radius=2.0,
        value_bound=1.0,
    )


def indicator(a: float = 0.0, b: float = 1.0) -> TestFunction:
    """1 on (a, b); not weakly differentiable, for mean-type functionals."""
    if b <= a:
        raise ValueError("need a < b")
    return TestFunction(
        [
            Piece(-math.inf, float(a), "poly", (0.0,)),
            Piece(float(a), float(b), "poly", (1.0,)),
            Piece(float(b), math.inf, "poly", (0.0,)),
        ],
        name="indicator",
        params={"a": a, "b": b},
        monotone=False,
        lipschitz=math.inf,
        grad_radius=max(abs(a), abs(b)),
        value_bound=1.0,
    )


def smoothed_indicator(width: float = 0.25, a: float = 0.0, b: float = 1.0) -> TestFunction:
    """C^1 cubic-edged plateau: 1 on [a, b], 0 outside (a - width, b + width)."""
    w = float(width)
    if w <= 0 or b <= a:
        raise ValueError("need width > 0 and a < b")
    return TestFunction(
        [
            Piece(-math.inf, a - w, "poly", (0.0,)),
            Piece(a - w, a, "poly", _smoothstep_coeffs(a - w, w, rising=True)),
            Piece(a, b, "poly", (1.0,)),
            Piece(b, b + w, "poly", _smoothstep_coeffs(b, w, rising=False)),
            Piece(b + w, math.inf, "poly", (0.0,)),
        ],
        name="smoothed_indicator",
        params={"width": width, "a": a, "b": b},
        monotone=False,
        lipschitz=1.5 / w,
        grad_radius=max(abs(a - w), abs(b + w)),
        value_bound=1.0,
    )


def sharp1_bump() -> TestFunction:
    """C^1 bump squeezed between the indicators of (0,1) and (-1,2)."""
    f = smoothed_indicator(width=1.0, a=0.0, b=1.0)
    f.name = "sharp1_bump"
    f.params = {}
    return f


def sharp2_fdelta(delta: float) -> TestFunction:
    """x -> integral over (-inf, x] of t^(delta-1) 1_(0,1)(t) dt."""
    d = float(delta)
    if not 0 < d < 1:
        raise ValueError("delta must lie in (0, 1)")
    return TestFunction(
        [
            Piece(-math.inf, 0.0, "poly", (0.0,)),
            Piece(0.0, 1.0, "power", (1.0 / d, d, 0.0)),
            Piece(1.0, math.inf, "poly", (1.0 / d,)),
        ],
        name="sharp2_fdelta",
        params={"delta": delta},
        monotone=True,
        lipschitz=math.inf,
        grad_radius=1.0,
        value_bound=1.0 / d,
    )


def sharp3_fbeta(beta: float, p: float) -> TestFunction:
    """x -> integral of t^(beta-1/p) 1_(0,1)(t) dt; needs beta in (1/p-1, 1/p)."""
    eps = beta + 1.0 - 1.0 / p
    if not 0 < eps < 1:
        raise ValueError("beta must lie in (1/p - 1, 1/p)")
    f = sharp2_fdelta(eps)
    f.name = "sharp3_fbeta"
    f.params = {"beta": beta, "p": p}
    return f


def tensor_tent() -> TensorFunction:
    return TensorFunction([tent(), tent()], name="tensor_tent")


_CATALOG: dict[str, Callable] = {
    "constant": constant,
    "linear": linear,
    "linear_ramp": linear_ramp,
    "tent": tent,
    "indicator": indicator,
    "smoothed_indicator": smoothed_indicator,
    "sharp1_bump": sharp1_bump,
    "sharp2_fdelta": sharp2_fdelta,
    "sharp3_fbeta": sharp3_fbeta,
    "tensor_tent": tensor_tent,
}


def catalog(name: str, **params):
    """Build a named catalog function; raises KeyError for unknown names."""
    return _CATALOG[name](**params)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


# ---------------------------------------------------------------------------
# omega: exact paths
# ---------------------------------------------------------------------------


def _abs_moment(z: float, t0: float, t1: float) -> float:
    """Integral of |z - t| dt over [t0, t1] (t0 <= t1)."""
    if z <= t0:
        return 0.5 * (t1 * t1 - t0 * t0) - z * (t1 - t0)
    if z >= t1:
        return z * (t1 - t0) - 0.5 * (t1 * t1 - t0 * t0)
    return 0.5 * ((z - t0) ** 2 + (t1 - z) ** 2)


def _abs_moment_int(u0: float, u1: float, t0: float, t1: float) -> float:
    """Integral over u in [u0, u1] of (integral of |u - t| dt over [t0, t1])."""
    total = 0.0
    cuts = [u0, min(max(t0, u0), u1), min(max(t1, u0), u1), u1]
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        if mid <= t0:
            A = 0.5 * (t1 * t1 - t0 * t0)
            B = t1 - t0
            total += A * (b - a) - 0.5 * B * (b * b - a * a)
        elif mid >= t1:
            A = 0.5 * (t1 * t1 - t0 * t0)
            B = t1 - t0
            total += 0.5 * B * (b * b - a * a) - A * (b - a)
        else:
            total += ((b - t0) ** 3 - (a - t0) ** 3) / 6.0 + (
                (t1 - a) ** 3 - (t1 - b) ** 3
            ) / 6.0
    return total


def _pair_integral(seg1, seg2) -> float:
    """Exact Int_{S1} Int_{S2} |f(x) - g(y)| dy dx for affine f, g."""
    a1, b1, s1, c1 = seg1
    a2, b2, s2, c2 = seg2
    L1, L2 = b1 - a1, b2 - a2
    if s1 == 0.0 and s2 == 0.0:
        return L1 * L2 * abs(c1 - c2)
    if s2 == 0.0:
        # integrate |f(x) - c2| dx: substitute u = f(x)
        u0, u1 = sorted((s1 * a1 + c1, s1 * b1 + c1))
        return L2 * _abs_moment(c2, u0, u1) / abs(s1)
    if s1 == 0.0:
        t0, t1 = sorted((s2 * a2 + c2, s2 * b2 + c2))
        return L1 * _abs_moment(c1, t0, t1) / abs(s2)
    u0, u1 = sorted((s1 * a1 + c1, s1 * b1 + c1))
    t0, t1 = sorted((s2 * a2 + c2, s2 * b2 + c2))
    return _abs_moment_int(u0, u1, t0, t1) / (abs(s1) * abs(s2))


def _double_integral_linear(f: TestFunction, a: float, b: float) -> float:
    segs = f.segments(a, b)
    total = 0.0
    for s1 in segs:
        for s2 in segs:
            total += _pair_integral(s1, s2)
    return total


def _double_integral_monotone(f: TestFunction, a: float, b: float) -> float:
    # for nondecreasing f: Int Int |f(x)-f(y)| = 4*Int x f - 2(a+b) Int f
    F = float(f.primitive(np.array([b]))[0] - f.primitive(np.array([a]))[0])
    G = float(f.xprimitive(np.array([b]))[0] - f.xprimitive(np.array([a]))[0])
    return 4.0 * G - 2.0 * (a + b) * F


def _sorted_pair_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Sum over all pairs of w_i w_j |v_i - v_j| (values need not be sorted)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    wcum = np.cumsum(w) - w
    vwcum = np.cumsum(w * v) - w * v
    return 2.0 * float(np.sum(w * (v * wcum - vwcum)))


class _MonotonePart:
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


def _monotone_parts(f: TestFunction, a: float, b: float) -> list[_MonotonePart]:
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
        parts += [_MonotonePart(p, s, t) for s, t in zip(cuts, cuts[1:])]
    return parts


def _cross_integral(p: _MonotonePart, q: _MonotonePart) -> float:
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


def _double_integral_piecewise(f: TestFunction, a: float, b: float) -> float:
    parts = _monotone_parts(f, a, b)
    total = 0.0
    for i, p in enumerate(parts):
        total += p.self_integral()
        for q in parts[i + 1 :]:
            total += 2.0 * _cross_integral(p, q)
    return total


def _omega_sampled(f, box: list[tuple[float, float]], quad: Quadrature):
    """Box-sampled omega: midpoint tensor grids of the box, doubled per axis
    until two estimates agree to quad.rel_tol or the node budget is spent."""
    n = len(box)
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    m = 32
    prev = None
    while True:
        axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for lo, hi in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        v = f.value(grid).ravel()
        w = np.full(v.size, vol / v.size)
        est = _sorted_pair_sum(v, w)
        if prev is not None and abs(est - prev) <= quad.rel_tol * max(
            abs(est), 1e-300
        ):
            return est / vol ** (1.0 + 1.0 / n), True
        prev = est
        if (m * 2) ** n > quad.max_nodes:
            return est / vol ** (1.0 + 1.0 / n), False
        m *= 2


def omega(f, region, quad: Quadrature | None = None, method: str = "auto"):
    """Renormalized averaged oscillation of f over a cube; returns a float.

    For n = 1 'auto' and 'exact' take an exact path on every cube: the
    linear closed form where f is linear on the cube, the monotone one for
    monotone f, and otherwise a sum over pairs of monotone pieces.  Tensor
    functions (n >= 2) and method 'sampled' use box sampling; omega_flagged
    also returns its convergence flag.
    """
    val, _ = omega_flagged(f, region, quad=quad, method=method)
    return val


def omega_flagged(f, region, quad: Quadrature | None = None, method: str = "auto"):
    if method not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown omega method {method!r}")
    n = getattr(f, "n", 1)
    if n == 1 and method != "sampled":
        a, b = _region_interval(region)
        if f.linear_only_on(a, b):
            total = _double_integral_linear(f, a, b)
        elif f.monotone:
            total = _double_integral_monotone(f, a, b)
        else:
            total = _double_integral_piecewise(f, a, b)
        return total / (b - a) ** 2, True
    if method == "exact":
        raise ValueError("no exact omega path for n >= 2")
    box = [_region_interval(region)] if n == 1 else _region_box(region, n)
    return _omega_sampled(f, box, quad or Quadrature())


def _singular_left_ends(f) -> set[float]:
    """Abscissae where a power piece has unbounded derivative at its left end."""
    out = set()
    for p in getattr(f, "pieces", ()):
        if p.kind == "power":
            coef, e, c = p.data
            if 0 < e < 1 and p.x0 == c:
                out.add(c)
    return out


def _aligned_cells(f, a: float, b: float, nodes: int):
    """Midpoint cells aligned to breakpoints, graded toward singular ends."""
    singular = _singular_left_ends(f)
    cuts = [a] + [t for t in getattr(f, "breakpoints", ()) if a < t < b] + [b]
    xs_parts, w_parts = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        k = max(8, int(round(nodes * (hi - lo) / (b - a))))
        if lo in singular:
            # cubic grading resolves the unbounded derivative at lo
            t = (np.arange(k + 1) / k) ** 3
            edges = lo + (hi - lo) * t
        else:
            edges = np.linspace(lo, hi, k + 1)
        xs_parts.append(0.5 * (edges[1:] + edges[:-1]))
        w_parts.append(np.diff(edges))
    return np.concatenate(xs_parts), np.concatenate(w_parts)


def _direct_double_sum(v: np.ndarray, wts: np.ndarray) -> float:
    """sum over i, j of wts_i |v_i - v_j| wts_j, by direct O(N^2) summation.

    The summand is symmetric, so each block of rows is summed in full against
    its own columns and twice against the later columns only.
    """
    total = 0.0
    chunk = max(1, min(256, (1 << 22) // len(v)))
    for i in range(0, len(v), chunk):
        k = i + chunk
        rows, w_rows = v[i:k, None], wts[i:k, None]
        own = w_rows * np.abs(rows - v[None, i:k]) * wts[None, i:k]
        later = w_rows * np.abs(rows - v[None, k:]) * wts[None, k:]
        total += float(own.sum()) + 2.0 * float(later.sum())
    return total


def omega_bruteforce(f, region, nodes: int = 2048, richardson: bool = True) -> float:
    """Independent oracle: direct tensor-midpoint double quadrature.

    Nodes are aligned to the function's breakpoints (each smooth piece gets
    its own grid, graded at power-law singular ends) and the leading h^2
    midpoint error is removed by one Richardson step.
    """
    n = getattr(f, "n", 1)
    if n == 1:
        a, b = _region_interval(region)

        def level(k):
            xs, wts = _aligned_cells(f, a, b, k)
            return _direct_double_sum(f.value(xs), wts)

        if not richardson:
            return level(nodes) / (b - a) ** 2
        coarse, fine = level(nodes // 2), level(nodes)
        return (4.0 * fine - coarse) / 3.0 / (b - a) ** 2
    box = _region_box(region, n)
    m = max(2, int(round(nodes ** (1.0 / n))))
    axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    v = f.value(grid).ravel()
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    total = _direct_double_sum(v, np.full(v.size, vol / v.size))
    return total / vol ** (1.0 + 1.0 / n)


def omega_indicator(region, e_lo: float, e_hi: float) -> float:
    """Closed form for f = 1_E, E an interval: 2 |Q|^(-2) |Q ∩ E| |Q \\ E|."""
    a, b = _region_interval(region)
    inter = max(0.0, min(b, e_hi) - max(a, e_lo))
    return 2.0 * inter * ((b - a) - inter) / (b - a) ** 2


def _region_interval(region) -> tuple[float, float]:
    if isinstance(region, Cube):
        lo, hi = region.interval()
        return float(lo), float(hi)
    lo, hi = region
    return float(lo), float(hi)


def _region_box(region, n: int) -> list[tuple[float, float]]:
    if isinstance(region, Cube):
        los = region.lower()
        return [(float(l), float(l + region.edge)) for l in los]
    return [(float(lo), float(hi)) for lo, hi in region]


# ---------------------------------------------------------------------------
# omega over a whole window
# ---------------------------------------------------------------------------


def cube_key(q: Cube) -> tuple:
    return (q.shift.thirds, q.j, q.m)


def omega_window(
    f, window: GridWindow, quad: Quadrature | None = None
) -> dict[tuple, float]:
    """omega for every cube of the window, keyed by cube_key: exact on every
    cube for one-dimensional catalog functions, box-sampled for n >= 2.
    Cubes are read from the window's array form as float corners."""
    arr = window.arrays
    if window.n == 1:
        regions = zip(arr.lo[:, 0].tolist(), arr.hi[:, 0].tolist())
    else:
        boxes = zip(arr.lo.tolist(), arr.hi.tolist())
        regions = (list(zip(lo, hi)) for lo, hi in boxes)
    return {key: omega(f, region, quad) for key, region in zip(arr.keys, regions)}


# ---------------------------------------------------------------------------
# weighted gradient norms
# ---------------------------------------------------------------------------


def grad_mass(f, lo: float, hi: float) -> float:
    """Integral of |f'| over [lo, hi] (exact for linear pieces)."""
    return grad_power_mass(f, lo, hi, 1.0, ConstantWeight(1.0))


def grad_power_mass(f: TestFunction, lo: float, hi: float, p: float, w: Weight) -> float:
    """Integral of |f'|^p * w over [lo, hi]; exact piece-by-piece when possible."""
    total = 0.0
    for piece in f.pieces:
        a, b = max(lo, piece.x0), min(hi, piece.x1)
        if b <= a:
            continue
        if piece.is_linear():
            s, _ = piece.as_linear()
            if s == 0.0:
                continue
            total += abs(s) ** p * w.interval_mass(a, b)
            continue
        if piece.kind == "power" and isinstance(w, (PowerWeight, ConstantWeight)):
            coef, e, c = piece.data
            combined = (e - 1.0) * p
            wcoef = w.c if isinstance(w, ConstantWeight) else 1.0
            compatible = True
            if isinstance(w, PowerWeight):
                if w.center == c:
                    combined += w.a
                else:
                    compatible = False
            if compatible:
                # closed form via |x - c|^combined; constructor enforces
                # integrability of the combined exponent
                total += (
                    abs(coef * e) ** p
                    * wcoef
                    * PowerWeight(combined, c).interval_mass(a, b)
                )
                continue
        bps = list(f.breakpoints) + list(w.breakpoints())
        total += adaptive_quad(
            lambda x: np.abs(f.grad(x)) ** p * w.value(x),
            a,
            b,
            breakpoints=bps,
        )
    return total


def sobolev_seminorm(f, w: Weight, p: float, window) -> float:
    """(Integral over the window of |grad f|^p w)^(1/p)."""
    n = getattr(f, "n", 1)
    if n == 1:
        lo, hi = _region_interval(window)
        return grad_power_mass(f, lo, hi, p, w) ** (1.0 / p)
    box = _region_box(window, n)
    m = 256

    def refine(m):
        axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for lo, hi in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        g = f.grad_norm(grid) ** p * w.value(grid)
        cell = 1.0
        for lo, hi in box:
            cell *= (hi - lo) / m
        return float(g.sum() * cell)

    a, b = refine(m), refine(2 * m)
    return ((4 * b - a) / 3) ** (1.0 / p)


def l1_weighted_norm(f, w: Weight, lo: float, hi: float) -> float:
    """Integral of |f| w over [lo, hi] by adaptive quadrature."""
    bps = list(getattr(f, "breakpoints", ())) + list(w.breakpoints())
    return adaptive_quad(
        lambda x: np.abs(f.value(x)) * w.value(x), lo, hi, breakpoints=bps
    )


def mean_abs(f, lo: float, hi: float) -> float:
    """Average of |f| over [lo, hi] (exact for monotone nonnegative pieces)."""
    segs_ok = f.linear_only_on(lo, hi)
    allpos = True
    if segs_ok:
        total = 0.0
        for a, b, s, c in f.segments(lo, hi):
            v0, v1 = s * a + c, s * b + c
            if v0 >= 0 and v1 >= 0:
                total += 0.5 * (v0 + v1) * (b - a)
            elif v0 <= 0 and v1 <= 0:
                total += -0.5 * (v0 + v1) * (b - a)
            else:
                z = -c / s
                total += 0.5 * abs(v0) * (z - a) + 0.5 * abs(v1) * (b - z)
        return total / (hi - lo)
    bps = list(getattr(f, "breakpoints", ()))
    return adaptive_quad(lambda x: np.abs(f.value(x)), lo, hi, breakpoints=bps) / (
        hi - lo
    )
