"""Test functions with gradient oracles and the renormalized oscillation
integral

    omega_Q(f) = |Q|^(-1-1/n) * Int_Q Int_Q |f(x) - f(y)| dx dy.

Catalog functions are piecewise polynomial or piecewise power with
closed-form antiderivatives, so weighted gradient norms have exact paths.
omega is exact for every one-dimensional function: `omega_intervals` and
`mean_abs` take many intervals at once, and those on which f is piecewise
linear take one array pass over a table of their linear segments
(`_segment_table`); omega is 0.0 with no further work on an interval
inside one flat piece.  On the others omega sums over pairs of the parts of f
on which it is monotone, in one array pass over a table of the parts of all
of them (`_part_table`) with one quadrature call for the pairs whose values
overlap.  Tensor functions (n >= 2) are sampled on the box.

A `TestFunction` evaluates its value, derivative and antiderivative from a
piece table built once: one `searchsorted` picks each point's piece, one
vectorized Horner step per table row in x minus the piece's anchor (its
point nearest 0) evaluates every polynomial piece at once, and the few
power pieces are filled in by mask.

No path here loads a NumPy subpackage that ``import numpy`` does not:
critical points come from `_polyroots` (the steps of
``np.polynomial.polynomial.polyroots``), distinct floats from
`_sorted_unique` and distinct non-negative ints from ``np.bincount``, in
place of ``np.unique``, whose first plain call imports ``numpy.ma``; the
Gauss-Legendre rules are `quadrature`'s literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Sequence

import numpy as np

from dyadicweights.grid import Cube, GridWindow, float_box
from dyadicweights.quadrature import _gl, adaptive_quad, adaptive_quads
from dyadicweights.records import require_finite
from dyadicweights.weights import ConstantWeight, PowerWeight, Weight, power_integrals, powers


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

    poly:  data = coefficient tuple (c0, c1, ...) in powers of x - anchor,
           f(x) = sum c_k (x - anchor)^k
    power: data = (coef, expo, center), f(x) = coef * (x - center)^expo,
           valid for x >= center only.
    """

    x0: float
    x1: float
    kind: str
    data: tuple

    @property
    def anchor(self) -> float:
        """The piece's point nearest 0, about which a poly piece is stored,
        so a piece far from 0 keeps small coefficients."""
        return min(max(self.x0, 0.0), self.x1)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            t, out = x - self.anchor, np.zeros_like(x)
            for c in reversed(self.data):
                out = out * t + c
            return out
        coef, e, c = self.data
        return coef * np.maximum(x - c, 0.0) ** e

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            t, out = x - self.anchor, np.zeros_like(x)
            for k in range(len(self.data) - 1, 0, -1):
                out = out * t + k * self.data[k]
            return out
        coef, e, c = self.data
        d = np.maximum(x - c, 1e-300)
        return coef * e * d ** (e - 1.0)

    def prim(self, x):
        """Local antiderivative of f (constant of integration arbitrary)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            t, out = x - self.anchor, np.zeros_like(x)
            for k in range(len(self.data) - 1, -1, -1):
                out = out * t + self.data[k] / (k + 1)
            return out * t
        coef, e, c = self.data
        return coef * np.maximum(x - c, 0.0) ** (e + 1.0) / (e + 1.0)

    def xprim(self, x):
        """Local antiderivative of t*f(t) on a power piece (polynomial parts
        take their moment by Gauss-Legendre in _monotone_sums)."""
        x = np.asarray(x, dtype=float)
        coef, e, c = self.data
        d = np.maximum(x - c, 0.0)
        return coef * (d ** (e + 2.0) / (e + 2.0) + c * d ** (e + 1.0) / (e + 1.0))

    def line(self) -> tuple[float, float]:
        """(slope, intercept at 0) of a linear piece, nan on any other piece."""
        if self.kind != "poly" or len(self.data) > 2:
            return math.nan, math.nan
        c0, c1 = (*self.data, 0.0)[:2]
        return c1, c0 - c1 * self.anchor


class TestFunction:
    """Piecewise function on R with value, a.e. derivative, and exact helpers."""

    def __init__(
        self,
        pieces: Sequence[Piece],
        name: str = "f",
        params: dict | None = None,
        lipschitz: float = math.inf,
        grad_radius: float = math.inf,
        value_bound: float = math.inf,
    ):
        self.pieces = sorted(pieces, key=lambda p: p.x0)
        for p in self.pieces:
            if not p.x0 < p.x1:
                raise ValueError(f"piece [{p.x0}, {p.x1}) is empty")
            if p.kind not in ("poly", "power"):
                raise ValueError(f"unknown piece kind {p.kind!r}")
        if self.pieces[0].x0 != -math.inf or self.pieces[-1].x1 != math.inf:
            raise ValueError("pieces must cover the whole line")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.x1 != b.x0:
                raise ValueError("pieces must be contiguous")
        self.n = 1
        self.name = name
        self.params = dict(params or {})
        self.lipschitz = lipschitz
        self.grad_radius = grad_radius
        self.value_bound = value_bound
        self._edges = np.array([p.x1 for p in self.pieces[:-1]])
        # Horner rows in t = x - anchor, highest degree first, one column per
        # piece; a piece of lower degree is padded with leading zeros and a
        # power piece is all zeros, so a row step out = out * t + row[piece]
        # repeats the float operations of Piece.eval and .deriv exactly, and
        # of Piece.prim after one more step that adds -0.0
        self._anchors = np.array([p.anchor for p in self.pieces])
        polys = [p.data if p.kind == "poly" else () for p in self.pieces]

        def rows(coeffs) -> np.ndarray:
            deg = max(len(c) for c in coeffs)
            table = np.zeros((deg, len(coeffs)))
            for i, c in enumerate(coeffs):
                table[deg - len(c) :, i] = c[::-1]
            return table

        self._value_rows = rows(polys)
        self._grad_rows = rows([[k * c[k] for k in range(1, len(c))] for c in polys])
        self._prim_rows = rows([[c[k] / (k + 1) for k in range(len(c))] for c in polys])
        self._power = [i for i, p in enumerate(self.pieces) if p.kind == "power"]
        # rows x0, x1, slope, intercept at 0 (nan if not linear) of each piece
        self._lines = np.array([(p.x0, p.x1, *p.line()) for p in self.pieces]).T

    def _horner(self, x, t, cols, masks, power) -> np.ndarray:
        """The Horner rows ``cols`` (a table's rows, highest degree first, at
        the pieces of the points x) in t = x minus the pieces' anchors, and
        ``power(piece, x)`` on each (power piece, mask of its points) of
        ``masks``.  A bisection gathers the rows and masks once; `_table`
        yields them one by one, each row freed in turn."""
        out = np.zeros(t.shape)
        for c in cols:
            out *= t
            out += c
            del c
        for pc, mask in masks:
            if mask.any():
                out[mask] = power(pc, x[mask])
        return out

    def _table(self, x, table: np.ndarray, power):
        """Evaluate from the Horner rows ``table``; on a power piece p the
        value is ``power(p, x)``."""
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._edges, arr, side="right")
        # a padded leading zero times +-inf is nan, so infinite points take
        # the rows with 0 in their place, then, off power pieces, their own
        # Horner chain that takes 0 * t as 0 and so starts at each piece's
        # first nonzero row (t = x - anchor is x there, anchors being finite)
        inf = np.isinf(arr)
        at_inf = inf.any()
        t = (np.where(inf, 0.0, arr) if at_inf else arr) - self._anchors[idx]
        masks = ((self.pieces[i], idx == i) for i in self._power)
        out = self._horner(arr, t, (row[idx] for row in table), masks, power)
        if at_inf:
            inf &= ~np.isin(idx, self._power)
            x, at = arr[inf], idx[inf]
            val = np.zeros(x.shape)
            with np.errstate(invalid="ignore"):
                for row in table:
                    val = np.where(val == 0.0, row[at], val * x + row[at])
            out[inf] = val
        return out[()] if out.ndim == 0 else out

    def value(self, x):
        return self._table(x, self._value_rows, Piece.eval)

    def grad(self, x):
        return self._table(x, self._grad_rows, Piece.deriv)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(float(e) for e in self._edges)

    @cached_property
    def _critical(self) -> tuple[np.ndarray, np.ndarray]:
        """``(start, x)``: the distinct real parts of the roots of piece i's
        derivative, sorted, are x[start[i]:start[i + 1]]; polynomial pieces of
        degree 2 or more have them, the others none."""
        roots = [np.zeros(0)] * len(self.pieces)
        for i, p in enumerate(self.pieces):
            if p.kind == "poly" and len(p.data) > 2:
                slope = [k * c for k, c in enumerate(p.data)][1:]
                roots[i] = _sorted_unique(_polyroots(slope).real + p.anchor)
        return np.cumsum([0] + [r.size for r in roots]), np.concatenate(roots)

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


def _smoothstep_coeffs(x0: float, x1: float, width: float, rising: bool) -> tuple:
    """The cubic 3u^2 - 2u^3 on u = (x - x0)/width (1 minus it if not
    rising), in powers of x minus the anchor of the piece [x0, x1): its
    Taylor coefficients at u0, the anchor's u."""
    w = width
    u = (Piece(x0, x1, "poly", ()).anchor - x0) / w
    c = (u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u) / w, (3.0 - 6.0 * u) / w**2, -2.0 / w**3)
    return c if rising else (1.0 - c[0], -c[1], -c[2], -c[3])


def constant(c: float = 0.0) -> TestFunction:
    require_finite(c=c)
    return TestFunction(
        [Piece(-math.inf, math.inf, "poly", (float(c),))],
        name="constant",
        params={"c": c},
        lipschitz=0.0,
        grad_radius=0.0,
        value_bound=abs(c),
    )


def linear(slope: float = 1.0) -> TestFunction:
    require_finite(slope=slope)
    return TestFunction(
        [Piece(-math.inf, math.inf, "poly", (0.0, float(slope)))],
        name="linear",
        params={"slope": slope},
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
    require_finite(slope=slope, cutoff=cutoff, center=center)
    s, r, c = float(slope), float(cutoff), float(center)
    if r <= 0:
        raise ValueError("cutoff must be positive")
    return TestFunction(
        [
            Piece(-math.inf, c - r, "poly", (-s * r,)),
            Piece(c - r, c + r, "poly", (s * min(max(-c, -r), r), s)),
            Piece(c + r, math.inf, "poly", (s * r,)),
        ],
        name="linear_ramp",
        params={"slope": slope, "cutoff": cutoff, "center": center},
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
            Piece(1.0, 2.0, "poly", (1.0, -1.0)),
            Piece(2.0, math.inf, "poly", (0.0,)),
        ],
        name="tent",
        params={},
        lipschitz=1.0,
        grad_radius=2.0,
        value_bound=1.0,
    )


def indicator(a: float = 0.0, b: float = 1.0) -> TestFunction:
    """1 on (a, b); not weakly differentiable, for mean-type functionals."""
    require_finite(a=a, b=b)
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
        lipschitz=math.inf,
        grad_radius=max(abs(a), abs(b)),
        value_bound=1.0,
    )


def smoothed_indicator(width: float = 0.25, a: float = 0.0, b: float = 1.0) -> TestFunction:
    """C^1 cubic-edged plateau: 1 on [a, b], 0 outside (a - width, b + width)."""
    require_finite(width=width, a=a, b=b)
    w = float(width)
    if w <= 0 or b <= a:
        raise ValueError("need width > 0 and a < b")
    return TestFunction(
        [
            Piece(-math.inf, a - w, "poly", (0.0,)),
            Piece(a - w, a, "poly", _smoothstep_coeffs(a - w, a, w, rising=True)),
            Piece(a, b, "poly", (1.0,)),
            Piece(b, b + w, "poly", _smoothstep_coeffs(b, b + w, w, rising=False)),
            Piece(b + w, math.inf, "poly", (0.0,)),
        ],
        name="smoothed_indicator",
        params={"width": width, "a": a, "b": b},
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
    require_finite(delta=delta)
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
        lipschitz=math.inf,
        grad_radius=1.0,
        value_bound=1.0 / d,
    )


def sharp3_fbeta(beta: float, p: float) -> TestFunction:
    """x -> integral of t^(beta-1/p) 1_(0,1)(t) dt; needs beta in (1/p-1, 1/p)."""
    require_finite(beta=beta, p=p)
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


# ---------------------------------------------------------------------------
# omega: exact paths
# ---------------------------------------------------------------------------


def _segment_table(f, lo: np.ndarray, hi: np.ndarray):
    """The linear segments on each interval [lo[i], hi[i]] of its function,
    f itself or, for a pair f = (fs, of), fs[of[i]], as ``(groups, other)``.
    A group ``(rows, seg)`` holds the intervals that meet k pieces of their
    function, all linear, and the (4, rows, k) array of each segment's ends
    (its piece clipped to the interval), slope and intercept in piece order.
    ``other`` lists the intervals that meet a piece that is not linear.  An
    end on a breakpoint meets only the piece on its side.

    The pieces of every function stand in one `_stacked_lines` table, read
    flat, and each row finds its pieces among its own function's
    breakpoints, the right ends of all its pieces but the last, padded with
    +inf; one f is the one-function case."""
    if not np.all(lo < hi):
        raise ValueError("need lo < hi on every interval")
    fs, of = _functions(f, lo.size)
    table = _stacked_lines(fs)
    lines = table.reshape(4, -1)
    # a row's first piece is the count of its breakpoints <= lo, and its
    # last the count of those < hi, as searchsorted would take them
    first, last = np.zeros(lo.size, dtype=np.intp), np.zeros(lo.size, dtype=np.intp)
    for col in table[1, :, :-1].T:
        at = col[of] if col.size > 1 else col[0]
        first += at <= lo
        last += at < hi
    count = last + 1 - first
    first += of * table.shape[2]
    # nonlinear pieces before each piece, so a span's count is one difference;
    # key is the segment count, 0 for an interval that meets a nonlinear piece
    bent = np.concatenate(([0], np.cumsum(np.isnan(lines[2]))))
    key = np.where(bent[first + count] == bent[first], count, 0)
    groups = []
    for k in (np.flatnonzero(np.bincount(key)[1:]) + 1).tolist():
        rows = np.flatnonzero(key == k)
        seg = np.take(lines, first[rows, None] + np.arange(k), axis=1)
        seg[0, :, 0], seg[1, :, -1] = lo[rows], hi[rows]
        groups.append((rows, seg))
    return groups, np.flatnonzero(key == 0).tolist()


def _stacked_lines(fs) -> np.ndarray:
    """The piece tables ``_lines`` of the functions ``fs`` stacked, of shape
    (4, functions, pieces): a function with fewer pieces is padded with
    empty pieces at +inf (x0 = x1 = +inf, slope and intercept 0), which no
    interval and no ray meets."""
    table = np.zeros((4, len(fs), max(len(g.pieces) for g in fs)))
    table[:2] = math.inf
    for k, g in enumerate(fs):
        table[:, k, : len(g.pieces)] = g._lines
    return table


def _functions(f, rows: int):
    """(fs, of) of the f of an omega call over ``rows`` intervals: the pair
    itself, or ([f], zeros) for one function."""
    if isinstance(f, tuple):
        fs, of = f
        return list(fs), np.asarray(of, dtype=np.intp)
    return [f], np.zeros(rows, dtype=np.intp)


def _sorted_values(a, b, s, c):
    """The values of s x + c at x = a and x = b, the smaller first."""
    ua, ub = s * a + c, s * b + c
    swap = ub < ua
    return np.where(swap, ub, ua), np.where(swap, ua, ub)


def _self_integral_sloped(a, b, s, c) -> np.ndarray:
    """Int Int |f(x) - f(y)| over [a, b] squared for f = s x + c, s != 0, per
    row: _spread_int on the sorted end values u0, u1 against themselves,
    whose one cut is [u0, u1], divided by |s| |s|."""
    u0, u1 = _sorted_values(a, b, s, c)
    d, mid, sq = u1 - u0, 0.5 * (u0 + u1), u1 * u1 - u0 * u0
    area, cube = 0.5 * sq, powers(d, 3)
    above = np.where(mid >= u1, 0.5 * d * sq - area * d, cube / 6.0 + cube / 6.0)
    moment = np.where(mid <= u0, area * d - 0.5 * d * sq, above)
    # where u0 == u1 the cut is empty and the moment is 0.0, as when skipped
    return (0.0 + moment) / (np.abs(s) * np.abs(s))


def _spread(z, t0, t1):
    """Int |z - t| dt over [t0, t1] (t0 <= t1), per row."""
    area, width = 0.5 * (t1 * t1 - t0 * t0), t1 - t0
    inside = 0.5 * (powers(z - t0, 2) + powers(t1 - z, 2))
    above = np.where(z >= t1, z * width - area, inside)
    return np.where(z <= t0, area - z * width, above)


def _spread_int(u0, u1, t0, t1):
    """Int over u in [u0, u1] of _spread(u, t0, t1), per row: [u0, u1] is cut
    at t0 and t1 and each cut's closed form is added in order."""
    # min(max(t, u0), u1) for t = t0, t1, with Python's choice on ties
    inner = (np.where(u0 > t, u0, t) for t in (t0, t1))
    cuts = np.stack([u0, *(np.where(u1 < t, u1, t) for t in inner), u1])
    area, width = 0.5 * (t1 * t1 - t0 * t0), t1 - t0
    up, down = powers(cuts - t0, 3), powers(t1 - cuts, 3)
    a, b = cuts[:-1], cuts[1:]
    mid, step, sq = 0.5 * (a + b), b - a, b * b - a * a
    inside = (up[1:] - up[:-1]) / 6.0 + (down[:-1] - down[1:]) / 6.0
    above = np.where(mid >= t1, 0.5 * width * sq - area * step, inside)
    parts = np.where(mid <= t0, area * step - 0.5 * width * sq, above)
    # an empty cut adds +-0.0, which leaves the sum as skipping it would
    return 0.0 + parts[0] + parts[1] + parts[2]


def _cross_segments(one, two) -> np.ndarray:
    """Int over segment one of Int over segment two of |f(x) - f(y)| per row,
    a segment being (a, b, slope, intercept).  Against a flat segment the
    values of the other are the variable, divided by its |slope|.  Each case
    is computed on its own rows only."""
    (a1, b1, s1, c1), (a2, b2, s2, c2) = one, two
    u0, u1 = _sorted_values(a1, b1, s1, c1)
    t0, t1 = _sorted_values(a2, b2, s2, c2)
    flat1, flat2 = s1 == 0.0, s2 == 0.0
    out = (b1 - a1) * (b2 - a2) * np.abs(c1 - c2)  # both flat
    if (i := flat2 & ~flat1).any():
        out[i] = (b2 - a2)[i] * _spread(c2[i], u0[i], u1[i]) / np.abs(s1[i])
    if (i := flat1 & ~flat2).any():
        out[i] = (b1 - a1)[i] * _spread(c1[i], t0[i], t1[i]) / np.abs(s2[i])
    if (i := ~(flat1 | flat2)).any():
        out[i] = _spread_int(u0[i], u1[i], t0[i], t1[i]) / (np.abs(s1[i]) * np.abs(s2[i]))
    return out


def _pair_sums(groups, out: np.ndarray) -> None:
    """Int Int |f(x) - f(y)| over each interval of the groups ``(rows, seg)``
    of `_segment_table`, into out[rows]: the closed form over every ordered
    pair (p, q) of the interval's segments, p-major as a double loop would
    add them.  One array pass over the segments of all groups: a segment
    with itself by the one-cut closed form, two segments by the general cut
    arithmetic."""
    own = np.hstack([seg.reshape(4, -1) for _, seg in groups])
    diag = np.zeros(own.shape[1])
    sloped = own[2] != 0.0
    diag[sloped] = _self_integral_sloped(*own[:, sloped])
    off = [np.nonzero(~np.eye(seg.shape[2], dtype=bool)) for _, seg in groups]
    one, two = (
        np.hstack([seg[:, :, i[j]].reshape(4, -1) for (_, seg), i in zip(groups, off)])
        for j in (0, 1)
    )
    cross = _cross_segments(one, two)
    start = stop = 0
    for (rows, seg), (p, q) in zip(groups, off):
        m, k = seg.shape[1:]
        pairs = np.empty((m, k, k))
        pairs[:, range(k), range(k)] = diag[start : start + m * k].reshape(m, k)
        pairs[:, p, q] = cross[stop : stop + m * p.size].reshape(m, -1)
        start, stop = start + m * k, stop + m * p.size
        out[rows] = reduce(np.add, pairs.reshape(m, -1).T, np.zeros(m))


def omega_intervals(f, lo, hi) -> np.ndarray:
    """omega of the one-dimensional f on each interval [lo[i], hi[i]]; f is
    one function, or a pair (fs, of) giving interval i the function
    fs[of[i]].

    An interval inside one piece of its function with slope exactly 0.0
    has omega +0.0 and takes no further work.  Where the row's function is
    otherwise piecewise linear on the interval, omega is `_pair_sums` over
    its segments, divided by (hi - lo) ** 2.  The intervals that meet a
    piece that is not linear (slope nan in the table, so never flat) take
    the monotone-parts sum, one array pass per function.  Each row's value
    is bit for bit what it is alone.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    groups, other = _segment_table(f, lo, hi)
    out = np.zeros(lo.shape)
    # a flat row's pair sum is +0.0 + 0.0, which no division changes, so it
    # keeps out's +0.0; only the one-segment group, first by segment count,
    # can hold flat rows
    if groups and groups[0][1].shape[2] == 1:
        rows, seg = groups[0]
        sloped = seg[2, :, 0] != 0.0
        groups[:1] = [(rows[sloped], seg[:, sloped])] if sloped.any() else []
    if groups:
        _pair_sums(groups, out)
    if other:
        fs, of = _functions(f, lo.size)
        other = np.array(other)
        for k in np.flatnonzero(np.bincount(of[other])).tolist():
            rows = other[of[other] == k]
            out[rows] = _monotone_sums(fs[k], lo[rows], hi[rows])
    live = np.flatnonzero(out)  # 0.0 stays 0.0 without the division
    out[live] /= powers(hi[live] - lo[live], 2)
    return out


def _sorted_pair_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Sum over all pairs of w_i w_j |v_i - v_j| (values need not be sorted)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    wcum = np.cumsum(w) - w
    vwcum = np.cumsum(w * v) - w * v
    return 2.0 * float(np.sum(w * (v * wcum - vwcum)))


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) bit for bit on floats without NaN: x sorted, each value
    once, the first of its run.  np.unique asks numpy.ma whether x is
    masked, which imports numpy.ma on its first call."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _polyroots(c) -> np.ndarray:
    """np.polynomial.polynomial.polyroots(c) bit for bit, by its own steps:
    the roots of sum c[k] x^k, trailing zeros trimmed, as -c0/c1 at degree
    1 and otherwise the sorted eigenvalues of the companion matrix (a
    complex array where any root is complex), without importing
    numpy.polynomial."""
    c = np.array(c, dtype=float, ndmin=1)
    nonzero = np.flatnonzero(c)
    c = c[: nonzero[-1] + 1 if nonzero.size else 1]
    if c.size < 2:
        return np.zeros(0)
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    n = c.size - 1
    mat = np.zeros((n, n))
    mat.reshape(-1)[n :: n + 1] = 1.0
    mat[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges start[i] + (0, ..., count[i] - 1) end to end, and each i."""
    owner = np.repeat(np.arange(count.size), count)
    return start[owner] + np.arange(owner.size) - (np.cumsum(count) - count)[owner], owner


def _part_table(f: TestFunction, lo: np.ndarray, hi: np.ndarray):
    """The parts of f on each interval [lo[i], hi[i]] on which it is
    monotone, as arrays (row, piece, a, b) in row, then x order: each piece
    clipped to the interval, a polynomial piece cut at every critical point
    more than 1e-12 of its clipped width inside it.  f moves by at most
    ~1e-24 width^2 |f''| on the sliver a cut nearer an end would split off."""
    first = np.searchsorted(f._edges, lo, side="right")
    piece, row = _ranges(first, np.searchsorted(f._edges, hi, side="left") + 1 - first)
    a, b = f._lines[0][piece], f._lines[1][piece]
    head = np.append(True, row[1:] != row[:-1])
    a[head], b[np.append(head[1:], True)] = lo, hi
    start, crit = f._critical
    at, seg = _ranges(start[piece], start[piece + 1] - start[piece])
    x, margin = crit[at], 1e-12 * (b - a)[seg]
    inside = (a[seg] + margin < x) & (x < b[seg] - margin)
    # each clipped piece's left end, then its cuts, which are sorted
    owner = np.concatenate([np.arange(piece.size), seg[inside]])
    order = np.argsort(owner, kind="stable")
    owner, left = owner[order], np.concatenate([a, x[inside]])[order]
    right = np.append(left[1:], 0.0)
    right[np.append(owner[1:] != owner[:-1], True)] = b
    return row[owner], piece[owner], left, right


def _monotone_sums(f: TestFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Int Int |f(x) - f(y)| over [lo[i], hi[i]] squared for every row, as
    the sum over pairs of the parts of f there on which it is monotone, in
    one array pass over the parts of all rows.

    A part with itself gives 4 |Int (x - mid) f|.  Two parts whose value
    ranges are disjoint give |len(q) Int_p f - len(p) Int_q f|.  Any other
    pair takes Int over p of Int over q of |f(x) - f(y)|: the inner integral
    is exact through q's inverse, found by bisection to 2^-32 of q (the inner
    integral is stationary in that point, so its error is second order), and
    the outer integrals are one adaptive_quads call, each cut where f on p
    crosses q's end values.  A row adds each part's own term, then twice
    each pair with a later part, as a double loop over its parts would.
    """
    row, piece, a, b = _part_table(f, lo, hi)
    every = np.arange(a.size)

    def on(table, power, k):
        """x -> ``table`` on the pieces of the parts k (of x's shape), gathered
        once: each part's own piece, so an end on a breakpoint takes the
        same piece as the part's inside."""
        own = piece[k]
        cols, anchor = np.take(table, own, axis=1), f._anchors[own]
        masks = [(f.pieces[i], own == i) for i in f._power]
        return lambda x: f._horner(x, x - anchor, cols, masks, power)

    # Piece.prim: the primitive rows, then a step that adds -0.0, an exact add
    local = np.vstack([f._prim_rows, np.full(len(f.pieces), -0.0)])
    value, prim = partial(on, f._value_rows, Piece.eval), partial(on, local, Piece.prim)
    ends, both = np.stack([a, b]), np.stack([every, every])
    (e0, e1), (h0, h1) = value(both)(ends), prim(both)(ends)
    sgn, low, high = np.where(e1 >= e0, 1.0, -1.0), np.minimum(e0, e1), np.maximum(e0, e1)
    # masses, and first moments about the midpoint: primitives on power
    # parts, Gauss-Legendre exact for x f(x) on polynomial parts (differences
    # of the primitives of the expanded coefficients cancel badly)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    mass, moment = h1 - h0, np.zeros(a.size)
    rule = np.array([len(pc.data) // 2 + 1 if pc.kind == "poly" else 0 for pc in f.pieces])
    rule = rule[piece]  # Gauss-Legendre order, 0 on power pieces
    if (power := np.flatnonzero(rule == 0)).size:
        # no Horner rows: the table is 0 off the power pieces
        xp = on(f._value_rows[:0], Piece.xprim, both[:, power])(ends[:, power])
        moment[power] = (xp[1] - xp[0]) - mid[power] * mass[power]
    for k in np.flatnonzero(np.bincount(rule[rule > 0])).tolist():
        i = np.flatnonzero(rule == k)
        t, w = _gl(k)
        fx = value(i[:, None].repeat(k, 1))(mid[i, None] + half[i, None] * t)
        mass[i] = half[i] * np.vecdot(fx, w)
        moment[i] = half[i] * half[i] * np.vecdot(fx, w * t)

    def inverse(k, v):
        """Where part k takes the values v, clipped to the part."""
        x0, x1, s, val = a[k], b[k], sgn[k], value(k)
        for _ in range(32):
            m = 0.5 * (x0 + x1)
            below = s * (val(m) - v) < 0
            x0, x1 = np.where(below, m, x0), np.where(below, x1, m)
        x = np.where(s * (v - e1[k]) >= 0, b[k], 0.5 * (x0 + x1))
        return np.where(s * (v - e0[k]) <= 0, a[k], x)

    def abs_dev(k, v):
        """Int over part k of |v - f(y)| dy; v - f changes sign once there."""
        y = inverse(k, v)
        return sgn[k] * (v * (2.0 * y - a[k] - b[k]) + h0[k] + h1[k] - 2.0 * prim(k)(y))

    # the pairs (p, q), p <= q, of each row's parts in double-loop order
    q, p = _ranges(every, np.cumsum(np.bincount(row))[row] - every)
    term = 4.0 * np.abs(moment[p])
    cross = np.flatnonzero(p != q)
    i, j = p[cross], q[cross]
    pair = np.abs((b[j] - a[j]) * mass[i] - (b[i] - a[i]) * mass[j])
    if (meet := np.flatnonzero((low[i] < high[j]) & (low[j] < high[i]))).size:
        i, j = i[meet], j[meet]
        v = np.stack([low[j], high[j]], axis=1)
        cut = (low[i, None] < v) & (v < high[i, None])
        at = np.split(inverse(i[np.nonzero(cut)[0]], v[cut]), np.cumsum(cut.sum(1))[:-1])
        problems = [(a[k], b[k], 1e-13, c, 20000) for k, c in zip(i.tolist(), at)]
        quads = adaptive_quads(lambda x, o: abs_dev(j[o], value(i[o])(x)), problems)
        pair[meet] = [total for total, _ in quads]
    term[cross] = 2.0 * pair
    # each row's terms added left to right; the zeros that pad them are exact
    r = row[p]
    size = np.bincount(r)
    table = np.zeros((size.size, size.max()))
    table[r, np.arange(r.size) - (np.cumsum(size) - size)[r]] = term
    return reduce(np.add, table.T, np.zeros(size.size))


def _midpoint_grid(box: list[tuple[float, float]], m: int) -> np.ndarray:
    """Midpoints of the m^n congruent cells of the box, shape (m,) * n + (n,)."""
    axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


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
        v = f.value(_midpoint_grid(box, m)).ravel()
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


def omega_boxes(f, lo, hi) -> np.ndarray:
    """omega of f on each box with corners lo[i] and hi[i], (N, n) arrays:
    exact for n = 1, by one omega_intervals call, and box-sampled by
    _omega_sampled at the default Quadrature, one box at a time, for tensor
    functions (n >= 2), whose convergence flag is dropped."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if getattr(f, "n", 1) == 1:
        return omega_intervals(f, lo[:, 0], hi[:, 0])
    boxes = [list(zip(a, b)) for a, b in zip(lo.tolist(), hi.tolist())]
    return np.array([_omega_sampled(f, box, Quadrature())[0] for box in boxes])


def omega(f, region) -> float:
    """Renormalized averaged oscillation of f over one region: the one row
    of omega_boxes.  ``region`` is anything grid.float_box takes."""
    lo, hi = zip(*float_box(region))
    return omega_boxes(f, [lo], [hi]).item()


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


def omega_bruteforce(f, region, nodes: int = 2048) -> float:
    """Independent oracle: tensor-midpoint double quadrature.

    Nodes are aligned to the function's breakpoints (each smooth piece gets
    its own grid, graded at power-law singular ends) and the leading h^2
    midpoint error is removed by one Richardson step.  The double sum over
    node pairs is exact algebra after a sort (`_sorted_pair_sum`), so it
    costs O(N log N) and never uses the monotone parts of f.
    """
    n = getattr(f, "n", 1)
    box = float_box(region)
    if n == 1:
        ((a, b),) = box

        def level(k):
            xs, wts = _aligned_cells(f, a, b, k)
            return _sorted_pair_sum(f.value(xs), wts)

        coarse, fine = level(nodes // 2), level(nodes)
        return (4.0 * fine - coarse) / 3.0 / (b - a) ** 2
    m = max(2, int(round(nodes ** (1.0 / n))))
    v = f.value(_midpoint_grid(box, m)).ravel()
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    total = _sorted_pair_sum(v, np.full(v.size, vol / v.size))
    return total / vol ** (1.0 + 1.0 / n)


# ---------------------------------------------------------------------------
# omega over a whole window
# ---------------------------------------------------------------------------


def cube_key(q: Cube) -> tuple:
    return (q.shift.thirds, q.j, q.m)


def omega_window(f, window: GridWindow) -> dict[tuple, float]:
    """The dict view of omega over a window that the benchmark reads:
    omega_boxes on the window's arrays, keyed by cube_key of each cube of
    ``window.cubes()``, in that order.  The package itself reads the
    array."""
    oms = omega_boxes(f, window.arrays.lo, window.arrays.hi).tolist()
    return dict(zip(map(cube_key, window.cubes()), oms))


# ---------------------------------------------------------------------------
# weighted gradient norms
# ---------------------------------------------------------------------------


def grad_power_mass(f: TestFunction, lo: float, hi: float, p: float, w: Weight) -> float:
    """Integral of |f'|^p * w over [lo, hi]: `grad_power_masses` on one f."""
    return grad_power_masses([(f, lo, hi)], p, w)[0]


def grad_power_masses(probes, p: float, w: Weight) -> list[float]:
    """Integral of |f'|^p * w over [lo, hi] for each ``(f, lo, hi)`` of
    ``probes``; exact piece-by-piece when possible, with the masses under
    the linear pieces of every probe from one w.masses call, and each
    probe's pieces added in order."""
    spans = [[(max(lo, piece.x0), min(hi, piece.x1)) for piece in f.pieces] for f, lo, hi in probes]
    slopes = [[piece.line()[0] for piece in f.pieces] for f, _, _ in probes]
    ends = np.array([
        (a, b)
        for row, ss in zip(spans, slopes)
        for (a, b), s in zip(row, ss)
        if b > a and s != 0.0 and not math.isnan(s)
    ]).reshape(-1, 2)
    masses = iter(w.masses(ends[:, :1], ends[:, 1:]).tolist())
    return [
        _grad_pieces(f, row, ss, masses, p, w)
        for (f, _, _), row, ss in zip(probes, spans, slopes)
    ]


def _grad_pieces(f: TestFunction, spans, slopes, masses, p: float, w: Weight) -> float:
    """The sum over f's pieces of |f'|^p * w on each piece's span, the linear
    pieces' masses read in order from ``masses``."""
    total = 0.0
    for piece, (a, b), s in zip(f.pieces, spans, slopes):
        if not b > a or s == 0.0:
            continue
        if not math.isnan(s):
            total += abs(s) ** p * next(masses)
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
                    * PowerWeight(combined, c).mass((a, b))
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
    box = float_box(window)
    if getattr(f, "n", 1) == 1:
        ((lo, hi),) = box
        return grad_power_mass(f, lo, hi, p, w) ** (1.0 / p)
    m = 256

    def refine(m):
        grid = _midpoint_grid(box, m)
        g = f.grad_norm(grid) ** p * w.value(grid)
        cell = 1.0
        for lo, hi in box:
            cell *= (hi - lo) / m
        return float(g.sum() * cell)

    a, b = refine(m), refine(2 * m)
    return ((4 * b - a) / 3) ** (1.0 / p)


def _linear_l1_mass(f: TestFunction, w: Weight, lo: float, hi: float) -> float | None:
    """Integral of |f| w over the finite [lo, hi] in closed form when f is
    linear on every piece that meets it and w is |x - c|^a or a constant;
    None otherwise.  Each segment is cut at f's zero and at c, so on each
    part f keeps its sign and, with t = |x - c|, f = A + B t; the part then
    gives |A mass(|x - c|^a) + B mass(|x - c|^(a + 1))|.  A constant weight
    is a = 0, for which any c will do: each part takes its own left end,
    where A is f's value, so A and B t do not cancel.

    A part farther from c than its own length would lose about
    2 log10(distance / length) digits there, as A = f(c) and B t then
    cancel.  On such a part |x - c|^a is analytic inside the Bernstein
    ellipse of parameter 3 + sqrt(8) around it, so it takes 15-node
    Gauss-Legendre instead, exact to rounding.  The other parts take one
    power_integrals call for each of a and a + 1; the parts add in order."""
    if isinstance(w, PowerWeight):
        a, scale, centre = w.a, 1.0, w.center
    elif isinstance(w, ConstantWeight) and w.n == 1:
        a, scale, centre = 0.0, w.c, math.nan
    else:
        return None
    parts, closed = [], []  # closed: (part index, A, B, u, v, c)
    for piece in f.pieces:
        x0, x1 = max(lo, piece.x0), min(hi, piece.x1)
        if x1 <= x0:
            continue
        s, b = piece.line()
        if math.isnan(s):
            return None
        inner = [x for x in (centre, -b / s if s else math.nan) if x0 < x < x1]
        cuts = sorted([x0, x1, *inner])
        for u, v in zip(cuts, cuts[1:]):
            c = u if math.isnan(centre) else centre
            if min(abs(u - c), abs(v - c)) > v - u:
                t, wts = _gl(15)
                x = 0.5 * (u + v) + 0.5 * (v - u) * t
                parts.append(0.5 * (v - u) * float(wts @ ((s * x + b) * np.abs(x - c) ** a)))
            else:
                side = 1.0 if u >= c else -1.0
                closed.append((len(parts), s * c + b, side * s, u, v, c))
                parts.append(math.nan)
    if closed:
        k, lin, slope, u, v, c = (np.array(col) for col in zip(*closed))
        exact = lin * power_integrals(a, c, u, v) + slope * power_integrals(a + 1.0, c, u, v)
        for i, part in zip(k.tolist(), exact.tolist()):
            parts[i] = part
    total = 0.0
    for part in parts:
        total += abs(part)
    return scale * total


def weighted_lp_mass(f, w: Weight, p: float, lo: float, hi: float) -> float:
    """Integral of |f|^p w over [lo, hi]: in closed form at p = 1 where
    ``_linear_l1_mass`` applies, otherwise by adaptive quadrature."""
    if p == 1 and isinstance(f, TestFunction) and math.isfinite(hi - lo):
        exact = _linear_l1_mass(f, w, lo, hi)
        if exact is not None:
            return exact
    bps = list(getattr(f, "breakpoints", ())) + list(w.breakpoints())
    return adaptive_quad(
        lambda x: np.abs(f.value(x)) ** p * w.value(x), lo, hi, breakpoints=bps
    )


def mean_abs(f: TestFunction, lo, hi) -> np.ndarray:
    """Average of |f| over each interval [lo[i], hi[i]]: exact, in one array
    pass over the segment table, where f is piecewise linear on it (a
    segment on which f changes sign is split at its zero); where it meets
    another piece, by one adaptive_quads call over all such intervals, each
    value as one adaptive_quad on its interval alone would give."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    groups, other = _segment_table(f, lo, hi)
    out = np.zeros(lo.shape)
    for rows, (a, b, s, c) in groups:
        v0, v1 = s * a + c, s * b + c
        with np.errstate(divide="ignore", invalid="ignore"):  # z only where v changes sign
            z = -c / s
            parts = np.select(
                [(v0 >= 0) & (v1 >= 0), (v0 <= 0) & (v1 <= 0)],
                [0.5 * (v0 + v1) * (b - a), -0.5 * (v0 + v1) * (b - a)],
                0.5 * np.abs(v0) * (z - a) + 0.5 * np.abs(v1) * (b - z),
            )
        out[rows] = reduce(np.add, parts.T, np.zeros(rows.size))
    if other:
        problems = [(a, b, 1e-8, f.breakpoints, 20000) for a, b in zip(lo[other], hi[other])]
        quads = adaptive_quads(lambda x, _owner: np.abs(f.value(x)), problems)
        out[other] = [total for total, _ in quads]
    return out / (hi - lo)
