"""Weights on R^n: pointwise values, closed-form masses, and
Muckenhoupt-type constant estimates from finite probe families.

The probe supremum is a certified lower bound for the true constant; sweeps
therefore track scaling of the estimate rather than absolute values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dyadicweights.grid import float_box
from dyadicweights.records import require_finite, typed


class DomainError(ValueError):
    """Non-integrable singularity inside the integration region."""


def powers(x, e) -> np.ndarray:
    """x ** e per element, bit for bit Python's float ** (the C pow that
    float_power calls; NumPy's SIMD power can differ in the last bit), and
    FloatingPointError where ** raises (0.0 ** -1, overflow) or is complex."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return np.float_power(x, e, out=np.empty(x.shape))


def dyadic_powers(k, e) -> np.ndarray:
    """(2^k)^e per element of the integer array ``k``, by Python's float **
    as ``powers`` takes it: each power is taken once per integer in k's
    range, fewer than one per cube, and indexed by k."""
    k = np.asarray(k)
    if not k.size:
        return np.zeros(k.shape)
    lo = int(k.min())
    return np.array([math.ldexp(1.0, g) ** e for g in range(lo, int(k.max()) + 1)])[k - lo]


def power_integrals(e: float, center, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of |x - center|^e over each row [lo[i], hi[i]], in one array
    pass; ``center`` is one float or one per row.  Rows with hi <= lo give
    0.0, and rows whose integral diverges (e <= -1 with the centre in
    [lo, hi]) give +inf.

    With the primitive prim(d) = d^(e+1) / (e+1) of t^e, a row across the
    centre gives prim of the distance from lo plus prim of the distance
    from hi, and a row on one side prim of the farther end's distance less
    prim of the nearer one's; at e = -1 that row gives
    log1p(length / nearer distance), by math.log1p.  The powers of both
    distance columns are taken by one ``powers`` call."""
    c = center
    out = np.zeros(lo.shape)
    live = hi > lo
    across = live & (lo < c) & (c < hi)
    if e <= -1:
        at_centre = live & (lo <= c) & (c <= hi)
        out[at_centre] = math.inf
        live &= ~at_centre
    to_lo, to_hi = np.abs(c - lo)[live], np.abs(hi - c)[live]
    if e == -1:
        ratio = (hi - lo)[live] / np.minimum(to_lo, to_hi)
        out[live] = [math.log1p(x) for x in ratio.tolist()]
        return out
    e1 = e + 1
    prim = powers(np.concatenate([to_lo, to_hi]), e1) / e1
    a, b = prim[: len(to_lo)], prim[len(to_lo) :]
    out[live] = np.where(across[live], a + b, np.where(to_lo > to_hi, a - b, b - a))
    return out


class Weight:
    """Base class.  A weight on R implements value(), ess_inf() and the mass
    kernel power_masses(); masses() of boxes is the one mass entry point."""

    n: int = 1

    def value(self, x):
        raise NotImplementedError

    def power_masses(self, lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
        """Integral of w^s over each row [lo[i], hi[i]] of (N,) ends: 0.0
        where hi <= lo, +inf where the integral diverges."""
        raise NotImplementedError

    def ess_inf(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Essential infimum of w over each row [lo[i], hi[i]]."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def _check_boxes(self, lo: np.ndarray) -> None:
        if lo.shape[1] != self.n:
            raise ValueError(f"{lo.shape[1]}-dimensional boxes, weight on R^{self.n}")

    def masses(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Masses of N boxes given by (N, n) float corners: the kernel at
        s = 1 for a weight on R."""
        self._check_boxes(lo)
        return self.power_masses(lo[:, 0], hi[:, 0], 1.0)

    def mass(self, region) -> float:
        """w(region) for anything grid.float_box takes: a one-row masses."""
        lo, hi = np.array(float_box(region)).T
        return float(self.masses(lo[None], hi[None])[0])


class ConstantWeight(Weight):
    def __init__(self, c: float, n: int = 1):
        if not 0 < c < math.inf:
            raise ValueError(f"constant weight must be positive and finite, got {c}")
        self.c = float(c)
        self.n = n

    def value(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] if self.n > 1 else x.shape
        return np.full(shape, self.c)

    def power_masses(self, lo, hi, s):
        return self.c**s * np.maximum(hi - lo, 0.0)

    def masses(self, lo, hi):
        # c times the volume, its edges multiplied in axis order
        self._check_boxes(lo)
        vol = np.maximum(hi[:, 0] - lo[:, 0], 0.0)
        for i in range(1, self.n):
            vol = vol * np.maximum(hi[:, i] - lo[:, i], 0.0)
        return self.c * vol

    def ess_inf(self, lo, hi):
        return np.full(np.shape(lo), self.c)

    def __repr__(self):
        return f"ConstantWeight({self.c})"


class PowerWeight(Weight):
    """w(x) = |x - center|^exponent on R (closed-form masses)."""

    def __init__(self, exponent: float, center: float = 0.0):
        if not (math.isfinite(exponent) and math.isfinite(center)):
            raise ValueError(f"power weight needs a finite exponent and center, got {exponent}, {center}")
        if exponent <= -1:
            raise DomainError("exponent <= -1 is not locally integrable")
        self.a = float(exponent)
        self.center = float(center)
        self.n = 1

    def value(self, x):
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(x, dtype=float) - self.center) ** self.a

    def power_masses(self, lo, hi, s):
        return power_integrals(self.a * s, self.center, lo, hi)

    def ess_inf(self, lo, hi):
        # the distance to the centre from the nearer end (a > 0, 0 across
        # the centre) or the farther end (a < 0), raised by Python's **
        c, a = self.center, self.a
        if a == 0:
            return np.ones(lo.shape)
        near, far = np.abs(lo - c), np.abs(hi - c)
        out = powers(np.minimum(near, far) if a > 0 else np.maximum(near, far), a)
        if a > 0:
            out[(lo <= c) & (c <= hi)] = 0.0
        return out

    def breakpoints(self):
        return (self.center,)

    def __repr__(self):
        return f"PowerWeight(|x-{self.center}|^{self.a})"


class ProductWeight(Weight):
    """Tensor product of one-dimensional weights; masses over boxes factor."""

    def __init__(self, factors: Sequence[Weight]):
        for f in factors:
            if f.n != 1:
                raise ValueError("factors must be one-dimensional")
        self.factors = list(factors)
        self.n = len(self.factors)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for i, f in enumerate(self.factors):
            out = out * f.value(x[..., i])
        return out

    def masses(self, lo, hi):
        # the factors' kernels at s = 1, multiplied in axis order
        self._check_boxes(lo)
        out = self.factors[0].power_masses(lo[:, 0], hi[:, 0], 1.0)
        for i, f in enumerate(self.factors[1:], 1):
            out = out * f.power_masses(lo[:, i], hi[:, i], 1.0)
        return out

    def breakpoints(self):
        return tuple(b for f in self.factors for b in f.breakpoints())


class TableWeight(Weight):
    """The piecewise-linear weight through the knots (xs, values), constant
    beyond the end knots.  Next to a zero knot it vanishes to first order or
    on a stretch, so w^s is not integrable across a zero knot for s <= -1,
    nor over a zero stretch for s < 0."""

    def __init__(self, xs, values):
        xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or not len(xs):
            raise ValueError("table weight needs 1-D xs and values of one nonzero length")
        if not (np.isfinite(xs).all() and np.isfinite(values).all()):
            raise ValueError("table weight knots and values must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table weight knots must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("table weight values must be nonnegative")
        self._knots = xs, values

    def value(self, x):
        return np.interp(np.asarray(x, dtype=float), *self._knots)

    def power_masses(self, lo, hi, s):
        """Integral of w^s over each row in closed form, in one array pass:
        each row is cut at the knots inside it, and on each segment w is
        alpha + beta x, running from w0 at one end to w1 >= w0 at the other
        over the length L.  The segment gives (w1^(s+1) - w0^(s+1)) /
        (beta (s+1)), or its log at s = -1, taken as

            L w0^s expm1((s+1) log1p(r)) / ((s+1) r),   r = (w1 - w0) / w0,

        which keeps its digits on a segment far shorter than its distance
        from w's zero (the plain difference loses them all on a deep probe
        cube); L w1^s / (s+1) where w0 = 0, and L w0^s where w is flat.  w0
        is the value at the end nearer the segment's lower knot, that knot's
        value plus |beta| times the distance, and w1 - w0 is |beta| L, so no
        subtraction cancels.  A row adds its segments in x order; rows where
        ``_diverges`` holds give +inf."""
        xs, ys = self._knots
        ends = np.concatenate(([-math.inf], xs, [math.inf]))
        u, v = np.maximum(lo[:, None], ends[:-1]), np.minimum(hi[:, None], ends[1:])
        row, seg = np.nonzero(v > u)
        u, v = u[row, seg], v[row, seg]
        # each segment's knots, the outer ones constant at the end values
        xa, xb = np.append(xs[0], xs)[seg], np.append(xs, xs[-1])[seg]
        ya, yb = np.append(ys[0], ys)[seg], np.append(ys, ys[-1])[seg]
        flat = (ya == yb) | (xa == xb)
        slope = np.divide(np.abs(yb - ya), xb - xa, out=np.zeros(seg.shape), where=~flat)
        low = np.where(ya <= yb, xa, xb)
        length = v - u
        w0 = np.minimum(ya, yb) + slope * np.minimum(np.abs(u - low), np.abs(v - low))
        rise, zero, e1 = slope * length, (w0 == 0.0) & ~flat, s + 1.0
        r = np.divide(rise, w0, out=np.ones(seg.shape), where=~(flat | zero)).tolist()
        if e1 == 0.0:
            phi = [math.log1p(x) / x for x in r]
        else:
            phi = [math.expm1(e1 * math.log1p(x)) / (e1 * x) for x in r]
        phi = np.where(flat, 1.0, phi)
        with np.errstate(divide="ignore"):
            parts = np.where(
                zero, length * _base_powers(rise, s) / e1, length * _base_powers(w0, s) * phi
            )
        table = np.zeros((len(lo), len(ends) - 1))
        table[row, seg] = parts
        out = functools.reduce(np.add, table.T, np.zeros(len(lo)))
        out[self._diverges(lo, hi, s) & (hi > lo)] = math.inf
        return out

    def _diverges(self, lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
        """Whether w^s is not integrable over each row: s <= -1 with a zero
        knot in [lo, hi], or s < 0 with a zero stretch (two consecutive
        zero knots) overlapping it."""
        xs, ys = self._knots
        zero = ys == 0.0
        at_zero = zero & (lo[:, None] <= xs) & (xs <= hi[:, None])
        overlap = np.maximum(xs[:-1], lo[:, None]) < np.minimum(xs[1:], hi[:, None])
        stretch = zero[:-1] & zero[1:] & overlap
        return ((s <= -1) & np.any(at_zero, axis=1)) | ((s < 0) & np.any(stretch, axis=1))

    def ess_inf(self, lo, hi):
        # w is linear between knots, so its minimum over a row is at one of
        # its ends or at a knot inside it; a knot outside the row stands in
        # as its left end
        xs = self._knots[0][:, None]
        at = np.where((lo <= xs) & (xs <= hi), xs, lo)
        return np.min(self.value(np.concatenate([lo[None], hi[None], at])), axis=0)

    def breakpoints(self):
        return tuple(self._knots[0].tolist())

    def __repr__(self):
        xs, ys = self._knots
        return f"TableWeight({xs.tolist()}, {ys.tolist()})"


def _base_powers(x: np.ndarray, s: float) -> np.ndarray:
    """x ** s of x >= 0 by ``powers``, with 0 ** s read as 0, 1 or +inf for
    s > 0, s = 0 and s < 0, where Python's ** raises."""
    return np.where(x > 0.0, powers(np.where(x > 0.0, x, 1.0), s), 0.0**s if s >= 0 else math.inf)


# ---------------------------------------------------------------------------
# Muckenhoupt constants
# ---------------------------------------------------------------------------


@dataclass
class ApEstimate:
    """Certified lower bound for the weight constant from a finite probe set."""

    value: float

    @classmethod
    def from_ratios(cls, ratios: np.ndarray) -> ApEstimate:
        """The max of the ratios and 0.0: inf is unbounded, NaN is refused."""
        if np.isnan(ratios).any():
            raise ValueError(f"constant ratio NaN on {np.isnan(ratios).sum()} of {len(ratios)} probes")
        return cls(max([0.0, *ratios.tolist()]))

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)

    def bound(self, norm: float, exponent: float) -> tuple[float, bool]:
        """Right side C^exponent * norm of a check against the estimated
        constant C, and whether the check is certified.  An unbounded
        estimate certifies nothing; its right side is the bare norm."""
        if self.unbounded:
            return norm, False
        return self.value**exponent * norm, True


def _axis_ratios(w: Weight, p: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The constant ratio of each interval [lo[i], hi[i]] for a weight on R:
    the mean of w over its ess inf at p = 1, otherwise the mean of w times
    the mean of w^(-1/(p-1)) to the p - 1.  It is inf where the ess inf is
    0 or the dual mass is not finite."""
    mean = w.power_masses(lo, hi, 1.0) / (hi - lo)
    if p == 1:
        inf = w.ess_inf(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(inf == 0.0, math.inf, mean / inf)
    dual = w.power_masses(lo, hi, -1.0 / (p - 1.0)) / (hi - lo)
    finite = np.isfinite(dual)
    # Python's float **, as the scalar form took it
    powered = powers(np.where(finite, dual, 0.0), p - 1.0)
    return np.where(finite, mean * powered, math.inf)


def _probe_boxes(probes: Sequence) -> np.ndarray:
    """The (N, n, 2) float ends of a probe family, each end float() of
    itself as grid.float_box takes it.  A family of (lo, hi) pairs, as
    standard_probes gives, is one NumPy call; any other family (Cube or
    AxisCube probes, boxes given as sequences of pairs) takes one float_box
    per probe."""
    try:
        ends = np.array(probes, dtype=float)
    except (TypeError, ValueError):
        pass
    else:
        if ends.shape == (len(probes), 2):
            return ends[:, None, :]
    return np.array([float_box(q) for q in probes])


def ap_ratios(w: Weight, p: float, probes: Sequence) -> np.ndarray:
    """The constant ratio of each probe of a nonempty family, for p >= 1:
    one kernel call for the masses, and one ess_inf call (p = 1) or one
    dual kernel call (p > 1).  A product weight multiplies its per-axis
    ratios in axis order; a constant weight on R^n, n >= 2, has ratio 1."""
    require_finite(p=p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if not probes:
        raise ValueError("probe family must be nonempty")
    if w.n != 1 and not isinstance(w, (ConstantWeight, ProductWeight)):
        raise NotImplementedError("multi-d ratios need product structure")
    if isinstance(w, ConstantWeight) and w.n != 1:
        return np.ones(len(probes))
    box = _probe_boxes(probes)
    factors = w.factors if isinstance(w, ProductWeight) else [w]
    out = _axis_ratios(factors[0], p, box[:, 0, 0], box[:, 0, 1])
    for i, f in enumerate(factors[1:], 1):
        out = out * _axis_ratios(f, p, box[:, i, 0], box[:, i, 1])
    return out


def ap_constant(w: Weight, p: float, probes: Sequence) -> ApEstimate:
    """Max constant ratio over the probe family (monotone in the family)."""
    return ApEstimate.from_ratios(ap_ratios(w, p, probes))


def standard_probes(
    w: Weight,
    scales: Sequence[int] = range(-10, 11),
    centers: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Dyadic-scale intervals around 0 and the weight's singular centers, each
    once, in the order they are first formed: the families of two centers
    can meet (|x - 1/2| has (0, 1) around 0 and around 1/2)."""
    if centers is None:
        centers = (0.0,) + tuple(w.breakpoints())
    probes = []
    for c in dict.fromkeys(centers):
        for k in scales:
            h = 2.0**k
            probes.append((c - h, c + h))
            probes.append((c, c + 2 * h))
            probes.append((c - 2 * h, c))
            # asymmetric straddling probes; these attain the two-sided
            # extremals that symmetric and one-sided intervals miss
            for r in (2.0, 4.0, 8.0):
                probes.append((c - h, c + r * h))
                probes.append((c - r * h, c + h))
    return list(dict.fromkeys(probes))


def power_ap_member(a: float, p: float) -> bool:
    """Analytic membership of |x|^a (n = 1) in the class with exponent p."""
    if p == 1:
        return -1.0 < a <= 0.0
    return -1.0 < a < p - 1.0


# ---------------------------------------------------------------------------
# config-facing constructors
# ---------------------------------------------------------------------------


def parse_weight_spec(spec) -> Weight:
    """A weight from a flat config mapping: kind and parameters, each typed by records.typed."""

    def read(key, default):
        return typed(key, spec.get(key, default), type(default))

    kind = read("kind", "constant")
    if kind == "constant":
        return ConstantWeight(read("c", 1.0), n=read("n", 1))
    if kind == "power":
        return PowerWeight(typed("exponent", spec["exponent"], float), read("center", 0.0))
    if kind == "table":
        return TableWeight(spec["xs"], spec["values"])
    raise ValueError(f"unknown weight kind {kind!r}")
