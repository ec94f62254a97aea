"""Weights on R^n: pointwise values, exact or quadrature masses, and
Muckenhoupt-type constant estimates from finite probe families.

The probe supremum is a certified lower bound for the true constant; sweeps
therefore track scaling of the estimate rather than absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from dyadicweights.grid import AxisCube, Cube
from dyadicweights.quadrature import adaptive_quad


class DomainError(ValueError):
    """Non-integrable singularity inside the integration region."""


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.center)


def _as_interval(region) -> tuple[float, float]:
    if isinstance(region, Cube):
        lo, hi = region.interval()
        return float(lo), float(hi)
    if isinstance(region, AxisCube):
        if region.n != 1:
            raise ValueError("interval conversion needs n = 1")
        return float(region.lower_corner[0]), float(region.lower_corner[0] + region.edge)
    if isinstance(region, Ball):
        if region.n != 1:
            raise ValueError("interval conversion needs n = 1")
        return region.center[0] - region.radius, region.center[0] + region.radius
    lo, hi = region
    return float(lo), float(hi)


def _box_of(region) -> list[tuple[float, float]]:
    if isinstance(region, Cube):
        los = region.lower()
        return [(float(l), float(l + region.edge)) for l in los]
    if isinstance(region, AxisCube):
        return [
            (float(l), float(l + region.edge)) for l in region.lower_corner
        ]
    raise ValueError(f"not a box region: {region!r}")


class Weight:
    """Base class; concrete weights implement value() and 1-d masses."""

    n: int = 1

    def value(self, x):
        raise NotImplementedError

    def interval_mass(self, lo: float, hi: float) -> float:
        raise NotImplementedError

    def interval_power_mass(self, lo: float, hi: float, s: float) -> float:
        """Integral of w^s over [lo, hi]."""
        raise NotImplementedError

    def ess_inf(self, lo: float, hi: float) -> float:
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    # -- region dispatch ---------------------------------------------------

    def mass(self, region) -> float:
        if self.n == 1:
            lo, hi = _as_interval(region)
            return self.interval_mass(lo, hi)
        if isinstance(region, Ball):
            return self._ball_mass(region)
        box = _box_of(region)
        return self._box_mass(box)

    def masses(self, lo: np.ndarray, hi: np.ndarray) -> list[float]:
        """Masses of N boxes given by (N, n) float corners, one closed-form
        call per box: interval_mass for n = 1, _box_mass otherwise."""
        if self.n == 1:
            pairs = zip(lo[:, 0].tolist(), hi[:, 0].tolist())
            return [self.interval_mass(a, b) for a, b in pairs]
        return [self._box_mass(list(zip(a, b))) for a, b in zip(lo.tolist(), hi.tolist())]

    def _box_mass(self, box) -> float:
        raise NotImplementedError

    def _ball_mass(self, ball: Ball) -> float:
        raise NotImplementedError

    def mean(self, region) -> float:
        if self.n == 1:
            lo, hi = _as_interval(region)
            return self.interval_mass(lo, hi) / (hi - lo)
        box = _box_of(region)
        vol = 1.0
        for lo, hi in box:
            vol *= hi - lo
        return self._box_mass(box) / vol


class ConstantWeight(Weight):
    def __init__(self, c: float, n: int = 1):
        if c <= 0:
            raise ValueError("constant weight must be positive")
        self.c = float(c)
        self.n = n

    def value(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] if self.n > 1 else x.shape
        return np.full(shape, self.c)

    def interval_mass(self, lo, hi):
        return self.c * max(0.0, hi - lo)

    def interval_power_mass(self, lo, hi, s):
        return self.c**s * max(0.0, hi - lo)

    def ess_inf(self, lo, hi):
        return self.c

    def _box_mass(self, box):
        vol = 1.0
        for lo, hi in box:
            vol *= hi - lo
        return self.c * vol

    def _ball_mass(self, ball):
        if ball.n == 1:
            return self.c * 2 * ball.radius
        if ball.n == 2:
            return self.c * math.pi * ball.radius**2
        raise NotImplementedError("ball mass implemented for n <= 2")

    def __repr__(self):
        return f"ConstantWeight({self.c})"


class PowerWeight(Weight):
    """w(x) = |x - center|^exponent on R (closed-form masses)."""

    def __init__(self, exponent: float, center: float = 0.0):
        if exponent <= -1:
            raise DomainError("exponent <= -1 is not locally integrable")
        self.a = float(exponent)
        self.center = float(center)
        self.n = 1

    def value(self, x):
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(x, dtype=float) - self.center) ** self.a

    def interval_power_mass(self, lo, hi, s):
        if hi <= lo:
            return 0.0
        e = self.a * s
        c = self.center
        if e <= -1 and lo < c < hi:
            raise DomainError(
                f"|x-{c}|^{e} is not integrable across its center"
            )
        if e <= -1 and (lo == c or hi == c):
            raise DomainError(f"|x-{c}|^{e} has endpoint singularity")

        def prim(d):  # integral of t^e over [0, d]
            return d ** (e + 1) / (e + 1)

        if hi <= c:
            return prim(c - lo) - prim(c - hi)
        if lo >= c:
            return prim(hi - c) - prim(lo - c)
        return prim(c - lo) + prim(hi - c)

    def interval_mass(self, lo, hi):
        return self.interval_power_mass(lo, hi, 1.0)

    def ess_inf(self, lo, hi):
        c, a = self.center, self.a
        if a == 0:
            return 1.0
        if a > 0:
            if lo <= c <= hi:
                return 0.0
            return min(abs(lo - c), abs(hi - c)) ** a
        return max(abs(lo - c), abs(hi - c)) ** a

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

    def _box_mass(self, box):
        out = 1.0
        for (lo, hi), f in zip(box, self.factors):
            out *= f.interval_mass(lo, hi)
        return out

    def _ball_mass(self, ball):
        if ball.n != 2:
            raise NotImplementedError("product ball mass implemented for n = 2")
        cx, cy = ball.center
        r = ball.radius
        w0, w1 = self.factors

        def slice_mass(x):
            x = np.atleast_1d(x)
            out = np.empty_like(x)
            for i, xi in enumerate(x):
                h = math.sqrt(max(0.0, r * r - (xi - cx) ** 2))
                out[i] = w0.value(np.array([xi]))[0] * w1.interval_mass(
                    cy - h, cy + h
                )
            return out

        bps = [cx + t for t in (-r, 0.0, r)]
        for b in w0.breakpoints():
            bps.append(b)
        return adaptive_quad(slice_mass, cx - r, cx + r, breakpoints=bps)

    def breakpoints(self):
        return tuple(b for f in self.factors for b in f.breakpoints())


class CallableWeight(Weight):
    """Weight given by a pointwise oracle; masses by adaptive quadrature."""

    def __init__(
        self,
        fn: Callable,
        n: int = 1,
        breakpoints: Sequence[float] = (),
        rel_tol: float = 1e-8,
        label: str = "callable",
    ):
        self.fn = fn
        self.n = n
        self._breaks = tuple(float(b) for b in breakpoints)
        self.rel_tol = rel_tol
        self.label = label
        self._cache: dict = {}

    def value(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def interval_mass(self, lo, hi):
        key = ("m", lo, hi)
        got = self._cache.get(key)
        if got is None:
            got = adaptive_quad(
                self.value, lo, hi, rel_tol=self.rel_tol, breakpoints=self._breaks
            )
            self._cache[key] = got  # idempotent fill
        return got

    def interval_power_mass(self, lo, hi, s):
        key = ("pm", lo, hi, s)
        got = self._cache.get(key)
        if got is None:
            got = adaptive_quad(
                lambda x: self.value(x) ** s,
                lo,
                hi,
                rel_tol=self.rel_tol,
                breakpoints=self._breaks,
            )
            self._cache[key] = got
        return got

    def ess_inf(self, lo, hi):
        # dense grid with one refinement; conservative (min of both levels)
        lvl = []
        for m in (513, 1025):
            xs = np.linspace(lo, hi, m)
            lvl.append(float(np.min(self.value(xs))))
        return min(lvl)

    def breakpoints(self):
        return self._breaks

    def __repr__(self):
        return f"CallableWeight({self.label})"


# ---------------------------------------------------------------------------
# Muckenhoupt constants
# ---------------------------------------------------------------------------


@dataclass
class ApEstimate:
    """Certified lower bound for the weight constant from a finite probe set."""

    p: float
    value: float
    certifying: object = None
    probe_count: int = 0
    unbounded: bool = False


def ap_ratio(w: Weight, p: float, region) -> float:
    """The per-cube constant ratio (exact arithmetic via closed-form masses)."""
    if w.n != 1 and not isinstance(w, (ConstantWeight, ProductWeight)):
        raise NotImplementedError("multi-d ratios need product structure")
    if w.n == 1:
        lo, hi = _as_interval(region)
        if p == 1:
            inf = w.ess_inf(lo, hi)
            if inf == 0.0:
                return math.inf
            return w.mean(region) / inf
        try:
            dual = w.interval_power_mass(lo, hi, -1.0 / (p - 1.0)) / (hi - lo)
        except DomainError:
            return math.inf
        if not math.isfinite(dual):
            return math.inf
        return w.mean(region) * dual ** (p - 1.0)
    # product structure: per-dimension ratios multiply
    box = _box_of(region)
    if isinstance(w, ConstantWeight):
        return 1.0
    out = 1.0
    for (lo, hi), f in zip(box, w.factors):
        out *= ap_ratio(f, p, (lo, hi))
    return out


def ap_constant(w: Weight, p: float, probes: Sequence) -> ApEstimate:
    """Max constant ratio over the probe family (monotone in the family)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not probes:
        raise ValueError("probe family must be nonempty")
    best, cert, unbounded = 0.0, None, False
    for q in probes:
        r = ap_ratio(w, p, q)
        if math.isinf(r):
            unbounded = True
            best, cert = math.inf, q
            break
        if r > best:
            best, cert = r, q
    return ApEstimate(p=p, value=best, certifying=cert, probe_count=len(probes), unbounded=unbounded)


def standard_probes(
    w: Weight,
    scales: Sequence[int] = range(-10, 11),
    centers: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Dyadic-scale intervals around 0 and the weight's singular centers."""
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
    return probes


def power_ap_member(a: float, p: float) -> bool:
    """Analytic membership of |x|^a (n = 1) in the class with exponent p."""
    if p == 1:
        return -1.0 < a <= 0.0
    return -1.0 < a < p - 1.0


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
    estimate: float | None = None,
    tol: float = 1e-6,
    maximal_tol: float = 0.05,
    rng: np.random.Generator | None = None,
) -> dict:
    """Run the three classical weight-constant checks; violations are findings.

    (i)   p = 1: a discretized maximal-function value at each sample point is
          at most estimate * w(x) * (1 + maximal_tol); the wider tolerance
          absorbs the mismatch between the probe-family estimate and the
          discretized supremum, which approach the true constant from below
          along different interval families.
    (ii)  doubling over measurable subsets: w(Q) <= estimate * (|Q|/|S|)^p w(S)
          for random finite unions S of dyadic subcubes of Q.
    (iii) p > 1: the extremal test function w^{1-p'} reproduces the per-cube
          ratio through an independent arithmetic path to 1e-9.
    """
    rng = rng or np.random.default_rng(0)
    if estimate is None:
        est = ap_constant(w, p, probes)
        estimate = est.value
    findings = []
    checks = {"maximal": 0, "doubling": 0, "dual": 0}

    if p == 1:
        radii = [2.0**k for k in range(-8, 5)]
        for x in sample_points:
            checks["maximal"] += 1
            mv = maximal_value(w, x, radii)
            vx = float(w.value(np.array([x]))[0])
            if mv > estimate * vx * (1 + maximal_tol):
                findings.append(
                    {"check": "maximal", "x": x, "maximal": mv, "bound": estimate * vx}
                )

    for q in probes:
        lo, hi = _as_interval(q)
        length = hi - lo
        wq = w.interval_mass(lo, hi)
        for _ in range(3):
            checks["doubling"] += 1
            # random union of depth-2 dyadic subintervals
            k = int(rng.integers(1, 4))
            picks = sorted(rng.choice(4, size=k, replace=False))
            s_mass, s_len = 0.0, 0.0
            for i in picks:
                a0 = lo + i * length / 4
                s_mass += w.interval_mass(a0, a0 + length / 4)
                s_len += length / 4
            lhs = wq
            rhs = estimate * (length / s_len) ** p * s_mass
            if lhs > rhs * (1 + tol):
                findings.append(
                    {"check": "doubling", "interval": (lo, hi), "lhs": lhs, "rhs": rhs}
                )

    if p > 1:
        pprime = p / (p - 1.0)
        for q in probes:
            lo, hi = _as_interval(q)
            checks["dual"] += 1
            try:
                dual_mass = w.interval_power_mass(lo, hi, 1.0 - pprime)
            except DomainError:
                continue
            if not math.isfinite(dual_mass) or dual_mass <= 0:
                continue
            direct = ap_ratio(w, p, (lo, hi))
            mean_f = dual_mass / (hi - lo)
            # extremal f = w^{1-p'}: integral of |f|^p w equals dual_mass
            extremal = mean_f**p * w.interval_mass(lo, hi) / dual_mass
            if not math.isfinite(direct):
                continue
            rel = abs(extremal - direct) / max(abs(direct), 1e-300)
            if rel > 1e-9:
                findings.append(
                    {"check": "dual", "interval": (lo, hi), "rel_err": rel}
                )

    return {"estimate": estimate, "p": p, "findings": findings, "checks": checks}


# ---------------------------------------------------------------------------
# config-facing constructors
# ---------------------------------------------------------------------------


def parse_weight_spec(spec: dict) -> Weight:
    """Build a weight from a flat config mapping (kind + parameters)."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantWeight(float(spec.get("c", 1.0)), n=int(spec.get("n", 1)))
    if kind == "power":
        return PowerWeight(float(spec["exponent"]), float(spec.get("center", 0.0)))
    if kind == "product":
        return ProductWeight([parse_weight_spec(s) for s in spec["factors"]])
    if kind == "table":
        xs = np.asarray(spec["xs"], dtype=float)
        vals = np.asarray(spec["values"], dtype=float)
        if np.any(vals < 0):
            raise ValueError("table weight values must be nonnegative")

        def fn(x):
            return np.interp(np.asarray(x, dtype=float), xs, vals)

        return CallableWeight(fn, breakpoints=tuple(xs), label="table")
    raise ValueError(f"unknown weight kind {kind!r}")
