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

from dyadicweights.grid import float_box
from dyadicweights.quadrature import adaptive_quad


class DomainError(ValueError):
    """Non-integrable singularity inside the integration region."""


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

    def _mass_and_volume(self, region) -> tuple[float, float]:
        """w(region) and |region| for anything grid.float_box takes:
        interval_mass for n = 1, _box_mass otherwise."""
        box = float_box(region)
        if len(box) != self.n:
            raise ValueError(f"{len(box)}-dimensional region, weight on R^{self.n}")
        vol = 1.0
        for lo, hi in box:
            vol *= hi - lo
        if self.n == 1:
            ((lo, hi),) = box
            return self.interval_mass(lo, hi), vol
        return self._box_mass(box), vol

    def mass(self, region) -> float:
        return self._mass_and_volume(region)[0]

    def masses(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Masses of N boxes given by (N, n) float corners, each bit for bit
        the mass of its box."""
        if lo.shape[1] != self.n:
            raise ValueError(f"{lo.shape[1]}-dimensional boxes, weight on R^{self.n}")
        return self._masses(lo, hi)

    def _masses(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # one closed-form or quadrature call per box: interval_mass for
        # n = 1, _box_mass otherwise
        if self.n == 1:
            pairs = zip(lo[:, 0].tolist(), hi[:, 0].tolist())
            return np.array([self.interval_mass(a, b) for a, b in pairs], dtype=float)
        boxes = zip(lo.tolist(), hi.tolist())
        return np.array([self._box_mass(list(zip(a, b))) for a, b in boxes], dtype=float)

    def _box_mass(self, box) -> float:
        raise NotImplementedError

    def mean(self, region) -> float:
        mass, vol = self._mass_and_volume(region)
        return mass / vol


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

    def _masses(self, lo, hi):
        # interval_mass and _box_mass, in one array pass
        if self.n == 1:
            return self.c * np.maximum(hi[:, 0] - lo[:, 0], 0.0)
        vol = np.ones(len(lo))
        for i in range(self.n):
            vol = vol * (hi[:, i] - lo[:, i])
        return self.c * vol

    def ess_inf(self, lo, hi):
        return self.c

    def _box_mass(self, box):
        vol = 1.0
        for lo, hi in box:
            vol *= hi - lo
        return self.c * vol

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
        if e == -1:  # log((near + (hi - lo)) / near), near the closer end's distance
            return math.log1p((hi - lo) / (c - hi if hi <= c else lo - c))

        def prim(d):  # integral of t^e over [0, d]
            return d ** (e + 1) / (e + 1)

        if hi <= c:
            return prim(c - lo) - prim(c - hi)
        if lo >= c:
            return prim(hi - c) - prim(lo - c)
        return prim(c - lo) + prim(hi - c)

    def power_masses(self, lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
        """interval_power_mass of each row [lo[i], hi[i]], bit for bit, in one
        array pass: the same float steps, with the three centre cases taken
        by np.where and each prim(d) = d^(e+1) / (e+1) by Python's float **
        (NumPy's SIMD power can differ from it in the last bit), once per
        distinct d, since the cubes of a window share their ends.  Rows with
        hi <= lo give 0.0; DomainError is raised where the scalar path
        raises it."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        e, c = self.a * s, self.center
        live = hi > lo
        if e <= -1:
            bad = np.flatnonzero(live & (lo <= c) & (c <= hi))
            if len(bad):
                self.interval_power_mass(float(lo[bad[0]]), float(hi[bad[0]]), s)
        lo, hi = lo[live], hi[live]
        out = np.zeros(len(live))
        left, right = hi <= c, lo >= c
        if e == -1:  # the log form, by math.log1p as the scalar path
            ratio = (hi - lo) / np.where(left, c - hi, lo - c)
            out[live] = [math.log1p(x) for x in ratio.tolist()]
            return out
        e1 = e + 1
        # prim(first) -/+ prim(second), the operands of interval_power_mass
        d = np.concatenate([
            np.where(right, hi - c, c - lo),
            np.where(left, c - hi, np.where(right, lo - c, hi - c)),
        ])
        # return_inverse also keeps np.unique from importing numpy.ma (1.7 MB)
        uniq, inv = np.unique(d, return_inverse=True)
        prim = np.array([x**e1 / e1 for x in uniq.tolist()])[inv]
        first, second = prim[: len(lo)], prim[len(lo) :]
        out[live] = np.where(left | right, first - second, first + second)
        return out

    def _masses(self, lo, hi):
        return self.power_masses(lo[:, 0], hi[:, 0], 1.0)

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

    def breakpoints(self):
        return tuple(b for f in self.factors for b in f.breakpoints())


class CallableWeight(Weight):
    """Weight on R given by a pointwise oracle; masses by adaptive quadrature.

    The breakpoints are where the oracle's formula changes, as the knots of
    a table weight.  A weight that is 0 at two consecutive breakpoints is
    taken to be 0 between them, as a table weight is.
    """

    def __init__(
        self,
        fn: Callable,
        breakpoints: Sequence[float] = (),
        label: str = "callable",
    ):
        self.fn = fn
        self._breaks = tuple(float(b) for b in breakpoints)
        self.label = label
        self._cache: dict = {}

    def value(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def interval_mass(self, lo, hi):
        key = ("m", lo, hi)
        got = self._cache.get(key)
        if got is None:
            got = adaptive_quad(self.value, lo, hi, breakpoints=self._breaks)
            self._cache[key] = got  # idempotent fill
        return got

    def interval_power_mass(self, lo, hi, s):
        key = ("pm", lo, hi, s)
        got = self._cache.get(key)
        if got is None:
            if s < 0 and self._vanishes_on_a_stretch(lo, hi):
                raise DomainError(f"w^{s} is infinite on a stretch of [{lo}, {hi}]")
            got = adaptive_quad(
                lambda x: self.value(x) ** s, lo, hi, breakpoints=self._breaks
            )
            self._cache[key] = got
        return got

    def _vanishes_on_a_stretch(self, lo, hi) -> bool:
        """Whether w is 0 at two consecutive breakpoints whose stretch
        overlaps [lo, hi]: quadrature nodes that land there give w^s = inf
        for s < 0, and the quadrature counts such values as 0."""
        b = np.array(sorted(self._breaks))
        zero = self.value(b) == 0.0
        overlap = np.maximum(b[:-1], lo) < np.minimum(b[1:], hi)
        return bool(np.any(zero[:-1] & zero[1:] & overlap))

    def ess_inf(self, lo, hi):
        # dense grid with one refinement plus the breakpoints inside, where a
        # table weight takes its minimum; conservative (min of all points)
        inside = [b for b in self._breaks if lo <= b <= hi]
        xs = np.concatenate([np.linspace(lo, hi, 513), np.linspace(lo, hi, 1025), inside])
        return float(np.min(self.value(xs)))

    def breakpoints(self):
        return self._breaks

    def __repr__(self):
        return f"CallableWeight({self.label})"


class TableWeight(CallableWeight):
    """The piecewise-linear weight through the knots (xs, values), constant
    beyond the end knots.  Next to a zero knot it vanishes to first order or
    on a stretch, so w^s is not integrable across a zero knot for s <= -1."""

    def __init__(self, xs, values):
        xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
        super().__init__(
            lambda x: np.interp(np.asarray(x, dtype=float), xs, values),
            breakpoints=tuple(xs),
            label="table",
        )

    def interval_power_mass(self, lo, hi, s):
        knots = np.array(self._breaks)
        if s <= -1 and np.any((self.value(knots) == 0.0) & (lo <= knots) & (knots <= hi)):
            raise DomainError(f"w^{s} is not integrable at a zero knot in [{lo}, {hi}]")
        return super().interval_power_mass(lo, hi, s)


# ---------------------------------------------------------------------------
# Muckenhoupt constants
# ---------------------------------------------------------------------------


@dataclass
class ApEstimate:
    """Certified lower bound for the weight constant from a finite probe set."""

    value: float

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


def ap_ratio(w: Weight, p: float, region) -> float:
    """The per-cube constant ratio (exact arithmetic via closed-form masses)."""
    if w.n != 1 and not isinstance(w, (ConstantWeight, ProductWeight)):
        raise NotImplementedError("multi-d ratios need product structure")
    box = float_box(region)
    if w.n == 1:
        ((lo, hi),) = box
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
    if isinstance(w, ConstantWeight):
        return 1.0
    out = 1.0
    for (lo, hi), f in zip(box, w.factors):
        out *= ap_ratio(f, p, (lo, hi))
    return out


def ap_ratios(w: Weight, p: float, probes: Sequence):
    """ap_ratio on each probe of a nonempty family in turn, for p >= 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not probes:
        raise ValueError("probe family must be nonempty")
    for q in probes:
        yield ap_ratio(w, p, q)


def ap_constant(w: Weight, p: float, probes: Sequence) -> ApEstimate:
    """Max constant ratio over the probe family (monotone in the family)."""
    best = 0.0
    for r in ap_ratios(w, p, probes):
        best = max(best, r)
        if math.isinf(best):
            break
    return ApEstimate(best)


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


def parse_weight_spec(spec: dict) -> Weight:
    """Build a weight from a flat config mapping (kind + parameters)."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantWeight(float(spec.get("c", 1.0)), n=int(spec.get("n", 1)))
    if kind == "power":
        return PowerWeight(float(spec["exponent"]), float(spec.get("center", 0.0)))
    if kind == "product":
        if not all(isinstance(s, dict) for s in spec["factors"]):
            raise ValueError("product factors must be weight spec mappings")
        return ProductWeight([parse_weight_spec(s) for s in spec["factors"]])
    if kind == "table":
        if np.any(np.asarray(spec["values"], dtype=float) < 0):
            raise ValueError("table weight values must be nonnegative")
        return TableWeight(spec["xs"], spec["values"])
    raise ValueError(f"unknown weight kind {kind!r}")
