"""Daubechies wavelet systems sampled on dyadic grids, renormalized
coefficients, weighted sequence norms, and the weak-vs-strong coefficient
comparison against weighted Sobolev norms.

Scaling filters are built by spectral factorization of the Daubechies
polynomial; dyadic samples come from the integer-grid eigenvector refined
level by level, so the refinement equation holds on the sample grid to float
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from dyadicweights.funcspace import grad_power_mass, l1_weighted_norm
from dyadicweights.oscillation import LevelMass
from dyadicweights.records import VerificationRecord
from dyadicweights.weights import Weight, ap_constant, standard_probes


def daubechies_filter(order: int) -> np.ndarray:
    """Scaling filter of the order-N Daubechies family, 2N taps, sum sqrt(2)."""
    if not 1 <= order <= 10:
        raise ValueError("order must lie in [1, 10]")
    if order == 1:
        return np.array([1.0, 1.0]) / sqrt(2.0)
    poly = [comb(order - 1 + k, k) for k in range(order)]
    yroots = np.roots(poly[::-1])
    zs = []
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                zs.append(z)
    q = np.poly(zs)
    h = np.real(np.convolve([comb(order, k) for k in range(order + 1)], q))
    return h * (sqrt(2.0) / h.sum())


def _integer_values(h: np.ndarray) -> np.ndarray:
    """phi at the integers 0..2N-1: eigenvector of the refinement matrix."""
    taps = len(h)
    last = taps - 1
    if last == 1:  # Haar, discontinuous at the support ends
        return np.array([1.0, 0.0])
    m = np.zeros((last - 1, last - 1))
    for i in range(1, last):
        for j in range(1, last):
            k = 2 * i - j
            if 0 <= k <= last:
                m[i - 1, j - 1] = sqrt(2.0) * h[k]
    eigvals, eigvecs = np.linalg.eig(m)
    v = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1.0))])
    v = v / v.sum()
    return np.concatenate([[0.0], v, [0.0]])


class CascadeError(RuntimeError):
    pass


@dataclass
class WaveletSystem:
    """Sampled scaling function and wavelet on [0, 2N-1], spacing 2^-depth."""

    order: int
    depth: int
    h: np.ndarray
    g: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def support(self) -> tuple[float, float]:
        return 0.0, float(len(self.h) - 1)

    @property
    def dx(self) -> float:
        return 2.0**-self.depth

    def base(self, e: int) -> np.ndarray:
        return self.phi if e == 0 else self.psi

    def sample_value(self, e: int, u: np.ndarray) -> np.ndarray:
        """Linear interpolation of the sampled mother function at points u."""
        arr = self.base(e)
        pos = np.asarray(u, dtype=float) / self.dx
        idx = np.clip(np.floor(pos).astype(int), 0, len(arr) - 2)
        frac = pos - idx
        inside = (pos >= 0) & (pos <= len(arr) - 1)
        out = arr[idx] * (1 - frac) + arr[idx + 1] * frac
        return np.where(inside, out, 0.0)

    def refinement_residual(self) -> float:
        coarse = self.phi[::2]
        rec = np.zeros(len(coarse))
        idx = np.arange(len(coarse))
        for k, hk in enumerate(self.h):
            src = 2 * idx - k * 2 ** (self.depth - 1)
            src2 = 2 * src
            ok = (src2 >= 0) & (src2 < len(self.phi))
            rec[idx[ok]] += sqrt(2.0) * hk * self.phi[src2[ok]]
        return float(np.max(np.abs(rec - coarse)))

    def moment(self, k: int) -> float:
        xs = np.arange(len(self.psi)) * self.dx
        return float(np.sum(xs**k * self.psi) * self.dx)

    def orthonormality_residual(self, max_shift: int | None = None) -> float:
        if max_shift is None:
            max_shift = len(self.h) - 1
        worst = 0.0
        n = len(self.phi)
        for m in range(max_shift + 1):
            s = m * 2**self.depth
            if s >= n:
                break
            ip = float(np.sum(self.phi[s:] * self.phi[: n - s]) * self.dx)
            worst = max(worst, abs(ip - (1.0 if m == 0 else 0.0)))
        return worst


def build_daubechies(order: int, depth: int = 12) -> WaveletSystem:
    """Construct the sampled order-N system; depth is the dyadic resolution."""
    if not 8 <= depth <= 16:
        raise ValueError("depth must lie in [8, 16]")
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
            cur[odd[ok]] += sqrt(2.0) * hk * prev[src[ok]]
        phi = cur
    psi = np.zeros(len(phi))
    idx = np.arange(len(phi))
    for k, gk in enumerate(g):
        src = 2 * idx - k * 2**depth
        ok = (src >= 0) & (src < len(phi))
        psi[idx[ok]] += sqrt(2.0) * gk * phi[src[ok]]
    system = WaveletSystem(order=order, depth=depth, h=h, g=g, phi=phi, psi=psi)
    if system.refinement_residual() > 1e-8:
        raise CascadeError("refinement residual above 1e-8; cascade unreliable")
    return system


# ---------------------------------------------------------------------------
# atoms and coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomIndex:
    e: int  # 0 scaling, 1 wavelet (n = 1)
    j: int  # scale index: cube edge 2^-j
    k: int  # translation

    @property
    def volume(self) -> float:
        return 2.0**-self.j


def normalized_atom(system: WaveletSystem, idx: AtomIndex, p: float):
    """Value oracle of the L^p-normalized atom 2^(j/p) psi^e(2^j x - k)."""
    amp = 2.0 ** (idx.j / p) if math.isfinite(p) else 1.0
    scale = 2.0**idx.j

    def value(x):
        u = scale * np.asarray(x, dtype=float) - idx.k
        return amp * system.sample_value(idx.e, u)

    return value


def atom_lp_norm(system: WaveletSystem, idx: AtomIndex, p: float) -> float:
    """L^p norm of the normalized atom computed from the samples."""
    base = system.base(idx.e)
    if math.isinf(p):
        return float(np.max(np.abs(base)))
    return float(np.sum(np.abs(base) ** p) * system.dx) ** (1.0 / p)


@dataclass(frozen=True)
class IndexSet:
    """Truncation of the wavelet index family: scaling atoms at scale one
    plus wavelet atoms for j in [0, j_max], over a spatial window."""

    j_max: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.j_max < 0 or self.hi <= self.lo:
            raise ValueError("need j_max >= 0 and a nonempty window")

    def atoms(self, system: WaveletSystem) -> list[AtomIndex]:
        support = len(system.h) - 1
        out = []
        for j in range(0, self.j_max + 1):
            scale = 2.0**j
            k_lo = math.floor(self.lo * scale) - support
            k_hi = math.ceil(self.hi * scale)
            for k in range(k_lo, k_hi + 1):
                if j == 0:
                    out.append(AtomIndex(0, 0, k))
                out.append(AtomIndex(1, j, k))
        return out

    def boundary_flags(self, system: WaveletSystem, atoms) -> np.ndarray:
        support = len(system.h) - 1
        flags = np.zeros(len(atoms), dtype=bool)
        for i, a in enumerate(atoms):
            s_lo = a.k * 2.0**-a.j
            s_hi = (a.k + support) * 2.0**-a.j
            if s_lo < self.lo or s_hi > self.hi:
                flags[i] = True
        return flags


def _product_integral(fv: np.ndarray, gv: np.ndarray, dx: float) -> float:
    """Exact integral of the product of the two piecewise-linear interpolants
    through the shared sample values."""
    a0, a1 = fv[:-1], fv[1:]
    b0, b1 = gv[:-1], gv[1:]
    return float(np.sum(a0 * b0 + 0.5 * (a0 * (b1 - b0) + b0 * (a1 - a0)) + (a1 - a0) * (b1 - b0) / 3.0) * dx)


def coefficient(f, system: WaveletSystem, idx: AtomIndex, dual_p: float = 1.0) -> float:
    """Lebesgue pairing of f with the L^dual_p-normalized atom.

    The atom is exact at its sample grid; f is evaluated there and both are
    treated as piecewise linear between samples, so the cell integrals are
    closed forms.
    """
    base = system.base(idx.e)
    scale = 2.0**idx.j
    us = np.arange(len(base)) * system.dx
    xs = (us + idx.k) / scale
    fv = f.value(xs)
    amp = 2.0 ** (idx.j / dual_p)  # L^p amplitude at n = 1
    raw = _product_integral(fv, base, system.dx) / scale
    return amp * raw


def coefficients(
    f, system: WaveletSystem, index_set: IndexSet, dual_p: float = 1.0
) -> tuple[list[AtomIndex], np.ndarray]:
    atoms = index_set.atoms(system)
    vals = np.array([coefficient(f, system, a, dual_p) for a in atoms])
    return atoms, vals


def atom_weights(atoms, beta: float, w: Weight) -> np.ndarray:
    """Entry weights |I|^(beta-1) v(I) of the atoms' cubes I = [k, k+1)/2^j,
    with float ends k/2^j and (k+1)/2^j by int / int division."""
    return np.array(
        [
            a.volume ** (beta - 1.0)
            * w.interval_mass(a.k / 2**a.j, (a.k + 1) / 2**a.j)
            for a in atoms
        ]
    )


def _norms(u: np.ndarray, values: np.ndarray, p: float) -> tuple[float, float]:
    mags = np.abs(values)
    strong = float(np.sum(u * mags**p)) ** (1.0 / p)
    weak = LevelMass(mags, u).sup(p) ** (1.0 / p)
    return strong, weak


def seq_norms(
    atoms,
    values: np.ndarray,
    beta: float,
    w: Weight,
    p: float,
) -> tuple[float, float]:
    """Strong and weak weighted sequence norms of a finite coefficient family.

    Entry weights are |I|^(beta-1) v(I).  The weak norm is
    (sup over lam of lam^p * weight of entries with |a| > lam)^(1/p); the
    supremum is attained at coefficient magnitudes, so it is exact for finite
    families.
    """
    return _norms(atom_weights(atoms, beta, w), values, p)


def verify_almost_char(
    f,
    w: Weight,
    beta: float,
    system: WaveletSystem,
    index_set: IndexSet,
    ratio_ceiling: float = 100.0,
    probes=None,
    coeffs=None,
) -> VerificationRecord:
    """Weak sequence norm of the scale-deflated coefficients against the
    estimated-constant weighted Sobolev norm, with the strong-norm comparison
    reported when the truncated strong norm looks convergent.  ``coeffs`` is
    the (atoms, values) pair of ``coefficients(f, system, index_set)`` when
    already computed; otherwise it is computed here.
    """
    n = 1
    if system.order <= n + 1:
        raise ValueError("wavelet order must exceed n + 1")
    if not (beta < 1.0 - 1.0 / n or beta > 1.0):
        # n = 1: admissible beta is anything below 0 or above 1
        raise ValueError(f"beta={beta} outside the admissible range")
    atoms, vals = coeffs or coefficients(f, system, index_set, dual_p=1.0)
    deflated = vals / np.array([a.volume**beta for a in atoms])
    u = atom_weights(atoms, beta, w)
    strong, weak = _norms(u, deflated, 1.0)
    if probes is None:
        probes = standard_probes(w, scales=range(-index_set.j_max - 2, 6))
    est = ap_constant(w, 1.0, probes).value
    lo, hi = index_set.lo, index_set.hi
    l1 = l1_weighted_norm(f, w, lo, hi)
    grad1 = grad_power_mass(f, lo, hi, 1.0, w)
    middle = est * (l1 + grad1)
    left_ratio = weak / middle if middle > 0 else math.inf

    # convergence flag for the strong norm: per-generation tail decay
    per_gen: dict[int, float] = {}
    for a, uu, dv in zip(atoms, u, np.abs(deflated)):
        per_gen[a.j] = per_gen.get(a.j, 0.0) + uu * dv
    gens = sorted(per_gen)
    tail_decaying = len(gens) >= 3 and per_gen[gens[-1]] < per_gen[gens[-2]] < per_gen[gens[-3]]
    right_ratio = (
        middle / (est**2 * strong) if (tail_decaying and strong > 0) else math.nan
    )
    passed = left_ratio <= ratio_ceiling
    return VerificationRecord(
        name="almost_characterization",
        lhs=weak,
        rhs=middle,
        ratio=left_ratio,
        tolerance=ratio_ceiling,
        passed=bool(passed),
        details={
            "strong_norm": strong,
            "weak_norm": weak,
            "constant_estimate": est,
            "sobolev_norm": l1 + grad1,
            "right_ratio": right_ratio,
            "strong_convergent": bool(tail_decaying),
            "n_atoms": len(atoms),
            "boundary_atoms": int(index_set.boundary_flags(system, atoms).sum()),
        },
    )
