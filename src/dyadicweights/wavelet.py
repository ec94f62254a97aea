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
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import comb, sqrt
from typing import NamedTuple

import numpy as np

from dyadicweights.funcspace import TestFunction, _taylor_rows, grad_power_mass, weighted_lp_mass
from dyadicweights.oscillation import LevelMass
from dyadicweights.records import RATIO_CEILING, VerificationRecord, require_finite
from dyadicweights.weights import Weight, ap_constant, dyadic_powers, standard_probes


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


@dataclass(frozen=True, eq=False)
class WaveletSystem:
    """Sampled scaling function and wavelet on [0, 2N-1], spacing 2^-depth,
    with the largest residual of the refinement equation on the samples.

    One system is shared by every caller of ``build_daubechies`` with its
    (order, depth): its arrays are read-only, and each value that depends
    only on the system is computed on first use and kept on it."""

    order: int
    depth: int
    h: np.ndarray
    g: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    refinement_residual: float
    # cell_moments tables by degree count
    _moment_tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dx(self) -> float:
        return 2.0**-self.depth

    def moment(self, k: int) -> float:
        xs = np.arange(len(self.psi)) * self.dx
        return float(np.sum(xs**k * self.psi) * self.dx)

    @cached_property
    def moment_residuals(self) -> tuple[float, ...]:
        """|moment(k)| of psi for k = 0 .. order - 1, all 0 in exact arithmetic."""
        return tuple(abs(self.moment(k)) for k in range(self.order))

    @cached_property
    def orthonormality_residual(self) -> float:
        """Largest deviation of <phi, phi(. - m)> from delta_m over the
        shifts m = 0 .. len(h) - 1."""
        worst = 0.0
        n = len(self.phi)
        for m in range(len(self.h)):
            s = m * 2**self.depth
            if s >= n:
                break
            ip = float(np.sum(self.phi[s:] * self.phi[: n - s]) * self.dx)
            worst = max(worst, abs(ip - (1.0 if m == 0 else 0.0)))
        return worst

    @cached_property
    def cell_masses(self) -> np.ndarray:
        """(step + 1, 2S) matrix whose column s (S + s) is the P1 mass matrix
        of one unit cell, (dx/6) tridiag(1, 4, 1) with corners 2, applied to
        the samples of support cell s of phi (psi): a cell's samples of f
        dotted with a column give the exact product integral of the
        interpolants over that cell."""
        step = 2**self.depth
        span = len(self.h) - 1
        out = np.empty((2 * span, step + 1))
        for i, base in enumerate((self.phi, self.psi)):
            cells = np.lib.stride_tricks.sliding_window_view(base, step + 1)[::step]
            m = out[i * span : (i + 1) * span]
            np.multiply(cells, 2.0, out=m)
            m[:, 1:-1] *= 2.0
            m[:, 1:] += cells[:, :-1]
            m[:, :-1] += cells[:, 1:]
        out *= self.dx / 6.0
        out.setflags(write=False)
        return out.T

    def cell_moments(self, count: int) -> np.ndarray:
        """(count, 2S) matrix M with M[k] = (u_i^k) @ cell_masses over the
        sample abscissae u_i = i dx of one cell, k < count."""
        table = self._moment_tables.get(count)
        if table is None:
            us = np.arange(2**self.depth + 1) * self.dx
            # u_i^k (exact), contiguous: the strided product sums 10x less accurately
            table = np.vander(us, count, increasing=True).T.copy() @ self.cell_masses
            table.setflags(write=False)
            self._moment_tables[count] = table
        return table


def _add_taps(dst: np.ndarray, src: np.ndarray, taps, step: int, base: int, shift: int):
    """dst[m] += sqrt(2) tap_k src[step m + base - k shift] for each tap k in
    order, wherever that source index lies in src: one strided slice per tap."""
    for k, tk in enumerate(taps):
        off = base - k * shift
        m0 = max(0, -(off // step))
        m1 = min(len(dst), (len(src) - 1 - off) // step + 1)
        if m1 > m0:
            first = off + step * m0
            dst[m0:m1] += sqrt(2.0) * tk * src[first : first + step * (m1 - m0 - 1) + 1 : step]


def _refinement_residual(h: np.ndarray, phi: np.ndarray, depth: int) -> float:
    """Largest deviation of phi at the even samples from the refinement
    sum sqrt(2) sum_k h_k phi(2x - k) over the samples."""
    coarse = phi[::2]
    rec = np.zeros(len(coarse))
    _add_taps(rec, phi, h, 4, 0, 2**depth)
    return float(np.max(np.abs(rec - coarse)))


# Systems kept per process: an order-10 system at depth 16 holds about 20 MB
# in phi and psi, and one run uses one system.
_SYSTEMS_KEPT = 4


def build_daubechies(order: int, depth: int = 12) -> WaveletSystem:
    """The sampled order-N system at dyadic resolution depth, built once per
    (order, depth) and process and shared by every later call."""
    order, depth = operator.index(order), operator.index(depth)
    if not 8 <= depth <= 16:
        raise ValueError("depth must lie in [8, 16]")
    return _build_daubechies(order, depth)  # daubechies_filter checks order


@lru_cache(maxsize=_SYSTEMS_KEPT)
def _build_daubechies(order: int, depth: int) -> WaveletSystem:
    h = daubechies_filter(order)
    last = len(h) - 1
    g = np.array([(-1.0) ** k * h[last - k] for k in range(last + 1)])
    phi = _integer_values(h)
    for d in range(1, depth + 1):
        cur = np.zeros(2 * (len(phi) - 1) + 1)
        cur[0::2] = phi
        # odd sample 2m + 1 reads the previous level at 2m + 1 - k 2^(d-1)
        _add_taps(cur[1::2], phi, h, 2, 1, 2 ** (d - 1))
        phi = cur
    psi = np.zeros(len(phi))
    _add_taps(psi, phi, g, 2, 0, 2**depth)
    residual = _refinement_residual(h, phi, depth)
    if residual > 1e-8:
        raise CascadeError("refinement residual above 1e-8; cascade unreliable")
    for a in (h, g, phi, psi):
        a.setflags(write=False)
    return WaveletSystem(order, depth, h, g, phi, psi, residual)


# ---------------------------------------------------------------------------
# atoms and coefficients
# ---------------------------------------------------------------------------


class AtomIndex(NamedTuple):
    e: int  # 0 scaling, 1 wavelet (n = 1)
    j: int  # scale index: cube edge 2^-j
    k: int  # translation


# AtomIndex from an (e, j, k) tuple, without the Python-level __new__
_atom = partial(tuple.__new__, AtomIndex)


@dataclass(frozen=True)
class IndexSet:
    """Truncation of the wavelet index family: scaling atoms at scale one
    plus wavelet atoms for j in [0, j_max], over a spatial window."""

    j_max: int
    lo: float
    hi: float

    def __post_init__(self):
        require_finite(lo=self.lo, hi=self.hi)
        if self.j_max < 0 or self.hi <= self.lo:
            raise ValueError("need j_max >= 0 and a nonempty window")

    def translations(self, system: WaveletSystem, j: int) -> range:
        """The consecutive k of generation j: every atom whose support
        [k, k + 2N - 1]/2^j meets the window."""
        scale = 2.0**j
        return range(
            math.floor(self.lo * scale) - (len(system.h) - 1),
            math.ceil(self.hi * scale) + 1,
        )

    def arrays(self, system: WaveletSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The atoms' (e, j, k) as int arrays, generation by generation, k
        ascending; at j = 0 the scaling atom of each k comes just before its
        wavelet atom."""
        es, js, ks = [], [], []
        for j in range(0, self.j_max + 1):
            ts = self.translations(system, j)
            kinds = 2 if j == 0 else 1
            es.append(np.tile(np.arange(2 - kinds, 2), len(ts)))
            js.append(np.full(kinds * len(ts), j))
            ks.append(np.repeat(np.arange(ts.start, ts.stop), kinds))
        return tuple(np.concatenate(c) for c in (es, js, ks))

    def atoms(self, system: WaveletSystem) -> list[AtomIndex]:
        """The rows of ``arrays`` as AtomIndex tuples."""
        return list(map(_atom, zip(*(c.tolist() for c in self.arrays(system)))))

    def boundary_flags(self, system: WaveletSystem, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether the support [k, k + 2N - 1]/2^j of each atom, given by its
        ``arrays`` j and k, leaves the window."""
        scale = np.ldexp(1.0, j)
        return (k / scale < self.lo) | ((k + len(system.h) - 1) / scale > self.hi)


def coefficients(
    f: TestFunction, system: WaveletSystem, index_set: IndexSet
) -> tuple[list[AtomIndex], np.ndarray]:
    """The Lebesgue pairing of f with each L^1-normalized atom 2^j
    psi^e(2^j x - k) of ``index_set``, in the order of its atoms, computed
    generation by generation from unit cells [c, c + 1]/2^j.

    Atom k of generation j covers the S support cells k .. k + S - 1 and sums
    its S diagonal entries of ``pair``, each cell's P1 pairing with every
    support cell of phi and psi (``WaveletSystem.cell_masses``).  A cell
    whose two ends lie in one polynomial piece of f (the piece rule of
    ``TestFunction._table``) takes its row in closed form: with b the
    piece's coefficients in u = 2^j x - c, one Taylor shift of its row of
    f's table from the piece's anchor to the cell, the row is b @ M, with M
    the system's ``cell_moments`` table.  Only the other cells, which a
    breakpoint or a power piece meets, evaluate f, on the per-atom abscissae
    bit for bit.  The per-atom oracle of the tests
    samples f on every cell; the two agree to rounding, and a psi atom inside one piece comes
    out at rounding level, not as an exact 0.
    """
    atoms = index_set.atoms(system)
    step = 2**system.depth
    span = len(system.h) - 1  # S, the support length in cells
    masses = system.cell_masses
    us = np.arange(step + 1) * system.dx
    # ascending coefficients in x minus each piece's anchor, 0 on power pieces
    anchors, coef = f._anchors, f._value_rows[::-1].T
    moments = system.cell_moments(coef.shape[1])
    poly = np.array([p.kind == "poly" for p in f.pieces])
    vals = np.empty(len(atoms))
    start = 0
    for j in range(index_set.j_max + 1):
        ks = index_set.translations(system, j)
        kinds = 2 if j == 0 else 1  # phi and psi share the cells at j = 0
        cols = slice((2 - kinds) * span, None)
        scale = 2.0**j
        corners = np.arange(ks.start, ks.stop + span - 1)
        piece = np.searchsorted(f._edges, corners / scale, side="right")
        right = np.searchsorted(f._edges, (corners + 1) / scale, side="right")
        closed = (piece == right) & poly[piece]
        pair = np.empty((len(corners), kinds * span))
        at = piece[closed]
        taylor = _taylor_rows(coef[at], corners[closed] / scale - anchors[at], scale)
        pair[closed] = taylor @ moments[:, cols]
        sampled = np.flatnonzero(~closed)
        for first in range(0, len(sampled), span):
            rows = sampled[first : first + span]
            xs = (us + corners[rows, None]) / scale
            pair[rows] = f.value(xs) @ masses[:, cols]
        amp = 2.0**j  # L^1 amplitude at n = 1
        for i in range(kinds):
            raw = sum(pair[s : s + len(ks), i * span + s] for s in range(span))
            vals[start + i : start + kinds * len(ks) : kinds] = amp * (raw / scale)
        start += kinds * len(ks)
    return atoms, vals


def atom_weights(j: np.ndarray, k: np.ndarray, beta: float, w: Weight) -> np.ndarray:
    """Entry weights |I|^(beta-1) v(I) of the atoms' cubes I = [k, k+1)/2^j,
    from the atoms' j and k arrays, with float ends k/2^j and (k+1)/2^j
    (exact: |k| < 2^53) and the masses by one ``Weight.masses`` call."""
    ks = k.astype(float)
    lo, hi = np.ldexp(ks, -j), np.ldexp(ks + 1.0, -j)
    return dyadic_powers(-j, beta - 1.0) * w.masses(lo[:, None], hi[:, None])


def _norms(u: np.ndarray, values: np.ndarray, p: float) -> tuple[float, float]:
    mags = np.abs(values)
    strong = float(np.sum(u * mags**p)) ** (1.0 / p)
    weak = LevelMass(mags, u).sup(p) ** (1.0 / p)
    return strong, weak


def require_admissible(order: int, beta: float) -> None:
    """Refuse a wavelet order or a beta outside the characterization's range
    on R^n, n = 1: the order must exceed n + 1, and beta must lie below
    1 - 1/n = 0 or above 1."""
    n = 1
    require_finite(beta=beta)
    if order <= n + 1:
        raise ValueError("wavelet order must exceed n + 1")
    if not (beta < 1.0 - 1.0 / n or beta > 1.0):
        raise ValueError(f"beta={beta} outside the admissible range")


def verify_almost_char(
    f,
    w: Weight,
    beta: float,
    system: WaveletSystem,
    index_set: IndexSet,
    values=None,
) -> VerificationRecord:
    """Weak sequence norm of the scale-deflated coefficients against the
    estimated-constant weighted Sobolev norm of ApEstimate.bound, passed up
    to RATIO_CEILING, with the strong-norm comparison reported when the
    truncated strong norm looks convergent.  ``values`` are the coefficient
    values of ``coefficients(f, system, index_set)`` when already computed;
    otherwise they are computed here.
    """
    require_admissible(system.order, beta)
    _, gens, ks = index_set.arrays(system)
    vals = coefficients(f, system, index_set)[1] if values is None else values
    if len(vals) != len(gens):
        raise ValueError(f"{len(vals)} coefficient values for {len(gens)} atoms")
    deflated = vals / dyadic_powers(-gens, beta)
    u = atom_weights(gens, ks, beta, w)
    strong, weak = _norms(u, deflated, 1.0)
    probes = standard_probes(w, scales=range(-index_set.j_max - 2, 6))
    est = ap_constant(w, 1.0, probes)
    lo, hi = index_set.lo, index_set.hi
    l1 = weighted_lp_mass(f, w, 1.0, lo, hi)
    grad1 = grad_power_mass(f, lo, hi, 1.0, w)
    middle, certified = est.bound(l1 + grad1, 1.0)

    # convergence flag for the strong norm: per-generation tail decay
    per_gen = np.bincount(gens, weights=u * np.abs(deflated))
    tail_decaying = len(per_gen) >= 3 and per_gen[-1] < per_gen[-2] < per_gen[-3]
    strong_rhs, _ = est.bound(strong, 2.0)
    right_ratio = middle / strong_rhs if (tail_decaying and strong > 0) else math.nan
    return VerificationRecord(
        name="almost_characterization",
        lhs=weak,
        rhs=middle,
        ceiling=RATIO_CEILING,
        certified=certified,
        details={
            "strong_norm": strong,
            "weak_norm": weak,
            "constant_estimate": est.value,
            "sobolev_norm": l1 + grad1,
            "right_ratio": right_ratio,
            "strong_convergent": bool(tail_decaying),
            "n_atoms": len(vals),
            "boundary_atoms": int(index_set.boundary_flags(system, gens, ks).sum()),
        },
    )
