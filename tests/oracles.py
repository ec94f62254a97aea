"""Oracles used only by the tests: pointwise membership in the
difference-quotient level sets, one pair (x, y) at a time by scalar
arithmetic, and value oracles and norms of single wavelet atoms."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dyadicweights.diffquot import ball_mean
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
