"""Wavelet construction, coefficient quadrature, and sequence norms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadicweights.funcspace import catalog
from dyadicweights.wavelet import (
    AtomIndex,
    IndexSet,
    atom_lp_norm,
    build_daubechies,
    coefficient,
    coefficients,
    daubechies_filter,
    normalized_atom,
    seq_norms,
    verify_almost_char,
)
from dyadicweights.weights import ConstantWeight, PowerWeight


@pytest.fixture(scope="module")
def db4():
    return build_daubechies(4, depth=12)


@pytest.fixture(scope="module")
def db2():
    return build_daubechies(2, depth=12)


def test_filter_db2_closed_form():
    h = daubechies_filter(2)
    s3 = math.sqrt(3.0)
    expect = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    assert np.allclose(h, expect, atol=1e-12)


def test_filter_qmf_orthogonality():
    for order in range(1, 11):
        h = daubechies_filter(order)
        assert len(h) == 2 * order
        assert np.dot(h, h) == pytest.approx(1.0, abs=1e-10)
        for m in range(1, order):
            assert abs(np.dot(h[2 * m :], h[: len(h) - 2 * m])) < 1e-10


def test_haar_scaling_function_exact():
    sys1 = build_daubechies(1, depth=10)
    xs = np.array([0.1, 0.5, 0.9])
    assert np.allclose(sys1.sample_value(0, xs), 1.0)
    assert sys1.sample_value(0, np.array([1.2]))[0] == 0.0


def test_refinement_residual(db4, db2):
    assert db4.refinement_residual() < 1e-8
    assert db2.refinement_residual() < 1e-8


def test_vanishing_moments(db4, db2):
    for k in range(4):
        assert abs(db4.moment(k)) < 1e-6
    for k in range(2):
        assert abs(db2.moment(k)) < 1e-6


def test_orthonormality_residual(db4, db2):
    assert db4.orthonormality_residual() < 1e-6
    assert db2.orthonormality_residual() < 1e-6


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        build_daubechies(11)
    with pytest.raises(ValueError):
        build_daubechies(4, depth=4)


def test_normalized_atom_haar_l2():
    sys1 = build_daubechies(1, depth=10)
    idx = AtomIndex(1, 0, 0)
    atom = normalized_atom(sys1, idx, 2.0)
    xs = np.array([0.2, 0.7])
    assert atom(xs)[0] == pytest.approx(1.0, abs=1e-9)
    assert atom(xs)[1] == pytest.approx(-1.0, abs=1e-9)
    assert atom_lp_norm(sys1, idx, 2.0) == pytest.approx(1.0, rel=1e-6)


def test_atom_lp_norm_preserved_under_scaling(db4):
    # the L^p normalization is scale-free: computed norms match the mother's
    for p in (1.0, 2.0):
        mother = atom_lp_norm(db4, AtomIndex(1, 0, 0), p)
        child = AtomIndex(1, 3, 5)
        amp = 2.0 ** (child.j / p)
        atom = normalized_atom(db4, child, p)
        xs = np.linspace(5 / 8 - 1, (5 + 7) / 8 + 1, 40001)
        num = (np.sum(np.abs(atom(xs)) ** p) * (xs[1] - xs[0])) ** (1 / p)
        assert num == pytest.approx(mother, rel=1e-3)


def test_atom_linf_amplitude_free(db4):
    # p = infinity: no amplitude factor
    idx = AtomIndex(1, 5, 3)
    atom = normalized_atom(db4, idx, math.inf)
    us = np.linspace(0, 7, 4001)
    xs = (us + idx.k) / 2.0**idx.j
    assert np.max(np.abs(atom(xs))) == pytest.approx(
        np.max(np.abs(db4.psi)), rel=1e-4
    )


def test_coefficient_constant_vanishes(db4):
    f = catalog("constant", c=3.0)
    for idx in (AtomIndex(1, 0, 0), AtomIndex(1, 2, 1)):
        assert abs(coefficient(f, db4, idx, dual_p=1.0)) < 1e-9


def test_coefficient_linear_vanishes_second_moment(db4):
    f = catalog("linear", slope=2.0)
    for idx in (AtomIndex(1, 0, 0), AtomIndex(1, 1, -3)):
        assert abs(coefficient(f, db4, idx, dual_p=1.0)) < 1e-6


def test_coefficient_self_orthonormality(db4):
    # pairing the L^2 atom with itself through the generic quadrature
    idx = AtomIndex(1, 0, 0)
    atom_fn = normalized_atom(db4, idx, 2.0)

    class AtomAsFunction:
        n = 1
        breakpoints = ()

        def value(self, x):
            return atom_fn(x)

    val = coefficient(AtomAsFunction(), db4, idx, dual_p=2.0)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_coefficient_linearity(db4):
    f = catalog("tent")
    g = catalog("smoothed_indicator", width=0.3)
    idx = AtomIndex(1, 1, 1)

    class Combo:
        n = 1
        breakpoints = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))

        def value(self, x):
            return 2.0 * f.value(x) - 0.5 * g.value(x)

    cf = coefficient(f, db4, idx)
    cg = coefficient(g, db4, idx)
    cc = coefficient(Combo(), db4, idx)
    assert cc == pytest.approx(2.0 * cf - 0.5 * cg, rel=1e-9, abs=1e-12)


def test_seq_norms_single_entry():
    atoms = [AtomIndex(1, 0, 0)]
    vals = np.array([1.0])
    strong, weak = seq_norms(atoms, vals, 2.0, ConstantWeight(1.0), 1.0)
    assert strong == pytest.approx(1.0, rel=1e-12)
    assert weak == pytest.approx(1.0, rel=1e-12)


def test_seq_norms_two_entries_bruteforce():
    atoms = [AtomIndex(1, 0, 0), AtomIndex(1, 0, 5)]
    w = ConstantWeight(1.0)
    # (values, p, strong, weak): at p = 2 the weak norm is
    # (max(2^2 * 1, 1.5^2 * 2))^(1/2), below the strong norm (4 + 2.25)^(1/2)
    cases = [([2.0, 1.0], 1.0, 3.0, 2.0), ([2.0, 1.5], 2.0, 2.5, math.sqrt(4.5))]
    for vals, p, want_strong, want_weak in cases:
        vals = np.array(vals)
        strong, weak = seq_norms(atoms, vals, 1.0, w, p)
        assert strong == pytest.approx(want_strong, rel=1e-12)
        assert weak == pytest.approx(want_weak, rel=1e-12)
        # brute force over thresholds: sup_lambda lambda^p * count(|a| > lambda)
        best = 0.0
        for lam in np.linspace(1e-3, 2.5, 10000):
            best = max(best, lam**p * np.sum(vals > lam))
        assert best <= weak**p + 1e-3


def test_weak_norm_below_strong():
    rng = np.random.default_rng(0)
    atoms = [AtomIndex(1, int(j), int(k)) for j, k in rng.integers(0, 5, size=(30, 2))]
    vals = rng.normal(size=30)
    strong, weak = seq_norms(atoms, vals, 1.5, ConstantWeight(1.0), 1.0)
    assert weak <= strong * (1 + 1e-12)


def test_parseval_sanity_monotone(db2):
    # L2 coefficient energy over growing truncations increases toward ||f||^2
    f = catalog("tent")
    norms = []
    for jmax in (2, 4, 6):
        idx = IndexSet(j_max=jmax, lo=-6.0, hi=8.0)
        atoms, vals = coefficients(f, db2, idx, dual_p=2.0)
        norms.append(float(np.sum(vals**2)))
    l2sq = 2.0 / 3.0  # integral of tent^2
    assert norms[0] <= norms[1] <= norms[2] <= l2sq * (1 + 1e-3)
    assert norms[2] >= 0.95 * l2sq


def test_verify_almost_char_tent(db4):
    f = catalog("tent")
    w = ConstantWeight(1.0)
    recs = []
    for jmax in (4, 5):
        idx = IndexSet(j_max=jmax, lo=-8.0, hi=10.0)
        recs.append(verify_almost_char(f, w, 2.0, db4, idx))
    assert all(r.passed for r in recs)
    r0, r1 = recs
    assert abs(r1.ratio - r0.ratio) <= 0.25 * max(r0.ratio, 1e-12)
    assert r1.details["strong_convergent"]
    assert math.isfinite(r1.details["right_ratio"])


def test_verify_almost_char_weighted(db4):
    f = catalog("tent")
    w = PowerWeight(-0.5, center=0.5)
    idx = IndexSet(j_max=4, lo=-8.0, hi=10.0)
    rec = verify_almost_char(f, w, 2.0, db4, idx)
    assert rec.passed
    assert math.isfinite(rec.details["strong_norm"])
    assert rec.details["constant_estimate"] > 1.0
    # coefficients already computed are used as they stand
    coeffs = coefficients(f, db4, idx)
    again = verify_almost_char(f, w, 2.0, db4, idx, coeffs=coeffs)
    assert (again.lhs, again.rhs, again.details) == (rec.lhs, rec.rhs, rec.details)


def test_verify_almost_char_rejects_bad_beta(db4):
    f = catalog("tent")
    with pytest.raises(ValueError):
        verify_almost_char(
            f, ConstantWeight(1.0), 0.5, db4, IndexSet(j_max=2, lo=-2, hi=4)
        )
