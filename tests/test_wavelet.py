"""Wavelet construction, coefficient quadrature, and sequence norms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadicweights.funcspace import catalog
from dyadicweights.wavelet import (
    AtomIndex,
    IndexSet,
    atom_weights,
    build_daubechies,
    coefficients,
    daubechies_filter,
    verify_almost_char,
)
from dyadicweights.weights import ConstantWeight, PowerWeight, dyadic_powers
from oracles import (
    atom_lp_norm,
    coefficient,
    exact_coefficient,
    masked_cascade,
    normalized_atom,
    sample_value,
    seq_norms,
)


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


@pytest.mark.parametrize("depth", [8, 12, 16])
def test_cascade_matches_the_masked_oracle_bit_for_bit(depth):
    for order in range(1, 11):
        system = build_daubechies(order, depth)
        phi, psi, residual = masked_cascade(order, depth)
        assert system.phi.tobytes() == phi.tobytes(), order
        assert system.psi.tobytes() == psi.tobytes(), order
        assert system.refinement_residual == residual, order


def test_atoms_in_generation_order_with_scaling_atoms_first():
    system = build_daubechies(2, depth=8)
    atoms = IndexSet(j_max=2, lo=-1.0, hi=1.0).atoms(system)
    want = []
    for j in range(3):
        for k in range(-(2**j) - 3, 2**j + 1):
            want += [AtomIndex(0, 0, k)] if j == 0 else []
            want.append(AtomIndex(1, j, k))
    assert atoms == want
    assert all(type(v) is int for a in atoms for v in a)


def test_haar_scaling_function_exact():
    sys1 = build_daubechies(1, depth=10)
    xs = np.array([0.1, 0.5, 0.9])
    assert np.allclose(sample_value(sys1, 0, xs), 1.0)
    assert sample_value(sys1, 0, np.array([1.2]))[0] == 0.0


def test_refinement_residual(db4, db2):
    # computed once, by build_daubechies, and stored on the system
    assert db4.refinement_residual < 1e-8
    assert db2.refinement_residual < 1e-8


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


# test id -> (catalog name, parameters); sharp2_fdelta has a power piece,
# the jumps of indicator fall inside cells (a = 0.3) or on cell ends
COEFFICIENT_FUNCTIONS = {
    "tent": ("tent", {}),
    "smoothed_indicator": ("smoothed_indicator", {"width": 0.3}),
    "sharp1_bump": ("sharp1_bump", {}),
    "sharp2_fdelta": ("sharp2_fdelta", {"delta": 0.5}),
    "indicator-a0.3": ("indicator", {"a": 0.3}),
    "indicator-a0-b1": ("indicator", {"a": 0.0, "b": 1.0}),
}


@pytest.mark.parametrize("fname", sorted(COEFFICIENT_FUNCTIONS))
@pytest.mark.parametrize(
    "order, depth, dual_p",
    [(1, 16, 1.0), (2, 8, 2.0), (4, 12, 1.0), (10, 8, 2.0)],
    ids=["haar-d16-p1", "db2-d8-p2", "db4-d12-p1", "db10-d8-p2"],
)
def test_coefficients_match_per_atom_oracle(fname, order, depth, dual_p):
    # the window starts left of 0, so every generation's k-range starts at a
    # negative k; order 1 has a one-cell support, order 10 nineteen cells.
    # The L^1 coefficients, rescaled by 2^(j/dual_p - j), meet the oracle's
    # L^dual_p-normalized ones
    system = build_daubechies(order, depth)
    name, params = COEFFICIENT_FUNCTIONS[fname]
    f = catalog(name, **params)
    index_set = IndexSet(j_max=2, lo=-1.5, hi=1.25)
    atoms, vals = coefficients(f, system, index_set)
    assert atoms == index_set.atoms(system)
    assert atoms[0].k < 0
    vals = vals * 2.0 ** (np.array([a.j for a in atoms]) * (1.0 / dual_p - 1.0))
    oracle = np.array([coefficient(f, system, a, dual_p) for a in atoms])
    assert np.max(np.abs(vals - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("fname", sorted(COEFFICIENT_FUNCTIONS))
def test_coefficients_sample_f_only_on_cells_a_breakpoint_or_power_piece_meets(
    db4, fname
):
    # a unit cell [c, c + 1]/2^j goes to f.value, on a row of its own with
    # the per-atom abscissae (u + c)/2^j, exactly when a breakpoint e lies in
    # c/2^j < e <= (c + 1)/2^j or the cell overlaps a power piece; every
    # other cell is inside one polynomial piece and takes its closed form
    name, params = COEFFICIENT_FUNCTIONS[fname]
    f = catalog(name, **params)
    value, seen = f.value, []

    def recording(x):
        seen.append(np.array(x))
        return value(x)

    f.value = recording
    index_set = IndexSet(j_max=4, lo=-8.0, hi=10.0)
    coefficients(f, db4, index_set)
    span = len(db4.h) - 1
    us = np.arange(2**db4.depth + 1) * db4.dx
    rows = []
    for x in seen:
        assert x.ndim == 2 and x.shape[1] == len(us) and len(x) <= span
        for row in x:
            j = round(math.log2(db4.dx / (row[1] - row[0])))
            c = int(row[0] * 2**j)
            assert row.tobytes() == ((us + c) / 2.0**j).tobytes()
            rows.append((j, c))
    want = []
    for j in range(index_set.j_max + 1):
        ks = index_set.translations(db4, j)
        for c in range(ks.start, ks.stop + span - 1):
            lo, hi = c / 2**j, (c + 1) / 2**j
            jump = any(lo < e <= hi for e in f.breakpoints)
            power = any(
                p.kind == "power" and max(lo, p.x0) < min(hi, p.x1) for p in f.pieces
            )
            if jump or power:
                want.append((j, c))
    assert rows == want
    if fname == "tent":
        # the benchmark's input: three cells per generation, at 0, 1 and 2
        assert len(seen) <= 15 and sum(x.size for x in seen) <= 65_000


def test_closed_form_cells_far_from_0_match_exact_arithmetic():
    # the cubic edge [39.7, 40) of this plateau, in monomials of x, would
    # have coefficients up to 5e6 and lose about 1e-12 at the samples; f's
    # table stores it about its anchor 39.7, so the closed form needs only
    # the shift from there to each cell
    system = build_daubechies(2, 8)
    f = catalog("smoothed_indicator", width=0.3, a=40.0, b=41.0)
    atoms, vals = coefficients(f, system, IndexSet(j_max=4, lo=39.5, hi=41.5))
    inside = [  # atoms whose three support cells all lie inside the edge
        i for i, a in enumerate(atoms)
        if a.j == 4 and 39.7 <= a.k / 16 and (a.k + 3) / 16 < 40.0
    ]
    assert inside
    for i in inside:
        want = exact_coefficient(f, system, atoms[i])
        assert abs(vals[i] - want) <= 1e-15 * np.max(np.abs(vals))


@pytest.mark.parametrize(
    "w",
    [PowerWeight(0.5, center=0.25), PowerWeight(-0.5, center=0.25), ConstantWeight(2.0)],
    ids=["power-a0.5", "power-a-0.5", "constant"],
)
def test_atom_weights_match_the_scalar_loop_bit_for_bit(db4, w):
    # the centre 1/4 is an atom end from generation 2 on
    index_set = IndexSet(j_max=4, lo=-8.0, hi=10.0)
    atoms = index_set.atoms(db4)
    _, gens, ks = index_set.arrays(db4)
    assert gens.tolist() == [a.j for a in atoms] and ks.tolist() == [a.k for a in atoms]
    for beta in (2.0, 1.5, -1.0):
        want = np.array(
            [
                (2.0**-a.j) ** (beta - 1.0) * w.mass((a.k / 2**a.j, (a.k + 1) / 2**a.j))
                for a in atoms
            ]
        )
        assert atom_weights(gens, ks, beta, w).tobytes() == want.tobytes()
        vols = np.array([(2.0**-a.j) ** beta for a in atoms])
        assert dyadic_powers(-gens, beta).tobytes() == vols.tobytes()


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
        atoms, vals = coefficients(f, db2, idx)
        # the L^2 coefficients are the L^1 ones times 2^(-j/2)
        l2 = vals * 2.0 ** (-0.5 * np.array([a.j for a in atoms]))
        norms.append(float(np.sum(l2**2)))
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
    # coefficient values already computed are used as they stand
    _, vals = coefficients(f, db4, idx)
    again = verify_almost_char(f, w, 2.0, db4, idx, values=vals)
    assert (again.lhs, again.rhs, again.details) == (rec.lhs, rec.rhs, rec.details)
    # values of another index set are refused
    with pytest.raises(ValueError, match="coefficient values for"):
        verify_almost_char(f, w, 2.0, db4, idx, values=vals[:-1])


def test_verify_almost_char_unbounded_estimate_uncertified(db4):
    # |x|^(1/2) is not A_1: the right side is the bare Sobolev norm
    f = catalog("tent")
    rec = verify_almost_char(
        f, PowerWeight(0.5), 2.0, db4, IndexSet(j_max=2, lo=-4.0, hi=6.0)
    )
    assert (rec.certified, rec.passed) == (False, False)
    assert rec.rhs == rec.details["sobolev_norm"] > 0
    assert math.isinf(rec.details["constant_estimate"])


def test_verify_almost_char_rejects_bad_beta(db4):
    f = catalog("tent")
    with pytest.raises(ValueError):
        verify_almost_char(
            f, ConstantWeight(1.0), 0.5, db4, IndexSet(j_max=2, lo=-2, hi=4)
        )
