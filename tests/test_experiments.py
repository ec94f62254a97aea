"""Sharpness sweeps and the empirical weight classifier."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from dyadicweights import diffquot, experiments
from dyadicweights.funcspace import omega_intervals
from dyadicweights.grid import axis_index, axis_interval
from dyadicweights.experiments import (
    classifier_reference,
    fit_loglog_slope,
    sharpness_sweep,
    weight_classifier,
)
from dyadicweights.weights import ConstantWeight, PowerWeight, TableWeight

GRID = [2.0**-k for k in range(2, 9)]


def test_fit_loglog_slope_pure_power():
    xs = np.array([2.0**-k for k in range(2, 10)])
    ys = 3.0 * xs**-2.5
    slope, resid = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-2.5, abs=1e-10)
    assert resid < 1e-10


def test_fit_loglog_slope_with_analytic_correction():
    # y = x^-1 * 3.5^x has local slopes -1 + x ln 3.5; extrapolation kills it
    xs = np.array([2.0**-k for k in range(2, 9)])
    ys = xs**-1.0 * 3.5**xs
    slope, _ = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-1.0, abs=1e-3)


def test_a1_sweep():
    res = sharpness_sweep("a1", 1.0, GRID)
    assert res.passed
    assert abs(res.slope + 1.0) <= 0.05
    assert all(res.certified)
    # the tracked mass is (7/2)^delta / delta, exactly
    for d, val in zip(res.grid, res.lhs):
        lam = res.extras["lambda_star"]
        mass = val / (lam * 4.0)  # p=1, beta=2: lam^p |I0|^(beta p - 1) = 4 lam
        assert mass == pytest.approx(3.5**d / d, rel=1e-12)


def test_a1_sweep_trivial_endpoint():
    # delta = 1 is the constant-weight end: mass (7/2)/1, constant estimate 1
    res = sharpness_sweep("a1", 1.0, [1.0 - 1e-12] + GRID[:4])
    assert res.constants[0] == pytest.approx(1.0, rel=1e-6)


def test_ap_sweep_slope():
    res = sharpness_sweep("ap", 2.0, GRID)
    assert res.passed
    assert abs(res.slope + 3.0) <= 0.15
    assert all(res.certified)


def test_ap_sweep_p3():
    res = sharpness_sweep("ap", 3.0, GRID)
    assert abs(res.slope + 4.0) <= 0.2


def test_betalimit_sweep_slope():
    res = sharpness_sweep("betalimit", 2.0, GRID)
    assert res.passed
    assert abs(res.slope + 3.0) <= 0.15
    assert all(res.certified)


def test_betalimit_broken_scaling_is_uncertified(monkeypatch):
    # omega off by 1% away from the unit cube breaks the scale invariance
    # the sweep checks; the run reports it instead of raising
    real = experiments.omega_intervals
    monkeypatch.setattr(
        experiments,
        "omega_intervals",
        lambda f, lo, hi: real(f, lo, hi) * np.where(np.equal(lo, -1.0 / 3.0), 1.0, 1.01),
    )
    res = sharpness_sweep("betalimit", 2.0, GRID)
    assert False in res.certified
    assert res.verdict == "fail"


def test_sweep_rejects_bad_case():
    with pytest.raises(ValueError):
        sharpness_sweep("nope", 1.0, GRID)
    with pytest.raises(ValueError):
        sharpness_sweep("ap", 1.0, GRID)


def test_sweep_grid_too_small():
    with pytest.raises(ValueError):
        sharpness_sweep("a1", 1.0, GRID[:3])


def test_sweep_slopes_stable_under_grid_refinement():
    coarse = sharpness_sweep("ap", 2.0, GRID)
    fine = sharpness_sweep("ap", 2.0, [2.0 ** (-2 - k / 2) for k in range(13)])
    assert abs(coarse.slope - fine.slope) <= 0.05


def test_classifier_constant_consistent():
    rep = weight_classifier(ConstantWeight(1.0), 1.0, with_quotient=False)
    assert rep.verdict == "consistent"


def test_classifier_a1_member_consistent():
    rep = weight_classifier(PowerWeight(-0.5), 1.0, with_quotient=False)
    assert rep.verdict == "consistent"


def test_classifier_non_a1_violates_with_rate():
    rep = weight_classifier(PowerWeight(0.5), 1.0, with_quotient=False)
    assert rep.verdict == "violates"
    g = rep.growth["step_probe"]
    assert len(g) == 3
    assert all(x >= 4.0 * 0.999 for x in g)


def test_classifier_matches_power_criterion_panel():
    # 12-exponent panel across p in {1, 2, 3}
    panel = {
        1.0: [-0.9, -0.5, -0.25, 0.5, 1.0, 2.0],
        2.0: [-0.5, 0.5, 1.5, 2.5],
        3.0: [1.0, 3.0],
    }
    total = 0
    for p, exps in panel.items():
        for a in exps:
            w = PowerWeight(a)
            rep = weight_classifier(w, p, with_quotient=False)
            want = classifier_reference(w, p)
            got = rep.verdict
            assert got != "inconclusive", (a, p, rep.growth)
            assert (got == "consistent") == want, (a, p, got)
            total += 1
    assert total == 12


def test_classifier_off_center_weight():
    rep = weight_classifier(PowerWeight(-0.75, center=0.5), 1.0, with_quotient=False)
    assert rep.verdict == "consistent"
    rep2 = weight_classifier(PowerWeight(0.5, center=0.5), 1.0, with_quotient=False)
    assert rep2.verdict == "violates"


def test_classifier_quotient_member_tracks_blowup():
    rep = weight_classifier(
        PowerWeight(0.5), 1.0, depths=(6, 12, 24), with_quotient=True
    )
    assert rep.verdict == "violates"
    bs = rep.ratios["quotient_step"]
    assert bs[-1] > 4.0 * bs[0]


def test_classifier_quotient_step_is_one_linear_runs_call_per_refinement_step(monkeypatch):
    # the bench input: every depth's probe shares one adaptive_quads call,
    # and each of its refinement steps makes one _linear_runs call on the
    # nodes of all of them (a quadrature per depth makes 37)
    calls = {"quads": 0, "steps": 0, "runs": 0}
    quads, runs = diffquot.adaptive_quads, diffquot._linear_runs

    def counted_quads(f, problems):
        calls["quads"] += 1

        def step(x, owner):
            calls["steps"] += 1
            return f(x, owner)

        return quads(step, problems)

    def counted_runs(*args):
        calls["runs"] += 1
        return runs(*args)

    monkeypatch.setattr(diffquot, "adaptive_quads", counted_quads)
    monkeypatch.setattr(diffquot, "_linear_runs", counted_runs)
    rep = weight_classifier(PowerWeight(0.5), 1.0)
    assert rep.verdict == "violates"
    assert calls == {"quads": 1, "steps": 10, "runs": 10}


@pytest.mark.parametrize(
    "weight",
    [
        PowerWeight(0.5),
        PowerWeight(-0.75, 0.3),
        ConstantWeight(2.0),
        TableWeight([-1, 0, 2], [1, 0, 3]),
    ],
    ids=repr,
)
def test_probe_rows_masses_match_the_scalar_path(weight):
    # one family over the widest generation range, masked by j, against a
    # family built fresh for each range by a loop of axis_index and
    # axis_interval calls; the masses come from one Weight.masses pass, each
    # row keeping the bits of interval_mass on its cube.  The centre
    # 2^20 + 0.1 takes axis_index past int64.
    f = experiments._linear_plateau()
    centers = [0.0, 0.3, 1.0, 2.0**20 + 0.1]
    family = experiments._probe_family(centers, -12, 3)
    for j_min, j_max in ((-12, 3), (-6, 1), (0, 3)):
        want = []
        for c in centers:
            pt = Fraction(c).limit_denominator(3 * 2**40)
            for t in (0, 1, 2):
                for j in range(j_min, j_max + 1):
                    m0 = axis_index(t, j, pt.numerator, pt.denominator)
                    want.extend((t, j, m) for m in (m0 - 1, m0, m0 + 1))
        want = list(dict.fromkeys(want))
        assert len(want) < len(family[0]) or (j_min, j_max) == (-12, 3)
        ends = [axis_interval(*k) for k in want]
        part = experiments._generations(family, j_min, j_max)
        assert part[0].tolist() == [j for _, j, _ in want]
        assert np.hstack(part[1:]).tobytes() == np.array(ends).tobytes()
        rows = experiments._probe_rows(f, weight, part)
        oms = omega_intervals(f, *zip(*ends))
        want_rows = [
            (j, om, 2.0**j, weight.interval_mass(lo, hi))
            for (_, j, _), (lo, hi), om in zip(want, ends, oms.tolist())
            if om > 0
        ]
        assert len(rows[0]) == len(want_rows) > 0
        assert np.column_stack(rows).tobytes() == np.array(want_rows).tobytes()