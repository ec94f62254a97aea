"""Sharpness sweeps and the empirical weight classifier."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from dyadicweights import diffquot, experiments, grid
from dyadicweights.funcspace import catalog, omega_intervals
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
    # the probe cubes of every centre set from one integer build, each
    # family masked by j, against the family built fresh for each range by
    # the loop of axis_index and axis_interval calls; then the rows of three
    # functions end to end, omega from one omega_intervals call and the
    # masses from one Weight.masses pass, each row keeping the bits of
    # omega_intervals and Weight.mass on its cube alone.  The centre
    # 2^20 + 0.1 takes the build past int64.
    fs = [
        experiments._linear_plateau(),
        catalog("tent"),
        catalog("linear_ramp", slope=3.0, cutoff=0.5),
    ]
    for centers in ([0.0, 0.3, 1.0, 2.0**20 + 0.1], [0.0, 0.1875, 1.0]):
        m0, lo, hi = experiments._probe_cubes(centers, -12, 3)
        assert (m0.dtype == object) == (len(centers) == 4)
        gen = np.broadcast_to(np.arange(-12, 4)[:, None], lo.shape).ravel()
        cubes = (gen, lo.ravel(), hi.ravel())
        for members in (list(range(len(centers))), [1], [2, 0]):
            for j_min, j_max in ((-12, 3), (-6, 1), (0, 3)):
                family = experiments._probe_family(m0, members, j_min + 12, j_max + 13)
                want = oracles.probe_family([centers[i] for i in members], j_min, j_max)
                ends = np.column_stack([lo.ravel()[family], hi.ravel()[family]])
                assert gen[family].tolist() == want[0].tolist()
                assert ends.tobytes() == np.hstack(want[1:]).tobytes()
        probes = [(f, family[k :: len(fs)]) for k, f in enumerate(fs)]
        j, oms, masses = experiments._probe_rows(probes, cubes, weight)
        assert len(oms) == len(family) > 0
        rows = np.concatenate([r for _, r in probes])
        want_oms = [omega_intervals(f, cubes[1][r], cubes[2][r]) for f, r in probes]
        assert oms.tobytes() == np.concatenate(want_oms).tobytes()
        assert j.tolist() == gen[rows].tolist()
        ends = zip(cubes[1][rows].tolist(), cubes[2][rows].tolist(), oms.tolist())
        want = [weight.mass((a, b)) if om > 0 else 0.0 for a, b, om in ends]
        assert masses.tobytes() == np.array(want).tobytes()


def test_classifier_takes_its_norms_from_one_mass_call(monkeypatch):
    # the gradient norms of every probe (fixed members, step probes, tail
    # ramps and quotient probes) in one grad_power_masses call, whose
    # linear pieces take one Weight.masses call (19 calls before, off
    # centre); the probe rows take the other
    calls = {"norms": 0, "masses": 0}
    norms, masses = experiments.grad_power_masses, PowerWeight.masses

    def counted_norms(probes, p, w):
        calls["norms"] += 1
        return norms(probes, p, w)

    def counted_masses(self, lo, hi):
        calls["masses"] += 1
        return masses(self, lo, hi)

    monkeypatch.setattr(experiments, "grad_power_masses", counted_norms)
    monkeypatch.setattr(PowerWeight, "masses", counted_masses)
    assert weight_classifier(PowerWeight(0.5, 0.1875), 1.0).verdict == "violates"
    assert calls == {"norms": 1, "masses": 2}


def test_classifier_takes_one_omega_call_and_one_quotient_quadrature(monkeypatch):
    # the bench input at centre 0 and off centre (two step-probe centres):
    # every probe row of every member, depth and centre in one
    # omega_intervals call, the cubes from one integer build and no
    # per-cube axis_index or axis_interval call; every depth's quotient
    # probe shares one adaptive_quads call, and each of its integrand
    # calls makes one inner_integral call, and in it one _ray_runs call,
    # on the nodes of all of them (a quadrature per depth makes 37).  With
    # the kinks of every (probe, lam) problem as breakpoints, from one more
    # _ray_runs call, no panel splits: one step on 2,352 nodes, 21 a panel
    calls = {"omega": 0, "axis": 0, "quads": 0, "steps": 0, "inner": 0, "runs": 0}
    quads, omega = diffquot.adaptive_quads, experiments.omega_intervals
    inner, runs = diffquot.inner_integral, diffquot._ray_runs
    nodes = []

    def counted_quads(f, problems):
        calls["quads"] += 1

        def step(x, owner):
            calls["steps"] += 1
            nodes.append(x.size)
            return f(x, owner)

        return quads(step, problems)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(diffquot, "adaptive_quads", counted_quads)
    monkeypatch.setattr(diffquot, "inner_integral", counted("inner", inner))
    monkeypatch.setattr(diffquot, "_ray_runs", counted("runs", runs))
    monkeypatch.setattr(experiments, "omega_intervals", counted("omega", omega))
    axis = ((grid, "axis_index"), (grid, "axis_interval"), (experiments, "axis_interval"))
    for module, name in axis:
        monkeypatch.setattr(module, name, counted("axis", getattr(module, name)))
    for center in (0.0, 0.1875):
        calls.update(dict.fromkeys(calls, 0))
        nodes.clear()
        rep = weight_classifier(PowerWeight(0.5, center), 1.0)
        assert rep.verdict == "violates"
        want = {"omega": 1, "axis": 0, "quads": 1, "steps": 1, "inner": 1, "runs": 2}
        assert calls == want
        assert nodes == [2352]
