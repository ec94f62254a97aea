"""Difference-quotient level sets, shell integrals, and the two-sided check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadicweights.diffquot import (
    DiffQuotConfig,
    ball_mean,
    diffquot_functional,
    gamma_admissible,
    in_level_set,
    inner_integral,
    lower_constant,
    point_domination_check,
    scale_condition,
    split_and_mean_sets,
    verify_diffquot,
)
from dyadicweights.funcspace import catalog
from dyadicweights.grid import all_shifts, window_1d
from dyadicweights.weights import ConstantWeight, PowerWeight


def test_gamma_admissible_ranges():
    assert gamma_admissible(1.0, 1.0, 1.0)
    assert gamma_admissible(1.0, 1.0, -2.0)
    assert not gamma_admissible(1.0, 1.0, -0.5)
    assert not gamma_admissible(2.0, 1.0, 0.0)
    assert gamma_admissible(2.0, 1.0, -0.5)
    assert scale_condition(1, 1.0, 1.0)
    assert not scale_condition(1, 1.0, math.inf)


def test_config_rejects_inadmissible():
    with pytest.raises(ValueError):
        DiffQuotConfig(p=1, q=1, gamma=-0.5, weight=ConstantWeight(1.0), window=(-1, 1))
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=-0.5, weight=ConstantWeight(1.0), window=(-1, 1),
        exploratory=True,
    )
    assert not cfg.admissible


def test_in_level_set_constant_false():
    f = catalog("constant", c=4.0)
    assert not in_level_set(f, 0.3, 0.9, 0.01, 1.0)


def test_in_level_set_linear_algebra():
    f = catalog("linear", slope=1.0)
    # s = 1: |x-y| / |x-y|^2 > lam iff |x-y| < 1/lam
    lam = 2.0
    assert in_level_set(f, 0.0, 0.4, lam, 1.0)
    assert not in_level_set(f, 0.0, 0.6, lam, 1.0)
    # s = -2: membership iff |x-y|^2 > lam
    assert in_level_set(f, 0.0, 1.5, 2.0, -2.0)
    assert not in_level_set(f, 0.0, 1.3, 2.0, -2.0)
    with pytest.raises(ValueError):
        in_level_set(f, 0.5, 0.5, 1.0, 1.0)


def test_level_sets_shrink_in_lambda_pointwise():
    f = catalog("tent")
    rng = np.random.default_rng(0)
    for _ in range(300):
        x, y = rng.uniform(-3, 3, size=2)
        if x == y:
            continue
        s = float(rng.uniform(-2, 2))
        lam1, lam2 = sorted(rng.uniform(0.01, 5.0, size=2))
        if in_level_set(f, x, y, lam2, s):
            assert in_level_set(f, x, y, lam1, s)


def test_scaling_invariance_of_membership():
    # replacing f by c f and lam by c lam leaves membership unchanged
    rng = np.random.default_rng(1)
    f1 = catalog("linear_ramp", slope=1.0, cutoff=2.0)
    f3 = catalog("linear_ramp", slope=3.0, cutoff=2.0)
    for _ in range(200):
        x, y = rng.uniform(-3, 3, size=2)
        if x == y:
            continue
        s = float(rng.uniform(-1.5, 1.5))
        lam = float(rng.uniform(0.01, 4.0))
        assert in_level_set(f1, x, y, lam, s) == in_level_set(f3, x, y, 3 * lam, s)


def test_inner_integral_constant_zero():
    f = catalog("constant", c=1.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1, 1))
    val, _ = inner_integral(f, 0.2, 5.0, cfg)
    assert val == 0.0


def test_inner_integral_linear_positive_gamma():
    # pure linear, gamma = q = p = 1: E-radius 1/lam, integral 2/lam
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1, 1))
    for lam in (3.0, 40.0, 500.0):
        val, diag = inner_integral(f, 0.1, lam, cfg)
        assert val == pytest.approx(2.0 / lam, rel=1e-5)


def test_inner_integral_linear_negative_gamma():
    # gamma = -2, q = 1: membership |x-y| > sqrt(lam), integral 1/lam
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=-2.0, weight=ConstantWeight(1.0), window=(-1, 1))
    for lam in (0.5, 4.0, 90.0):
        val, diag = inner_integral(f, -0.3, lam, cfg)
        assert val == pytest.approx(1.0 / lam, rel=1e-5)


def test_ball_mean_linear_exact():
    f = catalog("linear", slope=2.0)
    # mean over a symmetric interval around c equals f(c) for linear f
    assert ball_mean(f, 0.7, 0.2) == pytest.approx(1.4, rel=1e-12)


def test_split_triangle_inequality_bulk():
    rng = np.random.default_rng(2)
    fns = [
        catalog("tent"),
        catalog("sharp1_bump"),
        catalog("linear_ramp", slope=1.0, cutoff=2.0),
        catalog("sharp2_fdelta", delta=0.5),
    ]
    violations = 0
    checked = 0
    for f in fns:
        for _ in range(2500):
            x, y = rng.uniform(-3, 4, size=2)
            if x == y:
                continue
            lam = float(10 ** rng.uniform(-2, 1.5))
            s = float(rng.uniform(-2.0, 1.5))
            in_e, in_e1, in_e2 = split_and_mean_sets(f, x, y, lam, s)
            checked += 1
            if in_e and not (in_e1 or in_e2):
                violations += 1
    assert checked >= 9000
    assert violations == 0


def test_split_linear_means_collapse_second_set():
    # for globally linear f the ball mean equals f(y), so the second set at
    # half threshold is empty
    f = catalog("linear", slope=1.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = rng.uniform(-5, 5, size=2)
        if x == y:
            continue
        lam = float(10 ** rng.uniform(-1, 1))
        _, _, in_e2 = split_and_mean_sets(f, x, y, lam, 1.0)
        assert not in_e2


def test_lower_constant_values():
    assert lower_constant(1, 1, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert lower_constant(1, 1, -2.0) == pytest.approx(1.0, abs=1e-12)
    assert lower_constant(2, 2, 1.0) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    # n = 1: the closed form collapses to (2/|gamma|)^(1/q)
    for q in (0.5, 1.0, 2.0, 3.0):
        for g in (0.7, -1.3, -4.0):
            assert lower_constant(1, q, g) == pytest.approx(
                (2.0 / abs(g)) ** (1.0 / q), rel=1e-13
            )


def test_lower_constant_matches_sphere_oracle():
    # independent sphere integrals of |e . sigma|^q reproduce the closed
    # form inside the q-th root: two directions at n = 1, an angular
    # quadrature at n = 2, and the cylindrical projection at n = 3
    from dyadicweights.quadrature import adaptive_quad

    for q, g in ((1.0, 1.0), (2.0, -0.5), (0.7, 3.0)):
        oracle = {
            1: 2.0,
            2: adaptive_quad(
                lambda t: np.abs(np.cos(t)) ** q,
                0.0,
                2 * math.pi,
                rel_tol=1e-12,
                breakpoints=(math.pi / 2, math.pi, 3 * math.pi / 2),
            ),
            3: 2 * math.pi * 2.0 / (q + 1.0),
        }
        for n in (1, 2, 3):
            closed = (
                2
                * math.gamma((q + 1) / 2)
                * math.pi ** ((n - 1) / 2)
                / math.gamma((q + n) / 2)
            )
            assert oracle[n] == pytest.approx(closed, rel=1e-6)
            assert lower_constant(n, q, g) == pytest.approx(
                (closed / abs(g)) ** (1 / q), rel=1e-12
            )
    # Monte-Carlo sanity on top (loose)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200000, 2))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mc = 2 * math.pi * float(np.mean(np.abs(pts[:, 0])))
    assert mc == pytest.approx(4.0, rel=2e-2)


def test_functional_constant_zero():
    f = catalog("constant", c=2.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1, 1))
    prof = diffquot_functional(cfg, f)
    assert prof.sup == 0.0


def test_functional_linear_exactness_both_signs():
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1, 1),
        lambda_lo=1e2, lambda_hi=1e4, lambda_count=7,
    )
    prof = diffquot_functional(cfg, f)
    for v in prof.values:
        assert v / 2.0 == pytest.approx(2.0, rel=2e-2)
    cfg2 = DiffQuotConfig(
        p=1, q=1, gamma=-2.0, weight=ConstantWeight(1.0), window=(-1, 1),
        lambda_lo=1e2, lambda_hi=1e4, lambda_count=7,
    )
    prof2 = diffquot_functional(cfg2, f)
    for v in prof2.values:
        assert v / 2.0 == pytest.approx(1.0, rel=2e-2)


def test_verify_diffquot_tent():
    f = catalog("tent")
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 4),
        lambda_lo=1e0, lambda_hi=1e4, lambda_count=13,
    )
    rec = verify_diffquot(cfg, f, tol=0.05)
    assert rec.details["lower_ok"], rec.details
    assert rec.details["upper_ok"], rec.details
    assert rec.passed


def test_verify_diffquot_fdelta_weighted_stable():
    delta = 0.25
    p = 2.0
    f = catalog("sharp2_fdelta", delta=delta)
    w = PowerWeight((p - 1) * (1 - delta))
    ratios = []
    for window in ((-2, 3), (-4, 6)):
        cfg = DiffQuotConfig(
            p=p, q=2.0, gamma=1.0, weight=w, window=window,
            lambda_lo=1e0, lambda_hi=1e5, lambda_count=11,
        )
        rec = verify_diffquot(cfg, f, tol=0.10)
        ratios.append(rec.ratio)
        assert rec.details["lower_ok"], rec.details
        assert rec.ratio <= cfg.ratio_ceiling
    assert abs(ratios[1] - ratios[0]) <= 0.2 * ratios[0]


def test_point_domination_constant_trivial():
    f = catalog("constant", c=1.0)
    rec = point_domination_check(
        f, ConstantWeight(1.0), 1.0, 1.0, 2.0, 0.5,
        window_1d(-4, 4, -4, 2, shifts=all_shifts(1)), 0.5,
    )
    assert rec.lhs == 0.0
    assert rec.passed


def test_point_domination_tent():
    f = catalog("tent")
    rec = point_domination_check(
        f, ConstantWeight(1.0), 1.0, 1.0, 2.0, 0.07,
        window_1d(-8, 8, -5, 3, shifts=all_shifts(1)), 0.5,
    )
    assert not rec.details["inconclusive"]
    assert rec.rhs > 0 and rec.lhs > 0
    assert math.isfinite(rec.ratio)


def test_point_domination_ramp_mixed_pq():
    f = catalog("linear_ramp", slope=1.0, cutoff=2.0)
    rec = point_domination_check(
        f, ConstantWeight(1.0), 1.0, 2.0, 0.0, 0.4,
        window_1d(-8, 8, -5, 3, shifts=all_shifts(1)), 0.25,
    )
    assert rec.rhs > 0
    assert math.isfinite(rec.ratio)


def _assert_batch_is_single(f, cfg, lam, xs, membership=None):
    """inner_integral on an array of nodes equals, bit for bit, the same
    nodes one at a time, in either order of the array."""
    vals, diag = inner_integral(f, xs, lam, cfg, membership=membership)
    rvals, rdiag = inner_integral(f, xs[::-1].copy(), lam, cfg, membership=membership)
    assert np.array_equal(rvals[::-1], vals)
    for i, x in enumerate(xs):
        v, d = inner_integral(f, float(x), lam, cfg, membership=membership)
        assert isinstance(v, float)
        assert v == vals[i]
        assert d["tail_bound"] == diag["tail_bound"][i]
        assert d["truncated"] == diag["truncated"][i]
    return vals, diag


BATCH_NODES = np.array([-3.0, -1.5, -0.4, 0.0, 0.3, 0.9, 2.5, 4.0])


def test_inner_integral_batch_tent_kinks_and_empty_rows():
    f = catalog("tent")
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 2))
    vals, diag = _assert_batch_is_single(f, cfg, 0.5, BATCH_NODES)
    # rows carry 0 to 3 kink radii inside the certified shell
    r = np.abs(np.subtract.outer(BATCH_NODES, f.breakpoints))
    kinks = np.sum((r > diag["r_lo"]) & (r < diag["r_hi"]), axis=1)
    assert set(kinks.tolist()) == {0, 1, 2, 3}
    # nodes far outside the support have no member at this level
    assert np.any(vals == 0.0) and np.any(vals > 0.0)


def test_inner_integral_batch_far_tail_rows_stop_apart():
    f = catalog("tent")
    xs = np.concatenate([BATCH_NODES, [-30.0, 100.0]])
    # gamma = -2: rows leave the x4 extension at different radii, none cut;
    # gamma = -0.6, q = 0.5: the tail shrinks too slowly, so every row with
    # members but the one at 0.9 is cut at the cap, while the row at 0 (no
    # member) stops at inner_tol of a fully occupied first shell
    for q, gamma, uncut in ((1.0, -2.0, xs), (0.5, -0.6, [0.0, 0.9])):
        cfg = DiffQuotConfig(
            p=1, q=q, gamma=gamma, weight=ConstantWeight(1.0), window=(-2, 2)
        )
        vals, diag = _assert_batch_is_single(f, cfg, 1.0, xs)
        assert diag["r_hi"] == math.inf
        assert len(set(diag["tail_bound"].tolist())) >= 4
        assert diag["truncated"].tolist() == [x not in uncut for x in xs]
        assert vals[xs == 0.0] == 0.0


def test_inner_integral_memberless_rows_stop_member_rows_unchanged():
    # q = 1, gamma = -1.2, lam = 1 on the tent: the tails of the rows at 0
    # and 2 (no member) shrink too slowly to reach rounding level before the
    # 1e12 cap; they stop once the tail bound is inner_tol of what their
    # first shell would hold if every radius in it were a member
    f = catalog("tent")
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=-1.2, weight=ConstantWeight(1.0), window=(-2, 2),
        exploratory=True,
    )
    xs = np.array([-1.0, 0.0, 0.3, 0.9, 2.0, 3.5])
    vals, diag = _assert_batch_is_single(f, cfg, 1.0, xs)
    assert not diag["truncated"].any()
    for x in (0.0, 2.0):
        i = int(np.flatnonzero(xs == x)[0])
        scale = max(1.0, abs(x), diag["r_lo"])
        full = 2.0 * (diag["r_lo"] ** -1.2 - (16.0 * scale) ** -1.2) / 1.2
        assert vals[i] == 0.0
        assert 0 < diag["tail_bound"][i] <= cfg.inner_tol * full
    # rows with members run exactly as before the floor existed
    members = (xs != 0.0) & (xs != 2.0)
    assert vals[members].tolist() == [
        0.05616177587836595, 0.0012149993243638383, 0.8857344756746685,
        0.04448680059153498,
    ]
    assert diag["tail_bound"][members].tolist() == [
        1.8821614068130643e-08, 6.75636159951585e-10, 5.243253353329082e-07,
        2.209261887275524e-08,
    ]


def test_inner_integral_batch_ball_mean_membership():
    from dyadicweights.diffquot import _ball_mean_membership

    for f, q, b, lam in (
        (catalog("tent"), 1.0, 1.0, 0.07),
        (catalog("linear_ramp", slope=1.0, cutoff=2.0), 2.0, -1.0, 0.4),
    ):
        cfg = DiffQuotConfig(
            p=1, q=q, gamma=q * b, weight=ConstantWeight(1.0), window=(-8, 8),
            exploratory=True,
        )
        vals, _ = _assert_batch_is_single(
            f, cfg, lam, BATCH_NODES, membership=_ball_mean_membership(f, lam, b)
        )
        assert np.any(vals > 0.0)


def test_point_domination_pinned_values():
    # lhs and terms of the three point_domination inputs above, as computed
    # by the per-node inner integral that the batched one replaced
    cases = (
        (
            catalog("constant", c=1.0), 1.0, 1.0, 2.0, 0.5, (-4, 4, -4, 2), 0.5,
            0.0, [0.0] * 11,
        ),
        (
            catalog("tent"), 1.0, 1.0, 2.0, 0.07, (-8, 8, -5, 3), 0.5,
            16.43241180825343,
            [26.478515625, 23.95703125, 19.4140625, 10.515625, 8.75] + [0.0] * 6,
        ),
        (
            catalog("linear_ramp", slope=1.0, cutoff=2.0), 1.0, 2.0, 0.0, 0.4,
            (-8, 8, -5, 3), 0.25,
            13.33584786090242,
            [14.0, 7.0, 6.0, 3.25, 1.625, 0.875, 0.78125, 0.40625, 0.203125,
             0.109375, 0.099609375],
        ),
    )
    for f, p, q, beta, lam, box, eps, lhs, terms in cases:
        rec = point_domination_check(
            f, ConstantWeight(1.0), p, q, beta, lam,
            window_1d(*box, shifts=all_shifts(1)), eps,
        )
        assert rec.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert rec.details["terms"] == pytest.approx(terms, rel=1e-12, abs=0.0)
