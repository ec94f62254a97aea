"""Difference-quotient level sets, shell integrals, and the two-sided check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadicweights import diffquot, quadrature
from dyadicweights.diffquot import (
    MASK_POINTS,
    DiffQuotConfig,
    _radial_bounds,
    diffquot_functional,
    diffquot_functionals,
    gamma_admissible,
    inner_integral,
    lower_constant,
    scale_condition,
    verify_diffquot,
)
from dyadicweights.experiments import _linear_plateau
from dyadicweights.funcspace import _stacked_lines, catalog
from dyadicweights.grid import all_shifts, window_1d
from dyadicweights.records import RATIO_CEILING
from dyadicweights.weights import ConstantWeight, PowerWeight

import oracles
from oracles import ball_mean, ball_mean_membership, in_level_set, point_domination_check
from oracles import split_and_mean_sets


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
    val = inner_integral(f, 0.2, 5.0, cfg)
    assert val == 0.0


def test_inner_integral_linear_positive_gamma():
    # pure linear, gamma = q = p = 1: E-radius 1/lam, integral 2/lam; the
    # exact path to rounding, the sampled path to its bisection
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1, 1))
    for membership, rel in ((None, 1e-14), (_level_set(f, cfg.s), 1e-5)):
        for lam in (3.0, 40.0, 500.0):
            val = inner_integral(f, 0.1, lam, cfg, membership=membership)
            assert val == pytest.approx(2.0 / lam, rel=rel)


def test_inner_integral_linear_negative_gamma():
    # gamma = -2, q = 1: membership |x-y| > sqrt(lam), integral 1/lam; the
    # exact path takes the unbounded run in closed form, and so does the
    # sampled path, as linear f has no breakpoint to sample out to
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(p=1, q=1, gamma=-2.0, weight=ConstantWeight(1.0), window=(-1, 1))
    for membership, rel in ((None, 1e-14), (_level_set(f, cfg.s), 1e-5)):
        for lam in (0.5, 4.0, 90.0):
            val = inner_integral(f, -0.3, lam, cfg, membership=membership)
            assert val == pytest.approx(1.0 / lam, rel=rel)


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
        assert rec.ratio <= RATIO_CEILING
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


class CountedMembership:
    """A membership that counts its calls and asserts that none sees more
    than MASK_POINTS points."""

    def __init__(self, membership):
        self.membership = membership
        self.calls = 0

    def __call__(self, xs, fx, ys, lam):
        self.calls += 1
        assert ys.size <= MASK_POINTS
        return self.membership(xs, fx, ys, lam)


def _level_set(f, s):
    """The default membership, written out: |f(y) - f(x)| > lam |x-y|^(1+s)."""

    def membership(xs, fx, ys, lam):
        d = np.abs(ys - xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(f.value(ys) - fx) > lam * d ** (1.0 + s)

    return membership


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_batch_is_single(f, cfg, lam, xs, membership=None):
    """inner_integral on an array of nodes equals, bit for bit, the same
    nodes one at a time, in either order of the array.  With one level per
    node, interleaving lam with two other levels, it equals the calls at
    each level alone."""
    if membership is not None:
        membership = CountedMembership(membership)
    vals = inner_integral(f, xs, lam, cfg, membership=membership)
    rvals = inner_integral(f, xs[::-1].copy(), lam, cfg, membership=membership)
    assert np.array_equal(rvals[::-1], vals)
    for i, x in enumerate(xs):
        v = inner_integral(f, float(x), lam, cfg, membership=membership)
        assert isinstance(v, float)
        assert v == vals[i]
    levels = [lam, 3.7 * lam, lam / 9.0]
    mixed = inner_integral(
        f, np.repeat(xs, 3), np.tile(levels, len(xs)), cfg, membership=membership
    )
    for k, level in enumerate(levels):
        alone = vals if k == 0 else inner_integral(f, xs, level, cfg, membership=membership)
        _assert_same_bits(mixed[k::3], alone)
    return vals


BATCH_NODES = np.array([-3.0, -1.5, -0.4, 0.0, 0.3, 0.9, 2.5, 4.0])


def test_inner_integral_batch_tent_kinks_and_empty_rows():
    f = catalog("tent")
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 2))
    exact = _assert_batch_is_single(f, cfg, 0.5, BATCH_NODES)
    vals = _assert_batch_is_single(f, cfg, 0.5, BATCH_NODES, _level_set(f, cfg.s))
    assert np.array_equal(exact == 0.0, vals == 0.0)
    # sampled rows carry 0 to 3 kink radii inside the certified shell
    r_lo, r_hi = _radial_bounds(f, 0.5, cfg.s)
    r = np.abs(np.subtract.outer(BATCH_NODES, f.breakpoints))
    kinks = np.sum((r > r_lo) & (r < r_hi), axis=1)
    assert set(kinks.tolist()) == {0, 1, 2, 3}
    # nodes far outside the support have no member at this level
    assert np.any(vals == 0.0) and np.any(vals > 0.0)


def test_inner_integral_batch_ball_mean_membership():
    for f, q, b, lam in (
        (catalog("tent"), 1.0, 1.0, 0.07),
        (catalog("linear_ramp", slope=1.0, cutoff=2.0), 2.0, -1.0, 0.4),
    ):
        cfg = DiffQuotConfig(
            p=1, q=q, gamma=q * b, weight=ConstantWeight(1.0), window=(-8, 8),
            exploratory=True,
        )
        vals = _assert_batch_is_single(
            f, cfg, lam, BATCH_NODES, membership=ball_mean_membership(f, b)
        )
        assert np.any(vals > 0.0)


def test_inner_integral_first_membership_call_in_blocks():
    # 600 rows of about 195 radii in two directions: the first membership
    # call is split into blocks of at most MASK_POINTS points, and the
    # result is the one-level, one-call result bit for bit
    f = catalog("tent")
    cfg = DiffQuotConfig(p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 2))
    xs = np.linspace(-2.5, 2.5, 200)
    lams = np.tile([0.3, 1.0, 4.0], len(xs))
    nodes = np.repeat(xs, 3)
    level_set = _level_set(f, cfg.s)
    counted = CountedMembership(level_set)
    vals = inner_integral(f, nodes, lams, cfg, membership=counted)
    width = 193 + len(f.breakpoints)
    blocks = -(-len(nodes) // (MASK_POINTS // (2 * width)))
    assert blocks > 1
    assert counted.calls == blocks + 40
    for k, lam in enumerate((0.3, 1.0, 4.0)):
        alone = inner_integral(f, xs, lam, cfg, membership=level_set)
        _assert_same_bits(vals[k::3], alone)


def test_sampled_far_tail_closed_form_on_the_plateau():
    # smoothed_indicator, q = 0.5, gamma = -0.6 (s = -1.2), lam = 1: at
    # x = 0.3 on the plateau the members are the radii past 1 on both end
    # pieces, |0 - 1| > r^-0.2, so the integral is 2 / |gamma| = 10/3
    f = catalog("smoothed_indicator")
    cfg = DiffQuotConfig(
        p=1, q=0.5, gamma=-0.6, weight=ConstantWeight(1.0), window=(-2, 2),
        exploratory=True,
    )
    val = inner_integral(f, 0.3, 1.0, cfg)
    assert _radial_bounds(f, 1.0, cfg.s)[1] == math.inf
    assert val == pytest.approx(10.0 / 3.0, rel=1e-15)
    # on the rising edge; a sum over 20M log-spaced radii gives 0.0037495441
    val = inner_integral(f, -0.2, 1.0, cfg)
    assert val == pytest.approx(0.0037495441, rel=2e-6)


def test_unbounded_shell_matches_the_exact_path():
    # the tent and the ramp with the level set written out, s <= -1: the
    # sampled stretch up to reach plus the exact runs past it give the
    # exact path's values to rounding.  The nodes at -30 and 100 meet the
    # support at radii near 100, where the bisection's 2^-40 of a sample gap
    # is about 2e-12, so they are held to 1e-11
    rng = np.random.default_rng(12)
    xs = np.concatenate([BATCH_NODES, [-30.0, 100.0], rng.uniform(-3, 4, 30)])
    rel = np.where(np.abs(xs) < 10, 1e-13, 1e-11)
    for f in (catalog("tent"), catalog("linear_ramp", slope=1.0, cutoff=2.0)):
        for q, gamma, lam in ((1.0, -1.2, 1.0), (1.0, -2.0, 0.5), (0.5, -0.6, 3.0)):
            cfg = DiffQuotConfig(
                p=1, q=q, gamma=gamma, weight=ConstantWeight(1.0), window=(-2, 2),
                exploratory=True,
            )
            exact = inner_integral(f, xs, lam, cfg)
            sampled = _assert_batch_is_single(f, cfg, lam, xs, _level_set(f, cfg.s))
            assert _radial_bounds(f, lam, cfg.s)[1] == math.inf
            assert np.all(np.abs(sampled - exact) <= rel * exact)
            assert np.any(exact > 0)


def test_sampler_never_sees_a_radius_past_reach():
    # with no certified outer radius the membership is asked only up to
    # REACH times the node's larger distance to the outermost breakpoints
    from dyadicweights.diffquot import REACH

    xs = np.array([-3.0, -0.4, 0.3, 0.9, 2.5, 40.0])
    for f in (catalog("tent"), catalog("smoothed_indicator")):
        reach = REACH * np.max(np.abs(np.subtract.outer(xs, f.breakpoints)), axis=1)
        for q, b in ((1.0, -1.2), (2.0, -1.0)):
            cfg = DiffQuotConfig(
                p=1, q=q, gamma=q * b, weight=ConstantWeight(1.0), window=(-2, 2),
                exploratory=True,
            )
            for membership in (_level_set(f, b), ball_mean_membership(f, b)):
                seen = []

                def watched(xn, fx, ys, lam, membership=membership):
                    d = np.abs(ys - xn)
                    seen.append((np.broadcast_to(xn, d.shape).ravel(), d.ravel()))
                    return membership(xn, fx, ys, lam)

                inner_integral(f, xs, 1.0, cfg, membership=watched)
                nodes = np.concatenate([n for n, _ in seen])
                radii = np.concatenate([r for _, r in seen])
                limit = reach[np.searchsorted(xs, nodes)]
                assert radii.max() > 1.0
                assert np.all(radii <= limit * (1 + 1e-12))


def test_non_linear_end_piece_raises():
    # x^2 past 0: with no certified outer radius the far runs need a linear
    # end piece
    from dyadicweights.funcspace import Piece, TestFunction

    f = TestFunction(
        [Piece(-math.inf, 0.0, "poly", (0.0,)), Piece(0.0, math.inf, "poly", (0.0, 0.0, 1.0))],
        lipschitz=1.0,
    )
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=-2.0, weight=ConstantWeight(1.0), window=(-2, 2),
        exploratory=True,
    )
    with pytest.raises(ValueError, match="not linear"):
        inner_integral(f, 0.5, 1.0, cfg)


def test_unbounded_shell_at_nonnegative_gamma_raises():
    # gamma = 0 on linear f: no value bound, so no certified outer radius,
    # and the far tail r^-1 diverges
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=0.0, weight=ConstantWeight(1.0), window=(-2, 2),
        exploratory=True,
    )
    with pytest.raises(ValueError, match="divergent"):
        inner_integral(f, 0.5, 1.0, cfg, membership=_level_set(f, 0.0))


def test_sampled_shell_starts_at_its_certified_radius():
    # the tent with the level set written out, s < 0 and a large certified
    # outer radius: the shell starts at r_lo, where the members begin, not
    # at a floor of 1e-12 r_hi above it (84% and 64% short before)
    f = catalog("tent")
    for q, gamma, x, lam in ((2.96, -0.908, 0.403, 0.00225), (1.0, -0.293, 0.231, 0.00194)):
        cfg = DiffQuotConfig(
            p=2, q=q, gamma=gamma, weight=ConstantWeight(1.0), window=(-2, 2),
            exploratory=True,
        )
        exact = inner_integral(f, x, lam, cfg)
        sampled = inner_integral(f, x, lam, cfg, membership=_level_set(f, cfg.s))
        r_lo, r_hi = _radial_bounds(f, lam, cfg.s)
        assert r_lo < 1e-12 * r_hi < math.inf
        assert abs(sampled - exact) <= 2e-6 * exact


# ---------------------------------------------------------------------------
# the exact path: default membership on f whose pieces are all linear
# ---------------------------------------------------------------------------

LINEAR_FUNCTIONS = (
    catalog("tent"),
    catalog("linear", slope=1.0),
    catalog("linear_ramp", slope=1.0, cutoff=2.0),
)
# (q, gamma) at p = 2: s = 1 and 0.5; s = -0.5 and s = -1, admissible for
# p > 1 only; s = -2, whose runs reach to infinity
EXPONENTS = ((1.0, 1.0), (2.0, 1.0), (2.0, -1.0), (1.5, -1.5), (1.0, -2.0))


def _cfg(q, gamma):
    return DiffQuotConfig(p=2, q=q, gamma=gamma, weight=ConstantWeight(1.0), window=(-2, 2))


def _runs(f, x, lam, s):
    """The exact path's member runs at x, as sorted (direction, r1, r2)
    triples, runs that meet at a piece end or an extremum joined."""
    xs = np.array([float(x)])
    _, direction, r1, r2 = diffquot._linear_runs(
        f._lines[:, None], np.array([math.isfinite(f.lipschitz)]), np.zeros(1, dtype=np.intp),
        xs, f.value(xs), np.zeros(1), np.zeros(1, dtype=np.intp), np.array([lam]), s, s,
    )
    runs = []
    for d, a, b in sorted(zip(direction.tolist(), r1.tolist(), r2.tolist())):
        if runs and runs[-1][0] == d and runs[-1][2] == a:
            a = runs.pop()[1]
        runs.append((d, a, b))
    return runs


def _refuse_sampling(monkeypatch):
    """Make a call of the sampled path, or of its kernel, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the exact path fell back to sampling")

    monkeypatch.setattr(diffquot, "_sampled_shells", refuse)
    monkeypatch.setattr(diffquot, "_signed_member_mass", refuse)


def test_exact_path_never_samples(monkeypatch):
    # default membership on f whose pieces are all linear takes no sampled
    # shell: the sampled kernel is never called, by inner_integral or by the
    # functional around it
    _refuse_sampling(monkeypatch)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-3, 4, 30)
    for f in LINEAR_FUNCTIONS + (catalog("constant", c=1.0), catalog("indicator")):
        for q, gamma in EXPONENTS:
            vals = inner_integral(f, xs, 10 ** rng.uniform(-1, 1, 30), _cfg(q, gamma))
            assert np.all(np.isfinite(vals))
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 4),
        lambda_lo=1e0, lambda_hi=1e4, lambda_count=5,
    )
    assert diffquot_functional(cfg, catalog("tent")).sup > 0
    with pytest.raises(AssertionError, match="fell back"):
        inner_integral(catalog("sharp1_bump"), xs, 1.0, _cfg(1.0, 1.0))


@pytest.mark.parametrize(
    "q, gamma, names",
    [
        (1.0, 1.0, ("tent", "linear_ramp", "smoothed_indicator", "sharp2_fdelta")),
        # s = -1.2: the plateau's shells have no certified outer radius, so
        # its far tails join the exact rows in one _linear_runs call
        (0.5, -0.6, ("tent", "linear_ramp", "smoothed_indicator")),
    ],
)
def test_inner_integral_pair_rows_are_each_f_alone_bit_for_bit(q, gamma, names):
    # one call on the nodes of several functions, one level per node, in
    # either order of the nodes: each row is its f's call alone, on the
    # exact path (tent, ramp) or the sampled one (plateau, power piece), and
    # so with a membership given, which sends every f to the sampled path
    params = {
        "linear_ramp": {"slope": 0.3, "cutoff": 0.7, "center": 0.1},
        "sharp2_fdelta": {"delta": 0.5},
    }
    fs = [catalog(name, **params.get(name, {})) for name in names]
    cfg = _cfg(q, gamma)
    rng = np.random.default_rng(21)
    xs = np.concatenate([BATCH_NODES, rng.uniform(-3, 4, 40)])
    lams = 10 ** rng.uniform(-1, 1, len(xs))
    of = rng.permutation(np.arange(len(xs)) % len(fs))
    for membership in (None, CountedMembership(_level_set(fs[0], cfg.s))):
        vals = inner_integral((fs, of), xs, lams, cfg, membership=membership)
        back = inner_integral((fs, of[::-1]), xs[::-1], lams[::-1], cfg, membership=membership)
        _assert_same_bits(back[::-1], vals)
        for k, f in enumerate(fs):
            at = of == k
            alone = inner_integral(f, xs[at], lams[at], cfg, membership=membership)
            _assert_same_bits(vals[at], alone)
        assert np.all(vals >= 0) and np.any(vals > 0)


@pytest.mark.parametrize("q, gamma", [(1.0, 1.0), (0.5, -0.6)])
def test_inner_integral_repeated_nodes_are_each_alone_bit_for_bit(q, gamma):
    # each (f, x) at several levels in one call, as the lambda problems of
    # the functional share their nodes, so the span work of a node is done
    # once for all its levels: every (node, level) is its call alone.  The
    # tent and the discontinuous indicator take the exact path; the plateau
    # is sampled, and at s = -1.2 its far tails join the exact rows, at an
    # r_min that moves with the level.  Nodes on kinks, on the jumps and at
    # both signs of 0 included
    fs = [catalog("tent"), catalog("indicator"), catalog("smoothed_indicator")]
    cfg = _cfg(q, gamma)
    rng = np.random.default_rng(36)
    nodes = np.concatenate([[0.0, -0.0, 1.0, 2.0, -0.25, 1.25], rng.uniform(-3, 4, 10)])
    levels = 10 ** np.array([-1.0, -0.2, 0.7, 2.0, 2.5])
    of = np.repeat(np.arange(len(fs)), nodes.size * levels.size)
    xs = np.tile(np.repeat(nodes, levels.size), len(fs))
    lams = np.tile(levels, nodes.size * len(fs))
    mix = rng.permutation(xs.size)
    vals = inner_integral((fs, of[mix]), xs[mix], lams[mix], cfg)
    alone = [inner_integral(fs[k], x, lam, cfg) for k, x, lam in zip(of[mix], xs[mix], lams[mix])]
    _assert_same_bits(vals, np.array(alone))
    assert np.all(vals >= 0) and np.any(vals > 0)


# tent and ramp: continuous, held (a = 0) on the piece holding x and on the
# piece that ends at a kink, the ramp's pieces rounding apart at its kink;
# indicator: discontinuous; flat pieces (b = 0) on every tail, the plateau
# and the constant; linear: one unbounded sloped piece, whose runs reach
# infinity at s < 0
ORACLE_FUNCTIONS = (
    catalog("tent"),
    catalog("indicator"),
    catalog("linear", slope=1.0),
    catalog("linear_ramp", slope=0.3, cutoff=0.7, center=0.1),
    catalog("constant", c=3.0),
)


def _every_node_at_every_level(fs, seed):
    """(of, xs, lams): each f at each node at each level, shuffled; the
    nodes include every breakpoint of every f, 0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    kinks = [b for f in fs for b in f.breakpoints]
    nodes = np.concatenate([[0.0, -0.0], kinks, rng.uniform(-3, 4, 8)])
    levels = 10 ** np.array([-1.0, -0.2, 0.7, 2.0])
    of = np.repeat(np.arange(len(fs)), nodes.size * levels.size)
    xs = np.tile(np.repeat(nodes, levels.size), len(fs))
    lams = np.tile(levels, nodes.size * len(fs))
    mix = rng.permutation(xs.size)
    return of[mix], xs[mix], lams[mix]


@pytest.mark.parametrize("q, gamma", EXPONENTS)
def test_linear_runs_are_the_live_runs_of_every_run(q, gamma):
    # `_linear_runs` forms each distinct (f, x) once and returns only runs
    # with r2 > r1: they are, bit for bit and in (row, part, side) order,
    # the runs of the oracle, which forms every row on its own and gives
    # every part both sides, less its empty ones
    fs = list(ORACLE_FUNCTIONS)
    of, xs, lams = _every_node_at_every_level(fs, 37)
    fx = np.empty(xs.size)
    for k, f in enumerate(fs):
        fx[of == k] = f.value(xs[of == k])
    table = _stacked_lines(fs)
    continuous = np.array([math.isfinite(f.lipschitz) for f in fs])
    point, first = diffquot._distinct(xs.view(np.int64), of)
    assert first.size < xs.size
    s = gamma / q
    r_min = np.zeros(first.size)
    runs = diffquot._linear_runs(
        table, continuous, of[first], xs[first], fx[first], r_min, point, lams, s, gamma
    )
    row, _, r1, r2 = runs
    assert np.all(r2 > r1)
    every = oracles.all_runs(table, continuous, of, xs, fx, lams, s, gamma, np.zeros(xs.size))
    live = every[3] > every[2]
    assert np.any(~live) and np.any(live)
    assert row.dtype == every[0].dtype and np.array_equal(row, every[0][live])
    for got, want in zip(runs[1:], every[1:]):
        _assert_same_bits(got, want[live])


@pytest.mark.parametrize(
    "q, gamma, sampled",
    [
        *((q, gamma, ()) for q, gamma in EXPONENTS),
        # s = -1.2: the plateau's shells have no certified outer radius, so
        # its far tails join the exact runs past an r_min that moves with
        # the level
        (0.5, -0.6, ("smoothed_indicator",)),
    ],
)
def test_inner_integral_adds_what_every_run_added_bit_for_bit(q, gamma, sampled):
    # each empty run used to add a literal +0.0, which changes no partial
    # sum of bincount (it starts at +0.0 and is never -0.0): dropping them,
    # and forming each distinct (f, x) once, leaves every node's bits
    fs = list(ORACLE_FUNCTIONS) + [catalog(name) for name in sampled]
    of, xs, lams = _every_node_at_every_level(fs, 38)
    cfg = _cfg(q, gamma)
    vals = inner_integral((fs, of), xs, lams, cfg)
    _assert_same_bits(vals, oracles.all_runs_inner_integral((fs, of), xs, lams, cfg))
    assert np.all(vals >= 0) and np.any(vals > 0) and np.any(vals == 0)


def test_exact_path_batch_is_single_and_one_level_per_node():
    for f in LINEAR_FUNCTIONS:
        for q, gamma in EXPONENTS:
            _assert_batch_is_single(f, _cfg(q, gamma), 0.8, BATCH_NODES)


def test_exact_path_matches_sampled_path():
    # the sampled path (the default membership written out, so that it
    # samples) agrees to its bisection on s < 1.  At s = 1 it is
    # checked too, except on the tent, whose non-member islands near the
    # kinks it can step over (test_sampled_path_steps_over_an_island_...);
    # there the scalar level set checks the runs (test_exact_runs_match_...)
    rng = np.random.default_rng(11)
    xs = np.concatenate([BATCH_NODES, rng.uniform(-3, 4, 40)])
    lams = 10 ** rng.uniform(-1, 1, len(xs))
    for f in LINEAR_FUNCTIONS:
        for q, gamma in EXPONENTS:
            if f.name == "tent" and gamma / q == 1.0:
                continue
            cfg = _cfg(q, gamma)
            exact = inner_integral(f, xs, lams, cfg)
            sampled = inner_integral(f, xs, lams, cfg, membership=_level_set(f, cfg.s))
            assert np.all(np.abs(exact - sampled) <= 1e-9 * exact)
            assert np.array_equal(exact == 0.0, sampled == 0.0)


def test_exact_path_on_a_kink_where_the_pieces_round_apart():
    # linear_ramp(0.3, 0.7, 0.1) at its kink 0.8: the sloped piece ends
    # 2.8e-17 below the flat piece's value there.  f is continuous (finite
    # Lipschitz hint), so that is no jump; at -1 < s < 0 a jump would be a
    # member run from r = 0, of infinite mass for gamma < 0
    f = catalog("linear_ramp", slope=0.3, cutoff=0.7, center=0.1)
    x = f.breakpoints[1]
    lines = f._lines
    assert lines[3, 1] + lines[2, 1] * x != float(f.value(x))
    cfg = _cfg(2.0, -1.0)
    exact = inner_integral(f, x, 0.05, cfg)
    sampled = inner_integral(f, x, 0.05, cfg, membership=_level_set(f, cfg.s))
    assert 0 < exact < math.inf
    assert abs(exact - sampled) <= 1e-9 * exact


def test_sampled_path_steps_over_an_island_the_exact_path_keeps():
    # tent at x just right of the kink at 1, s = 1: to the left, f(y) - f(x)
    # vanishes at r = 2(x - 1), where a narrow non-member island opens.  The
    # scalar level set sees it, the exact path leaves it out, and the sampled
    # path, whose radii straddle it, counts it as member
    f = catalog("tent")
    x, lam = 1.000708815108327, 19.154542606414445
    cfg = _cfg(1.0, 1.0)
    runs = sorted(r for r in _runs(f, x, lam, 1.0) if r[0] < 0)
    assert len(runs) == 2
    (_, _, gap_lo), (_, gap_hi, _) = runs
    assert gap_lo < 2 * (x - 1) < gap_hi
    assert not in_level_set(f, x, x - 0.5 * (gap_lo + gap_hi), lam, 1.0)
    exact = inner_integral(f, x, lam, cfg)
    sampled = inner_integral(f, x, lam, cfg, membership=_level_set(f, 1.0))
    assert sampled - exact == pytest.approx(gap_hi - gap_lo, rel=1e-6)


def _assert_runs_match_level_set(f, x, lam, s, radii):
    """The runs agree with the scalar in_level_set at every radius of a
    dense grid and at the midpoint of every run and every gap between runs,
    but within 1e-9 of a run end (relative), in both directions."""
    runs = _runs(f, x, lam, s)
    for direction in (1.0, -1.0):
        ends = sorted((a, b) for d, a, b in runs if d == direction)
        edges = [e for run in ends for e in run]
        mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:]) if 0 < a < b < math.inf]
        for r in np.concatenate([radii, mids]):
            if any(abs(r - e) <= 1e-9 * e for e in edges):
                continue
            member = any(a < r < b for a, b in ends)
            assert in_level_set(f, x, x + direction * r, lam, s) == member, (x, lam, s, r)


def test_exact_runs_match_scalar_level_set_on_dense_radii():
    # tent, linear and linear_ramp; s > 0, -1 < s < 0, s = -1 and s < -1;
    # nodes on a kink of the tent (0, 1) or of the ramp (-2), on a flat
    # piece (-2.5) and inside a sloped one (1.3)
    radii = np.geomspace(1e-6, 1e4, 160)
    for f in LINEAR_FUNCTIONS:
        for s in (1.0, 0.5, -0.5, -1.0, -2.0):
            for x, lam in zip((-2.5, -2.0, 0.0, 1.0, 1.3), (0.3, 2.0, 5.0, 0.5, 12.0)):
                _assert_runs_match_level_set(f, x, lam, s, radii)


def test_exact_path_closed_forms_and_unbounded_runs(monkeypatch):
    # linear f, slope 1: members r < lam^(-1/s) for s > 0, r > lam^(-1/s)
    # for s < 0 (a run to infinity; r > lam at s = -1), on the exact path
    _refuse_sampling(monkeypatch)
    f = catalog("linear", slope=1.0)
    for q, gamma in EXPONENTS:
        s = gamma / q
        for lam in (0.05, 0.7, 30.0):
            val = inner_integral(f, 0.3, lam, _cfg(q, gamma))
            want = 2.0 * lam ** (-gamma / s) / abs(gamma)
            assert val == pytest.approx(want, rel=1e-14)
    # x = 5 on the tent's flat right tail: f(y) - f(x) = 0 on its own piece
    # (beta = 0), so the only members lie toward the tent, at r in (3, 5)
    tent = catalog("tent")
    val = inner_integral(tent, 5.0, 1.0, _cfg(1.0, -2.0))
    runs = _runs(tent, 5.0, 1.0, -2.0)
    assert val > 0 and all(d == -1.0 and 3.0 <= a < b <= 5.0 for d, a, b in runs)
    # x = 0.5 inside the tent: both flat tails (beta = 0) are members from
    # 0.1 r^-1 < f(x) = 0.5 on, out to infinity, in closed form
    val = inner_integral(tent, 0.5, 0.1, _cfg(1.0, -2.0))
    runs = _runs(tent, 0.5, 0.1, -2.0)
    assert [(d, b) for d, _, b in runs if b == math.inf] == [(-1.0, math.inf), (1.0, math.inf)]
    assert math.isfinite(val) and val > 0


def test_exact_path_memberless_rows_are_zero():
    # constant f, and nodes whose level is above every difference quotient
    cfg = _cfg(2.0, -1.0)
    vals = inner_integral(catalog("constant", c=3.0), BATCH_NODES, 0.5, cfg)
    assert vals.tolist() == [0.0] * len(BATCH_NODES)
    tent = catalog("tent")
    vals = inner_integral(tent, np.array([0.0, 1.0, 2.0, 0.3]), np.array([1e3, 1e3, 1e3, 1e-3]), cfg)
    assert vals[:3].tolist() == [0.0, 0.0, 0.0] and vals[3] > 0


def test_exact_path_refuses_a_root_past_the_float_range():
    # s = -0.001: the first member radius of the tent's slope, (1/lam)^1000,
    # underflows, though its term r^gamma = 1/lam does not; at s = -1.001
    # the flat tails' roots overflow as well, but their terms underflow
    xs = np.array([0.5, 1.5])
    with pytest.raises(ValueError, match="float range"):
        inner_integral(catalog("tent"), xs, 0.1, _cfg(1.0, -0.001))
    vals = inner_integral(catalog("tent"), xs, 0.01, _cfg(1.0, -1.001))
    assert np.all(np.isfinite(vals) & (vals > 0))


def test_member_runs_roots_on_every_side():
    # a + b r > lam r^t on [lo, hi] for every shape of h = a + b r - lam r^t:
    # concave (t > 1, t < 0) and convex (0 < t < 1), with its extremum inside,
    # outside or absent, both signs of a and b, ends at 0 and at infinity.
    # Each run end inside (lo, hi) is a root of h to rounding, h > 0 at the
    # midpoint of each run and h <= 0 at the midpoint of each gap
    rng = np.random.default_rng(9)
    n = 4000
    a = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 3, n)
    b = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 3, n)
    lam = 10 ** rng.uniform(-3, 3, n)
    # the part of [0, inf) on which a + b r >= 0, cut once more at random
    zero = -a / b
    lo = np.where(b > 0, np.maximum(zero, 0.0), 0.0)
    hi = np.where(b > 0, math.inf, np.where(a > 0, zero, 0.0))
    cut = rng.uniform(0, 1, n) < 0.5
    lo = np.where(cut & np.isfinite(hi), lo + 0.3 * (hi - lo), lo)
    ok = hi > lo
    a, b, lam, lo, hi = a[ok], b[ok], lam[ok], lo[ok], hi[ok]
    for t in (3.0, 2.0, 1.2, 1.0, 0.7, 0.3, 0.0, -0.2, -1.0, -3.0):
        # the sides `_linear_runs` gives each part, as (2, parts) arrays with
        # the empty run (lo, lo) where a part has one side
        two = (a != 0) & (b * t > 0) & (t not in (0.0, 1.0))
        part = np.repeat(np.arange(len(a)), two + 1)
        second = np.zeros(part.size, dtype=bool)
        second[1:] = part[1:] == part[:-1]
        parts = np.stack([a, b, lo, hi])
        with np.errstate(all="ignore"):
            s1, s2 = diffquot._member_runs(parts, part, lam[part], second, t, t - 1.0)
            # a part with a and b nonzero that is given one side has no run
            # on the other
            one = np.flatnonzero(~two & (a != 0) & (b != 0) & (t not in (0.0, 1.0)))
            o1, o2 = diffquot._member_runs(parts, one, lam[one], one >= 0, t, t - 1.0)
        assert np.all(o2 <= o1)
        r1, r2 = np.tile(lo, (2, 1)), np.tile(lo, (2, 1))
        r1[second.astype(int), part], r2[second.astype(int), part] = s1, s2
        assert np.all((lo <= r1) & (r1 <= r2) & (r2 <= hi))
        h = lambda r, i: a[i] + b[i] * r - lam[i] * r**t  # noqa: E731
        scale = lambda r, i: abs(a[i]) + abs(b[i]) * r + lam[i] * r**t  # noqa: E731
        # the two runs meet where h has its maximum inside both
        joined = (r2[0] > r1[0]) & (r2[1] > r1[1]) & (r2[0] == r1[1])
        for k in range(2):
            i = np.flatnonzero(r2[k] > r1[k])
            for end in (r1[k], r2[k]):
                inner = i[(lo[i] < end[i]) & (end[i] < hi[i]) & ~joined[i]]
                assert np.all(np.abs(h(end[inner], inner)) <= 1e-12 * scale(end[inner], inner))
            m = np.where(np.isfinite(r2[k, i]), 0.5 * (r1[k, i] + r2[k, i]), 2 * r1[k, i] + 1)
            assert np.all(h(m, i) > 0)
        # between the runs and beside them, on the finite parts: no member
        ends = np.concatenate([r1, r2, [lo, hi]])
        top = 2 * np.max(np.where(np.isfinite(ends), ends, 0.0), axis=0) + 1
        bounds = np.sort(np.where(np.isfinite(ends), ends, top), axis=0)
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            mid = 0.5 * (g0 + g1)
            inside = np.zeros(len(a), dtype=bool)
            for k in range(2):
                inside |= (r1[k] < mid) & (mid < r2[k])
            gap = ~inside & (g1 > g0)
            assert np.all(h(mid[gap], np.flatnonzero(gap)) <= 1e-12 * scale(mid[gap], np.flatnonzero(gap)))


def _profile_by_inner_integral(cfg, f):
    """The values, sup and argmax of the functional of f alone, with one
    `inner_integral` call per refinement step (the single-f exact path)."""
    lambdas = np.logspace(math.log10(cfg.lambda_lo), math.log10(cfg.lambda_hi), cfg.lambda_count)

    def outer(xs, owner):
        inner = inner_integral(f, xs, lambdas[owner], cfg)
        return inner ** (cfg.p / cfg.q) * cfg.weight.value(xs)

    bps = list(f.breakpoints) + list(cfg.weight.breakpoints())
    outers = quadrature.adaptive_quads(outer, [(*cfg.window, 1e-3, bps, 400)] * len(lambdas))
    values = [float(lam * integ ** (1.0 / cfg.p)) for lam, (integ, _) in zip(lambdas.tolist(), outers)]
    k = int(np.argmax(values))
    return values, values[k], float(lambdas[k])


def test_functionals_of_several_functions_are_each_alone_bit_for_bit():
    # tent and the classifier's step probes at depths 6 and 48 take the
    # stacked exact kernel, their four and three pieces padded with empty
    # ones to the plateau's five; smoothed_indicator takes the sampled path
    fs = [
        catalog("tent"),
        catalog("linear_ramp", slope=0.5 / 2.0**-6, cutoff=2.0**-6),
        catalog("linear_ramp", slope=0.5 / 2.0**-48, cutoff=2.0**-48),
        _linear_plateau(),
        catalog("smoothed_indicator"),
    ]
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=PowerWeight(0.5), window=(-2.0, 2.0),
        lambda_lo=1e-1, lambda_hi=1e1, lambda_count=5, exploratory=True,
    )
    alone = {repr(f): _profile_by_inner_integral(cfg, f) for f in fs}
    for order in (fs, fs[::-1]):
        for f, prof in zip(order, diffquot_functionals(cfg, order)):
            assert (prof.values, prof.sup, prof.argmax_lambda) == alone[repr(f)]
    assert diffquot_functionals(cfg, []) == []


def _small_split_cap(monkeypatch, cap):
    """Run the outer quadratures of diffquot and of the point domination
    oracle with a split cap of ``cap``."""

    def capped(f, problems):
        return quadrature.adaptive_quads(
            f, [(a, b, tol, bps, cap) for a, b, tol, bps, _ in problems]
        )

    for module in (diffquot, oracles):
        monkeypatch.setattr(module, "adaptive_quads", capped)


def test_functional_warns_once_per_lambda_at_the_split_cap(monkeypatch, capsys):
    # with five splits the outer integrals at lam = 1 and 10 stop above
    # their tolerance, within the margin that raises: one warning line each,
    # which names its function and level, in a call with two functions too
    f = catalog("tent")
    g = catalog("linear_ramp", slope=0.5, cutoff=1.0, center=0.3)
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-2, 4),
        lambda_lo=1e0, lambda_hi=1e4, lambda_count=5,
    )
    full = diffquot_functional(cfg, f)
    assert capsys.readouterr().err == ""
    _small_split_cap(monkeypatch, 5)
    capped = diffquot_functional(cfg, f)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line, lam in zip(lines, ("1.0", "10.0")):
        assert line.startswith("warning: ") and f"lambda={lam} " in line
        assert " of tent() at " in line
    # the capped levels moved, the converged ones did not
    moved = [a != b for a, b in zip(full.values, capped.values)]
    assert moved == [True, True, False, False, False]
    # the ramp stops at its cap at lam = 1 only
    both = diffquot_functionals(cfg, [f, g])
    lines = capsys.readouterr().err.splitlines()
    want = [("tent()", "1.0"), ("tent()", "10.0"), (repr(g), "1.0")]
    assert len(lines) == len(want)
    for line, (name, lam) in zip(lines, want):
        assert line.startswith("warning: ") and f" of {name} at lambda={lam} " in line
    assert both[0] == capped


def test_point_domination_warns_at_the_split_cap(monkeypatch, capsys):
    f = catalog("tent")
    window = window_1d(-8, 8, -5, 3, shifts=all_shifts(1))
    args = (f, ConstantWeight(1.0), 1.0, 1.0, 2.0, 0.07, window, 0.5)
    point_domination_check(*args)
    assert capsys.readouterr().err == ""
    _small_split_cap(monkeypatch, 1)
    point_domination_check(*args)
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: ") and "lambda=0.07 " in line


def test_point_domination_pinned_values():
    # lhs and terms of the three point_domination inputs above, as computed
    # by the per-node inner integral that the batched one replaced (the
    # ramp's lhs, at s = -1 with no certified outer radius, since its far
    # tail is taken exactly past reach: 13.33584786090242 before), and of a
    # constant f at beta < 1/p, whose Lipschitz hint 0 makes the shell's
    # inner radius (lam / 0)^(1/-s) infinite: no member, not a division by 0.
    # The tent's lhs was 16.43241180825343 before its right piece was stored
    # about x = 1: its ball means are differences of primitives, whose known
    # rounding error reaches about 4e-8 at the smallest radii
    cases = (
        (
            catalog("constant", c=1.0), 1.0, 1.0, 2.0, 0.5, (-4, 4, -4, 2), 0.5,
            0.0, [0.0] * 11,
        ),
        (
            catalog("constant", c=1.0), 2.0, 2.0, 0.25, 0.5, (-4, 4, -4, 2), 0.5,
            0.0, [0.0] * 11,
        ),
        (
            catalog("tent"), 1.0, 1.0, 2.0, 0.07, (-8, 8, -5, 3), 0.5,
            16.432411808178905,
            [26.478515625, 23.95703125, 19.4140625, 10.515625, 8.75] + [0.0] * 6,
        ),
        (
            catalog("linear_ramp", slope=1.0, cutoff=2.0), 1.0, 2.0, 0.0, 0.4,
            (-8, 8, -5, 3), 0.25,
            13.335848876072731,
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
