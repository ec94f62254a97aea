"""Level sets, the weak-type oscillation functional, and good-cube machinery."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dyadicweights.oscillation import (
    LevelMass,
    OscillationConfig,
    admissible_beta,
    alpha_exponent,
    oscillation_functional,
    check_domination,
    classify_good,
    level_set,
    mean_functional,
    verify_oscillation,
    verify_mean_functional,
    _family_arrays,
)
from dyadicweights.funcspace import catalog, mean_abs, omega_boxes
from dyadicweights.grid import (
    Cube,
    GridWindow,
    Shift,
    all_shifts,
    children,
    window_1d,
)
from dyadicweights.records import VerificationRecord
from dyadicweights.weights import ConstantWeight, PowerWeight, ProductWeight
from oracles import (
    Relation,
    cube_weight,
    max_antichain_weight_bruteforce,
    relate,
    sparse_chain_check,
)

S0 = Shift((0,))


def _oms(f, win: GridWindow) -> np.ndarray:
    """omega of f on the window's cubes, in the row order of its arrays."""
    return omega_boxes(f, win.arrays.lo, win.arrays.hi)


def test_admissible_beta_sets():
    assert admissible_beta(1.0, 2.0, 1)
    assert admissible_beta(1.0, -1.0, 1)
    assert not admissible_beta(1.0, 0.5, 1)  # p=1, n=1 excludes [0, 1]
    assert admissible_beta(1.0, 0.4, 2)  # below 1 - 1/n = 1/2
    assert not admissible_beta(2.0, 0.5, 1)
    assert admissible_beta(2.0, 0.49, 1)


def test_alpha_exponent_band():
    assert alpha_exponent(2.0, 0.0) == 2.0
    assert alpha_exponent(2.0, -0.5) == 2.0  # left edge of [1/p-1, 1/p)
    assert alpha_exponent(2.0, 0.5) == 1.0  # right edge excluded
    assert alpha_exponent(2.0, 2.0) == 1.0
    assert alpha_exponent(1.0, 2.0) == 1.0


def test_level_set_constant_empty():
    f = catalog("constant", c=5.0)
    w = window_1d(-2, 2, -3, 1)
    for lam in (0.01, 1.0, 100.0):
        members, flagged = level_set(_oms(f, w), w, lam, 0.0)
        assert members == []


def test_level_set_linear_edge_rule():
    # slope-1 linear: omega_Q = h/3, so at b=0 membership is h > 3 lam
    f = catalog("linear", slope=1.0)
    w = window_1d(-8, 8, -4, 3)
    lam = 0.07
    members, _ = level_set(_oms(f, w), w, lam, 0.0)
    for q in w.cubes():
        h = float(q.edge)
        if h / 3.0 > lam:
            assert q in members
        else:
            assert q not in members


def test_level_set_shrinks_in_lambda():
    f = catalog("tent")
    w = window_1d(-4, 4, -4, 2)
    oms = _oms(f, w)
    prev = None
    for lam in (0.01, 0.05, 0.2, 1.0):
        members, _ = level_set(oms, w, lam, 0.5)
        cur = set(members)
        if prev is not None:
            assert cur.issubset(prev)
        prev = cur


def test_level_set_bump_certifying_interval():
    # the interval (0,4) belongs to the level set of the bump at the
    # threshold 4^(-beta-3+1/p) with b = beta + 1 - 1/p
    f = catalog("sharp1_bump")
    p = 1.0
    for beta in (2.0, -1.0):
        lam = 4.0 ** (-beta - 3.0 + 1.0 / p)
        b = beta + 1.0 - 1.0 / p
        w = window_1d(-8, 8, 0, 3)
        members, _ = level_set(_oms(f, w), w, lam, b)
        target = Cube(S0, 2, (0,))  # [0, 4)
        assert float(target.interval()[0]) == 0.0 and float(target.edge) == 4.0
        assert target in members


def test_level_set_counts_match_profile():
    # level_set and the functional read one level rule: at every lambda of
    # the profile the level set holds exactly n_cubes cubes, in window order
    f = catalog("tent")
    win = window_1d(-3, 3, -3, 1, shifts=all_shifts(1))
    oms = _oms(f, win)
    cubes = list(win.cubes())
    order = {q: i for i, q in enumerate(cubes)}
    for p, beta in ((1.0, 2.0), (2.0, 2.0), (2.0, -1.0)):
        cfg = OscillationConfig(p=p, beta=beta, weight=ConstantWeight(1.0), window=win)
        prof = oscillation_functional(cfg, f)
        b = cfg.level_exponent
        for lam, n in zip(prof.lambdas, prof.n_cubes):
            members, _ = level_set(oms, win, lam, b)
            assert len(members) == n
            assert [order[q] for q in members] == sorted(order[q] for q in members)
        # a cube exactly at its threshold is flagged and not a member
        i = int(np.argmax(oms))
        q = cubes[i]
        lam = oms[i] / float(q.volume) ** b
        members, flagged = level_set(oms, win, lam, b)
        assert q in flagged and q not in members


def test_functional_constant_zero_profile():
    cfg = OscillationConfig(
        p=1.0, beta=2.0, weight=ConstantWeight(1.0), window=window_1d(-2, 2, -2, 1)
    )
    prof = oscillation_functional(cfg, catalog("constant", c=1.0))
    assert prof.sup == 0.0
    assert all(v == 0.0 for v in prof.values)


def test_functional_matches_bruteforce_enumeration():
    # independent oracle: re-enumerate the window and sum from scratch at
    # several lambdas, sharing the omega values
    f = catalog("linear_ramp", slope=1.0, cutoff=6.0)
    win = window_1d(-8, 8, -6, 3)
    weight = ConstantWeight(1.0)
    p, beta = 1.0, 2.0
    cfg = OscillationConfig(p=p, beta=beta, weight=weight, window=win)
    oms = _oms(f, win)
    prof = oscillation_functional(cfg, f)
    b = beta + 1.0 - 1.0 / p
    rng = np.random.default_rng(0)
    lams = list(rng.choice(prof.lambdas, size=8)) + [prof.argmax_lambda]
    for lam in lams:
        total = 0.0
        for i, q in enumerate(win.cubes()):
            om = oms[i]
            vol = float(q.volume)
            if om > lam * vol**b:
                total += vol ** (beta * p - 1.0) * weight.mass(q)
        total *= lam**p
        i = prof.lambdas.index(lam)
        assert prof.values[i] == pytest.approx(total, rel=1e-9, abs=1e-300)
    assert prof.sup == pytest.approx(max(prof.values), rel=0)


def test_window_profile_takes_masses_only_on_cubes_with_a_positive_value(monkeypatch):
    # a cube whose criterion value is 0 enters no level set, so its mass is
    # never read: Weight.masses takes only the other cubes, and the level
    # table is the one the masses of every cube give, bit for bit
    win = window_1d(-16, 16, -5, 4, shifts=all_shifts(1))
    arr, w = win.arrays, PowerWeight(-0.75, 0.5)
    full = w.masses(arr.lo, arr.hi)
    seen = []

    def masses(self, lo, hi, _real=PowerWeight.masses):
        seen.append(len(lo))
        return _real(self, lo, hi)

    monkeypatch.setattr(PowerWeight, "masses", masses)
    tent, step = catalog("tent"), catalog("indicator", a=-0.3, b=2.2)
    for values, profile in (
        (_oms(tent, win), lambda: oscillation_functional(OscillationConfig(1.0, 2.0, w, win), tent)),
        (mean_abs(step, arr.lo[:, 0], arr.hi[:, 0]), lambda: mean_functional(step, w, 1.0, -1.0, win)),
    ):
        seen.clear()
        profile()
        live = values > 0
        assert seen == [np.count_nonzero(live)] and 0 < seen[0] < len(arr) // 4
        b, wexp = 2.0, 1.0
        want = LevelMass.of_cubes(values, arr.j, full, b, wexp)
        got = LevelMass.of_cubes(values, arr.j, np.where(live, full, 0.0), b, wexp)
        for name in ("index", "thresholds", "weights", "prefix"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_level_mass_matches_direct_loop():
    # tied and zero thresholds; dyadic weights make every partial sum exact
    thr = np.array([0.5, 2.0, 0.0, 2.0, 1.0, 0.5, 0.0, 3.0])
    wts = np.array([1.0, 0.25, 7.0, 0.5, 2.0, 0.125, 5.0, 0.75])
    levels = LevelMass(thr, wts)
    assert list(thr[levels.index]) == list(levels.thresholds) == [3, 2, 2, 1, 0.5, 0.5]
    lams = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    count, mass = levels.above(lams)
    for lam, c, m in zip(lams, count, mass):
        assert c == sum(1 for t in thr if t > lam)
        assert m == sum(w for t, w in zip(thr, wts) if t > lam)
    # sup over lam of lam^p * mass(lam) is approached just below a threshold
    grid = np.concatenate([np.linspace(1e-3, 4.0, 4001), thr[thr > 0] * (1 - 1e-12)])
    for p in (1.0, 2.0):
        direct = max(
            lam**p * sum(w for t, w in zip(thr, wts) if t > lam) for lam in grid
        )
        assert levels.sup(p) == pytest.approx(direct, rel=1e-11)
    # p = 1 peaks at threshold 1 (mass 3.5), p = 2 at the largest threshold
    assert levels.sup(1.0) == 1.0 * 3.5
    assert levels.sup(2.0) == 9.0 * 0.75
    empty = LevelMass(np.zeros(3), np.ones(3))
    assert empty.sup(1.0) == 0.0
    assert list(empty.above([0.5])[1]) == [0.0]


def test_functional_profile_sup_at_threshold_nudge():
    f = catalog("tent")
    cfg = OscillationConfig(
        p=1.0, beta=2.0, weight=ConstantWeight(1.0), window=window_1d(-4, 4, -4, 2)
    )
    prof = oscillation_functional(cfg, f)
    assert prof.sup >= max(prof.values) * (1 - 1e-12)
    assert prof.boundary_share <= 1.0


def test_verify_oscillation_tent_stable_under_window_doubling():
    f = catalog("tent")
    weight = ConstantWeight(1.0)
    recs = []
    for (lo, hi, jmin, jmax) in ((-8, 8, -5, 3), (-16, 16, -5, 4)):
        cfg = OscillationConfig(
            p=1.0, beta=2.0, weight=weight, window=window_1d(lo, hi, jmin, jmax)
        )
        recs.append(verify_oscillation(cfg, f))
    assert all(r.passed for r in recs)
    assert recs[0].ratio > 0
    assert abs(recs[1].ratio - recs[0].ratio) <= 0.2 * recs[0].ratio


def test_verify_oscillation_tent_stable_under_j_extension():
    f = catalog("tent")
    weight = ConstantWeight(1.0)
    recs = []
    for (jmin, jmax) in ((-5, 3), (-7, 5)):
        cfg = OscillationConfig(
            p=1.0, beta=2.0, weight=weight, window=window_1d(-8, 8, jmin, jmax)
        )
        recs.append(verify_oscillation(cfg, f))
    assert abs(recs[1].ratio - recs[0].ratio) <= 0.2 * recs[0].ratio


def test_verify_oscillation_critical_band_reports_normalized_ratio():
    # p > 1 with beta in [1/p - 1, 1/p): the gap-normalized ratio is reported
    f = catalog("tent")
    cfg = OscillationConfig(
        p=2.0, beta=0.25, weight=ConstantWeight(1.0), window=window_1d(-4, 4, -4, 2)
    )
    rec = verify_oscillation(cfg, f)
    assert rec.details["constant_exponent"] == 2.0
    cbr = rec.details["critical_band_ratio"]
    assert math.isfinite(cbr) and cbr > 0
    assert cbr == pytest.approx(rec.ratio * (1.0 / 2.0 - 0.25), rel=1e-12)


def test_verify_oscillation_non_a1_weight_fails_and_grows():
    # the transition of the ramp sits at 0, which every unshifted dyadic cube
    # has as a corner; the shifted grids see it, and the ratio then grows
    # without bound as the window expands
    f = catalog("linear_ramp", slope=1.0, cutoff=10.0)
    weight = PowerWeight(0.5)
    ratios = []
    for (lo, hi, jmin, jmax) in ((-32, 32, -2, 5), (-128, 128, -2, 7), (-512, 512, -2, 9)):
        cfg = OscillationConfig(
            p=1.0,
            beta=2.0,
            weight=weight,
            window=window_1d(lo, hi, jmin, jmax, shifts=all_shifts(1)),
        )
        rec = verify_oscillation(cfg, f)
        assert not rec.passed
        assert rec.details.get("constant_unbounded")
        ratios.append(rec.ratio)
    assert ratios[1] > 1.5 * ratios[0]
    assert ratios[2] > 1.5 * ratios[1]


def test_mean_functional_indicator_matches_bruteforce():
    f = catalog("indicator", a=0.0, b=1.0)
    win = window_1d(-4, 4, -4, 2)
    weight = ConstantWeight(1.0)
    p, beta = 1.0, 2.0
    prof = mean_functional(f, weight, p, beta, win)
    b = beta - 1.0 / p
    for lam in (prof.argmax_lambda, prof.lambdas[3], prof.lambdas[-2]):
        total = 0.0
        for q in win.cubes():
            lo, hi = map(float, q.interval())
            inter = max(0.0, min(hi, 1.0) - max(lo, 0.0))
            mean = inter / (hi - lo)
            vol = float(q.volume)
            if mean > lam * vol**b:
                total += vol ** (beta * p - 1.0) * weight.mass(q)
        total *= lam**p
        i = prof.lambdas.index(lam)
        assert prof.values[i] == pytest.approx(total, rel=1e-9, abs=1e-300)


def test_mean_functional_band_rejected():
    f = catalog("indicator", a=0.0, b=1.0)
    win = window_1d(-2, 2, -2, 1)
    with pytest.raises(ValueError):
        mean_functional(f, ConstantWeight(1.0), 1.0, 0.5, win)


def test_mean_functional_rejects_two_dimensional_window():
    # the means are one-dimensional; a 2-D window used to return a wrong sup
    box = ((Fraction(-2), Fraction(2)),) * 2
    win = GridWindow(box, -2, 1, (Shift((0, 0)),))
    with pytest.raises(ValueError, match="one-dimensional"):
        mean_functional(catalog("tent"), ConstantWeight(1.0), 1.0, 2.0, win)


def test_mean_functional_beta_negative_window_stable():
    f = catalog("indicator", a=0.0, b=1.0)
    weight = ConstantWeight(1.0)
    sups = []
    for (lo, hi, jmax) in ((-4, 4, 2), (-8, 8, 3), (-16, 16, 4)):
        prof = mean_functional(f, weight, 1.0, -1.0, window_1d(lo, hi, -4, jmax))
        sups.append(prof.sup)
    # bounded by a constant multiple of ||f||_L1 = 1 across window growth
    assert max(sups) <= 4.0
    assert max(sups) / min(sups) <= 1.25


def test_verify_mean_functional_record():
    f = catalog("indicator", a=0.0, b=1.0)
    rec = verify_mean_functional(
        f, ConstantWeight(1.0), 1.0, 2.0, window_1d(-4, 4, -4, 2)
    )
    assert rec.passed
    assert rec.lhs > 0 and rec.rhs > 0


def test_unbounded_estimate_leaves_both_functionals_uncertified():
    # |x|^(1/2) is not A_1: the right side is the bare norm and nothing passes
    f = catalog("tent")
    weight = PowerWeight(0.5)
    window = window_1d(-4, 4, -4, 2)
    cfg = OscillationConfig(p=1.0, beta=2.0, weight=weight, window=window)
    osc = verify_oscillation(cfg, f)
    mean = verify_mean_functional(f, weight, 1.0, 2.0, window)
    for rec, norm in ((osc, "grad_norm_p"), (mean, "lp_norm_p")):
        assert (rec.certified, rec.passed) == (False, False)
        assert rec.rhs == rec.details[norm] > 0
        assert math.isinf(rec.details["constant_estimate"])
        assert rec.ratio == rec.lhs / rec.rhs
    assert osc.details["constant_unbounded"] is True
    assert "constant_unbounded" not in verify_oscillation(
        OscillationConfig(p=1.0, beta=2.0, weight=ConstantWeight(1.0), window=window), f
    ).details


# ---------------------------------------------------------------------------
# good/bad cubes
# ---------------------------------------------------------------------------


def unit_cube():
    return Cube(S0, 0, (0,))


def test_singleton_family_good():
    w = ConstantWeight(1.0)
    good, bad = classify_good([unit_cube()], 1.0, w)
    assert bad == [] and good == [unit_cube()]


def test_parent_child_pair_good_at_sigma_one():
    w = ConstantWeight(1.0)
    q = unit_cube()
    c = children(q)[0]
    good, bad = classify_good([q, c], 1.0, w)
    assert q in good and c in good and bad == []


def test_parent_bad_at_sigma_zero():
    w = ConstantWeight(1.0)
    q = unit_cube()
    kids = children(q)
    good, bad = classify_good([q, *kids], 0.0, w)
    assert q in bad
    assert all(c in good for c in kids)


def random_family(rng: random.Random, max_size: int = 14):
    shift = Shift((rng.choice((0, 1, 2)),))
    root = Cube(shift, rng.randint(-1, 2), (rng.randint(-3, 3),))
    pool = [root]
    frontier = [root]
    for _ in range(3):
        nxt = []
        for q in frontier:
            for c in children(q):
                if rng.random() < 0.55:
                    nxt.append(c)
        pool.extend(nxt)
        frontier = nxt
    rng.shuffle(pool)
    pool = pool[: rng.randint(1, max_size)]
    return list(dict.fromkeys(pool))


def random_weight(rng: random.Random):
    kind = rng.random()
    if kind < 0.4:
        return ConstantWeight(rng.uniform(0.5, 3.0))
    if kind < 0.7:
        return PowerWeight(rng.uniform(-0.8, 0.0), center=rng.uniform(-1, 1))
    return PowerWeight(rng.uniform(0.0, 2.0), center=rng.uniform(-1, 1))


def test_classify_good_agrees_with_bruteforce():
    rng = random.Random(42)
    for _ in range(120):
        fam = random_family(rng)
        w = random_weight(rng)
        sigma = rng.uniform(-2.0, 2.0)
        good, bad = classify_good(fam, sigma, w)
        for q in fam:
            strict = max_antichain_weight_bruteforce(fam, sigma, w, q)
            own = cube_weight(q, sigma, w)
            has_desc = strict > 0
            if not has_desc:
                assert q in good
            elif strict <= own * (1 + 1e-12):
                assert q in good
            else:
                assert q in bad


def descent_family(rng: random.Random, shift: Shift, top: int, levels: int):
    """Up to 14 distinct cubes of one shift: a root at generation top and
    some of its descendants over the given number of levels (a few children
    kept per level, at least one), the root and a deepest cube always in."""
    root = Cube(shift, top, tuple(rng.randint(-3, 3) for _ in range(shift.n)))
    pool, frontier = [root], [root]
    for _ in range(levels):
        kids = [c for q in frontier for c in children(q)]
        frontier = [c for c in kids if rng.random() < 0.3][:4] or [rng.choice(kids)]
        pool.extend(frontier)
    return list(dict.fromkeys([root, pool[-1], *rng.sample(pool, min(len(pool), 12))]))


@pytest.mark.parametrize("n", [1, 2])
def test_family_arrays_match_relate_and_the_antichain_oracle(n):
    # every shift; shallow families, and families spanning 70 generations,
    # whose corners at the lowest generation exceed int64
    rng = random.Random(60 + n)
    for shift in all_shifts(n):
        for top, levels in ((2, 3), (40, 70)):
            for _ in range(3):
                fam = descent_family(rng, shift, top, levels)
                w = random_weight(rng) if n == 1 else ProductWeight([random_weight(rng) for _ in range(n)])
                j, inside, _ = _family_arrays(fam, w)
                assert (j.max() - j.min() > 63) == (levels > 63)
                assert inside.tolist() == [[relate(p, q) is Relation.P_INSIDE_Q for q in fam] for p in fam]
                sigma = rng.uniform(-2.0, 2.0)
                good, bad = classify_good(fam, sigma, w)
                assert sorted(good + bad, key=fam.index) == fam
                for q in fam:
                    strict = max_antichain_weight_bruteforce(fam, sigma, w, q)
                    own = cube_weight(q, sigma, w)
                    assert (q in good) == (strict == 0.0 or strict <= own * (1 + 1e-12)), (fam, q)


def test_domination_all_good_trivial():
    w = ConstantWeight(1.0)
    fam = [unit_cube(), children(unit_cube())[0]]
    rec = check_domination(fam, 1.0, 0.0, w, "all_over_good")
    assert rec.passed


def test_domination_three_cube_example():
    w = ConstantWeight(1.0)
    q = unit_cube()
    fam = [q, *children(q)]
    rec = check_domination(fam, 0.0, -1.0, w, "all_over_good")
    # direct evaluation: |Q|^{gamma-1} v(Q) is |Q|^{-1} for v = 1, so the
    # family sums to 1 + 2 + 2; the halves are the good cubes and the
    # geometric factor is 1/(1 - 2^{-1}) = 2
    assert rec.lhs == pytest.approx(5.0, rel=1e-12)
    assert rec.rhs == pytest.approx(8.0, rel=1e-12)
    assert rec.passed


def test_domination_random_families():
    rng = random.Random(7)
    for _ in range(200):
        fam = random_family(rng)
        w = random_weight(rng)
        sigma = rng.uniform(-1.5, 1.5)
        gamma = sigma - rng.uniform(0.1, 2.0)
        rec = check_domination(fam, sigma, gamma, w, "all_over_good")
        assert rec.passed, (fam, sigma, gamma)
    for _ in range(200):
        fam = random_family(rng)
        w = random_weight(rng)
        sigma = rng.uniform(-1.5, 1.5)
        alpha = sigma + rng.uniform(0.1, 2.0)
        rec = check_domination(fam, sigma, alpha, w, "good_chain")
        assert rec.passed, (fam, sigma, alpha)


def test_domination_rejects_bad_exponent():
    w = ConstantWeight(1.0)
    with pytest.raises(ValueError):
        check_domination([unit_cube()], 0.0, 1.0, w, "all_over_good")
    with pytest.raises(ValueError):
        check_domination([unit_cube()], 0.0, -1.0, w, "good_chain")


def test_classify_rejects_cross_shift():
    fam = [Cube(S0, 0, (0,)), Cube(Shift((1,)), 0, (0,))]
    with pytest.raises(ValueError):
        classify_good(fam, 1.0, ConstantWeight(1.0))


# ---------------------------------------------------------------------------
# chain sparsity
# ---------------------------------------------------------------------------


def test_sparse_chain_empty_level_set():
    f = catalog("constant", c=2.0)
    win = window_1d(-2, 2, -3, 1)
    rep = sparse_chain_check(_oms(f, win), 1.0, 0.0, 1.0, 1.0, win, [0.1, 0.7])
    assert rep["all_ok"]
    assert rep["n_checked"] == 0


def test_sparse_chain_linear_ramp():
    f = catalog("linear_ramp", slope=1.0, cutoff=8.0)
    win = window_1d(-8, 8, -6, 3)
    rep = sparse_chain_check(_oms(f, win), 0.01, 0.0, 1.0, 1.0, win, [0.12, -0.77, 3.4])
    assert rep["all_ok"]
    assert rep["n_checked"] > 0


def test_sparse_chain_tent_maximal_variant():
    f = catalog("tent")
    win = window_1d(-8, 8, -6, 3)
    rng = np.random.default_rng(1)
    pts = [float(x) for x in rng.uniform(-3, 3, size=100)]
    rep = sparse_chain_check(_oms(f, win), 0.001, 2.0, 1.0, 1.0, win, pts)
    assert rep["all_ok"]
    assert rep["n_checked"] >= 50


def test_verify_oscillation_two_dimensional_window():
    # p = 1, n = 2, beta below 1 - 1/n: tensor tent against a constant weight
    from fractions import Fraction

    from dyadicweights.funcspace import tensor_tent
    from dyadicweights.grid import GridWindow, all_shifts
    from dyadicweights.weights import ConstantWeight as CW

    box = ((Fraction(-2), Fraction(4)), (Fraction(-2), Fraction(4)))
    window = GridWindow(box, -2, 2, (all_shifts(2)[0],))
    cfg = OscillationConfig(
        p=1.0, beta=0.4, weight=CW(1.0, n=2), window=window, lambda_count=32
    )
    rec = verify_oscillation(cfg, tensor_tent())
    assert rec.lhs > 0
    assert rec.passed
    assert math.isfinite(rec.ratio)


def test_mean_functional_p2_bound():
    f = catalog("indicator", a=0.0, b=1.0)
    weight = PowerWeight(0.5)
    rec = verify_mean_functional(f, weight, 2.0, 1.0, window_1d(-4, 4, -4, 2))
    assert rec.passed
    assert rec.lhs > 0


def test_cli_budget_error_exit_code(tmp_path):
    from dyadicweights.cli import main

    code = main(
        [
            "verify-cddd",
            "--set",
            "grid.j_min=-20",
            "--set",
            "grid.j_max=0",
            "--set",
            "grid.budget=1000",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1


def test_verification_record_rule():
    def rec(lhs, rhs, certified=True):
        return VerificationRecord("r", lhs, rhs, ceiling=2.0, certified=certified)

    assert (rec(0.0, 0.0).ratio, rec(0.0, 0.0).passed) == (0.0, True)
    assert (rec(1.0, 0.0).ratio, rec(1.0, 0.0).passed) == (math.inf, False)
    assert (rec(3.0, 2.0).ratio, rec(3.0, 2.0).passed) == (1.5, True)
    assert not rec(5.0, 2.0).passed
    assert not rec(1.0, 2.0, certified=False).passed
    assert rec(5.0, 2.0).summary() == {
        "verdict": "fail",
        "check": "r",
        "lhs": 5.0,
        "rhs": 2.0,
        "ratio": 2.5,
        "ceiling": 2.0,
        "certified": True,
        "details": {},
    }
