"""Acceptance gate: the twelve headline criteria, each printed as a
PASS/FAIL line with its measured quantities and runtime budget."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from dyadicweights.diffquot import DiffQuotConfig, diffquot_functional, lower_constant
from dyadicweights.oscillation import (
    OscillationConfig,
    check_domination,
    classify_good,
    verify_oscillation,
)
from dyadicweights.experiments import sharpness_sweep, weight_classifier
from dyadicweights.funcspace import (
    Quadrature,
    _omega_sampled,
    catalog,
    omega,
    omega_bruteforce,
)
from dyadicweights.grid import (
    AxisCube,
    Cube,
    Shift,
    children,
    float_box,
    window_1d,
)
from dyadicweights.wavelet import IndexSet, build_daubechies, verify_almost_char
from dyadicweights.weights import (
    ConstantWeight,
    PowerWeight,
    ap_ratios,
    standard_probes,
)

from oracles import (
    Relation,
    cube_weight,
    dom_multiplicity,
    dominating_cube,
    max_antichain_weight_bruteforce,
    parent,
    relate,
)
from oracles import omega_indicator, split_and_mean_sets


def report(num: int, ok: bool, label: str, **fields):
    tail = " ".join(f"{k}={v}" for k, v in fields.items())
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label} {tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def test_01_diffquot_linear_exactness():
    t0 = time.time()
    lc = lower_constant(1, 1, 1.0)
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=1.0, weight=ConstantWeight(1.0), window=(-1.0, 1.0),
        lambda_lo=1e2, lambda_hi=1e4, lambda_count=9,
    )
    prof = diffquot_functional(cfg, f)
    grad_norm = 2.0  # integral of |f'| over the window
    ratios = [v / grad_norm for v in prof.values]
    # the exact inner integral leaves rounding only: 3.3e-16 measured
    worst = max(abs(r - 2.0) / 2.0 for r in ratios)
    within = worst <= 4e-15
    elapsed = time.time() - t0
    report(
        1,
        within and abs(lc - 2.0) < 1e-12 and elapsed < 10.0,
        "difference-quotient functional is exactly twice the gradient norm "
        "for the pure linear function",
        worst_ratio=max(ratios),
        worst_rel_err=f"{worst:.1e}",
        lower_constant=lc,
        seconds=round(elapsed, 2),
    )


def test_02_diffquot_negative_gamma_exactness():
    t0 = time.time()
    f = catalog("linear", slope=1.0)
    cfg = DiffQuotConfig(
        p=1, q=1, gamma=-2.0, weight=ConstantWeight(1.0), window=(-1.0, 1.0),
        lambda_lo=1e2, lambda_hi=1e4, lambda_count=9,
    )
    prof = diffquot_functional(cfg, f)
    ratios = [v / 2.0 for v in prof.values]
    target = (2.0 / 2.0) ** 1.0  # (2/|gamma|)^(1/q)
    # the unbounded runs are closed form, with no far-tail truncation left:
    # 3.3e-16 measured
    worst = max(abs(r - target) / target for r in ratios)
    within = worst <= 4e-15
    elapsed = time.time() - t0
    report(
        2,
        within and elapsed < 10.0,
        "negative-exponent functional matches (2/|gamma|)^(1/q)",
        worst_ratio=max(ratios),
        worst_rel_err=f"{worst:.1e}",
        target=target,
        seconds=round(elapsed, 2),
    )


def test_03_sharpness_ap_sweep():
    t0 = time.time()
    res = sharpness_sweep("ap", 2.0, [2.0**-k for k in range(2, 9)])
    elapsed = time.time() - t0
    ok = abs(res.slope + 3.0) <= 0.15 and all(res.certified) and elapsed < 60.0
    report(
        3,
        ok,
        "certifying-family functional scales like delta^-(p+1) at p = 2",
        slope=round(res.slope, 4),
        residual=f"{res.slope_residual:.1e}",
        seconds=round(elapsed, 2),
    )


def test_04_sharpness_a1_sweep():
    t0 = time.time()
    deltas = [2.0**-k for k in range(2, 9)]
    res = sharpness_sweep("a1", 1.0, deltas)
    # tracked mass is exactly (7/2)^delta / delta
    lam = res.extras["lambda_star"]
    exact = all(
        math.isclose(val / (lam * 4.0), 3.5**d / d, rel_tol=1e-12)
        for d, val in zip(res.grid, res.lhs)
    )
    elapsed = time.time() - t0
    ok = (
        exact
        and abs(res.slope + 1.0) <= 0.05
        and all(res.certified)
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        "one-sided mass of (0,4) is (7/2)^d/d exactly, slope -1, cube "
        "certified at the stated threshold for every delta",
        slope=round(res.slope, 4),
        exact_mass=exact,
        certified=all(res.certified),
        seconds=round(elapsed, 2),
    )


BATTERY_WEIGHTS = {
    "const": lambda: ConstantWeight(1.0),
    "inv_sqrt": lambda: PowerWeight(-0.5),
    "centered": lambda: PowerWeight(-0.75, center=0.5),
}
BATTERY_FUNCS = {
    "tent": lambda: catalog("tent"),
    "ramp10": lambda: catalog("linear_ramp", slope=1.0, cutoff=10.0),
    "plateau": lambda: catalog("smoothed_indicator", width=0.25),
}


def test_05_oscillation_uniform_constant_battery():
    t0 = time.time()
    probes_cache = {
        name: standard_probes(mk(), scales=range(-12, 6))
        for name, mk in BATTERY_WEIGHTS.items()
    }
    worst_ratio = 0.0
    worst_drift = 0.0
    failures = []
    for fname, fmk in BATTERY_FUNCS.items():
        f = fmk()
        for wname, wmk in BATTERY_WEIGHTS.items():
            w = wmk()
            for beta in (-1.0, 2.0):
                ratios = []
                # base windows already contain every battery feature scale
                # (the widest is the ramp transition at |x| = 10)
                for (lo, hi, jmin, jmax, nlam) in (
                    (-16, 16, -5, 4, 64),
                    (-32, 32, -5, 5, 64),
                    (-16, 16, -5, 4, 256),
                ):
                    cfg = OscillationConfig(
                        p=1.0,
                        beta=beta,
                        weight=w,
                        window=window_1d(lo, hi, jmin, jmax),
                        lambda_count=nlam,
                    )
                    rec = verify_oscillation(cfg, f, probes=probes_cache[wname])
                    ratios.append(rec.ratio)
                base = ratios[0]
                drift = max(abs(r - base) / base for r in ratios[1:]) if base > 0 else 0.0
                worst_ratio = max(worst_ratio, max(ratios))
                worst_drift = max(worst_drift, drift)
                if max(ratios) > 100.0 or drift > 0.20:
                    failures.append((fname, wname, beta, max(ratios), drift))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(
        5,
        ok,
        "battery ratios bounded by 100 and stable under window doubling "
        "and level-grid refinement",
        worst_ratio=round(worst_ratio, 3),
        worst_drift=round(worst_drift, 4),
        failures=failures,
        seconds=round(elapsed, 2),
    )


def test_06_non_a1_blowup():
    t0 = time.time()
    rep = weight_classifier(PowerWeight(0.5), 1.0, depths=(6, 12, 24, 48))
    growth = rep.growth["step_probe"]
    ok_growth = len(growth) == 3 and all(g >= 4.0 * 0.999 for g in growth)
    elapsed = time.time() - t0
    ok = ok_growth and rep.verdict == "violates" and elapsed < 120.0
    report(
        6,
        ok,
        "|x|^(1/2) at p = 1: probe ratio grows at least fourfold per "
        "window doubling over three doublings, verdict violates",
        growth=[round(g, 1) for g in growth],
        verdict=rep.verdict,
        seconds=round(elapsed, 2),
    )


def _random_family(rng, max_size=14):
    shift = Shift((rng.choice((0, 1, 2)),))
    root = Cube(shift, rng.randint(-1, 2), (rng.randint(-3, 3),))
    fam, frontier = [root], [root]
    for _ in range(3):
        nxt = [c for q in frontier for c in children(q) if rng.random() < 0.55]
        fam.extend(nxt)
        frontier = nxt
    rng.shuffle(fam)
    return list(dict.fromkeys(fam))[: rng.randint(1, max_size)]


def _random_weight(rng):
    r = rng.random()
    if r < 0.4:
        return ConstantWeight(rng.uniform(0.5, 3.0))
    if r < 0.7:
        return PowerWeight(rng.uniform(-0.8, 0.0), center=rng.uniform(-1, 1))
    return PowerWeight(rng.uniform(0.0, 2.0), center=rng.uniform(-1, 1))


def test_07_good_bad_cube_suite():
    t0 = time.time()
    rng = random.Random(2024)
    agree = 0
    for _ in range(500):
        fam = _random_family(rng)
        w = _random_weight(rng)
        sigma = rng.uniform(-2.0, 2.0)
        good, bad = classify_good(fam, sigma, w)
        for q in fam:
            strict = max_antichain_weight_bruteforce(fam, sigma, w, q)
            own = cube_weight(q, sigma, w)
            expect_good = strict == 0.0 or strict <= own * (1 + 1e-12)
            assert (q in good) == expect_good
        agree += 1
    dom_ok = 0
    for _ in range(200):
        fam = _random_family(rng)
        w = _random_weight(rng)
        sigma = rng.uniform(-1.5, 1.5)
        rec = check_domination(fam, sigma, sigma - rng.uniform(0.1, 2.0), w, "all_over_good")
        assert rec.passed
        dom_ok += 1
    for _ in range(200):
        fam = _random_family(rng)
        w = _random_weight(rng)
        sigma = rng.uniform(-1.5, 1.5)
        rec = check_domination(fam, sigma, sigma + rng.uniform(0.1, 2.0), w, "good_chain")
        assert rec.passed
        dom_ok += 1
    elapsed = time.time() - t0
    ok = agree == 500 and dom_ok == 400 and elapsed < 60.0
    report(
        7,
        ok,
        "tree recursion matches exhaustive antichain search on 500 families; "
        "both domination inequalities hold on 400 random instances",
        families=agree,
        dominations=dom_ok,
        seconds=round(elapsed, 2),
    )


def test_08_grid_laws_randomized():
    t0 = time.time()
    rng = random.Random(99)
    checks = 0
    # nesting trichotomy
    for n in (1, 2):
        for _ in range(1600):
            shift = Shift(tuple(rng.choice((0, 1, 2)) for _ in range(n)))
            p = Cube(shift, rng.randint(-5, 5), tuple(rng.randint(-8, 8) for _ in range(n)))
            q = Cube(shift, rng.randint(-5, 5), tuple(rng.randint(-8, 8) for _ in range(n)))
            assert relate(p, q) is not Relation.INCOMPARABLE
            checks += 1
    # child partition exactness
    for n in (1, 2):
        for _ in range(1300):
            shift = Shift(tuple(rng.choice((0, 1, 2)) for _ in range(n)))
            q = Cube(shift, rng.randint(-4, 4), tuple(rng.randint(-6, 6) for _ in range(n)))
            kids = children(q)
            assert sum(k.volume for k in kids) == q.volume
            for i in range(len(kids)):
                assert parent(kids[i]) == q
                for j in range(i + 1, len(kids)):
                    assert relate(kids[i], kids[j]) is Relation.DISJOINT
            checks += 1
    # dominating cube containment and edge window
    for n in (1, 2):
        for _ in range(1300):
            lo = tuple(
                Fraction(rng.randint(-500, 500), rng.choice((3, 7, 16, 48)))
                for _ in range(n)
            )
            edge = Fraction(rng.randint(1, 400), rng.choice((7, 16, 48, 100)))
            p = AxisCube(lo, edge)
            _, q = dominating_cube(p)
            assert Fraction(3, 2) * edge < q.edge <= 3 * edge
            qlo = q.lower()
            assert all(
                qlo[d] <= lo[d] and lo[d] + edge <= qlo[d] + q.edge for d in range(n)
            )
            checks += 1
    # domination multiplicity bound
    for n in (1, 2):
        for k in (1, 3):
            for _ in range(400):
                edge = Fraction(rng.randint(1, 9), rng.choice((1, 2, 4)))
                placed = []
                tries = 0
                while len(placed) < rng.randint(1, 10) and tries < 120:
                    tries += 1
                    cand = AxisCube(
                        tuple(Fraction(rng.randint(-30, 30)) * edge for _ in range(n)),
                        edge,
                    )
                    if all(
                        any(
                            cand.lower_corner[d] + edge <= q.lower_corner[d]
                            or q.lower_corner[d] + edge <= cand.lower_corner[d]
                            for d in range(n)
                        )
                        for q in placed
                    ):
                        placed.append(cand)
                assert dom_multiplicity(placed, k) <= 3**n * k**n
                checks += 1
    elapsed = time.time() - t0
    ok = checks >= 10000 and elapsed < 30.0
    report(
        8,
        ok,
        "trichotomy, child partition, dominating-cube window, and "
        "multiplicity bound hold with zero violations",
        randomized_checks=checks,
        seconds=round(elapsed, 2),
    )


def test_09_dual_characterization_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(11)
    count = 0
    worst = 0.0
    while count < 50:
        a = float(rng.uniform(-0.9, 0.9))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        if a / (p - 1) >= 1.0:
            continue
        lo = float(rng.uniform(-3, 2))
        hi = lo + float(rng.uniform(0.1, 4))
        w = PowerWeight(a, center=float(rng.choice([0.0, 0.5])))
        direct = float(ap_ratios(w, p, [(lo, hi)])[0])
        if not math.isfinite(direct):
            continue
        pprime = p / (p - 1)
        dual_mass = float(w.power_masses(np.array([lo]), np.array([hi]), 1 - pprime)[0])
        extremal = (dual_mass / (hi - lo)) ** p * w.mass((lo, hi)) / dual_mass
        rel = abs(extremal - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-9
        count += 1
    elapsed = time.time() - t0
    ok = count == 50 and worst <= 1e-9 and elapsed < 10.0
    report(
        9,
        ok,
        "extremal-function route reproduces the per-cube constant ratio",
        pairs=count,
        worst_rel=f"{worst:.1e}",
        seconds=round(elapsed, 2),
    )


def test_10_wavelet_suite():
    t0 = time.time()
    system = build_daubechies(4, depth=12)
    moments = [abs(system.moment(k)) for k in range(4)]
    orth = system.orthonormality_residual
    f = catalog("tent")
    ratios = {}
    for wname, w in (
        ("const", ConstantWeight(1.0)),
        ("a1", PowerWeight(-0.5, center=0.5)),
    ):
        pair = []
        for jmax in (4, 5):
            rec = verify_almost_char(f, w, 2.0, system, IndexSet(jmax, -8.0, 10.0))
            assert rec.passed
            pair.append(rec.ratio)
        ratios[wname] = pair
    stable = all(
        abs(b - a) <= 0.25 * max(a, 1e-12) for a, b in ratios.values()
    )
    elapsed = time.time() - t0
    ok = (
        max(moments) < 1e-6
        and orth < 1e-4
        and stable
        and elapsed < 180.0
    )
    report(
        10,
        ok,
        "order-4 system: vanishing moments, orthonormality diagnostics, and "
        "weak-norm ratios stable under one generation extension",
        max_moment=f"{max(moments):.1e}",
        orthonormality=f"{orth:.1e}",
        ratios={k: [round(x, 4) for x in v] for k, v in ratios.items()},
        seconds=round(elapsed, 2),
    )


def test_11_omega_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(21)
    makers = [
        lambda: catalog("tent"),
        lambda: catalog("linear_ramp", slope=float(rng.uniform(0.5, 2.0)), cutoff=2.0),
        lambda: catalog("smoothed_indicator", width=float(rng.uniform(0.2, 0.6))),
        lambda: catalog("sharp1_bump"),
        lambda: catalog("sharp2_fdelta", delta=float(rng.uniform(0.3, 0.8))),
    ]
    worst = 0.0
    pairs = 0
    while pairs < 200:
        f = makers[pairs % len(makers)]()
        a = float(rng.uniform(-2.5, 1.5))
        b = a + float(rng.uniform(0.25, 3.0))
        prod = omega(f, (a, b))
        if prod < 1e-8:
            continue
        brute = omega_bruteforce(f, (a, b), nodes=64000)
        rel = abs(prod - brute) / max(prod, 1e-12)
        worst = max(worst, rel)
        assert rel <= 5e-8, (f.name, a, b, rel)
        pairs += 1
    # closed forms at 1e-9
    closed_worst = 0.0
    for _ in range(40):
        s = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(-2, 1))
        h = float(rng.uniform(0.2, 3.0))
        f = catalog("linear", slope=s)
        got = omega(f, (a, a + h))
        closed_worst = max(closed_worst, abs(got - s * h / 3.0) / (s * h / 3.0))
        e0, e1 = sorted(rng.uniform(-2, 2, size=2))
        if e1 - e0 < 1e-3:
            continue
        find = catalog("indicator", a=e0, b=e1)
        got_i = omega(find, (a, a + h))
        want_i = omega_indicator((a, a + h), e0, e1)
        if want_i > 1e-12:
            closed_worst = max(closed_worst, abs(got_i - want_i) / want_i)
    # the sampled route must reach the linear closed form too
    smp, ok_flag = _omega_sampled(
        catalog("linear", slope=1.0),
        float_box((0.0, 1.0)),
        Quadrature(rel_tol=1e-12, max_nodes=1 << 19),
    )
    sampled_err = abs(smp - 1.0 / 3.0) * 3.0
    elapsed = time.time() - t0
    ok = worst <= 5e-8 and closed_worst <= 1e-9 and sampled_err <= 1e-9 and elapsed < 60.0
    report(
        11,
        ok,
        "production oscillation values match the independent double "
        "quadrature and the closed forms",
        pairs=pairs,
        worst_vs_brute=f"{worst:.1e}",
        worst_vs_closed=f"{closed_worst:.1e}",
        sampled_vs_closed=f"{sampled_err:.1e}",
        seconds=round(elapsed, 2),
    )


def test_12_pointwise_split():
    t0 = time.time()
    rng = np.random.default_rng(5)
    fns = [
        catalog("tent"),
        catalog("sharp1_bump"),
        catalog("linear_ramp", slope=1.0, cutoff=2.0),
        catalog("sharp2_fdelta", delta=0.5),
        catalog("smoothed_indicator", width=0.3),
    ]
    violations = 0
    checked = 0
    while checked < 10000:
        f = fns[checked % len(fns)]
        x, y = rng.uniform(-3.5, 4.5, size=2)
        if x == y:
            continue
        lam = float(10 ** rng.uniform(-2.5, 2.0))
        s = float(rng.uniform(-2.5, 2.0))
        in_e, in_e1, in_e2 = split_and_mean_sets(f, float(x), float(y), lam, s)
        if in_e and not (in_e1 or in_e2):
            violations += 1
        checked += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    report(
        12,
        ok,
        "halved-threshold ball-mean sets cover the difference-quotient set "
        "pointwise",
        triples=checked,
        violations=violations,
        seconds=round(elapsed, 2),
    )
