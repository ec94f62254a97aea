"""Exact-geometry checks for the shifted dyadic grid module."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadicweights import grid
from dyadicweights.grid import (
    AxisCube,
    BudgetError,
    Cube,
    GridWindow,
    Shift,
    all_shifts,
    axis_index,
    children,
    cube_at,
    float_box,
    window_1d,
)
from oracles import (
    Relation,
    as_axis_cube,
    contains_point,
    dom_multiplicity,
    dominating_cube,
    dominating_set,
    fraction_cube_at,
    fraction_relate,
    parent,
    relate,
)

S0 = Shift((0,))
S13 = Shift((1,))
S23 = Shift((2,))


def ival(c: Cube):
    lo, hi = c.interval()
    return lo, hi


def test_make_cube_identity_case():
    q = Cube(S0, 0, (0,))
    assert ival(q) == (0, 1)


def test_make_cube_even_generation_adds_shift():
    q = Cube(S13, 0, (0,))
    assert ival(q) == (Fraction(1, 3), Fraction(4, 3))


def test_make_cube_odd_generation_subtracts_shift():
    q = Cube(S13, 1, (0,))
    assert ival(q) == (Fraction(-2, 3), Fraction(4, 3))


def test_make_cube_dimension_mismatch():
    with pytest.raises(Exception):
        Cube(S0, 0, (0, 1))


def test_relate_basic_nesting():
    p = Cube(S0, -1, (0,))  # [0, 1/2)
    q = Cube(S0, 0, (0,))  # [0, 1)
    assert relate(p, q) is Relation.P_INSIDE_Q
    assert relate(q, p) is Relation.Q_INSIDE_P
    assert relate(q, q) is Relation.EQUAL


def test_relate_shifted_child():
    p = Cube(S13, 0, (0,))  # [1/3, 4/3)
    q = Cube(S13, 1, (0,))  # [-2/3, 4/3)
    assert relate(p, q) is Relation.P_INSIDE_Q
    assert p in children(q)


def test_relate_cross_shift_incomparable():
    p = Cube(S0, 0, (0,))  # [0,1)
    q = Cube(S13, 0, (0,))  # [1/3, 4/3)
    assert relate(p, q) is Relation.INCOMPARABLE


def test_children_partition_unit_interval():
    q = Cube(S0, 0, (0,))
    kids = children(q)
    assert sorted(ival(k) for k in kids) == [
        (0, Fraction(1, 2)),
        (Fraction(1, 2), 1),
    ]


def test_parent_of_shifted_cube():
    p = Cube(S13, 0, (0,))
    assert ival(parent(p)) == (Fraction(-2, 3), Fraction(4, 3))
    # exhaustive: the parent is the only generation-1 shifted cube containing p
    hits = [
        m
        for m in range(-5, 5)
        if relate(p, Cube(S13, 1, (m,))) is Relation.P_INSIDE_Q
    ]
    assert len(hits) == 1 and Cube(S13, 1, (hits[0],)) == parent(p)


def test_children_2d_partition():
    s = Shift((0, 0))
    q = Cube(s, 0, (0, 0))
    kids = children(q)
    assert len(kids) == 4
    for a in kids:
        for b in kids:
            if a != b:
                assert relate(a, b) is Relation.DISJOINT
    assert sum(k.volume for k in kids) == q.volume


@pytest.mark.parametrize("n", [1, 2])
def test_parent_child_roundtrip_random(n):
    rng = random.Random(7 + n)
    for _ in range(300):
        shift = Shift(tuple(rng.choice((0, 1, 2)) for _ in range(n)))
        j = rng.randint(-6, 6)
        m = tuple(rng.randint(-20, 20) for _ in range(n))
        q = Cube(shift, j, m)
        for c in children(q):
            assert parent(c) == q
            assert relate(c, q) is Relation.P_INSIDE_Q


@pytest.mark.parametrize("n", [1, 2])
def test_same_shift_trichotomy_random(n):
    rng = random.Random(11 + n)
    for _ in range(500):
        shift = Shift(tuple(rng.choice((0, 1, 2)) for _ in range(n)))
        p = Cube(
            shift,
            rng.randint(-5, 5),
            tuple(rng.randint(-8, 8) for _ in range(n)),
        )
        q = Cube(
            shift,
            rng.randint(-5, 5),
            tuple(rng.randint(-8, 8) for _ in range(n)),
        )
        assert relate(p, q) is not Relation.INCOMPARABLE


@pytest.mark.parametrize("n", [1, 2])
def test_relate_matches_the_fraction_corners_random(n):
    # integer corners scaled to the finer generation against Fraction
    # corners, at every shift pair and generations on both sides of 0;
    # every relation occurs
    rng = random.Random(31 + n)
    seen = set()
    for _ in range(3000):
        p, q = (
            Cube(
                Shift(tuple(rng.choice((0, 1, 2)) for _ in range(n))),
                rng.randint(-6, 4),
                tuple(rng.randint(-6, 6) for _ in range(n)),
            )
            for _ in range(2)
        )
        if rng.random() < 0.3:  # nested and equal pairs are rare by chance
            q = p
            for _ in range(rng.randint(0, 3)):
                q = parent(q)
            p, q = (p, q) if rng.random() < 0.5 else (q, p)
        want = fraction_relate(p, q)
        assert relate(p, q) is want, (p, q)
        seen.add(want)
    assert seen == set(Relation)


def test_relate_and_cube_at_build_no_fraction(monkeypatch):
    # both read the integer coordinate: a Fraction built through the grid
    # module (Cube.lower, edge, volume) fails
    x = Fraction(1, 4)
    monkeypatch.setattr(grid, "Fraction", None)
    p, q = Cube(S13, -3, (2,)), Cube(S13, 1, (0,))  # [5/24, 1/3) in [-2/3, 4/3)
    assert relate(p, q) is Relation.P_INSIDE_Q and relate(q, p) is Relation.Q_INSIDE_P
    assert cube_at(S13, -3, (x,)) == p and cube_at(S13, 1, (0.25,)) == q


def test_cube_at_contains_point():
    rng = random.Random(3)
    for _ in range(200):
        shift = Shift((rng.choice((0, 1, 2)),))
        j = rng.randint(-4, 4)
        x = Fraction(rng.randint(-1000, 1000), 64)
        q = cube_at(shift, j, (x,))
        assert q.j == j
        assert contains_point(q, (x,))


def test_axis_index_matches_cube_at():
    # negative centres, centres on thirds, and large denominators, at every
    # shift and at generations far on both sides of 0
    points = [
        Fraction(0),
        Fraction(-5, 2),
        Fraction(-1, 3),
        Fraction(2, 3),
        Fraction(-7, 3),
        Fraction(-1, 3 * 2**40),
        Fraction(10**20 + 1, 3 * 2**60 + 7),
        Fraction(-(10**15) - 3, 2**45),
        Fraction(0.1).limit_denominator(3 * 2**40),
    ]
    for x in points:
        for shift in all_shifts(1):
            for j in range(-48, 27):
                m = axis_index(shift.thirds[0], j, x.numerator, x.denominator)
                assert m == fraction_cube_at(shift, j, (x,)).m[0], (x, shift, j)
                y = (float(x),)  # a float point is its exact binary value
                assert cube_at(shift, j, y) == fraction_cube_at(shift, j, y), (y, shift, j)


def test_dominating_cube_unit_interval():
    p = AxisCube((Fraction(0),), Fraction(1))
    shift, q = dominating_cube(p)
    assert shift == S0
    assert ival(q) == (0, 2)


def test_dominating_cube_off_grid_interval():
    p = AxisCube((Fraction(12, 10),), Fraction(1))
    shift, q = dominating_cube(p)
    assert shift == S23
    assert ival(q) == (Fraction(2, 3), Fraction(8, 3))
    # the first two shifts really do fail at the forced generation
    assert all(c.shift != S0 and c.shift != S13 for c in dominating_set(p))


def test_dominating_cube_2d():
    p = AxisCube((Fraction(0), Fraction(0)), Fraction(1))
    shift, q = dominating_cube(p)
    assert q.edge == 2
    qlo = q.lower()
    for d in range(2):
        assert qlo[d] <= 0 and qlo[d] + q.edge >= 1


@pytest.mark.parametrize("n", [1, 2])
def test_dominating_cube_window_random(n):
    rng = random.Random(23 + n)
    for _ in range(400):
        lo = tuple(Fraction(rng.randint(-600, 600), rng.choice((3, 7, 16, 48))) for _ in range(n))
        edge = Fraction(rng.randint(1, 500), rng.choice((7, 16, 48, 100)))
        p = AxisCube(lo, edge)
        _, q = dominating_cube(p)
        assert Fraction(3, 2) * edge < q.edge <= 3 * edge
        qlo = q.lower()
        for d in range(n):
            assert qlo[d] <= lo[d]
            assert lo[d] + edge <= qlo[d] + q.edge


def test_dom_multiplicity_singleton():
    assert dom_multiplicity([AxisCube((Fraction(0),), Fraction(1))], 1) == 1


def test_dom_multiplicity_unit_row():
    base = [AxisCube((Fraction(k),), Fraction(1)) for k in range(3)]
    assert dom_multiplicity(base, 1) <= 3


def test_dom_multiplicity_scaled_row():
    base = [AxisCube((Fraction(k),), Fraction(1)) for k in range(10)]
    assert dom_multiplicity(base, 3) <= 27  # 3^1 * 3^1


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_dom_multiplicity_random_families(n, k):
    rng = random.Random(100 * n + k)
    for _ in range(60):
        edge = Fraction(rng.randint(1, 9), rng.choice((1, 2, 5)))
        count = rng.randint(1, 12)
        placed: list[AxisCube] = []
        attempts = 0
        while len(placed) < count and attempts < 200:
            attempts += 1
            lo = tuple(
                Fraction(rng.randint(-40, 40), 4) * edge for _ in range(n)
            )
            cand = AxisCube(lo, edge)
            disjoint = all(
                any(
                    cand.lower_corner[d] + edge <= q.lower_corner[d]
                    or q.lower_corner[d] + edge <= cand.lower_corner[d]
                    for d in range(n)
                )
                for q in placed
            )
            if disjoint:
                placed.append(cand)
        assert dom_multiplicity(placed, k) <= 3**n * k**n


def test_window_enumeration_small():
    w = window_1d(0, 1, -1, 0)
    got = sorted(ival(q) for q in w.cubes())
    assert got == [
        (0, Fraction(1, 2)),
        (0, 1),
        (Fraction(1, 2), 1),
    ]


def test_window_count_matches_geometric_series():
    for k in range(1, 7):
        w = window_1d(0, 1, -k, 0)
        assert len(list(w.cubes())) == 2 ** (k + 1) - 1
        assert len(w.arrays) == 2 ** (k + 1) - 1


def test_window_enumeration_order_and_uniqueness():
    w = window_1d(-2, 2, -2, 1, shifts=all_shifts(1))
    seen = list(w.cubes())
    assert len(seen) == len(set(seen))
    gens = {}
    for q in seen:
        gens.setdefault(q.shift.thirds, []).append(q.j)
    for js in gens.values():
        assert js == sorted(js, reverse=True)
    _assert_arrays_are_cubes(w)


def _assert_arrays_are_cubes(w: GridWindow):
    """The array form of a window against its Cubes: same order, each row's
    Cube decoded from its corner and generation, exact corners, floats equal bit for bit to float(Fraction) of the
    corners, and boundary flags equal to a Fraction loop over Cube.lower()."""
    assert "arrays" not in vars(w)  # built on first use only
    arr = w.arrays
    assert w.arrays is arr
    cubes = list(w.cubes())
    assert len(arr) == len(cubes)
    assert [arr.cube(i) for i in range(len(arr))] == cubes
    assert arr.j.tolist() == [q.j for q in cubes]
    unit = Fraction(2) ** w.j_min / 3
    assert [tuple(c * unit for c in row) for row in arr.corner.tolist()] == [
        q.lower() for q in cubes
    ]
    lo = np.array([[float(x) for x in q.lower()] for q in cubes]).reshape(-1, w.n)
    hi = np.array([[float(x + q.edge) for x in q.lower()] for q in cubes]).reshape(-1, w.n)
    assert arr.lo.tobytes() == lo.tobytes()
    assert arr.hi.tobytes() == hi.tobytes()
    if w.n == 1:
        ends = np.array([[float(x) for x in q.interval()] for q in cubes]).reshape(-1, 2)
        assert np.hstack([arr.lo, arr.hi]).tobytes() == ends.tobytes()
    assert arr.vol.tobytes() == np.array([float(q.volume) for q in cubes]).tobytes()
    outside = [
        any(x < blo or x + q.edge > bhi for x, (blo, bhi) in zip(q.lower(), w.box))
        for q in cubes
    ]
    assert w.boundary_flags().tolist() == outside
    return arr


def test_window_arrays_all_shifts_even_odd_negative_generations():
    w = window_1d(Fraction(-7, 5), Fraction(9, 4), -4, 3, shifts=all_shifts(1))
    arr = _assert_arrays_are_cubes(w)
    cubes = [arr.cube(i) for i in range(len(arr))]
    assert {0, 1, 2} == {q.shift.thirds[0] for q in cubes}
    assert set(range(-4, 4)) == set(arr.j.tolist())
    ms = [q.m[0] for q in cubes]
    assert min(ms) < 0 < max(ms)
    assert 0 < w.boundary_flags().sum() < len(arr)


def test_window_arrays_box_ends_on_thirds_and_grid_corners():
    # -2/3 is a corner of the 1/3-shifted grid at odd generations, 4/3 at
    # even ones, 0 and 2 corners of the unshifted grid: cubes ending exactly
    # on the box are inside it
    for lo, hi in ((Fraction(-2, 3), Fraction(4, 3)), (Fraction(0), Fraction(2))):
        w = window_1d(lo, hi, -3, 1, shifts=all_shifts(1))
        arr = _assert_arrays_are_cubes(w)
        at_lo = [c * Fraction(2) ** w.j_min / 3 == lo for c in arr.corner[:, 0]]
        assert any(not f for f, a in zip(w.boundary_flags(), at_lo) if a)


def test_window_arrays_far_from_origin():
    # |3m| > 2^53: the float ends are still the correctly rounded corners
    for lo in (2**53 + Fraction(1, 3), -(2**60) - Fraction(5, 7)):
        w = window_1d(lo, lo + 3, -3, 1, shifts=all_shifts(1))
        arr = _assert_arrays_are_cubes(w)
        assert max(abs(3 * arr.cube(i).m[0]) for i in range(len(arr))) > 2**53


def test_window_arrays_mix_int64_blocks_and_python_fallback():
    # near 2^49 the generations j >= -2 fit the int64 path (|3m| 2^max(j,0)
    # below 2^53) and j = -3 does not: the window down to j = -2 is built in
    # int64, the one down to j = -3 in Python ints, both bit for bit
    lo = 2**49 + Fraction(2, 7)
    num, den = lo.as_integer_ratio()
    for j_min, ints in ((-2, np.int64), (-3, object)):
        w = window_1d(lo, lo + 3, j_min, 2, shifts=all_shifts(1))
        arr = _assert_arrays_are_cubes(w)
        m, *_ = grid.axis_cubes(1, np.arange(j_min, 3), num, den, 0, 0)
        assert m.dtype == arr.corner.dtype == ints
        # the boundary flags in the corners' own dtype against Fraction ends
        ((blo, bhi),) = w.box
        outside = [a < blo or b > bhi for a, b in (q.interval() for q in w.cubes())]
        assert w.boundary_flags().tolist() == outside
        assert any(outside) and not all(outside)


def test_window_index_ranges_are_the_cubes_meeting_the_open_box():
    # the integer floor divisions of _index_ranges against Fraction corners:
    # the end indices of each range meet the open box, the next ones do not
    rng = random.Random(7)
    for _ in range(30):
        lo = Fraction(rng.randint(-300, 300), rng.randint(1, 12))
        hi = lo + Fraction(rng.randint(1, 300), rng.randint(1, 12))
        w = window_1d(lo, hi, -4, 3)
        for shift in all_shifts(1):
            for j in range(-4, 4):
                (r,) = w._index_ranges(shift, j)

                def meets(m):
                    a, b = Cube(shift, j, (m,)).interval()
                    return a < hi and b > lo

                assert meets(r.start) and meets(r.stop - 1)
                assert not meets(r.start - 1) and not meets(r.stop)


def test_window_2d_all_shifts_counts():
    box = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    w = GridWindow(box, 0, 0, tuple(all_shifts(2)))
    by_shift = {}
    for q in w.cubes():
        by_shift.setdefault(q.shift.thirds, 0)
        by_shift[q.shift.thirds] += 1
    assert len(by_shift) == 9
    # direct construction: generation-0 cubes meeting [0,1] per axis shift
    for thirds, cnt in by_shift.items():
        per_axis = []
        for t in thirds:
            s = Fraction(t, 3)
            ms = [m for m in range(-3, 4) if m + s < 1 and m + s + 1 > 0]
            per_axis.append(len(ms))
        assert cnt == per_axis[0] * per_axis[1]
    _assert_arrays_are_cubes(w)
    box = ((Fraction(-1, 3), Fraction(3, 2)), (Fraction(1, 6), Fraction(2)))
    arr = _assert_arrays_are_cubes(GridWindow(box, -2, 1, tuple(all_shifts(2))))
    assert arr.lo.shape == arr.hi.shape == arr.corner.shape == (len(arr), 2)
    cubes = [arr.cube(i) for i in range(len(arr))]
    assert {(len(q.shift.thirds), len(q.m)) for q in cubes} == {(2, 2)}
    assert len({q.shift.thirds for q in cubes}) == 9


def test_window_budget_guard():
    w = window_1d(0, 1024, -12, 0, budget=1000)
    with pytest.raises(BudgetError):
        list(w.cubes())
    with pytest.raises(BudgetError):
        w.arrays


def test_as_axis_cube_matches():
    q = Cube(S13, 1, (2,))
    a = as_axis_cube(q)
    assert a.lower_corner == q.lower()
    assert a.edge == q.edge


def test_float_box_region_forms():
    third = Fraction(1, 3)
    # a pair, a box of pairs of any dimension, a Cube and an AxisCube, each
    # end the correctly rounded float of its exact value
    assert float_box((0.25, third)) == [(0.25, float(third))]
    assert float_box([(0, third)]) == [(0.0, float(third))]
    box = ((0, 1), (third, 2), (-1, 5))
    assert float_box(box) == [(0.0, 1.0), (float(third), 2.0), (-1.0, 5.0)]
    assert float_box(np.array([[0.0, 1.0], [2.0, 3.0]])) == [(0.0, 1.0), (2.0, 3.0)]
    for q in (Cube(S13, -3, (2,)), Cube(Shift((1, 2)), 1, (2, -1))):
        want = [(float(lo), float(lo + q.edge)) for lo in q.lower()]
        assert float_box(q) == want
        assert float_box(as_axis_cube(q)) == want
