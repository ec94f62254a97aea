"""Shifted dyadic grids in R^n with exact integer geometry.

A grid with shift ``alpha`` in {0, 1/3, 2/3}^n consists of the half-open cubes

    2^j * (m + [0,1)^n + (-1)^j * alpha),   j in Z,  m in Z^n.

Shifts are stored as integer thirds t, so a cube's lower corner is, per
axis, the integer c = 3m + (-1)^j t in units of 2^j / 3 (edge 3).  Every
geometric decision reads it: ``cube_at`` and window ranges by floor
division (``axis_index``); nesting and window boundaries by comparing
corners shifted to a common lowest generation j0, c << (j - j0) with edge
3 << (j - j0) (``GridWindow.boundary_flags`` here, the good-cube families
of ``oscillation``).  ``axis_cubes`` is the one array kernel for the index,
corner and float ends of many cubes (window arrays, classifier probes).
Fractions remain only in the reporting accessors ``Cube.lower``,
``interval``, ``edge``, ``volume`` and the repr; floats only as correctly
rounded exact corners.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

THIRDS = (0, 1, 2)


class BudgetError(RuntimeError):
    """Raised when a window enumeration would exceed its cube budget."""


class DimensionError(ValueError):
    """Raised when operands have mismatched dimension."""


@dataclass(frozen=True)
class Shift:
    """Grid shift, one third-integer per coordinate (0 -> 0, 1 -> 1/3, 2 -> 2/3)."""

    thirds: tuple[int, ...]

    def __post_init__(self):
        if not all(t in THIRDS for t in self.thirds):
            raise ValueError(f"shift thirds must lie in {{0,1,2}}, got {self.thirds}")

    @property
    def n(self) -> int:
        return len(self.thirds)

    def __repr__(self):
        return "Shift(" + ",".join(str(t) for t in self.thirds) + ")"


def all_shifts(n: int) -> list[Shift]:
    """All 3^n shifts in lexicographic order of thirds."""
    out = [()]
    for _ in range(n):
        out = [s + (t,) for s in out for t in THIRDS]
    return [Shift(s) for s in out]


@dataclass(frozen=True)
class Cube:
    """Half-open cube of a shifted dyadic grid: edge 2^j, integer index m."""

    shift: Shift
    j: int
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.m) != self.shift.n:
            raise DimensionError(
                f"index length {len(self.m)} != shift dimension {self.shift.n}"
            )

    @property
    def n(self) -> int:
        return self.shift.n

    @property
    def edge(self) -> Fraction:
        return Fraction(2) ** self.j

    @property
    def volume(self) -> Fraction:
        return self.edge**self.n

    def corner(self) -> tuple[int, ...]:
        """The exact lower corner in units of 2^j / 3: 3m + (-1)^j t per axis."""
        sgn = 1 if self.j % 2 == 0 else -1
        return tuple(3 * mi + sgn * ti for mi, ti in zip(self.m, self.shift.thirds))

    def lower(self) -> tuple[Fraction, ...]:
        unit = self.edge / 3
        return tuple(unit * c for c in self.corner())

    def interval(self) -> tuple[Fraction, Fraction]:
        """Endpoints (n = 1 convenience)."""
        if self.n != 1:
            raise DimensionError("interval() requires n = 1")
        lo = self.lower()[0]
        return lo, lo + self.edge

    def __repr__(self):
        lo = self.lower()
        box = "x".join(f"[{l},{l + self.edge})" for l in lo)
        return f"Cube({box}; alpha={self.shift.thirds}, j={self.j})"


def axis_interval(t: int, j: int, m: int) -> tuple[float, float]:
    """Float ends of the generation-j cube with index m on an axis shifted by
    t thirds: the correctly rounded values of (3m + (-1)^j t) 2^j / 3 and
    (3m + (-1)^j t + 3) 2^j / 3, by int / int true division, which is exact
    at any size."""
    c = 3 * m + (t if j % 2 == 0 else -t)
    if j >= 0:
        return (c << j) / 3, ((c + 3) << j) / 3
    den = 3 << -j
    return c / den, (c + 3) / den


def axis_index(t: int, j: int, num: int, den: int) -> int:
    """Index m of the generation-j cube containing num/den (den > 0) on an
    axis shifted by t thirds: floor(num / (den 2^j) - (-1)^j t / 3), by
    integer floor division; equals ``cube_at(shift, j, (num/den,)).m[0]``."""
    st = t if j % 2 == 0 else -t
    if j >= 0:
        return (3 * num - st * (den << j)) // (3 * den << j)
    return ((3 * num << -j) - st * den) // (3 * den)


def cube_at(shift: Shift, j: int, point: Sequence) -> Cube:
    """The unique generation-j cube of the shifted grid containing ``point``,
    whose coordinates are ints, Fractions or floats."""
    m = (axis_index(t, j, *x.as_integer_ratio()) for x, t in zip(point, shift.thirds))
    return Cube(shift, j, tuple(m))


def children(q: Cube) -> list[Cube]:
    """The 2^n next-generation cubes partitioning q (same shift)."""
    sgn = 1 if q.j % 2 == 0 else -1
    base = tuple(2 * mi + sgn * ti for mi, ti in zip(q.m, q.shift.thirds))
    out = []
    for mask in range(2**q.n):
        t = tuple((mask >> i) & 1 for i in range(q.n))
        out.append(Cube(q.shift, q.j - 1, tuple(b + ti for b, ti in zip(base, t))))
    return out


@dataclass(frozen=True)
class AxisCube:
    """A plain axis-parallel cube with rational data (not tied to any grid)."""

    lower_corner: tuple[Fraction, ...]
    edge: Fraction

    def __post_init__(self):
        if self.edge <= 0:
            raise ValueError("edge must be positive")

    @property
    def n(self) -> int:
        return len(self.lower_corner)


def float_box(region) -> list[tuple[float, float]]:
    """The float (lo, hi) pair of each axis of a region: one (lo, hi) pair, a
    box given as a sequence of pairs, a Cube or an AxisCube.  Each end is the
    correctly rounded value of the exact end (float of a Fraction)."""
    try:  # a (lo, hi) pair, one per cube in the hot loops, costs one unpack
        lo, hi = region
        return [(float(lo), float(hi))]
    except (TypeError, ValueError):
        pass
    if isinstance(region, (Cube, AxisCube)):
        edge = region.edge
        corner = region.lower() if isinstance(region, Cube) else region.lower_corner
        return [(float(lo), float(lo + edge)) for lo in corner]
    return [(float(lo), float(hi)) for lo, hi in region]


@dataclass(frozen=True, eq=False)
class WindowArrays:
    """The cubes of a window as arrays; row i is the i-th cube of
    ``GridWindow.cubes()``.

    ``j`` (N,) holds each cube's generation as an int array, so a cube's
    volume is 2^(n j), and ``j_min`` the window's lowest generation.
    ``corner`` (N, n) holds each Cube.corner() shifted left by j - j_min,
    in units of 2^j_min / 3 (edge 3 * 2^(j - j_min)), in the dtype
    ``axis_cubes`` gives: int64 while its guard holds, object-dtype Python
    ints past it.  ``lo`` and ``hi`` are
    (N, n) floats, each the correctly rounded value of an exact corner.
    The floats feed only closed forms; every nesting or boundary decision
    reads ``corner``.
    """

    j_min: int
    j: np.ndarray
    corner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.j)

    def cube(self, i: int) -> Cube:
        """The Cube of row i, built only when a cube is reported.  Per axis,
        c = corner >> (j - j_min) is 3m + (-1)^j t, so t = (-1)^j c mod 3
        and m = (c - (-1)^j t) / 3, exactly."""
        j = int(self.j[i])
        sgn = 1 if j % 2 == 0 else -1
        c = [x >> (j - self.j_min) for x in self.corner[i].tolist()]
        thirds = tuple(sgn * x % 3 for x in c)
        m = tuple((x - sgn * t) // 3 for x, t in zip(c, thirds))
        return Cube(Shift(thirds), j, m)


@dataclass(frozen=True)
class GridWindow:
    """Finite truncation of one or more shifted grids.

    Enumeration yields exactly the cubes that overlap the open interior of
    the bounding box and whose generation lies in [j_min, j_max], ordered by
    (shift, generation descending, index lexicographic).  ``arrays`` is the
    same cubes in array form (see WindowArrays), built on first use and
    kept on the window.
    """

    box: tuple[tuple[Fraction, Fraction], ...]
    j_min: int
    j_max: int
    shifts: tuple[Shift, ...]
    budget: int = 10**7

    def __post_init__(self):
        if self.j_min > self.j_max:
            raise ValueError("j_min > j_max")
        for lo, hi in self.box:
            if hi <= lo:
                raise ValueError("empty box")
        for s in self.shifts:
            if s.n != self.n:
                raise DimensionError("shift dimension != box dimension")

    @property
    def n(self) -> int:
        return len(self.box)

    def _index_ranges(self, shift: Shift, j: int) -> list[range]:
        # positive overlap with the open box on each axis: the indices m from
        # floor(lo/h - s) to ceil(hi/h - s) - 1 = -floor(s - hi/h) - 1, with
        # h = 2^j and s = (-1)^j t/3, by integer floor division
        ranges = []
        for (lo, hi), t in zip(self.box, shift.thirds):
            (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
            m_lo = axis_index(t, j, a, b)
            m_hi = -axis_index(-t, j, -c, d) - 1
            ranges.append(range(m_lo, m_hi + 1))
        return ranges

    def _blocks(self) -> list[tuple[Shift, int, list[range]]]:
        """(shift, j, index ranges) of every block in enumeration order,
        after checking the cube count against the budget."""
        blocks = [
            (shift, j, self._index_ranges(shift, j))
            for shift in self.shifts
            for j in range(self.j_max, self.j_min - 1, -1)
        ]
        total = sum(math.prod(map(len, ranges)) for _, _, ranges in blocks)
        if total > self.budget:
            raise BudgetError(f"window holds {total} cubes, budget is {self.budget}")
        return blocks

    def cubes(self) -> Iterator[Cube]:
        for shift, j, ranges in self._blocks():
            for m in itertools.product(*ranges):
                yield Cube(shift, j, m)

    def boundary_flags(self) -> np.ndarray:
        """Per row of ``arrays``: whether the cube reaches outside the box.

        Exact: in units of 2^j_min / 3 a cube is [c, c + 3 << (j - j_min)),
        and it leaves [lo, hi] when c < ceil(lo 3 / 2^j_min) or its top end
        exceeds floor(hi 3 / 2^j_min).  The two integer bounds are taken
        once per axis, and the comparisons run in the corners' own dtype.
        """
        arr = self.arrays
        unit = 3 / Fraction(2) ** self.j_min
        edge = 3 << (arr.j - self.j_min).astype(arr.corner.dtype)
        out = np.zeros(len(arr), dtype=bool)
        for c, (blo, bhi) in zip(arr.corner.T, self.box):
            lo, hi = Fraction(blo) * unit, Fraction(bhi) * unit
            out |= (c < math.ceil(lo)) | (c + edge > math.floor(hi))
        return out

    @functools.cached_property
    def arrays(self) -> WindowArrays:
        # per axis, each cube lies step cubes past the one holding the box's
        # lower end (the start of its block's index range); within a block
        # the cubes are the product of the axes, last fastest
        blocks = self._blocks()
        lens = np.array([[len(r) for r in ranges] for _, _, ranges in blocks])
        size = lens.prod(axis=1)
        rest = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        step = np.empty((len(rest), self.n), dtype=np.int64)
        for i in reversed(range(self.n)):
            rest, step[:, i] = np.divmod(rest, np.repeat(lens[:, i], size))
        thirds = np.repeat([shift.thirds for shift, _, _ in blocks], size, axis=0)
        js = np.repeat([j for _, j, _ in blocks], size)
        num, den = zip(*(end.as_integer_ratio() for end, _ in self.box))
        j = js[:, None]
        _, corner, lo, hi = axis_cubes(thirds, j, num, den, step, j - self.j_min)
        return WindowArrays(
            j_min=self.j_min,
            j=js,
            corner=corner,
            lo=lo,
            hi=hi,
        )


def axis_cubes(t, j, num, den, step, k):
    """Index m, corner c << k and float ends of the generation-j cubes, on
    axes shifted by t thirds, that lie step cubes past the cube holding
    num / den (den > 0; num and den of one shape; all broadcast together):
    m = floor(num / (den 2^j) - (-1)^j t / 3) + step, c = 3m + (-1)^j t, the
    ends the correctly rounded c 2^j / 3 and (c + 3) 2^j / 3.  In int64 while
    the floor-division operands stay below 2^63 and the divided ones below
    2^53 (int64 -> float64 is exact, so true division is Python's int / int
    bit for bit); the same expressions on object-dtype Python ints past that.
    """
    j, step, k = np.asarray(j), np.asarray(step), np.asarray(k)
    nums, dens = np.ravel(np.asarray(num, dtype=object)).tolist(), np.ravel(den).tolist()
    jn, jp = max(-int(j.min()), 0), max(int(j.max()), 0)
    # |c| + 3 <= 3 |num / den| 2^-j + 3 |step| + 8, so top bounds both |c|
    # and (|c| + 3) 2^max(j, 0)
    x = max(abs(a) // b for a, b in zip(nums, dens)) + 1
    top = (3 * x << jn) + (3 * int(np.abs(step).max()) + 8 << jp)
    operands = (3 * max(map(abs, nums)) << jn) + (3 * max(dens) << jp)
    small = operands < 2**63 and top < 2**53 and 3 << jn < 2**53
    ints = np.int64 if small and top << int(k.max()) < 2**63 else object
    t, j, num, den, step, k = (np.asarray(a, dtype=ints) for a in (t, j, num, den, step, k))
    st = np.where(j % 2 == 0, t, -t)
    jn, jp = np.maximum(-j, 0), np.maximum(j, 0)
    m = ((3 * num << jn) - st * (den << jp)) // (3 * den << jp) + step
    c = 3 * m + st
    unit = 3 << jn
    lo, hi = (c << jp) / unit, ((c + 3) << jp) / unit
    return m, c << k, lo.astype(float, copy=False), hi.astype(float, copy=False)


def window_1d(
    lo,
    hi,
    j_min: int,
    j_max: int,
    shifts: Sequence[Shift] | None = None,
    budget: int = 10**7,
) -> GridWindow:
    """Convenience constructor for n = 1 windows."""
    if shifts is None:
        shifts = [Shift((0,))]
    return GridWindow(
        ((Fraction(lo), Fraction(hi)),), j_min, j_max, tuple(shifts), budget
    )

