"""Shifted dyadic grids in R^n with exact rational geometry.

A grid with shift ``alpha`` in {0, 1/3, 2/3}^n consists of the half-open cubes

    2^j * (m + [0,1)^n + (-1)^j * alpha),   j in Z,  m in Z^n.

Shifts are stored as integer thirds so every corner is a rational with
denominator 3 * 2^|j|; all geometric decisions in this module are exact
(no floating point).  Floats appear only as outputs for closed forms: the
correctly rounded value of an exact corner (axis_interval, WindowArrays).
"""

from __future__ import annotations

import enum
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


class Relation(enum.Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    P_INSIDE_Q = "p_inside_q"
    Q_INSIDE_P = "q_inside_p"
    INCOMPARABLE = "incomparable"


def _pow2(j: int) -> Fraction:
    return Fraction(2**j) if j >= 0 else Fraction(1, 2 ** (-j))


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
        return _pow2(self.j)

    @property
    def volume(self) -> Fraction:
        return self.edge**self.n

    def lower(self) -> tuple[Fraction, ...]:
        h = self.edge
        sgn = 1 if self.j % 2 == 0 else -1
        return tuple(
            h * (mi + Fraction(sgn * ti, 3))
            for mi, ti in zip(self.m, self.shift.thirds)
        )

    def interval(self) -> tuple[Fraction, Fraction]:
        """Endpoints (n = 1 convenience)."""
        if self.n != 1:
            raise DimensionError("interval() requires n = 1")
        lo = self.lower()[0]
        return lo, lo + self.edge

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        return all(lo <= xi < lo + self.edge for lo, xi in zip(self.lower(), x))

    def to_json(self) -> dict:
        return {"shift": list(self.shift.thirds), "j": self.j, "m": list(self.m)}

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


def make_cube(shift: Shift, j: int, m: Sequence[int]) -> Cube:
    return Cube(shift, j, tuple(m))


def cube_at(shift: Shift, j: int, point: Sequence[Fraction]) -> Cube:
    """The unique generation-j cube of the shifted grid containing ``point``."""
    h = _pow2(j)
    sgn = 1 if j % 2 == 0 else -1
    m = tuple(
        math.floor(Fraction(x) / h - Fraction(sgn * t, 3))
        for x, t in zip(point, shift.thirds)
    )
    return Cube(shift, j, m)


def relate(p: Cube, q: Cube) -> Relation:
    """Set relation of two cubes, decided by exact corner comparison.

    Same-shift pairs always land in the first four cases (nesting trichotomy);
    cross-shift pairs may be INCOMPARABLE.
    """
    if p.n != q.n:
        raise DimensionError("cubes must share dimension")
    plo, qlo = p.lower(), q.lower()
    phi = tuple(l + p.edge for l in plo)
    qhi = tuple(l + q.edge for l in qlo)
    for i in range(p.n):
        if phi[i] <= qlo[i] or qhi[i] <= plo[i]:
            return Relation.DISJOINT
    if plo == qlo and p.edge == q.edge:
        return Relation.EQUAL
    if all(qlo[i] <= plo[i] and phi[i] <= qhi[i] for i in range(p.n)):
        return Relation.P_INSIDE_Q
    if all(plo[i] <= qlo[i] and qhi[i] <= phi[i] for i in range(p.n)):
        return Relation.Q_INSIDE_P
    return Relation.INCOMPARABLE


def children(q: Cube) -> list[Cube]:
    """The 2^n next-generation cubes partitioning q (same shift)."""
    sgn = 1 if q.j % 2 == 0 else -1
    base = tuple(2 * mi + sgn * ti for mi, ti in zip(q.m, q.shift.thirds))
    out = []
    for mask in range(2**q.n):
        t = tuple((mask >> i) & 1 for i in range(q.n))
        out.append(Cube(q.shift, q.j - 1, tuple(b + ti for b, ti in zip(base, t))))
    return out


def parent(q: Cube) -> Cube:
    """The unique same-shift cube of generation j+1 containing q.

    Uses that 3*alpha is integral, so the index arithmetic never leaves Z^n.
    """
    jp = q.j + 1
    sgn = 1 if jp % 2 == 0 else -1
    mp = []
    for mi, ti in zip(q.m, q.shift.thirds):
        num = mi - sgn * ti
        mp.append((num - (num % 2)) // 2)
    return Cube(q.shift, jp, tuple(mp))


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

    def scaled(self, k: Fraction) -> "AxisCube":
        """Concentric rescaling by factor k."""
        k = Fraction(k)
        half = self.edge / 2
        return AxisCube(
            tuple(lo + half - k * half for lo in self.lower_corner), k * self.edge
        )


def as_axis_cube(q: Cube) -> AxisCube:
    return AxisCube(q.lower(), q.edge)


def _fits(p: AxisCube, q: Cube) -> bool:
    qlo = q.lower()
    return all(
        ql <= pl and pl + p.edge <= ql + q.edge
        for ql, pl in zip(qlo, p.lower_corner)
    )


def _forced_generation(edge: Fraction) -> int:
    # unique t with 2^t in (3*edge/2, 3*edge]
    target = 3 * edge
    t = target.numerator.bit_length() - target.denominator.bit_length()
    # 2^t <= target < 2^(t+2); fix up to the half-open window
    while _pow2(t) > target:
        t -= 1
    while _pow2(t + 1) <= target:
        t += 1
    assert 2 * _pow2(t) > target >= _pow2(t)
    return t


def dominating_cube(p: AxisCube) -> tuple[Shift, Cube]:
    """Some shifted dyadic cube Q with p inside Q and edge(Q) in (3e/2, 3e].

    The first member of dominating_set, whose shifts run in lexicographic
    order of thirds; existence is guaranteed at the forced generation.
    """
    q = dominating_set(p)[0]
    return q.shift, q


def dominating_set(p: AxisCube) -> list[Cube]:
    """All shifted dyadic cubes containing p with edge in (3e/2, 3e]."""
    t = _forced_generation(p.edge)
    h = _pow2(t)
    sgn = 1 if t % 2 == 0 else -1
    out = []
    for shift in all_shifts(p.n):
        m = tuple(
            math.floor(lo / h - Fraction(sgn * ti, 3))
            for lo, ti in zip(p.lower_corner, shift.thirds)
        )
        q = Cube(shift, t, m)
        if _fits(p, q):
            out.append(q)
    return out


def dom_multiplicity(base: Sequence[AxisCube], k: Fraction) -> int:
    """Max overlap count of dominating cubes over a K-scaled disjoint family.

    ``base`` must be pairwise disjoint cubes of one common edge length; the
    family examined is their concentric rescaling by k.  Returns
    max over P in Dom(S) of #{Q in S : P in Dom(Q)}, which is at most 3^n k^n.
    """
    if not base:
        raise ValueError("empty family")
    k = Fraction(k)
    scaled = [b.scaled(k) for b in base]
    doms = [dominating_set(s) for s in scaled]
    counts: dict[tuple, int] = {}
    for dlist in doms:
        for q in dlist:
            key = (q.shift.thirds, q.j, q.m)
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values())


@dataclass(frozen=True, eq=False)
class WindowArrays:
    """The cubes of a window as arrays; row i is the i-th cube of
    ``GridWindow.cubes()``.

    ``thirds`` (N, n) and ``j`` (N,) are int arrays, ``m`` an (N, n) array of
    Python ints.  ``corner`` holds the exact lower corners as Python ints: the
    corner of a cube is (3m + (-1)^j t) 2^(j - j_min) in units of
    2^j_min / 3, and its edge is 3 * 2^(j - j_min) of them.  ``lo`` and
    ``hi`` are (N, n) floats, each the correctly rounded value of an exact
    corner, and ``vol`` the (N,) float volumes 2^(j n).  The floats feed
    only closed forms; every nesting or boundary decision reads ``corner``.
    """

    thirds: np.ndarray
    j: np.ndarray
    m: np.ndarray
    corner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    vol: np.ndarray
    keys: tuple[tuple, ...]  # (thirds, j, m) per row, as funcspace.cube_key

    def __len__(self) -> int:
        return len(self.keys)

    def cube(self, i: int) -> Cube:
        """The Cube of row i, built only when a cube is reported."""
        thirds, j, m = self.keys[i]
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
        h = _pow2(j)
        sgn = 1 if j % 2 == 0 else -1
        ranges = []
        for (lo, hi), ti in zip(self.box, shift.thirds):
            s = Fraction(sgn * ti, 3)
            # positive-overlap condition: lower < hi and lower + h > lo
            x = hi / h - s
            m_hi = math.ceil(x) - 1 if x == math.ceil(x) else math.floor(x)
            y = lo / h - s - 1
            m_lo = math.floor(y) + 1
            ranges.append(range(m_lo, m_hi + 1))
        return ranges

    def _blocks(self) -> Iterator[tuple[Shift, int, list[range]]]:
        """(shift, j, index ranges) in enumeration order."""
        if self.count() > self.budget:
            raise BudgetError(
                f"window holds {self.count()} cubes, budget is {self.budget}"
            )
        for shift in self.shifts:
            for j in range(self.j_max, self.j_min - 1, -1):
                yield shift, j, self._index_ranges(shift, j)

    def count(self) -> int:
        total = 0
        for shift in self.shifts:
            for j in range(self.j_min, self.j_max + 1):
                total += math.prod(len(r) for r in self._index_ranges(shift, j))
        return total

    def cubes(self) -> Iterator[Cube]:
        for shift, j, ranges in self._blocks():
            for m in itertools.product(*ranges):
                yield Cube(shift, j, m)

    def boundary_flags(self) -> np.ndarray:
        """Per row of ``arrays``: whether the cube reaches outside the box.

        Exact: the integer corners are compared with the box scaled into
        the same units, 2^j_min / 3, by cross-multiplication.
        """
        arr = self.arrays
        unit = 3 / _pow2(self.j_min)
        edge = np.array([3 << k for k in (arr.j - self.j_min).tolist()], dtype=object)
        out = np.zeros(len(arr), dtype=bool)
        for c, (blo, bhi) in zip(arr.corner.T, self.box):
            lo, hi = Fraction(blo) * unit, Fraction(bhi) * unit
            out |= c * lo.denominator < lo.numerator
            out |= (c + edge) * hi.denominator > hi.numerator
        return out

    @functools.cached_property
    def arrays(self) -> WindowArrays:
        keys = []
        m, corner, lo, hi = [], [], [], []  # row-major, n entries per cube
        flat = itertools.chain.from_iterable
        for shift, j, ranges in self._blocks():
            sgn = 1 if j % 2 == 0 else -1
            k = j - self.j_min
            # exact corners and their floats once per index on each axis;
            # the block's cubes are the product of the axes, last fastest
            corners = [
                [(3 * mi + sgn * t) << k for mi in r]
                for r, t in zip(ranges, shift.thirds)
            ]
            ends = [
                list(zip(*(axis_interval(t, j, mi) for mi in r)))
                for r, t in zip(ranges, shift.thirds)
            ]
            rows = list(itertools.product(*ranges))
            keys.extend((shift.thirds, j, mi) for mi in rows)
            m.extend(flat(rows))
            corner.extend(flat(itertools.product(*corners)))
            lo.extend(flat(itertools.product(*(e[0] for e in ends))))
            hi.extend(flat(itertools.product(*(e[1] for e in ends))))
        n = self.n
        js = np.array([key[1] for key in keys], dtype=np.int64)
        return WindowArrays(
            thirds=np.array([key[0] for key in keys], dtype=np.int64).reshape(-1, n),
            j=js,
            m=np.array(m, dtype=object).reshape(-1, n),
            corner=np.array(corner, dtype=object).reshape(-1, n),
            lo=np.array(lo, dtype=float).reshape(-1, n),
            hi=np.array(hi, dtype=float).reshape(-1, n),
            vol=np.ldexp(1.0, n * js),
            keys=tuple(keys),
        )


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

