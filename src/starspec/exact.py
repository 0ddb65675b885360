"""Closed-form spectra and analytic eigenvalue bounds.

Intervals, boxes with mixed per-side conditions, equilateral triangles,
circular sectors (via Bessel zeros), plus the special-purpose analytic
lower bounds used by the certification rules.

Every closed form (interval_eigs, box_eigs, equilateral_eigs, sector_dn_eigs,
cross_section_threshold) returns only normal finite floats, or exactly 0.0 for
a zero mode (an NN interval's n = 0, the Neumann triangle's (0, 0)); for a size
outside that range, _representable raises ValueError naming the argument.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

PI2 = math.pi**2
# the smallest positive normal float: an eigenvalue below it has lost bits or underflowed to 0
TINY = sys.float_info.min
# unit steps scanned per sought zero, and brentq's iteration cap
BESSEL_MAX_ITER = 200


class Direction(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class EigList:
    """Sorted nondecreasing eigenvalue list with per-value provenance labels."""

    values: tuple[float, ...]
    provenance: tuple[str, ...]
    vectors: np.ndarray | None = field(default=None, compare=False, repr=False)  # fem's (n, m) M-orthonormal Ritz vectors
    lanczos: dict = field(default_factory=dict, compare=False, repr=False)  # fem.eigs_below's steps, restarts and residual

    def __post_init__(self):
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("eigenvalue list must be nondecreasing")
        if len(self.values) != len(self.provenance):
            raise ValueError("provenance length mismatch")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _out_of_range(name: str, size) -> ValueError:
    return ValueError(f"{name} {size!r} gives an eigenvalue outside the normal float range [{TINY!r}, {sys.float_info.max!r}]")


def _representable(name: str, size, zero_modes: int, values) -> list[float]:
    """values(), an ascending list, if its first zero_modes (0 or 1) items are exactly 0.0 and the rest normal
    finite floats (its first and last bound them); else, or if values overflows a ** 2 or divides by 0, ValueError."""
    try:
        v = values()
        if (not zero_modes or v[0] == 0.0) and (len(v) == zero_modes or TINY <= v[zero_modes] and v[-1] < math.inf):
            return v
    except (OverflowError, ZeroDivisionError):
        pass
    raise _out_of_range(name, size)


# endpoint pair -> (first mode number n, shift): the values are ((n - shift) pi / length)^2
_INTERVAL_MODES = {"DD": (1, 0), "NN": (0, 0), "DN": (1, 0.5), "ND": (1, 0.5)}


def _interval_values(length: float, bc: str, k: int, name: str = "length") -> tuple[range, list[float]]:
    """Mode numbers and values of the first k eigenvalues of interval_eigs; name is the size's in an error."""
    if not 0 < length < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {length}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if bc not in _INTERVAL_MODES:
        raise ValueError(f"unknown boundary pair {bc!r}")
    first, shift = _INTERVAL_MODES[bc]
    ns = range(first, first + k)
    return ns, _representable(name, length, 1 - first, lambda: [((n - shift) * math.pi / length) ** 2 for n in ns])


def interval_eigs(length: float, bc: str, k: int) -> EigList:
    """First k eigenvalues of -u'' on (0, length) with endpoint conditions bc, one of "DD", "NN", "DN", "ND"."""
    ns, values = _interval_values(length, bc, k)
    return EigList(tuple(values), tuple(f"interval-{bc}(n={n})" for n in ns))


def box_eigs(dims: tuple[float, ...], bcs: tuple[str, ...], k: int, below: float = math.inf) -> EigList:
    """First k eigenvalues of the separable box Laplacian below `below`.

    The k-th smallest sum uses at most the k-th smallest value on each axis, so k values per
    axis make the sorted k-prefix complete; axis values are nonnegative and ascending, so a
    partial sum >= `below` ends its branch.  The r^d >= k lattice points of the r lowest values
    on each axis give k sums no larger than their largest, added in the enumeration's order, so
    `below` is capped just above that sum.  The walk visits the lattice in index order, axis by
    axis; only the axis values below `below` get a name, and only the k points kept a label.
    Each axis is an interval_eigs in range; a corner sum that overflows is refused, even if the k smallest do not.
    """
    d = len(dims)
    if d not in (1, 2, 3) or len(bcs) != d:
        raise ValueError("dims/bcs must have matching length 1, 2 or 3")
    axes = [_interval_values(length, bc, k, "dims entry") for length, bc in zip(dims, bcs)]
    r = round(k ** (1 / d))
    r += r**d < k  # the least r with r^d >= k
    corner = 0.0
    for _, values in axes:
        corner += values[r - 1]
    if corner == math.inf:
        raise _out_of_range("dims", dims)
    below = min(math.nextafter(corner, math.inf), below)
    walk = [(0.0, ())]  # (partial sum, its index on each axis so far)
    for _, values in axes:
        step = []
        for total, index in walk:
            for j, v in enumerate(values):
                v = total + v
                if v >= below:
                    break
                step.append((v, index + (j,)))
        walk = step
    walk.sort()  # by sum, then by index: the walk's own order among equal sums
    kept = walk[:k]  # each index j of an axis has values[j] < below
    names = [[f"interval-{bc}(n={n})" for n in ns[:bisect_left(values, below)]] for bc, (ns, values) in zip(bcs, axes)]
    return EigList(tuple([v for v, _ in kept]), tuple(["box[" + ",".join(map(list.__getitem__, names, i)) + "]" for _, i in kept]))


def _ascending(root, children):
    """Yield root and its descendants in ascending order, children(*node) being a node's.  No child
    is below its parent, so each node not yet yielded has an ancestor on the heap that is no larger:
    the heap's least is the least left.  A node's children are made only once it is taken."""
    heap = [root]
    while heap:
        node = heapq.heappop(heap)
        yield node
        for child in children(*node):
            heapq.heappush(heap, child)


@functools.cache
def _equilateral_lattice(bc: str, k: int) -> EigList:
    """The k smallest q = m^2 + m n + n^2 of the bc index lattice, with labels: the pairs m <= n by
    value, then by index, a pair m != n taken twice.  (m, n + 1) is a child of (m, n), and so is
    (m + 1, m + 1) when m = n."""
    lo = 1 if bc == "dirichlet" else 0
    walk = _ascending((3 * lo * lo, lo, lo), lambda q, m, n: [(q + m + 2 * n + 1, m, n + 1)] + ([(3 * (m + 1) ** 2, m + 1, m + 1)] if m == n else []))
    head, tag = list(itertools.islice((node for node in walk for _ in range(1 + (node[1] < node[2]))), k)), bc[0].upper()
    return EigList(tuple(q for q, _, _ in head), tuple(f"equilateral-{tag}(m={m},n={n})" for _, m, n in head))


def equilateral_eigs(side: float, bc: str, k: int) -> EigList:
    """Equilateral-triangle Laplacian spectrum for all-Dirichlet or all-Neumann.

    Eigenvalues are 16 pi^2 / (9 side^2) * (m^2 + m n + n^2); Dirichlet
    indices run over m, n >= 1, Neumann over m, n >= 0.  Unordered pairs
    with m != n count twice, diagonal pairs once.
    """
    if not 0 < side < math.inf:
        raise ValueError(f"side must be positive and finite, not {side}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if bc not in ("dirichlet", "neumann"):
        raise ValueError("bc must be 'dirichlet' or 'neumann'")
    lattice = _equilateral_lattice(bc, k)
    scaled = _representable("side", side, int(bc == "neumann"), lambda: [scale * q for scale in [16 * PI2 / (9 * side**2)] for q in lattice.values])
    return EigList(tuple(scaled), lattice.provenance)


# -- Bessel machinery -------------------------------------------------------


def _jv(s: float, x: float):
    """scipy.special.jv, imported on the first call, which binds it in this function's place."""
    global _jv
    from scipy.special import jv as _jv
    return _jv(s, x)


def bessel_j(s: float, x: float) -> float:
    """Bessel function J_s(x) for order s >= 0, x >= 0."""
    if s < 0 or x < 0:
        raise ValueError("bessel_j needs s >= 0 and x >= 0")
    return float(_jv(s, x))


def bessel_zero_lower_bound(s: float, k: int) -> float:
    """Analytic lower bound for the k-th positive zero of J_s.

    j_{s,k} > s + k pi - 1/2 for s > 1/2 and
    j_{s,k} > s + k pi - pi/2 + 1/2 for s > -1/2; the larger applicable
    bound is returned.
    """
    if s <= -0.5:
        raise ValueError("lower bound requires s > -1/2")
    if k < 1:
        raise ValueError("k must be >= 1")
    b = s + k * math.pi - math.pi / 2 + 0.5
    if s > 0.5:
        b = max(b, s + k * math.pi - 0.5)
    return b


def _bessel_zeros(s: float):
    """The positive zeros of J_s, s >= 0, in ascending order, by a unit-step sign-change scan and
    bisection; the j-th zero must come within BESSEL_MAX_ITER j steps of the start."""
    from scipy.optimize import brentq

    # all positive zeros exceed s; start just above the analytic floor
    x = max(s + 1e-6, bessel_zero_lower_bound(s, 1) - 1.5, 1e-6)
    f_prev, found = bessel_j(s, x), 0
    for i in itertools.count():
        if i == BESSEL_MAX_ITER * (found + 1):
            raise ValueError(f"could not locate zero {found + 1} of J_{s}")
        x_next = x + 1.0
        f_next = bessel_j(s, x_next)
        if f_prev == 0.0:
            found += 1
            yield x
        elif f_prev * f_next < 0:
            found += 1
            yield float(brentq(lambda t: bessel_j(s, t), x, x_next, xtol=1e-13, rtol=1e-13, maxiter=BESSEL_MAX_ITER))
        x, f_prev = x_next, f_next


def bessel_zero(s: float, k: int) -> float:
    """k-th positive zero of J_s, the k-th of _bessel_zeros.

    Consecutive zeros of J_s, s >= 0, are more than 3 apart (the smallest gap is
    j_{0,2} - j_{0,1} ~ 3.115), so a unit-step scan cannot skip a zero.
    """
    if s < 0:
        raise ValueError("order must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(itertools.islice(_bessel_zeros(s), k - 1, None))


def sector_dn_eigs(alpha: float, radius: float, k: int) -> EigList:
    """Eigenvalues of the circular-sector operator with Dirichlet on the arc
    and Neumann on the two radii: (j_{pi n / alpha, k'} / radius)^2.

    The modes (n, k') are walked by value, then by index.  The zeros of J_s rise with their rank
    and with the order s (Watson, Bessel Functions, 15.6), so (n, k' + 1), and (n + 1, 1) when
    k' = 1, are no smaller than (n, k') and are its children.  Each order is scanned once, and
    k values take at most 2k - 1 zeros of at most k orders.
    """
    if not 0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    if not 0 < radius < math.inf or k < 1:
        raise ValueError("radius must be positive and finite and k >= 1")
    scans, head = [], []  # scans[n]: the zeros of J_{pi n / alpha} not yet taken; head: the modes walked

    def mode(n: int, kk: int) -> tuple[float, int, int]:
        if n == len(scans):
            scans.append(_bessel_zeros(math.pi * n / alpha))
        return (next(scans[n]) / radius) ** 2, n, kk

    def values() -> list[float]:
        head.extend(itertools.islice(_ascending(mode(0, 1), lambda _, n, kk: [mode(n, kk + 1)] + ([mode(n + 1, 1)] if kk == 1 else [])), k))
        return [v for v, _, _ in head]

    return EigList(tuple(_representable("radius", radius, 0, values)), tuple(f"sector(n={n},k={kk})" for _, n, kk in head))


# -- special-purpose analytic bounds ---------------------------------------


def right_triangle_dn_lower_bound(alpha: float) -> float:
    """Lower bound pi^2 (1 + tan^2(alpha)/4) for the first eigenvalue of the
    right-triangle operator with Dirichlet on the short leg and hypotenuse
    and Neumann on the long leg (the odd half of the bent-guide center)."""
    if not 0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2)")
    return PI2 * (1 + math.tan(alpha) ** 2 / 4)


# each cross-section kind's first Dirichlet eigenvalue, from its dims
_THRESHOLDS = {
    "interval": lambda w: PI2 / w**2,
    "rectangle": lambda a, b: PI2 * (1 / a**2 + 1 / b**2),
    "disk": lambda r: (bessel_zero(0.0, 1) / r) ** 2,
}


@functools.lru_cache(maxsize=1024)  # a sweep's verdicts share a few cross-sections: each is checked once
def _threshold(kind: str, dims: tuple[float, ...]) -> float:
    return _representable("cross-section dims", dims, 0, lambda: [_THRESHOLDS[kind](*dims)])[0]


def cross_section_threshold(cs) -> float:
    """First Dirichlet eigenvalue of a branch cross-section (geom.CrossSection refuses an unknown kind)."""
    return _threshold(cs.kind, cs.dims)


def y_alpha_threshold(alpha: float) -> float:
    """Lower bound for the second mixed-condition eigenvalue of the Y-junction
    center with half-opening alpha, from the Neumann triangle enclosure plus
    the anisotropic contraction to an equilateral triangle.

    alpha < pi/3: 16 pi^2 sin^4(a) / (9 cos^2(a) (2 - cos a)^2);
    alpha > pi/3: 16 pi^2 / (3 tan^2(a)); both give 16 pi^2 / 9 at pi/3.
    """
    if not 0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2)")
    if alpha <= math.pi / 3:
        s, c = math.sin(alpha), math.cos(alpha)
        return 16 * PI2 * s**4 / (9 * c**2 * (2 - c) ** 2)
    return 16 * PI2 / (3 * math.tan(alpha) ** 2)


def y_alpha_enclosure_triangle(alpha: float) -> tuple[float, float]:
    """Base length and height of the isosceles Neumann enclosure triangle of
    the convex-pentagon Y-junction center (alpha < pi/3)."""
    if not 0 < alpha < math.pi / 3:
        raise ValueError("enclosure triangle applies for alpha in (0, pi/3)")
    s, c = math.sin(alpha), math.cos(alpha)
    return (2 - c) * c / s**2, (2 - c) / (2 * s)
