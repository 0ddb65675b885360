"""Closed-form spectra and analytic eigenvalue bounds.

Intervals, boxes with mixed per-side conditions, equilateral triangles,
circular sectors (via Bessel zeros), plus the special-purpose analytic
lower bounds used by the certification rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

PI2 = math.pi**2
# unit steps scanned per sought zero, and brentq's iteration cap
BESSEL_MAX_ITER = 200


class ConvergenceFailure(RuntimeError):
    pass


class CapsTooSmall(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class Direction(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class EigList:
    """Sorted nondecreasing eigenvalue list with per-value provenance labels."""

    values: tuple[float, ...]
    provenance: tuple[str, ...]
    vectors: np.ndarray | None = field(default=None, compare=False, repr=False)  # fem's (n, m) M-orthonormal Ritz vectors

    def __post_init__(self):
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("eigenvalue list must be nondecreasing")
        if len(self.values) != len(self.provenance):
            raise ValueError("provenance length mismatch")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _sorted_prefix(pairs: list[tuple[float, str]], k: int) -> EigList:
    pairs.sort(key=lambda p: p[0])
    head = pairs[:k]
    return EigList(tuple(v for v, _ in head), tuple(p for _, p in head))


# endpoint pair -> (first mode number n, shift): the values are ((n - shift) pi / length)^2
_INTERVAL_MODES = {"DD": (1, 0), "NN": (0, 0), "DN": (1, 0.5), "ND": (1, 0.5)}


def interval_eigs(length: float, bc: str, k: int) -> EigList:
    """First k eigenvalues of -u'' on (0, length) with endpoint conditions bc.

    bc is one of "DD", "NN", "DN", "ND".
    """
    if not 0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, not {length}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if bc not in _INTERVAL_MODES:
        raise ValueError(f"unknown boundary pair {bc!r}")
    first, shift = _INTERVAL_MODES[bc]
    ns = range(first, first + k)
    return EigList(tuple(((n - shift) * math.pi / length) ** 2 for n in ns), tuple(f"interval-{bc}(n={n})" for n in ns))


def box_eigs(dims: tuple[float, ...], bcs: tuple[str, ...], k: int, below: float = math.inf) -> EigList:
    """First k eigenvalues of the separable box Laplacian below `below`.

    The k-th smallest sum uses at most the k-th smallest value on each axis,
    so k values per axis make the sorted k-prefix complete; axis values are
    nonnegative and ascending, so a partial sum >= `below` ends its branch.
    The r^d >= k lattice points of the r lowest values on each axis give k
    sums no larger than their largest, added in the enumeration's order, so
    `below` is capped just above that sum.
    """
    d = len(dims)
    if d not in (1, 2, 3) or len(bcs) != d:
        raise ValueError("dims/bcs must have matching length 1, 2 or 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    axes = [interval_eigs(dims[i], bcs[i], k) for i in range(d)]
    r = round(k ** (1 / d))
    r += r**d < k  # the least r with r^d >= k
    corner = 0.0
    for axis in axes:
        corner += axis.values[r - 1]
    below = min(below, math.nextafter(corner, math.inf))
    pairs: list[tuple[float, str]] = []

    def rec(axis: int, total: float, label: list[str]):
        if axis == d:
            pairs.append((total, "box[" + ",".join(label) + "]"))
            return
        for v, p in zip(axes[axis].values, axes[axis].provenance):
            if total + v >= below:
                break
            label.append(p)
            rec(axis + 1, total + v, label)
            label.pop()

    rec(0, 0.0, [])
    return _sorted_prefix(pairs, k)


@functools.cache
def _equilateral_lattice(bc: str, k: int) -> EigList:
    """The k smallest m^2 + m n + n^2 of the bc index lattice, with labels."""
    lo = 1 if bc == "dirichlet" else 0
    # m^2 + mn + n^2 >= 3/4 (m+n)^2 for m,n >= 0; a cap of lo + k + 2 index
    # values per axis safely covers the k smallest lattice values
    cap = lo + k + 2
    pairs: list[tuple[int, str]] = []
    for m in range(lo, cap + 1):
        for n in range(m, cap + 1):
            pairs += [(m * m + m * n + n * n, f"equilateral-{bc[0].upper()}(m={m},n={n})")] * (1 if m == n else 2)
    return _sorted_prefix(pairs, k)


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
    scale = 16 * PI2 / (9 * side**2)
    lattice = _equilateral_lattice(bc, k)
    return EigList(tuple(scale * q for q in lattice.values), lattice.provenance)


# -- Bessel machinery -------------------------------------------------------


def bessel_j(s: float, x: float) -> float:
    """Bessel function J_s(x) for order s >= 0, x >= 0."""
    if s < 0 or x < 0:
        raise ValueError("bessel_j needs s >= 0 and x >= 0")
    from scipy.special import jv

    return float(jv(s, x))


def bessel_zero_lower_bound(s: float, k: int) -> float:
    """Analytic lower bound for the k-th positive zero of J_s.

    j_{s,k} > s + k pi - 1/2 for s > 1/2 and
    j_{s,k} > s + k pi - pi/2 + 1/2 for s > -1/2; the larger applicable
    bound is returned.
    """
    if s <= -0.5:
        raise OutOfRange("lower bound requires s > -1/2")
    if k < 1:
        raise ValueError("k must be >= 1")
    b = s + k * math.pi - math.pi / 2 + 0.5
    if s > 0.5:
        b = max(b, s + k * math.pi - 0.5)
    return b


def bessel_zero(s: float, k: int) -> float:
    """k-th positive zero of J_s via sign-change bracketing and bisection.

    Consecutive zeros of J_s (s >= 0) are separated by more than 3 for the
    small orders used here, so a unit-step scan cannot skip a zero.
    """
    if s < 0:
        raise ValueError("order must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    from scipy.optimize import brentq

    # all positive zeros exceed s; start just above the analytic floor
    x = max(s + 1e-6, bessel_zero_lower_bound(s, 1) - 1.5, 1e-6)
    step = 1.0
    f_prev = bessel_j(s, x)
    found = 0
    for _ in range(BESSEL_MAX_ITER * k):
        x_next = x + step
        f_next = bessel_j(s, x_next)
        if f_prev == 0.0:
            found += 1
            if found == k:
                return x
        elif f_prev * f_next < 0:
            found += 1
            if found == k:
                root = brentq(lambda t: bessel_j(s, t), x, x_next, xtol=1e-13, rtol=1e-13, maxiter=BESSEL_MAX_ITER)
                return float(root)
        x, f_prev = x_next, f_next
    raise ConvergenceFailure(f"could not locate zero {k} of J_{s}")


def sector_dn_eigs(alpha: float, radius: float, k: int) -> EigList:
    """Eigenvalues of the circular-sector operator with Dirichlet on the arc
    and Neumann on the two radii: (j_{pi n / alpha, k'} / radius)^2.

    The sorted k-prefix is certified complete by checking that the first
    omitted index in each direction already exceeds the k-th kept value
    (via the analytic zero lower bound); the index caps grow until it is.
    """
    if not 0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    if not 0 < radius < math.inf or k < 1:
        raise ValueError("radius must be positive and finite and k >= 1")
    # (n_max + 1) * k_max >= k candidates, so the prefix always has k values
    n_max = k_max = max(2, k)
    for _ in range(20):
        pairs = []
        for n in range(n_max + 1):
            s = math.pi * n / alpha
            for kk in range(1, k_max + 1):
                z = bessel_zero(s, kk)
                pairs.append(((z / radius) ** 2, f"sector(n={n},k={kk})"))
        out = _sorted_prefix(pairs, k)
        top = out.values[-1]
        # first omitted candidates: (n_max+1, 1) and (*, k_max+1)
        lb_n = (bessel_zero_lower_bound(math.pi * (n_max + 1) / alpha, 1) / radius) ** 2
        lb_k = (bessel_zero_lower_bound(0.0, k_max + 1) / radius) ** 2
        if lb_n > top and lb_k > top:
            return out
        n_max += 2
        k_max += 2
    raise CapsTooSmall("automatic cap growth did not certify completeness")


# -- special-purpose analytic bounds ---------------------------------------


def right_triangle_dn_lower_bound(alpha: float) -> float:
    """Lower bound pi^2 (1 + tan^2(alpha)/4) for the first eigenvalue of the
    right-triangle operator with Dirichlet on the short leg and hypotenuse
    and Neumann on the long leg (the odd half of the bent-guide center)."""
    if not 0 < alpha < math.pi / 2:
        raise OutOfRange("alpha must lie in (0, pi/2)")
    return PI2 * (1 + math.tan(alpha) ** 2 / 4)


def cross_section_threshold(cs) -> float:
    """First Dirichlet eigenvalue of a branch cross-section."""
    if cs.kind == "interval":
        (w,) = cs.dims
        return PI2 / w**2
    if cs.kind == "rectangle":
        a, b = cs.dims
        return PI2 * (1 / a**2 + 1 / b**2)
    if cs.kind == "disk":
        (r,) = cs.dims
        return (bessel_zero(0.0, 1) / r) ** 2
    raise ValueError(f"unknown cross-section kind {cs.kind!r}")


def y_alpha_threshold(alpha: float) -> float:
    """Lower bound for the second mixed-condition eigenvalue of the Y-junction
    center with half-opening alpha, from the Neumann triangle enclosure plus
    the anisotropic contraction to an equilateral triangle.

    alpha < pi/3: 16 pi^2 sin^4(a) / (9 cos^2(a) (2 - cos a)^2);
    alpha > pi/3: 16 pi^2 / (3 tan^2(a)); both give 16 pi^2 / 9 at pi/3.
    """
    if not 0 < alpha < math.pi / 2:
        raise OutOfRange("alpha must lie in (0, pi/2)")
    if alpha <= math.pi / 3:
        s, c = math.sin(alpha), math.cos(alpha)
        return 16 * PI2 * s**4 / (9 * c**2 * (2 - c) ** 2)
    return 16 * PI2 / (3 * math.tan(alpha) ** 2)


def y_alpha_enclosure_triangle(alpha: float) -> tuple[float, float]:
    """Base length and height of the isosceles Neumann enclosure triangle of
    the convex-pentagon Y-junction center (alpha < pi/3)."""
    if not 0 < alpha < math.pi / 3:
        raise OutOfRange("enclosure triangle applies for alpha in (0, pi/3)")
    s, c = math.sin(alpha), math.cos(alpha)
    return (2 - c) * c / s**2, (2 - c) / (2 * s)
