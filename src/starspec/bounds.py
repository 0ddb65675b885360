"""Composable one-sided spectral bounds with replayable derivation traces.

Rules: Dirichlet domain monotonicity (upper bounds from subdomains),
anisotropic scaling, zero-extension Neumann enclosure and direct sums of
decompositions.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .exact import (
    Direction,
    EigList,
    box_eigs,
    equilateral_eigs,
    right_triangle_dn_lower_bound,
)
from .geom import Polygon, orient

_LOWER, _UPPER = Direction.LOWER, Direction.UPPER  # a module global reads faster than an Enum member
_VALUE = attrgetter("value")
# the tol of an analytic value per unit of it: the rounding of the few float operations that make
# it, far below certify.BUDGET_FLOOR_REL (1e-8); ROADMAP item 13's outward rounding replaces it
ANALYTIC_TOL_REL = 1e-13


class TraceStep(NamedTuple):
    rule: str
    params: dict
    value: float


class SpectralBound(NamedTuple):
    """An immutable bound record; _replace gives a modified copy."""

    operator: str
    index: int  # eigenvalue index, 1-based
    value: float
    direction: Direction
    trace: tuple[TraceStep, ...]
    tol: float = 0.0  # accumulated floating-point tolerance budget


# _make of a field tuple builds a record without the NamedTuple __new__ call;
# the sweeps build a dozen records per verdict, thousands of times
_step, _bound = TraceStep._make, SpectralBound._make


def lower_bound(operator: str, index: int, value: float, rule: str, params: dict, tol: float = 0.0) -> SpectralBound:
    return _bound((operator, index, value, _LOWER, (_step((rule, params, value)),), tol))


def bounds_from_eiglist(operator: str, eigs: EigList, direction: Direction, rule: str, params: dict, then=None) -> list[SpectralBound]:
    """A bound for each value of eigs, traced by a step of rule and, for a
    (rule, params) pair then, a step of it at the same value."""
    out = []
    for i, (v, prov) in enumerate(zip(eigs.values, eigs.provenance), start=1):
        trace = (_step((rule, {**params, "index": i, "provenance": prov}, v)),) + ((_step((*then, v)),) if then else ())
        out.append(_bound((operator, i, v, direction, trace, 0.0)))
    return out


# each closed-form trace rule's exact formula of its params, the count k and the formula's keywords
CLOSED_FORMS = {
    "box-eig": lambda p, k, **kw: box_eigs(tuple(p["dims"]), tuple(p["bcs"]), k, **kw),
    "equilateral-eig": lambda p, k: equilateral_eigs(p["side"], p["bc"], k),
}


def closed_form_bounds(operator: str, direction: Direction, rule: str, params: dict, k: int, then=None, **kw) -> list[SpectralBound]:
    """bounds_from_eiglist of the closed form CLOSED_FORMS[rule] of params: the trace records the
    params the values are computed from, and replay_bound recomputes them by the same formula."""
    return bounds_from_eiglist(operator, CLOSED_FORMS[rule](params, k, **kw), direction, rule, params, then)


# -- rules ------------------------------------------------------------------


def dirichlet_monotone(sub_bounds: list[SpectralBound], waveguide_op: str) -> list[SpectralBound]:
    """Transport upper bounds on a Dirichlet subdomain to the waveguide:
    shrinking a Dirichlet domain raises every eigenvalue."""
    out = []
    for b in sub_bounds:
        if b.direction is not _UPPER:
            raise ValueError("domain monotonicity transports upper bounds only")
        step = _step(("dirichlet-monotone", {"from": b.operator, "index": b.index}, b.value))
        out.append(_bound((waveguide_op, b.index, b.value, b.direction, b.trace + (step,), b.tol)))
    return out


def scale_bound(src: list[SpectralBound], coeffs: tuple[float, float], target_op: str) -> list[SpectralBound]:
    """Lower bounds under the diagonal map diag(c1, c2) of the domain:
    lambda_k(image) >= min(c_i^-2) * lambda_k(source)."""
    c1, c2 = coeffs
    if c1 <= 0 or c2 <= 0:
        raise ValueError("scaling coefficients must be positive")
    factor = min(c1**-2, c2**-2)
    out = []
    for b in src:
        if b.direction is not _LOWER:
            raise ValueError("scale_bound transports lower bounds only")
        v = factor * b.value
        step = _step(("scale", {"coeffs": [c1, c2], "factor": factor, "input": b.value}, v))
        out.append(_bound((target_op, b.index, v, b.direction, b.trace + (step,), b.tol + ANALYTIC_TOL_REL * abs(v))))
    return out


def _near_boundary(edges, x: float, y: float, tol: float) -> bool:
    """Whether (x, y) lies within tol of one of the segments edges, each
    given as its start, direction and squared length."""
    for x0, y0, dx, dy, L2 in edges:
        t = max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / L2))
        px, py = x0 + t * dx, y0 + t * dy
        if math.hypot(x - px, y - py) <= tol:
            return True
    return False


def _is_convex(poly: Polygon, sign: float) -> bool:
    """No self-crossing and no turn against the orientation sign (a straight
    angle is allowed)."""
    v = poly.vertices
    for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
        if sign * orient(a, b, c) < 0:
            return False
    return poly.is_simple()


def check_containment(inner: Polygon, outer: Polygon, tol: float = 1e-10) -> None:
    """A convex outer contains the polygon inner exactly when it contains
    inner's vertices, so each vertex must lie strictly on the inner side of
    every edge of outer (the orientation signs) or within tol of its
    boundary.  A non-convex outer is refused: its vertices say nothing about
    the edges between them."""
    sign = math.copysign(1.0, outer.signed_area())
    if not _is_convex(outer, sign):
        raise ValueError("the enclosure is not convex")
    edges = []  # start, direction and squared length of each edge of outer
    for (x0, y0), (x1, y1) in map(outer.edge, range(outer.n_edges)):
        dx, dy = x1 - x0, y1 - y0
        edges.append((x0, y0, dx, dy, dx * dx + dy * dy))
    for x, y in inner.vertices:
        for x0, y0, dx, dy, _ in edges:
            if not sign * (dx * (y - y0) - dy * (x - x0)) > 0:  # orient((x0, y0), (x1, y1), (x, y))
                if _near_boundary(edges, x, y, tol):
                    break
                raise ValueError(f"vertex ({x}, {y}) of the inner domain lies outside the enclosure")


def neumann_enclosure_bounds(
    dn_op: str,
    center: Polygon,
    enclosure: Polygon,
    enclosure_bounds: list[SpectralBound],
    enclosure_name: str = "enclosure",
) -> list[SpectralBound]:
    """Zero-extension lower bounds: test functions of the mixed problem on
    the center C extend by zero across its Dirichlet edges into the Neumann
    problem on an enclosing domain M, so lambda_k(C, mixed) >=
    lambda_k(M, Neumann).  M must be convex and contain every vertex of C;
    its spectrum is given through lower bounds (e.g. produced by
    scale_bound)."""
    check_containment(center, enclosure)
    out = []
    for b in enclosure_bounds:
        if b.direction is not _LOWER:
            raise ValueError("enclosure transports lower bounds only")
        step = _step(("neumann-enclosure", {"enclosure": enclosure_name, "index": b.index, "from": b.operator}, b.value))
        out.append(_bound((dn_op, b.index, b.value, b.direction, b.trace + (step,), b.tol)))
    return out


def direct_sum_bounds(
    parts: list[list[SpectralBound]], sum_op: str, k: int
) -> list[SpectralBound]:
    """First k merged lower bounds for a direct-sum operator.

    Each part's bound list covers its lowest eigenvalues; since a part's
    eigenvalues beyond the listed ones still dominate its last listed bound,
    each part is tail-extended by repeating that last bound before merging.
    """
    entries: list[SpectralBound] = []
    for bs in parts:
        entries += bs
        entries += bs[-1:] * (k - len(bs))
    for b in entries:
        if b.direction is not _LOWER:
            raise ValueError("direct_sum_bounds merges lower bounds only")
    entries.sort(key=_VALUE)  # stable: equal values keep the part order
    out = []
    for i, b in enumerate(entries[:k], start=1):
        step = _step(("direct-sum", {"part_operator": b.operator, "part_index": b.index}, b.value))
        out.append(_bound((sum_op, i, b.value, _LOWER, b.trace + (step,), b.tol)))
    return out


# -- trace replay and serialization ----------------------------------------


def _replay_step(step: TraceStep, prev: float | None) -> float:
    p = step.params
    rule = step.rule
    if rule in CLOSED_FORMS:
        return CLOSED_FORMS[rule](p, p["index"])[p["index"] - 1]
    if rule == "right-triangle-floor":
        return right_triangle_dn_lower_bound(p["alpha"])
    if rule == "scale":
        return p["factor"] * p["input"]
    if rule in ("dirichlet-monotone", "direct-sum", "neumann-enclosure"):
        return step.value if prev is None else prev
    # frozen inputs (fem-upper, assumption, sector-bessel-floor, ...) replay
    # as recorded
    return step.value


def replay_bound(bound: SpectralBound) -> float:
    """Recompute the bound value by replaying its trace."""
    prev: float | None = None
    for step in bound.trace:
        prev = _replay_step(step, prev)
    return float(prev) if prev is not None else bound.value


def trace_to_json(bound: SpectralBound) -> list[dict]:
    return [
        {"rule": s.rule, "params": s.params, "value": s.value} for s in bound.trace
    ]


def bound_to_json(bound: SpectralBound) -> dict:
    return {
        "operator": bound.operator,
        "index": bound.index,
        "value": bound.value,
        "direction": bound.direction.value,
        "tol": bound.tol,
        "trace": trace_to_json(bound),
    }
