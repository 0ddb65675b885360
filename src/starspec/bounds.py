"""Composable one-sided spectral bounds with replayable derivation traces.

Rules: Dirichlet domain monotonicity (upper bounds from subdomains),
anisotropic scaling, zero-extension Neumann enclosure and direct sums of
decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import (
    Direction,
    EigList,
    box_eigs,
    equilateral_eigs,
    interval_eigs,
    right_triangle_dn_lower_bound,
)
from .geom import Polygon, orient


class DirectionMismatch(ValueError):
    pass


class NonPositiveCoeff(ValueError):
    pass


class ContainmentViolation(ValueError):
    pass


@dataclass(frozen=True)
class TraceStep:
    rule: str
    params: dict
    value: float


@dataclass(frozen=True)
class SpectralBound:
    operator: str
    index: int  # eigenvalue index, 1-based
    value: float
    direction: Direction
    trace: tuple[TraceStep, ...]
    tol: float = 0.0  # accumulated floating-point tolerance budget

    def extended(self, step: TraceStep, *, operator=None, value=None, tol_add=0.0):
        return SpectralBound(
            operator=operator if operator is not None else self.operator,
            index=self.index,
            value=value if value is not None else self.value,
            direction=self.direction,
            trace=self.trace + (step,),
            tol=self.tol + tol_add,
        )


def lower_bound(operator: str, index: int, value: float, rule: str, params: dict, tol: float = 0.0) -> SpectralBound:
    return SpectralBound(
        operator, index, value, Direction.LOWER,
        (TraceStep(rule, params, value),), tol,
    )


def bounds_from_eiglist(operator: str, eigs: EigList, direction: Direction, rule: str, params: dict) -> list[SpectralBound]:
    out = []
    for i, (v, prov) in enumerate(zip(eigs.values, eigs.provenance), start=1):
        p = dict(params)
        p["index"] = i
        p["provenance"] = prov
        out.append(
            SpectralBound(operator, i, v, direction, (TraceStep(rule, p, v),), 0.0)
        )
    return out


# -- rules ------------------------------------------------------------------


def dirichlet_monotone(sub_bounds: list[SpectralBound], waveguide_op: str) -> list[SpectralBound]:
    """Transport upper bounds on a Dirichlet subdomain to the waveguide:
    shrinking a Dirichlet domain raises every eigenvalue."""
    out = []
    for b in sub_bounds:
        if b.direction is not Direction.UPPER:
            raise DirectionMismatch("domain monotonicity transports upper bounds only")
        step = TraceStep(
            "dirichlet-monotone", {"from": b.operator, "index": b.index}, b.value
        )
        out.append(b.extended(step, operator=waveguide_op))
    return out


def scale_bound(
    src: list[SpectralBound],
    coeffs: tuple[float, float],
    target_op: str,
    cap_at_one: bool = False,
) -> list[SpectralBound]:
    """Lower bounds under the diagonal map diag(c1, c2) of the domain:
    lambda_k(image) >= min(c_i^-2) * lambda_k(source).  With cap_at_one the
    factor is additionally capped at 1 (a weaker but simpler one-sided form)."""
    c1, c2 = coeffs
    if c1 <= 0 or c2 <= 0:
        raise NonPositiveCoeff("scaling coefficients must be positive")
    factor = min(c1**-2, c2**-2)
    if cap_at_one:
        factor = min(factor, 1.0)
    out = []
    for b in src:
        if b.direction is not Direction.LOWER:
            raise DirectionMismatch("scale_bound transports lower bounds only")
        v = factor * b.value
        step = TraceStep(
            "scale",
            {"coeffs": [c1, c2], "factor": factor, "input": b.value, "cap_at_one": cap_at_one},
            v,
        )
        out.append(b.extended(step, operator=target_op, value=v, tol_add=1e-13 * abs(v)))
    return out


def _near_boundary(edges, x: float, y: float, tol: float) -> bool:
    """Whether (x, y) lies within tol of one of the segments edges."""
    for (x0, y0), (x1, y1) in edges:
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        t = max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / L2))
        px, py = x0 + t * dx, y0 + t * dy
        if math.hypot(x - px, y - py) <= tol:
            return True
    return False


def _is_convex(poly: Polygon) -> bool:
    """No self-crossing and no turn against the orientation (a straight angle
    is allowed)."""
    v, sign = poly.vertices, math.copysign(1.0, poly.signed_area())
    return not any(sign * orient(a, b, c) < 0 for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2])) and poly.is_simple()


def check_containment(inner: Polygon, outer: Polygon, tol: float = 1e-10) -> None:
    """A convex outer contains the polygon inner exactly when it contains
    inner's vertices, so each vertex must lie strictly on the inner side of
    every edge of outer (the orientation signs) or within tol of its
    boundary.  A non-convex outer is refused: its vertices say nothing about
    the edges between them."""
    if not _is_convex(outer):
        raise ContainmentViolation("the enclosure is not convex")
    sign = math.copysign(1.0, outer.signed_area())
    edges = [outer.edge(i) for i in range(outer.n_edges)]
    for v in inner.vertices:
        if not (all(sign * orient(p, q, v) > 0 for p, q in edges) or _near_boundary(edges, *v, tol)):
            raise ContainmentViolation(f"vertex ({v[0]}, {v[1]}) of the inner domain lies outside the enclosure")


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
        if b.direction is not Direction.LOWER:
            raise DirectionMismatch("enclosure transports lower bounds only")
        step = TraceStep(
            "neumann-enclosure",
            {"enclosure": enclosure_name, "index": b.index, "from": b.operator},
            b.value,
        )
        out.append(b.extended(step, operator=dn_op))
    return out


def direct_sum_bounds(
    parts: list[list[SpectralBound]], sum_op: str, k: int
) -> list[SpectralBound]:
    """First k merged lower bounds for a direct-sum operator.

    Each part's bound list covers its lowest eigenvalues; since a part's
    eigenvalues beyond the listed ones still dominate its last listed bound,
    each part is tail-extended by repeating that last bound before merging.
    """
    if any(b.direction is not Direction.LOWER for bs in parts for b in bs):
        raise DirectionMismatch("direct_sum_bounds merges lower bounds only")
    entries: list[tuple[float, SpectralBound]] = []
    for bs in parts:
        if not bs:
            continue
        for b in bs:
            entries.append((b.value, b))
        last = bs[-1]
        for _ in range(k - len(bs)):
            entries.append((last.value, last))
    entries.sort(key=lambda t: t[0])
    out = []
    for i, (v, src) in enumerate(entries[:k], start=1):
        step = TraceStep(
            "direct-sum", {"part_operator": src.operator, "part_index": src.index}, v
        )
        out.append(
            SpectralBound(sum_op, i, v, Direction.LOWER, src.trace + (step,), src.tol)
        )
    return out


# -- trace replay and serialization ----------------------------------------


def _replay_step(step: TraceStep, prev: float | None) -> float:
    p = step.params
    rule = step.rule
    if rule == "interval-eig":
        return interval_eigs(p["length"], p["bc"], p["index"])[p["index"] - 1]
    if rule == "box-eig":
        return box_eigs(tuple(p["dims"]), tuple(p["bcs"]), p["index"])[p["index"] - 1]
    if rule == "equilateral-eig":
        return equilateral_eigs(p["side"], p["bc"], p["index"])[p["index"] - 1]
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
