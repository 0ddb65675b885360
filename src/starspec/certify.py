"""Certification of the exact discrete-eigenvalue count and the absence of
threshold resonances for star waveguides.

A configuration is certified when an upper-bound list places exactly n
waveguide eigenvalues strictly below the essential-spectrum threshold and
a lower bound for the (n+1)-th eigenvalue of the mixed-condition center
operator strictly exceeds that threshold, with every strict inequality
holding by more than the accumulated floating-point budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from . import bounds as bnd
from . import exact, fem, geom
from .bounds import Direction, SpectralBound, TraceStep
from .exact import PI2
from .geom import BC, Branch, CrossSection, EdgeRole, Polygon, StarWaveguideConfig

BUDGET_FLOOR_REL = 1e-8
FEM_UPPER_TOL_REL = 1e-8
EQUILATERAL_RTOL = 1e-12  # side spread that moves an eigenvalue far less than the budget floor
FEM_H0 = 0.5  # mesh size of the one triangulation whose refinement levels a FEM count climbs

WAVEGUIDE_OP = "waveguide-dirichlet"
DN_CENTER_OP = "dn-center"


class Unbound(ValueError):
    """The rule does not describe the center; certify() makes it Inconclusive."""


def _is_number(value) -> bool:
    """Whether value is an int or a float; a bool is never a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CertificationPlan:
    """Replayable strategy: how to count eigenvalues below the threshold and
    how to bound the center spectrum from below.  Construction checks the
    whole plan and raises ValueError naming the first bad field, so a plan
    that exists can run, and a rejected one solves no mesh."""

    count_strategy: str = "fem"  # a key of _COUNT_RULES
    lower_strategy: str = "auto"  # a key of _LOWER_RULES, "auto" (the first of them that binds) or "crossing_symmetry"
    truncation_length: float = 2.0
    fem_levels: int = 3  # the finest refinement level a FEM count solves

    def __post_init__(self):
        strategies = {"count_strategy": (*_COUNT_RULES,), "lower_strategy": (*_LOWER_RULES, "auto", "crossing_symmetry")}
        for key, rules in strategies.items():
            name = getattr(self, key)
            if not isinstance(name, str) or name not in rules:
                raise ValueError(f"{key} = {name!r} is not one of {', '.join(rules)}")
        if not _is_number(self.truncation_length) or not 0 < self.truncation_length < math.inf:
            raise ValueError(f"truncation_length = {self.truncation_length!r}: must be a positive finite number")
        if not isinstance(self.fem_levels, int) or isinstance(self.fem_levels, bool) or self.fem_levels < 1:
            raise ValueError(f"fem_levels = {self.fem_levels!r}: must be an integer >= 1")


PLAN_FIELDS = frozenset(f.name for f in fields(CertificationPlan))


class Verdict(NamedTuple):
    name: str
    certified: bool
    n_discrete: Optional[int]
    rigor: str  # "analytic" | "numerically_assisted" | "assumed" (rests on an assumption step) | "none" (no bound)
    nu: float
    margins: dict
    reason: str
    budget: float
    lower_bounds: tuple[SpectralBound, ...]
    upper_bounds: tuple[SpectralBound, ...]
    extra: dict

    def to_dict(self) -> dict:
        """The report: margins as a name/value list and one trace list with
        the lower bounds first, then the upper bounds."""
        return {
            "name": self.name,
            "nu": self.nu,
            "verdict": "CertifiedNoResonance" if self.certified else "Inconclusive",
            "n": self.n_discrete,
            "rigor": self.rigor,
            "margins": [{"name": k, "value": v} for k, v in self.margins.items()],
            "reason": self.reason,
            "budget": self.budget,
            "trace": [bnd.bound_to_json(b) for b in self.lower_bounds + self.upper_bounds],
            "extra": self.extra,
        }


def threshold(vcfg: StarWaveguideConfig) -> float:
    """Bottom of the essential spectrum: the smallest first Dirichlet
    eigenvalue among the branch cross-sections."""
    return min([exact.cross_section_threshold(b.cross_section) for b in vcfg.branches])


_TOL = attrgetter("tol")


def _budget(nu: float, used: list[SpectralBound]) -> float:
    return max(sum(map(_TOL, used)), BUDGET_FLOOR_REL * nu)


# -- counting (upper-bound) pipelines --------------------------------------
#
# Each count rule takes (vcfg, plan, nu, extra) and returns the number of
# eigenvalues below nu with the upper bounds that witness them.


def _n_below(ub: list[SpectralBound], nu: float) -> int:
    return sum(1 for b in ub if b.value < nu - _budget(nu, [b]))


# decay rate of the exponential tail beyond each branch cap: any kappa > 0 keeps every
# Rayleigh-Ritz value an upper bound; 0.2 to 0.5 move rounded_corner's lambda_1 < 0.005
TAIL_KAPPA = 0.3


def tail_caps(poly: Polygon) -> dict[int, float]:
    """Tail decay rate of each cap of a truncated polygon: the cut edges
    that carry the Dirichlet tag (a center's cuts carry the Neumann tag)."""
    roles = zip(poly.edge_tags, poly.edge_roles)
    return {i: TAIL_KAPPA for i, (tag, role) in enumerate(roles) if role is EdgeRole.CUT and tag is BC.DIRICHLET}


@functools.lru_cache(maxsize=1)
def _truncated_mesh(vcfg: StarWaveguideConfig, length: float, levels: int) -> tuple[fem.Mesh, dict]:
    """The mesh of a refinement level of the truncated guide and its tail
    caps: level 1 triangulates at FEM_H0, and each finer level refines the
    previous one's mesh, so a climb through the levels triangulates once."""
    if levels == 1:
        poly = geom.truncate(vcfg, length)
        return fem.triangulate(poly, FEM_H0), tail_caps(poly)
    mesh, caps = _truncated_mesh(vcfg, length, levels - 1)
    return fem.refine(mesh), caps


def _fem_upper_bounds(vcfg: StarWaveguideConfig, length: float, levels: int, nu: float) -> tuple[list[SpectralBound], dict]:
    """Upper bounds for every eigenvalue below the counting cut, from one
    factorization on a refinement level of the truncated guide with tail
    caps, and the record of that count.  Each P1 function continues beyond
    each cap as u(s) e^{-kappa t}; truncate has checked that the half-strips
    beyond the caps are disjoint, so the continued function lies in H^1_0 of
    the whole waveguide and each Rayleigh-Ritz value bounds a waveguide
    eigenvalue, on every level."""
    mesh, caps = _truncated_mesh(vcfg, length, levels)
    prob = fem.assemble(mesh, caps)
    shift = nu - BUDGET_FLOOR_REL * nu  # below nu, the cut that _n_below applies
    eigs = fem.eigs_below(prob, shift)
    # deterministic mesh diagnostics: free nodes, largest edge, smallest angle
    diagnostics = {"dof": int(prob.free_nodes.size), "h": mesh.max_diameter(), "min_angle": mesh.min_angle_deg()}
    mesh_params = {"length": length, "h0": FEM_H0, "levels": levels, "kappa": TAIL_KAPPA, **diagnostics}
    # each tolerance covers rounding in forming the Rayleigh-Ritz pencil
    out = [
        SpectralBound(
            WAVEGUIDE_OP, i, v, Direction.UPPER,
            (TraceStep("fem-upper", {"domain": "tail-capped", **mesh_params, "index": i}, v),), FEM_UPPER_TOL_REL * v,
        )
        for i, v in enumerate(eigs.values, start=1)
    ]
    return out, {**mesh_params, "shift": shift, "inertia": len(eigs), **eigs.lanczos}


def _count_fem(vcfg: StarWaveguideConfig, plan: CertificationPlan, nu: float, extra: dict):
    """FEM count on refinement level fem_levels of the tail-capped guide
    truncated at truncation_length: inertia says how many eigenvalues of the
    P1-and-tail space lie below the cut and Rayleigh-Ritz values bound them.
    That space is a subspace of H^1_0 of the waveguide, so for any
    m-dimensional subspace of it the j-th Rayleigh-Ritz value is >=
    lambda_j^h >= lambda_j(waveguide) (min-max), converged or not, and
    n_true >= n; the center lower bound for index n + 1 gives n_true <= n.
    An undercount m only loses the certificate (l_{m+1} <= mu_{m+1} < nu);
    an overcount puts the m-th value at or above the cut: fem.eigs_below
    raises.  Only a 2D config has branches to truncate; a 3D one is Unbound."""
    if vcfg.is_3d:
        raise Unbound("fem count needs a 2D config: it meshes the truncated branches of a polygon center")
    ub, extra["fem_count"] = _fem_upper_bounds(vcfg, plan.truncation_length, plan.fem_levels, nu)
    return _n_below(ub, nu), ub


def _count_exact_box_B(vcfg: StarWaveguideConfig, plan: CertificationPlan, nu: float, extra: dict):
    """The box center with Dirichlet conditions all round is a waveguide
    subdomain: every lattice value below the counting cut is an upper bound.
    Each axis value (m pi / d)^2 of one below the cut is, so m < d sqrt(cut)
    / pi, and the product k of those counts bounds how many there are."""
    dims = _box(vcfg, "exact_box_B")[0]
    bcs = ["DD"] * len(dims)
    cut = nu - BUDGET_FLOOR_REL * nu
    k = math.prod(math.ceil(d * math.sqrt(cut) / math.pi) - 1 for d in dims)
    eigs = exact.box_eigs(tuple(dims), tuple(bcs), k, below=cut) if k > 0 else exact.EigList((), ())
    raw = bnd.bounds_from_eiglist("center-dirichlet", eigs, Direction.UPPER, "box-eig", {"dims": dims, "bcs": bcs})
    ub = bnd.dirichlet_monotone(raw, WAVEGUIDE_OP)
    return _n_below(ub, nu), ub


def _is_config(vcfg: StarWaveguideConfig, name: str) -> bool:
    """Whether the config has the center and branches of the preset name."""
    ref = _PRESETS[name][0]()
    return (vcfg.center, vcfg.branches) == (ref.center, ref.branches)


# name -> (binding, fact, anchor, citation).  A binding takes the config and
# accepts only the geometry the fact is proved for.  A fact shows only that a
# bound state exists, n_true >= 1; a center lower bound for index 2 then gives
# n_true = 1.  The fact and anchor texts go into the assumption step.
_FACTS = {
    "bent_guide": (lambda vcfg: vcfg.family_alpha("bent-guide") is not None,
                   "bent guides of constant width always have nonempty discrete spectrum", None,
                   "Exner-Seba, J. Math. Phys. 30 (1989) 2574; Avishai et al., Phys. Rev. B 44 (1991) 8028"),
    "y_junction": (lambda vcfg: vcfg.family_alpha("Y-junction") is not None,
                   "junction contains a bent guide of complementary angle", "bent_guide",
                   "Dirichlet monotonicity and the bent_guide fact"),
    "cube_square": (lambda vcfg: _is_config(vcfg, "cube_square"),
                    "prism over the right-angle bent strip is a Dirichlet subdomain", "2d-bent-guide-fem",
                    "Dirichlet monotonicity, separation of variables and the bent_guide fact for its right angle"),
    "cube_disk": (lambda vcfg: _is_config(vcfg, "cube_disk"),
                  "sharply bent circular cylinder inside the junction binds a state", None,
                  "Exner-Kovarik, Quantum Waveguides, Springer 2015, ch. 1: a broken circular tube binds a state"),
}


def _count_family_fact(vcfg: StarWaveguideConfig, plan: CertificationPlan, nu: float, extra: dict):
    """One eigenvalue below nu, witnessed by the first fact of _FACTS whose
    binding accepts the config; with none it is Unbound."""
    for name, (binds, _, _, _) in _FACTS.items():
        if binds(vcfg):
            return 1, [SpectralBound(WAVEGUIDE_OP, 1, nu, Direction.UPPER, (_fact_step(name),), 0.0)]
    raise Unbound(f"family_fact has no fact proved for this config (facts: {', '.join(_FACTS)})")


@functools.cache
def _fact_step(name: str) -> TraceStep:
    """The assumption step of a fact of _FACTS; no alpha enters it, so it is
    built once and every verdict shares it."""
    _, fact, anchor, _ = _FACTS[name]
    return TraceStep("assumption", {"fact": fact, "anchor": anchor}, 1.0)


_COUNT_RULES = {
    "fem": _count_fem,
    "exact_box_B": _count_exact_box_B,
    "family_fact": _count_family_fact,
}


def count_discrete(
    vcfg: StarWaveguideConfig, plan: CertificationPlan, nu: float, extra: Optional[dict] = None
) -> tuple[int, list[SpectralBound]]:
    """Number of certified discrete eigenvalues below the threshold, with the
    upper bounds that witness them.  A FEM count records its mesh, shift, inertia
    and Lanczos run in extra["fem_count"]: a count of 0 has no bound to carry them.
    A family_fact count is 1, witnessed by the fact of _FACTS that binds."""
    return _COUNT_RULES[plan.count_strategy](vcfg, plan, nu, {} if extra is None else extra)


# -- lower-bound (center) pipelines ----------------------------------------
#
# Each lower rule takes (vcfg, k) and returns lower bounds for the k lowest
# eigenvalues of the mixed-condition center operator, or raises Unbound when
# it does not describe the center.


def _box(vcfg: StarWaveguideConfig, rule: str) -> tuple[list, list, Optional[str]]:
    """The center's geom.axis_box, read once per config; a center that is no
    axis-aligned rectangle or box is Unbound, named by the rule."""
    if vcfg.axis_box is None:
        raise Unbound(f"{rule} needs an axis-aligned rectangle or box center")
    return vcfg.axis_box


def _lower_box(vcfg: StarWaveguideConfig, k: int) -> list[SpectralBound]:
    """Separable box with the center's dims and interval condition pairs."""
    dims, bcs, relaxed = _box(vcfg, "box")
    eigs, then = exact.box_eigs(tuple(dims), tuple(bcs), k), relaxed and ("neumann-relaxation", {"detail": relaxed})
    return bnd.bounds_from_eiglist(DN_CENTER_OP, eigs, Direction.LOWER, "box-eig", {"dims": dims, "bcs": bcs}, then)


def _lower_neumann_equilateral(vcfg: StarWaveguideConfig, k: int) -> list[SpectralBound]:
    c = vcfg.center
    sides = [] if vcfg.is_3d else [c.edge_length(i) for i in range(c.n_edges)]
    side = max(sides, default=0.0)
    if len(sides) != 3 or BC.DIRICHLET in c.edge_tags or side - min(sides) > EQUILATERAL_RTOL * side:
        raise Unbound("neumann_equilateral needs an all-Neumann equilateral triangle center")
    eigs = exact.equilateral_eigs(side, "neumann", k)
    return bnd.bounds_from_eiglist(
        DN_CENTER_OP, eigs, Direction.LOWER, "equilateral-eig",
        {"side": side, "bc": "neumann"},
    )


def _family_alpha(vcfg: StarWaveguideConfig, family: str, rule: str) -> float:
    """The alpha of geom.family_alpha, bound once per config; a center that
    is the family's polygon at no alpha is Unbound, named by the rule."""
    alpha = vcfg.family_alpha(family)
    if alpha is None:
        raise Unbound(f"{rule} needs a {family} center: this one is the family's polygon at no alpha")
    return alpha


@functools.cache
def _pi6_embedding() -> SpectralBound:
    """Second eigenvalue of the even half at alpha = pi/6, which the Dirichlet
    equilateral triangle of side 2 sqrt(3) embeds: its second
    symmetry-admissible mode is the fourth of the full triangle.  No alpha
    enters, so it is built once and every verdict shares it."""
    side = 2 * math.sqrt(3)
    base = bnd.bounds_from_eiglist(
        "equilateral-embed", exact.equilateral_eigs(side, "dirichlet", 4), Direction.LOWER,
        "equilateral-eig", {"side": side, "bc": "dirichlet"},
    )[3]
    step = TraceStep("symmetry-restriction", {"admissible_rank": 2, "full_rank": 4}, base.value)
    return base._replace(operator="half-even-pi6", index=2, trace=base.trace + (step,))


_EVEN_FLOOR = bnd.lower_bound("half-even", 1, 0.0, "trivial-floor", {})  # no alpha enters: every verdict shares it


def _lower_broken_chain(vcfg: StarWaveguideConfig, k: int) -> list[SpectralBound]:
    """Reflection split of the bent-guide center into a Dirichlet-hypotenuse
    and a Neumann-hypotenuse right triangle, floored analytically."""
    alpha = _family_alpha(vcfg, "bent-guide", "broken_chain")
    f_d = exact.right_triangle_dn_lower_bound(alpha)
    odd = [bnd.lower_bound("half-odd", 1, f_d, "right-triangle-floor", {"alpha": alpha}, tol=1e-13 * f_d)]
    # even half: second eigenvalue via the equilateral embedding at pi/6 and
    # the anisotropic stretch along the wall leg from the reference triangle
    # to the target; the factor min((tan a / tan(pi/6))^2, 1) of the
    # coefficients (c, 1) covers both directions.  The first eigenvalue is
    # only floored by 0.
    c = (1.0 / math.tan(alpha)) / math.sqrt(3)
    even = [_EVEN_FLOOR, *bnd.scale_bound([_pi6_embedding()], (c, 1.0), "half-even")]
    return bnd.direct_sum_bounds([odd, even], DN_CENTER_OP, k)


def _lower_y_chain(vcfg: StarWaveguideConfig, k: int) -> list[SpectralBound]:
    """Neumann triangle enclosure of the Y-junction center plus contraction
    to an equilateral triangle."""
    alpha = _family_alpha(vcfg, "Y-junction", "y_chain")
    if alpha <= math.pi / 3:
        l, h = exact.y_alpha_enclosure_triangle(alpha) if alpha < math.pi / 3 else (1.0, math.sqrt(3) / 2)
        side_eq = 2 * h / math.sqrt(3)
        coeffs = (l / (2 * h / math.sqrt(3)), 1.0)  # stretch along the base
        name = f"isosceles(l={l:.6g},h={h:.6g})"
    else:
        h = 0.5 * math.tan(alpha)
        l = 1.0
        side_eq = 1.0
        coeffs = (1.0, h / (math.sqrt(3) / 2))  # stretch along the height
        name = f"isosceles(l=1,h={h:.6g})"
    eq = bnd.bounds_from_eiglist(
        "equilateral-neumann",
        exact.equilateral_eigs(side_eq, "neumann", k),
        Direction.LOWER,
        "equilateral-eig",
        {"side": side_eq, "bc": "neumann"},
    )
    on_m = bnd.scale_bound(eq, coeffs, "enclosure-neumann")
    y0 = vcfg.center.vertices[0][1]  # the isosceles enclosure stands on the bottom cut
    enclosure = Polygon(((-l / 2, y0), (l / 2, y0), (0.0, y0 + h)), (BC.DIRICHLET,) * 3, (EdgeRole.WALL,) * 3)
    return bnd.neumann_enclosure_bounds(DN_CENTER_OP, vcfg.center, enclosure, on_m, enclosure_name=name)


def _lower_sector(vcfg: StarWaveguideConfig, k: int) -> list[SpectralBound]:
    """Analytic lower bounds for the circular-sector center spectrum from the
    Bessel-zero inequalities; k = 2 is what certification needs.  They bound
    every polygon inscribed in the sector with Dirichlet on its arc side.

    The sector's eigenvalues are j_{s,k'}^2 with order s = pi n / alpha,
    n >= 0 and k' >= 1; the fundamental is (n, k') = (0, 1), and every other
    mode has n >= 1 or k' >= 2.  bessel_zero_lower_bound(s, k') grows with s
    and with k' (both of its branches do, and the second only joins the max
    as s passes 1/2), so each such zero exceeds the floor of (n=1, k'=1) or
    of (n=0, k'=2), and the smaller of those two squares bounds lambda_2."""
    alpha = _family_alpha(vcfg, "sector", "sector")
    out = [bnd.lower_bound(DN_CENTER_OP, 1, 0.0, "trivial-floor", {})]
    if k >= 2:
        cand = [
            ("n=1,k=1", exact.bessel_zero_lower_bound(math.pi / alpha, 1)),
            ("n=0,k=2", exact.bessel_zero_lower_bound(0.0, 2)),
        ]
        label, z = min(cand, key=lambda t: t[1])
        v = z * z
        out.append(
            bnd.lower_bound(
                DN_CENTER_OP, 2, v, "sector-bessel-floor",
                {"alpha": alpha, "candidate": label, "zero_lower_bound": z},
                tol=1e-13 * v,
            )
        )
    return out[:k]


_LOWER_RULES = {
    "box": _lower_box,
    "neumann_equilateral": _lower_neumann_equilateral,
    "broken_chain": _lower_broken_chain,
    "y_chain": _lower_y_chain,
    "sector": _lower_sector,
}


def dn_lower_bounds(vcfg: StarWaveguideConfig, plan: CertificationPlan, upto: int) -> list[SpectralBound]:
    rule = _first_binding_rule(vcfg) if plan.lower_strategy == "auto" else plan.lower_strategy
    return _LOWER_RULES[rule](vcfg, upto)


def _first_binding_rule(vcfg: StarWaveguideConfig) -> str:
    """The first rule of _LOWER_RULES that describes the center."""
    for name, rule in _LOWER_RULES.items():
        try:
            rule(vcfg, 1)
        except Unbound:
            continue
        return name
    raise Unbound(f"auto: no lower rule describes this center (tried {', '.join(_LOWER_RULES)})")


# -- verdict assembly -------------------------------------------------------


def _rigor(all_bounds: list[SpectralBound]) -> str:
    rigor = "analytic" if all_bounds else "none"
    for b in all_bounds:
        for step in b.trace:
            if step.rule == "assumption":
                return "assumed"
            if step.rule == "fem-upper":
                rigor = "numerically_assisted"
    return rigor


def _inconclusive(name: str, nu: float, reason: str, extra: dict, uppers=(), lowers=()) -> Verdict:
    used = list(uppers) + list(lowers)
    return Verdict(
        name=name, certified=False, n_discrete=None, rigor=_rigor(used), nu=nu,
        margins={}, reason=reason, budget=_budget(nu, used),
        lower_bounds=tuple(lowers), upper_bounds=tuple(uppers), extra=extra,
    )


def _no_finer_rung(v: Verdict, nu: float) -> Optional[str]:
    """Why no finer level can certify when v does not, or None if one might.

    The center lower bound does not depend on the mesh.  If it puts
    l_{n+1} >= nu, then mu_{n+1} >= nu, Dirichlet-Neumann bracketing gives
    n_true <= n, and the count gives n <= n_true, so n_true = n.  A finer level
    counts some n' <= n_true: with n' < n_true it needs l_{n'+1} > nu, but
    l_{n'+1} <= mu_{n'+1} < nu; with n' = n it needs l_{n+1} - nu > budget,
    and every budget is at least BUDGET_FLOOR_REL * nu.  So once
    0 <= l_{n+1} - nu <= BUDGET_FLOOR_REL * nu, climbing cannot certify."""
    gap = v.margins.get("dn_gap")  # present only with a lower bound for index n + 1
    floor = BUDGET_FLOOR_REL * nu
    if gap is None or not 0 <= gap <= floor:
        return None
    n = _n_below(v.upper_bounds, nu)
    return (
        f"center lower bound {v.lower_bounds[n].value:.6g} for eigenvalue {n + 1} is within the budget "
        f"floor {floor:.6g} of threshold {nu:.6g}, with n = {n}: no finer mesh can certify"
    )


def _rung_record(plan: CertificationPlan, levels: int, reason: str) -> dict:
    return {"length": plan.truncation_length, "h0": FEM_H0, "levels": levels, "reason": reason}


def certify(vcfg: StarWaveguideConfig, plan: CertificationPlan, name: str = "") -> Verdict:
    """The verdict on the first refinement level 1, ..., plan.fem_levels of
    the FEM count that certifies, or else on the finest, with the skipped
    levels and their reasons in extra.  The upper bounds hold on every level
    and the center lower bound does not depend on the mesh, so any level
    that closes gives a sound certificate.  A level whose center lower bound
    rules out every finer one (see _no_finer_rung) ends the climb with its
    own verdict, and the levels left unsolved go into extra with that
    reason.  Only a FEM count climbs: the other counts solve no mesh.  A rule
    that does not describe the center is Inconclusive on level 1.

    The lower strategy "auto" is resolved once, before the climb, to the
    first rule of _LOWER_RULES that describes the center.  Each rule binds
    only a center for which its lower bounds are proved, so any rule that
    binds is a proof, and taking the first is a cost policy, like the level
    climb.  A center no rule describes is Inconclusive and solves no mesh."""
    nu = threshold(vcfg)
    try:
        if plan.lower_strategy == "auto":
            plan = replace(plan, lower_strategy=_first_binding_rule(vcfg))
        if plan.count_strategy != "fem":
            return _verdict(vcfg, plan, name, nu)
        skipped, unsolved = [], []
        for levels in range(1, plan.fem_levels):
            try:
                v = _verdict(vcfg, replace(plan, fem_levels=levels), name, nu)
            except fem.SolverFailure as e:  # a finer level may still work
                reason = str(e)
            else:
                if v.certified:
                    break
                stop = _no_finer_rung(v, nu)
                if stop:
                    unsolved = [_rung_record(plan, finer, stop) for finer in range(levels + 1, plan.fem_levels + 1)]
                    break
                reason = v.reason
            skipped.append(_rung_record(plan, levels, reason))
        else:
            v = _verdict(vcfg, plan, name, nu)
    except Unbound as e:
        return _inconclusive(name, nu, str(e), {})
    rungs = {"skipped_rungs": skipped, "unsolved_rungs": unsolved}
    return v._replace(extra={**v.extra, **{k: r for k, r in rungs.items() if r}})


def _verdict(vcfg: StarWaveguideConfig, plan: CertificationPlan, name: str, nu: float) -> Verdict:
    """The verdict on the plan's mesh; raises Unbound for a rule that does
    not describe the center."""
    if plan.lower_strategy == "crossing_symmetry":
        return _certify_crossing_symmetry(vcfg, plan, name, nu)
    extra: dict = {}
    n, uppers = count_discrete(vcfg, plan, nu, extra)
    lowers = dn_lower_bounds(vcfg, plan, n + 1)
    if len(lowers) <= n:
        reason = f"lower-bound pipeline provides only {len(lowers)} values, need {n + 1}"
        return _inconclusive(name, nu, reason, extra, uppers, lowers)
    used = [*uppers, *lowers]
    budget = _budget(nu, used)
    dn_margin = lowers[n].value - nu
    margins = {"dn_gap": dn_margin}
    count_margin = None
    real_uppers = []
    for b in uppers:
        if b.trace[-1].rule != "assumption" and b.trace[0].rule != "assumption":
            real_uppers.append(b)
    if n >= 1 and len(real_uppers) >= n:
        count_margin = nu - real_uppers[n - 1].value
        margins["count_gap"] = count_margin
    # bracketing consistency: each center lower bound must not exceed the
    # matching waveguide upper bound
    consistent = True
    for lower, upper in zip(lowers[:n], real_uppers):
        if not lower.value <= upper.value + budget:
            consistent = False
            break
    certified = dn_margin > budget and (count_margin is None or count_margin > budget) and consistent
    if certified:
        reason = f"{n} eigenvalue(s) below threshold; center lower bound exceeds threshold by {dn_margin:.6g}"
    elif not consistent:
        reason = "lower/upper bracketing inconsistent"
    elif dn_margin <= budget:
        reason = f"center lower bound margin {dn_margin:.6g} within tolerance budget {budget:.6g}"
    else:
        reason = f"count margin {count_margin:.6g} within tolerance budget {budget:.6g}"
    return Verdict(name, certified, n if certified else None, _rigor(used), nu, margins, reason, budget,
                   tuple(lowers), tuple(uppers), extra)


def _certify_crossing_symmetry(vcfg: StarWaveguideConfig, plan: CertificationPlan, name: str, nu: float) -> Verdict:
    """Crossing-strips certification through the mirror-parity decomposition.

    Each parity (j, k) of the quarter domain splits, after inserting Neumann
    lines at the quarter-square boundary, into a compact square block and two
    half-strips; only the square block can contribute discrete eigenvalues
    below the threshold.  The verdict requires the per-parity counts to sum
    to the waveguide count and each parity to keep a block strictly above
    the threshold.

    The bookkeeping describes the crossing preset only, whose center and
    branches are mirror-symmetric by construction, so a config with a
    different center or branches is Inconclusive."""
    if not _is_config(vcfg, "crossing"):
        raise Unbound("crossing_symmetry applies only to the crossing of two unit strips")
    extra: dict = {}
    n_total, uppers = count_discrete(vcfg, plan, nu, extra)
    budget = _budget(nu, uppers)
    parities = {}
    sum_njk = 0
    ok = True
    for j in (0, 1):
        for k in (0, 1):
            # each axis pair: the parity tag on the mirror line, Neumann at the cut line
            sq = exact.box_eigs((0.5, 0.5), ("DN" if j else "NN", "DN" if k else "NN"), 2)
            # half-strip floors: transverse interval of width 1/2 between the
            # symmetry axis (parity tag) and the outer Dirichlet wall
            strip_x = exact.interval_eigs(0.5, "DN" if k == 0 else "DD", 1)[0]
            strip_y = exact.interval_eigs(0.5, "DN" if j == 0 else "DD", 1)[0]
            njk = sum(1 for v in sq.values if v < nu - budget)
            # the first block above the threshold: the square's next value, else a strip
            hosts = [("square-block", v) for v in sq.values[njk:njk + 1]]
            hosts += [("strip-x", strip_x), ("strip-y", strip_y)]
            host = next((h for h in hosts if h[1] > nu + budget), None)
            floors_ok = all(v >= nu - budget for v in (strip_x, strip_y))
            parities[f"{j}{k}"] = {
                "square_eigs": list(sq.values),
                "strip_floors": [strip_x, strip_y],
                "n_jk": njk,
                "host": host,
            }
            sum_njk += njk
            ok = ok and host is not None and floors_ok
    certified = ok and sum_njk == n_total
    reason = (
        "per-parity decomposition accounts for every discrete eigenvalue"
        if certified
        else "parity decomposition inconsistent with the waveguide count"
    )
    return Verdict(
        name=name,
        certified=certified,
        n_discrete=n_total if certified else None,
        rigor=_rigor(list(uppers)),
        nu=nu,
        margins={
            f"parity_{key}_host_gap": (rec["host"][1] - nu) if rec["host"] else None
            for key, rec in parities.items()
        },
        reason=reason,
        budget=budget,
        lower_bounds=(),
        upper_bounds=tuple(uppers),
        extra={**extra, "parities": parities, "sum_njk": sum_njk},
    )


# -- geometry builders for the catalog examples ----------------------------


_UNIT_INTERVAL = CrossSection.interval(1.0)


def _unit_star(name: str, poly: Polygon) -> StarWaveguideConfig:
    """The config of poly with a unit-width branch on every cut edge, in edge
    order."""
    cuts = (i for i, role in enumerate(poly.edge_roles) if role is EdgeRole.CUT)
    return StarWaveguideConfig(name, poly, tuple(Branch(i, _UNIT_INTERVAL) for i in cuts))


def _rect_two_eigs(a: float, b: float) -> StarWaveguideConfig:
    """Rectangle center of width a and height b > 2 with two unit-width
    branches on the side of length b."""
    if b <= 2:
        raise geom.InvalidGeometry("side must exceed twice the branch width")
    m = (b - 2.0) / 3.0  # wall margins between/around the two cuts
    y1, y2 = m, m + 1.0
    y3, y4 = 2 * m + 1.0, 2 * m + 2.0
    verts = [
        (0.0, 0.0), (a, 0.0),
        (a, y1), (a, y2), (a, y3), (a, y4),
        (a, b), (0.0, b),
    ]
    tags = [BC.DIRICHLET, BC.DIRICHLET, BC.NEUMANN, BC.DIRICHLET, BC.NEUMANN, BC.DIRICHLET, BC.DIRICHLET, BC.DIRICHLET]
    roles = [EdgeRole.WALL, EdgeRole.WALL, EdgeRole.CUT, EdgeRole.WALL, EdgeRole.CUT, EdgeRole.WALL, EdgeRole.WALL, EdgeRole.WALL]
    return _unit_star(f"rect_{a:.6g}x{b:.6g}", Polygon(tuple(verts), tuple(tags), tuple(roles)))


def _cube_config(name: str, duct: CrossSection) -> StarWaveguideConfig:
    """Unit cube with Dirichlet low faces and a duct of the given
    cross-section on each (Neumann) high face."""
    box = geom.Box3(dims=(1.0, 1.0, 1.0), axis_bcs=((BC.DIRICHLET, BC.NEUMANN),) * 3)
    return StarWaveguideConfig(name=name, center=box, branches=tuple(Branch(2 * ax + 1, duct) for ax in range(3)))


# -- presets ----------------------------------------------------------------


# name -> (config builder, shape keywords with their defaults, plan fields
# that differ from the CertificationPlan defaults).  A None default marks a
# required shape keyword.  rect_two_eigs, y_alpha and broken name their
# lower rule: the region and the sweeps run them by the thousand, and auto
# would probe the rules before theirs on every verdict.  Every rule reads the center's shape, alpha
# included, from the config.  preset(name)[0] is the one way to get a catalog
# config.  The builders look up geom's family polygons by their module-level
# names, so a wrapper or monkeypatch on those sees every call.
_PRESETS = {
    "t_junction": (lambda: _unit_star("t_junction", Polygon(
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        edge_tags=(BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.NEUMANN),
        edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.CUT),
    )), {}, {}),
    "y_junction": (lambda: _unit_star("y_junction", geom.y_center_polygon(math.pi / 3)), {}, {}),
    "crossing": (lambda: _unit_star("crossing", Polygon(
        vertices=((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)),
        edge_tags=(BC.NEUMANN,) * 4,
        edge_roles=(EdgeRole.CUT,) * 4,
    )), {}, {}),
    "crossing_symmetric": (lambda: _PRESETS["crossing"][0](), {}, {"lower_strategy": "crossing_symmetry"}),
    "rounded_corner": (lambda alpha: _unit_star(f"rounded_corner_{alpha:.6g}", geom.rounded_corner_polygon(alpha, 24)),
                       {"alpha": math.pi / 2}, {}),
    "rect_two_eigs": (_rect_two_eigs, {"a": 2.381, "b": 2.041}, {
        "count_strategy": "exact_box_B", "lower_strategy": "box"}),
    "cube_square": (lambda: _cube_config("cube_square", CrossSection.rectangle(1.0, 1.0)), {}, {"count_strategy": "family_fact"}),
    "cube_disk": (lambda: _cube_config("cube_disk", CrossSection.disk(0.5)), {}, {"count_strategy": "family_fact"}),
    "y_alpha": (lambda alpha: _unit_star(f"y_alpha_{alpha:.6g}", geom.y_center_polygon(alpha)), {"alpha": None}, {
        "lower_strategy": "y_chain"}),
    "broken": (lambda alpha: _unit_star(f"broken_{alpha:.6g}", geom.broken_polygon(alpha)), {"alpha": None}, {
        "lower_strategy": "broken_chain", "truncation_length": 4.0}),
}


def make_plan(kw: dict, base=None, shape=frozenset(), where="a configuration file") -> CertificationPlan:
    """The CertificationPlan defaults (a configuration file's plan), the
    fields of base over them and the plan fields of kw over those; a key of
    kw that is neither a plan field nor in shape is refused."""
    unknown = kw.keys() - PLAN_FIELDS - shape
    if unknown:
        raise ValueError(f"{where} takes no parameter {', '.join(sorted(unknown))}")
    return CertificationPlan(**{**(base or {}), **{k: v for k, v in kw.items() if k in PLAN_FIELDS}})


def _shape(name: str, kw: dict) -> dict:
    """The shape keywords of a preset, kw's values over their defaults; each must be a number."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    shape = {k: kw.get(k, v) for k, v in _PRESETS[name][1].items()}
    for k, v in shape.items():
        if not _is_number(v):
            raise ValueError(f"preset {name!r} needs {k}" if v is None else f"{k} = {v!r}: must be a number")
    return shape


def _plan(name: str, kw: dict) -> CertificationPlan:
    """The checked plan of a preset, which no shape keyword changes: a sweep makes it once."""
    return make_plan(kw, _PRESETS[name][2], _PRESETS[name][1].keys(), f"preset {name!r}")


def preset(name: str, /, **kw) -> tuple[StarWaveguideConfig, CertificationPlan]:
    """Config and plan of a catalog example.  A keyword is a
    CertificationPlan field or one of the preset's shape keywords, which are
    numbers and go to the config builder.  The plan is checked before the
    config is built."""
    shape, plan = _shape(name, kw), _plan(name, kw)
    return _PRESETS[name][0](**shape), plan


PRESET_NAMES = tuple(n for n, (_, shape, _) in _PRESETS.items() if None not in shape.values())


# -- sweeps and the parameter region ---------------------------------------


# the most points a sweep or the region grid takes, refused before allocating (README gives the cost)
MAX_GRID_POINTS = 1_000_000


@dataclass(slots=True)  # no per-row __dict__: a sweep holds one row per angle
class SweepRow:
    param: float
    nu: float
    certified: bool
    n: Optional[int]
    dn_margin: float
    reason: str


def _sweep(family: str, alphas) -> list[SweepRow]:
    """Per-angle verdicts from the analytic center bounds and the family_fact
    count: every angle of both families binds a fact of _FACTS, so a sweep
    solves no mesh.  Each angle is checked, built and validated as preset() does."""
    plan = _plan(family, {"count_strategy": "family_fact"})
    build = _PRESETS[family][0]
    rows = []
    for a in alphas:
        vcfg = build(**_shape(family, {"alpha": a}))
        v = certify(vcfg, plan, name=vcfg.name)
        rows.append(SweepRow(a, v.nu, v.certified, v.n_discrete, v.margins["dn_gap"], v.reason))
    return rows


def sweep_broken(alphas) -> list[SweepRow]:
    """Bent-guide sweep."""
    return _sweep("broken", alphas)


def sweep_y_alpha(alphas) -> list[SweepRow]:
    """Y-junction family sweep."""
    return _sweep("y_alpha", alphas)


def first_certified(rows: list[SweepRow]) -> Optional[float]:
    for r in rows:
        if r.certified:
            return r.param
    return None


def y_alpha_certified_interval() -> tuple[float, float]:
    """Endpoints of the opening-angle interval on which the Y-junction chain
    bound exceeds the threshold, found by root solving each analytic branch
    of the second-eigenvalue formula against pi^2."""
    from scipy.optimize import brentq

    f = lambda a: exact.y_alpha_threshold(a) - PI2
    a1 = brentq(f, 0.5, math.pi / 3, xtol=1e-14, rtol=1e-15)
    a2 = brentq(f, math.pi / 3, 1.5, xtol=1e-14, rtol=1e-15)
    return float(a1), float(a2)


def region_inside(x, y):
    """Membership in the two-eigenvalue parameter region, written in the
    reciprocal coordinates x = 1/a, y = 1/b (all inequalities strict): a
    bool for floats, elementwise for NumPy arrays."""
    q1 = 4 * x * x + y * y  # lambda_2 of the Dirichlet box below threshold
    q2 = 25 * x * x / 4 + y * y  # lambda_3 of the relaxed box above threshold
    q3 = x * x / 4 + 4 * y * y  # second transverse mode above threshold
    return (x > 0) & (0 < y) & (y < 0.5) & (q1 < 1) & (q2 > 1) & (q3 > 1)


def region_rows(nx: int, ny: int) -> list[tuple[float, float, bool, bool]]:
    """Grid over (x, y) in (0,1) x (0,0.5): the inside flags of one region_inside call over the
    grid, and the verdict of the full certification at each inside (a, b), whose point is
    checked, built and validated as preset() does."""
    if max(nx, 0) * max(ny, 0) > MAX_GRID_POINTS:
        raise ValueError(f"a region grid of {nx} x {ny} points exceeds the cap of {MAX_GRID_POINTS} grid points")
    xs = [i / (nx + 1) for i in range(1, nx + 1)]
    ys = [0.5 * j / (ny + 1) for j in range(1, ny + 1)]
    inside_grid = region_inside(np.array(xs)[:, None], np.array(ys)).tolist()
    plan, build = _plan("rect_two_eigs", {}), _PRESETS["rect_two_eigs"][0]

    def certified(x: float, y: float) -> bool:
        a, b = 1.0 / x, 1.0 / y
        vcfg = build(**_shape("rect_two_eigs", {"a": a, "b": b}))
        v = certify(vcfg, plan, name=f"rect({a:.4g},{b:.4g})")
        return v.certified and v.n_discrete == 2

    return [(x, y, inside, inside and certified(x, y)) for x, row in zip(xs, inside_grid) for y, inside in zip(ys, row)]
