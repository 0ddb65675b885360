"""Certification layer: thresholds, counting, verdicts, sweeps, region."""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from starspec import bounds as bnd
from starspec import certify, cli, exact, fem, geom
from starspec.certify import (
    CertificationPlan,
    Verdict,
    certify as run_certify,
    count_discrete,
    dn_lower_bounds,
    preset,
    region_inside,
    region_rows,
    threshold,
    y_alpha_certified_interval,
)
from starspec.exact import PI2, bessel_zero, box_eigs

ROOT = Path(__file__).resolve().parents[1]


def _stub_count(vcfg, plan, nu, extra):
    """One eigenvalue, witnessed by an assumption: keeps the FEM count out of
    checks of everything after it."""
    step = bnd.TraceStep("assumption", {"fact": "golden", "anchor": None}, 1.0)
    return 1, [bnd.SpectralBound(certify.WAVEGUIDE_OP, 1, nu, bnd.Direction.UPPER, (step,), 0.0)]


@pytest.fixture
def stub_count(monkeypatch):
    """Registers _stub_count as the count strategy "stub"."""
    monkeypatch.setitem(certify._COUNT_RULES, "stub", _stub_count)


def _spy_calls(monkeypatch, module, name: str) -> list:
    """The arguments of every call of module.name from here on."""
    calls, f = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


def _plans_made(monkeypatch) -> list:
    """Every CertificationPlan checked from here on."""
    made, post_init = [], CertificationPlan.__post_init__
    monkeypatch.setattr(CertificationPlan, "__post_init__", lambda plan: made.append(plan) or post_init(plan))
    return made


def _moved(vcfg, i: int, j: int):
    """vcfg with coordinate j of center vertex i moved up by one ulp."""
    verts = [list(v) for v in vcfg.center.vertices]
    verts[i][j] = math.nextafter(verts[i][j], math.inf)
    center = dataclasses.replace(vcfg.center, vertices=tuple(map(tuple, verts)))
    return dataclasses.replace(vcfg, center=center)


class TestThreshold:
    def test_examples(self):
        assert threshold(certify.preset("t_junction")[0]) == pytest.approx(PI2, rel=1e-12)
        assert threshold(certify.preset("rect_two_eigs", a=2.381, b=2.041)[0]) == pytest.approx(PI2, rel=1e-12)
        assert threshold(certify.preset("cube_square")[0]) == pytest.approx(2 * PI2, rel=1e-12)
        assert threshold(certify.preset("cube_disk")[0]) == pytest.approx(
            4 * bessel_zero(0.0, 1) ** 2, rel=1e-12
        )

    def test_minimum_over_branches(self):
        # a wider branch lowers the threshold: the bent guide with unit-width
        # branches keeps threshold pi^2 regardless of the angle
        for a in (0.5, 1.0, 1.4):
            assert threshold(preset("broken", alpha=a)[0]) == pytest.approx(PI2, rel=1e-12)


class TestCounting:
    def test_exact_box_count_is_two(self):
        vcfg, plan = preset("rect_two_eigs")
        n, ub = count_discrete(vcfg, plan, PI2)
        assert n == len(ub) == 2
        assert ub[1].value < PI2 < box_eigs((2.381, 2.041), ("DD", "DD"), 3).values[2]

    @pytest.mark.parametrize("a, b", [(2.381, 2.041), (3.0, 2.5), (6.3, 2.2), (1.2, 2.1), (0.9, 2.5), (40.0, 2.9)])
    def test_exact_box_lists_every_value_below_the_cut(self, a, b):
        vcfg, plan = preset("rect_two_eigs", a=a, b=b)
        cut = PI2 - certify.BUDGET_FLOOR_REL * PI2
        n, ub = count_discrete(vcfg, plan, PI2)
        want = [v for v in box_eigs((a, b), ("DD", "DD"), 200).values if v < cut]
        assert n == len(ub) == len(want)
        assert [u.value for u in ub] == want

    def test_the_fem_count_is_not_capped(self):
        # the former eigensolve asked for k_upper = 4 values and so counted 4 here
        vcfg, plan = preset("broken", alpha=0.06, truncation_length=4.0, fem_levels=1)
        extra = {}
        n, ub = count_discrete(vcfg, plan, PI2, extra)
        assert n == len(ub) == extra["fem_count"]["inertia"] == 6
        assert all(u.value < PI2 for u in ub)

    def test_family_fact_records_assumption(self):
        vcfg, plan = preset("broken", alpha=1.0, count_strategy="family_fact")
        n, ub = count_discrete(vcfg, plan, PI2)
        assert n == len(ub) == 1
        _, fact, anchor, _ = certify._FACTS["bent_guide"]
        assert ub[0].trace == (bnd.TraceStep("assumption", {"fact": fact, "anchor": anchor}, 1.0),)

    def test_unknown_strategies_raise(self):
        with pytest.raises(ValueError, match="^count_strategy = 'nope' is not one of "):
            count_discrete(None, CertificationPlan("nope", "box"), PI2)
        with pytest.raises(ValueError, match="^lower_strategy = 'nope' is not one of "):
            dn_lower_bounds(None, CertificationPlan("fem", "nope"), 2)
        with pytest.raises(ValueError, match="^unknown preset 'nope'$"):
            preset("nope")


class TestVerdicts:
    def test_rect_preset_certified_analytically(self):
        vcfg, plan = preset("rect_two_eigs")
        v = run_certify(vcfg, plan, name="rect")
        assert v.certified
        assert v.n_discrete == 2
        assert v.rigor == "analytic"
        assert v.margins["dn_gap"] > v.budget
        assert v.margins["count_gap"] > v.budget

    def test_cube_presets_certified(self):
        for name, gap in (("cube_square", 3 * PI2 / 4), ("cube_disk", None)):
            vcfg, plan = preset(name)
            v = run_certify(vcfg, plan, name=name)
            assert v.certified
            assert v.n_discrete == 1
            assert v.rigor == "assumed"  # counting is a family fact
            if gap is not None:
                assert v.margins["dn_gap"] == pytest.approx(gap, rel=1e-12)

    def test_broken_family_certifies_above_critical_angle(self):
        for alpha, want in ((1.0, True), (0.42, True), (0.3, False)):
            vcfg, plan = preset("broken", alpha=alpha, count_strategy="family_fact")
            v = run_certify(vcfg, plan, name=vcfg.name)
            assert v.certified is want
            if not want:
                assert v.margins["dn_gap"] <= v.budget

    def test_broken_margin_matches_closed_form(self):
        alpha = 1.0
        vcfg, plan = preset("broken", alpha=alpha, count_strategy="family_fact")
        v = run_certify(vcfg, plan, name="b")
        odd_floor = PI2 * (1 + math.tan(alpha) ** 2 / 4)
        even_bound = 16 * PI2 / 9 * min(3 * math.tan(alpha) ** 2, 1.0)
        assert v.lower_bounds[1].value == pytest.approx(min(odd_floor, even_bound), rel=1e-12)

    def test_y_family_certifies_on_interval(self):
        for alpha, want in ((1.0, True), (0.8, False), (1.3, False)):
            vcfg, plan = preset("y_alpha", alpha=alpha, count_strategy="family_fact")
            v = run_certify(vcfg, plan, name=vcfg.name)
            assert v.certified is want

    def test_missing_lower_bounds_is_inconclusive(self, monkeypatch):
        vcfg, plan = preset("rect_two_eigs")
        monkeypatch.setattr(certify, "dn_lower_bounds", lambda *a, **k: [])
        v = run_certify(vcfg, plan, name="r")
        assert not v.certified
        assert "need" in v.reason

    def test_verdict_serialization(self):
        vcfg, plan = preset("rect_two_eigs")
        d = run_certify(vcfg, plan, name="rect").to_dict()
        assert d["verdict"] == "CertifiedNoResonance"
        assert d["n"] == 2
        for key in ("nu", "rigor", "margins", "budget", "trace"):
            assert key in d
        assert d["trace"][0]["direction"] == "lower"

    def test_certificate_records_cannot_be_changed(self):
        vcfg, plan = preset("broken", alpha=1.0, count_strategy="family_fact")
        v = run_certify(vcfg, plan, name=vcfg.name)
        bound = v.lower_bounds[1]
        records = [(bound.trace[0], "value"), (bound, "value"), (bound, "trace"), (v, "certified"), (v, "extra"),
                   (vcfg, "cfg"), (vcfg, "center")]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize("target", [*certify.PRESET_NAMES, *sorted(f"configs/{p.name}" for p in (ROOT / "configs").glob("*.json"))])
    def test_traces_replay_to_reported_values(self, target):
        # each step recomputes from the params it records, so a rule that records
        # params other than the ones its value came from fails here; a family fact's
        # witness computes nothing (its shared assumption step records 1.0, the bound nu)
        vcfg, plan = (geom.load_config(ROOT / target), certify.make_plan({})) if target.endswith(".json") else preset(target)
        v = run_certify(vcfg, plan, name=target)
        for b in v.lower_bounds + v.upper_bounds:
            if b.trace[0].rule != "assumption":
                assert bnd.replay_bound(b) == b.value, (b.operator, b.index)


@pytest.mark.usefixtures("stub_count")
class TestReports:
    # sha256 of the reports below, without versions; every lower rule except
    # sector appears in them, and every count is an assumption, so every
    # rigor is "assumed"
    GOLDEN = "d208ca043ce20131d74ea6e288e989dbe83650f5d5bce2af48470303357af1b8"

    def test_report_bytes_are_pinned(self):
        texts = []
        for name in ("t_junction", "y_junction", "crossing", "crossing_symmetric", "rect_two_eigs", "cube_square"):
            vcfg, plan = preset(name)
            if plan.count_strategy == "fem":
                # the stub count keeps the FEM count out of this fast check
                plan = dataclasses.replace(plan, count_strategy="stub")
            texts.append(cli.dumps_report(run_certify(vcfg, plan, name=name).to_dict()))
        for family in ("broken", "y_alpha"):
            vcfg, plan = preset(family, alpha=1.0, count_strategy="stub")
            texts.append(cli.dumps_report(run_certify(vcfg, plan, name=vcfg.name).to_dict()))
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == self.GOLDEN

    def test_preset_names_and_strategies(self):
        assert certify.PRESET_NAMES == tuple(cli.REPRO_TARGETS)
        for name in certify._PRESETS:
            shape = {"alpha": 1.0} if name in ("broken", "y_alpha") else {}
            plan = preset(name, **shape)[1]
            assert plan.count_strategy in certify._COUNT_RULES
            assert plan.lower_strategy in {*certify._LOWER_RULES, "auto", "crossing_symmetry"}


class TestPresetOverrides:
    def test_overrides_reach_the_plan_and_alpha_only_the_shape(self):
        vcfg, plan = preset("t_junction", fem_levels=1)
        assert plan.fem_levels == 1
        assert plan.truncation_length == 2.0
        # alpha is a shape keyword of the family presets, never a plan field
        assert "alpha" not in certify.PLAN_FIELDS
        assert preset("broken", alpha=1.0)[0].center == geom.broken_polygon(1.0)
        assert preset("rounded_corner")[0].center == geom.rounded_corner_polygon(math.pi / 2, 24)
        with pytest.raises(ValueError, match="^preset 'y_junction' takes no parameter alpha$"):
            preset("y_junction", alpha=1.0)
        with pytest.raises(ValueError, match="^a configuration file takes no parameter alpha$"):
            certify.make_plan({"alpha": 1.0})
        with pytest.raises(ValueError, match="^preset 't_junction' takes no parameter extra$"):
            preset("t_junction", fem_levels=1, extra=2)

    @pytest.mark.parametrize("key", ["n", "justification", "anchor", "params"])
    def test_a_preset_takes_only_plan_fields_and_shape_keywords(self, key):
        with pytest.raises(ValueError, match=f"^preset 'cube_disk' takes no parameter {key}$"):
            preset("cube_disk", **{key: 1})
        with pytest.raises(ValueError, match=f"^a configuration file takes no parameter {key}$"):
            certify.make_plan({key: 1})

    @pytest.mark.parametrize(
        "kw, field",
        [({"fem_levels": 0}, "fem_levels"), ({"fem_levels": 1.5}, "fem_levels"), ({"fem_levels": True}, "fem_levels"),
         ({"truncation_length": -1}, "truncation_length"),
         ({"truncation_length": math.inf}, "truncation_length"),
         ({"count_strategy": "nope"}, "count_strategy"), ({"count_strategy": None}, "count_strategy"),
         ({"lower_strategy": "bogus"}, "lower_strategy"), ({"lower_strategy": 3}, "lower_strategy"),
         ({"lower_strategy": "fem_estimate"}, "lower_strategy")],
    )
    def test_a_bad_plan_fails_when_it_is_built(self, kw, field):
        with pytest.raises(ValueError, match=f"^{field} = "):
            CertificationPlan(**{"count_strategy": "fem", "lower_strategy": "box", **kw})
        plan = CertificationPlan("fem", "box")
        with pytest.raises(ValueError, match=f"^{field} = "):
            dataclasses.replace(plan, **kw)

    def test_a_preset_shape_keyword_is_a_number(self):
        for a in ("3", True, None, [3.0]):
            with pytest.raises(ValueError, match="^a = .*: must be a number$" if a is not None else "^preset 'rect_two_eigs' needs a$"):
                preset("rect_two_eigs", a=a)

    def test_shape_keywords_build_the_config(self):
        vcfg, plan = preset("rect_two_eigs", a=3.0, b=2.5)
        assert vcfg.name == "rect_3x2.5"
        assert run_certify(vcfg, plan).lower_bounds[0].trace[0].params["dims"] == [3.0, 2.5]

    def test_bad_keywords_raise(self):
        with pytest.raises(ValueError, match="^preset 't_junction' takes no parameter bogus$"):
            preset("t_junction", bogus=1)
        with pytest.raises(ValueError, match="^preset 'broken' needs alpha$"):
            preset("broken")


def _fact_plan(plan):
    """The plan with the stub count, which keeps FEM out of a fast check."""
    return dataclasses.replace(plan, count_strategy="stub") if plan.count_strategy == "fem" else plan


@pytest.mark.usefixtures("stub_count")
class TestShapeBinding:
    # config file -> the presets whose center it is, with their shape keywords
    CONFIG_PRESETS = {
        "broken_1.0": [("broken", {"alpha": 1.0})],
        "crossing": [("crossing", {}), ("crossing_symmetric", {})],
        "cube_disk": [("cube_disk", {})],
        "cube_square": [("cube_square", {})],
        "rect_two_eigs": [("rect_two_eigs", {})],
        "rounded_corner": [("rounded_corner", {})],
        "t_junction": [("t_junction", {})],
        "y_alpha_0.95": [("y_alpha", {"alpha": 0.95})],
        "y_junction": [("y_junction", {})],
    }

    def test_every_config_file_certifies_like_its_preset(self):
        # the straight strip is the one shipped config with no preset
        assert sorted(p.stem for p in Path("configs").glob("*.json")) == sorted([*self.CONFIG_PRESETS, "straight_strip"])
        for stem, presets in self.CONFIG_PRESETS.items():
            from_file = geom.load_config(f"configs/{stem}.json")
            for name, shape in presets:
                vcfg, plan = preset(name, **shape)
                plan = _fact_plan(plan)
                want = cli.dumps_report(run_certify(vcfg, plan, name=name).to_dict())
                assert cli.dumps_report(run_certify(from_file, plan, name=name).to_dict()) == want, name

    @pytest.mark.parametrize(
        "name, shape, overrides, rule",
        [
            ("broken", {"alpha": 1.0}, {"lower_strategy": "y_chain"}, "y_chain"),
            ("y_alpha", {"alpha": 1.0}, {"lower_strategy": "broken_chain"}, "broken_chain"),
            ("y_junction", {}, {"lower_strategy": "sector"}, "sector"),
            ("rounded_corner", {}, {"lower_strategy": "broken_chain"}, "broken_chain"),
            ("broken", {"alpha": 1.0}, {"lower_strategy": "sector"}, "sector"),
            ("y_junction", {}, {"lower_strategy": "box"}, "box"),
            ("t_junction", {}, {"lower_strategy": "neumann_equilateral"}, "neumann_equilateral"),
            ("broken", {"alpha": 1.0}, {"lower_strategy": "neumann_equilateral"}, "neumann_equilateral"),
            ("y_alpha", {"alpha": 1.0}, {"count_strategy": "exact_box_B"}, "exact_box_B"),
            ("cube_disk", {}, {"lower_strategy": "y_chain"}, "y_chain"),
            ("t_junction", {}, {"lower_strategy": "crossing_symmetry"}, "crossing_symmetry"),
        ],
    )
    def test_a_rule_that_does_not_describe_the_center_is_inconclusive(self, name, shape, overrides, rule):
        vcfg, plan = preset(name, **shape)
        plan = _fact_plan(dataclasses.replace(plan, **overrides))
        v = run_certify(vcfg, plan, name=name)
        assert not v.certified
        assert v.reason.startswith(rule)
        assert v.margins == {} and v.lower_bounds == ()

    def test_box_reads_the_center(self):
        assert certify._box(certify.preset("t_junction")[0].center, "box") == ([1.0, 1.0], ["NN", "DN"], None)
        assert certify._box(certify.preset("rect_two_eigs", a=3.0, b=2.5)[0].center, "box") == (
            [3.0, 2.5], ["DN", "DD"], "branch side relaxed to full Neumann")
        assert certify._box(certify.preset("cube_disk")[0].center, "box") == (
            [1.0, 1.0, 1.0], ["DN", "DN", "DN"], "cut patch relaxed to full face")

    def test_a_rectangle_verdict_reads_its_box_once(self, monkeypatch):
        vcfg, plan = preset("rect_two_eigs")
        read = _spy_calls(monkeypatch, geom, "axis_box")
        for _ in range(2):
            v = run_certify(vcfg, plan, name="rect")
            assert v.certified and v.n_discrete == 2
        assert read == [(vcfg.center,)]
        # the count and the lower rule share the one reading
        dims = {id(b.trace[0].params["dims"]) for b in v.lower_bounds + v.upper_bounds}
        assert dims == {id(vcfg.center.axis_box[0])}
        # a config with another center reads that center; one that shares the center reads nothing
        wider = dataclasses.replace(vcfg, center=preset("rect_two_eigs", a=3.0)[0].center)
        same = dataclasses.replace(vcfg)
        for other in (wider, same):
            run_certify(other, plan, name="rect")
        assert wider.center.axis_box[0] == [3.0, 2.041] and same.center.axis_box is vcfg.center.axis_box
        assert read == [(vcfg.center,), (wider.center,)]

    @pytest.mark.parametrize("rule", ["box", "exact_box_B"])
    def test_a_center_that_is_no_rectangle_is_unbound(self, rule):
        with pytest.raises(certify.Unbound, match=f"^{rule} needs an axis-aligned rectangle or box center$"):
            certify._box(preset("y_junction")[0].center, rule)

    def test_auto_probes_box_and_reads_a_non_rectangle_once(self, monkeypatch):
        geom.y_center_polygon.cache_clear()  # a center that has read nothing yet
        vcfg, plan = preset("y_junction")
        read = _spy_calls(monkeypatch, geom, "axis_box")
        unbound, box = [], certify._LOWER_RULES["box"]

        def probe(center, k):
            try:
                return box(center, k)
            except certify.Unbound as e:
                unbound.append(str(e))
                raise

        monkeypatch.setitem(certify._LOWER_RULES, "box", probe)
        v = run_certify(vcfg, _fact_plan(plan), name="y")
        assert v.lower_bounds[0].trace[0].rule == "equilateral-eig"
        assert certify._first_binding_rule(vcfg.center) == "neumann_equilateral"
        assert unbound == ["box needs an axis-aligned rectangle or box center"] * 2
        assert read == [(vcfg.center,)]


class TestSingleSolveCount:
    # coarse meshes keep each solve in milliseconds; the count rule is the same
    CHEAP = {"fem_levels": 1, "truncation_length": 2.0}

    @pytest.mark.parametrize("name", ["t_junction", "y_junction", "crossing", "crossing_symmetric", "rounded_corner"])
    def test_one_solve_per_certify(self, monkeypatch, name):
        dofs = _count_solves(monkeypatch)
        vcfg, plan = preset(name, **self.CHEAP)
        assert plan.count_strategy == "fem"
        v = run_certify(vcfg, plan, name=name)
        assert len(dofs) == 1
        # a count of 0 (rounded_corner on this mesh) has no fem-upper step,
        # so the record of the count is what names its mesh
        rec = v.extra["fem_count"]
        assert list(rec) == ["length", "h0", "levels", "kappa", "dof", "h", "min_angle", "shift", "inertia", "lanczos_steps", "restarts", "residual"]
        assert rec["kappa"] == certify.TAIL_KAPPA
        assert (rec["length"], rec["h0"], rec["levels"]) == (plan.truncation_length, certify.FEM_H0, plan.fem_levels)
        assert rec["dof"] == dofs[0]
        assert rec["shift"] == threshold(vcfg) - certify.BUDGET_FLOOR_REL * threshold(vcfg)
        assert rec["inertia"] == len(v.upper_bounds) == (name != "rounded_corner")
        # the Lanczos record: no step on a count of 0, else residuals within the stop's tolerance
        assert rec["restarts"] == 0 and (rec["lanczos_steps"] > 0) == (rec["inertia"] > 0)
        assert 0 <= rec["residual"] <= fem.LANCZOS_TOL and (rec["residual"] > 0) == (rec["inertia"] > 0)
        assert {b.trace[0].params["length"] for b in v.upper_bounds} <= {plan.truncation_length}


def _count_solves(monkeypatch, fail_below: int = 0) -> list:
    """The DOF of every fem.eigs_below call from here on; a call on fewer
    than fail_below DOF raises SolverFailure."""
    dofs = []
    eigs_below = fem.eigs_below

    def counting_eigs_below(prob, sigma):
        dofs.append(prob.stiffness.shape[0])
        if dofs[-1] < fail_below:
            raise fem.SolverFailure("no convergence")
        return eigs_below(prob, sigma)

    monkeypatch.setattr(fem, "eigs_below", counting_eigs_below)
    return dofs


def _meshes(v: Verdict) -> set:
    """The (length, h0, levels) of the fem-upper steps of a verdict."""
    return {tuple(b.trace[0].params[k] for k in ("length", "h0", "levels")) for b in v.upper_bounds}


def _levels(plan, levels) -> list:
    """The (length, h0, levels) of the given refinement levels of the plan's
    FEM count."""
    return [(plan.truncation_length, certify.FEM_H0, level) for level in levels]


def _dof(vcfg, length, h0, levels) -> int:
    poly = geom.truncate(vcfg, length)
    mesh = fem.triangulate(poly, h0)
    for _ in range(levels - 1):
        mesh = fem.refine(mesh)
    return fem.assemble(mesh, certify.tail_caps(poly)).free_nodes.size


class TestLevelClimb:
    # preset -> the level its verdict comes from, and the levels it solves;
    # the crossing certifies on none, and its level-1 lower bound
    # (lambda_2 = pi^2 = nu) rules out every finer level
    CLOSING = {
        "t_junction": ((2.0, 0.5, 1), 1),
        "y_junction": ((2.0, 0.5, 1), 1),
        "crossing_symmetric": ((2.0, 0.5, 1), 1),
        "rounded_corner": ((2.0, 0.5, 2), 2),
        "crossing": ((2.0, 0.5, 1), 1),
    }

    @pytest.mark.parametrize("name", list(CLOSING))
    def test_preset_closes_on_its_rung(self, monkeypatch, name):
        dofs = _count_solves(monkeypatch)
        vcfg, plan = preset(name)
        v = run_certify(vcfg, plan, name=name)
        rung, solves = self.CLOSING[name]
        assert len(dofs) == solves
        assert _meshes(v) == {rung}
        skipped = v.extra.get("skipped_rungs", [])
        assert [(s["length"], s["h0"], s["levels"]) for s in skipped] == _levels(plan, range(1, solves))
        top = certify._verdict(vcfg, plan, name, threshold(vcfg))
        assert (v.certified, v.n_discrete) == (top.certified, top.n_discrete)
        assert v.certified is (name != "crossing")
        assert ("unsolved_rungs" in v.extra) is (name == "crossing")
        if name == "crossing":
            assert v.margins["dn_gap"] == 0.0
            closing = certify._verdict(vcfg, dataclasses.replace(plan, fem_levels=1), name, threshold(vcfg))
            reason = (
                "center lower bound 9.8696 for eigenvalue 2 is within the budget floor 9.8696e-08 "
                "of threshold 9.8696, with n = 1: no finer mesh can certify"
            )
            unsolved = [{"length": 2.0, "h0": 0.5, "levels": 2, "reason": reason},
                        {"length": 2.0, "h0": 0.5, "levels": 3, "reason": reason}]
            assert v.to_dict() == {**closing.to_dict(), "extra": {**closing.extra, "unsolved_rungs": unsolved}}

    @pytest.mark.parametrize(
        "factor, tol, solves, certified",
        # l_{n+1} = nu * factor, with tolerance tol * BUDGET_FLOOR_REL * nu, on
        # t_junction (n = 1): only 0 <= l_{n+1} - nu <= BUDGET_FLOOR_REL * nu
        # ends the climb.  With one FEM bound the budget is the floor, so
        # nu * (1 + 2 floor) certifies on level 1; a tolerance of 3 floors
        # puts that gap inside the budget and above the floor.
        [(1 + 2 * certify.BUDGET_FLOOR_REL, 0, 1, True), (1 + 2 * certify.BUDGET_FLOOR_REL, 3, 3, False),
         (1 - 1e-12, 0, 3, False), (1.0, 0, 1, False)],
    )
    def test_a_lower_bound_at_the_threshold_stops_the_climb(self, monkeypatch, factor, tol, solves, certified):
        box = certify._LOWER_RULES["box"]
        vcfg, plan = preset("t_junction")
        nu = threshold(vcfg)

        def pinned(center, k):
            lowers = box(center, k)
            if k < 2:  # auto's probe of the rule
                return lowers
            l2 = lowers[1]._replace(value=nu * factor, tol=tol * certify.BUDGET_FLOOR_REL * nu)
            return lowers[:1] + [l2] + lowers[2:]

        monkeypatch.setitem(certify._LOWER_RULES, "box", pinned)
        dofs = _count_solves(monkeypatch)
        v = run_certify(vcfg, plan)
        assert len(dofs) == solves
        assert v.certified is certified
        assert v.margins["dn_gap"] == threshold(vcfg) * factor - threshold(vcfg)
        rungs = _levels(plan, range(1, plan.fem_levels + 1))
        assert _meshes(v) == {rungs[solves - 1]}
        unsolved = [(u["length"], u["h0"], u["levels"]) for u in v.extra.get("unsolved_rungs", [])]
        assert unsolved == ([] if certified else rungs[solves:])

    def test_auto_picks_its_rule_once_before_the_climb(self, monkeypatch):
        picks = _spy_calls(monkeypatch, certify, "_first_binding_rule")
        dofs = _count_solves(monkeypatch)
        vcfg, plan = preset("rounded_corner")
        v = run_certify(vcfg, dataclasses.replace(plan, lower_strategy="auto"))
        assert len(picks) == 1 and len(dofs) == 2  # sector binds; levels 1 and 2 solve
        assert v.to_dict() == run_certify(vcfg, plan).to_dict()

    def test_auto_without_a_binding_rule_solves_no_mesh(self, monkeypatch):
        dofs = _count_solves(monkeypatch)
        vcfg = _moved(preset("broken", alpha=1.0)[0], 1, 0)
        v = run_certify(vcfg, CertificationPlan("fem", "auto"))
        assert v.reason == "auto: no lower rule describes this center (tried " + ", ".join(certify._LOWER_RULES) + ")"
        assert (v.certified, v.rigor, v.extra, dofs) == (False, "none", {}, [])

    def test_unbound_rule_costs_one_coarsest_solve(self, monkeypatch):
        dofs = _count_solves(monkeypatch)
        vcfg = geom.load_config("configs/broken_1.0.json")
        v = run_certify(vcfg, CertificationPlan("fem", "sector"))
        assert v.reason.startswith("sector")
        assert v.rigor == "none" and v.extra == {}
        assert dofs == [_dof(vcfg, 2.0, 0.5, 1)]

    def test_a_coarse_rung_that_fails_is_skipped(self, monkeypatch):
        _count_solves(monkeypatch, fail_below=1000)  # levels 1 and 2: 210 and 870 DOF
        vcfg, plan = preset("y_junction")
        v = run_certify(vcfg, plan)
        assert v.certified and v.n_discrete == 1
        assert _meshes(v) == {(2.0, 0.5, 3)}
        assert v.extra["skipped_rungs"] == [
            {"length": 2.0, "h0": 0.5, "levels": levels, "reason": "no convergence"} for levels in (1, 2)
        ]

    def test_fem_upper_steps_carry_mesh_diagnostics(self):
        vcfg, plan = preset("t_junction")
        v = run_certify(vcfg, plan)
        h, min_angle = fem.triangulate(geom.truncate(vcfg, 2.0), 0.5).quality()
        want = {"dof": _dof(vcfg, 2.0, 0.5, 1), "h": h, "min_angle": min_angle}
        for b in v.upper_bounds:
            assert {k: b.trace[0].params[k] for k in want} == want

    def test_the_bent_guide_keeps_its_verdict_at_the_weak_binding_edge(self):
        # the bound state nears the threshold as alpha nears pi/2: at 1.30 only
        # the top level (4.0, 0.5, 3) certifies, and at 1.22 level 2 closes
        v = run_certify(*preset("broken", alpha=1.30))
        assert (v.certified, v.n_discrete) == (True, 1)
        assert (v.extra["fem_count"]["levels"], v.extra["fem_count"]["dof"]) == (3, 12159)
        v = run_certify(*preset("broken", alpha=1.22))
        assert (v.certified, v.n_discrete) == (True, 1)
        assert v.extra["fem_count"]["dof"] <= 3007


class TestTailCaps:
    MESHES = [(name, 2.0, levels) for name in ("t_junction", "y_junction", "crossing", "rounded_corner")
              for levels in (1, 2)]

    @pytest.mark.parametrize("name, length, levels", MESHES)
    def test_a_tail_value_is_at_most_the_dirichlet_cap_value(self, name, length, levels):
        # the Dirichlet-cap space is the tail space with the cap nodes at 0,
        # so min-max puts every tail value at or below its Dirichlet-cap value
        mesh, caps = certify._truncated_mesh(preset(name)[0], length, levels)
        tail = fem.lowest_eigs(fem.assemble(mesh, caps), 3).values
        dirichlet = fem.lowest_eigs(fem.assemble(mesh), 3).values
        assert all(t <= d for t, d in zip(tail, dirichlet))
        assert tail[0] < dirichlet[0]

    def test_the_caps_are_the_branch_ends(self):
        vcfg = certify.preset("t_junction")[0]
        poly = geom.truncate(vcfg, 2.0)
        caps = certify.tail_caps(poly)
        assert caps == {2: certify.TAIL_KAPPA, 5: certify.TAIL_KAPPA, 8: certify.TAIL_KAPPA}
        assert [poly.edge(i) for i in caps] == [((3.0, 0.0), (3.0, 1.0)), ((1.0, 3.0), (0.0, 3.0)), ((-2.0, 1.0), (-2.0, 0.0))]
        assert certify.tail_caps(vcfg.center) == {}  # a center's cuts carry the Neumann tag

    @pytest.mark.parametrize("mesh", [(2.0, 1), (2.0, 2), (2.0, 3), (3.0, 2)])
    def test_the_straight_strip_counts_nothing_on_every_rung(self, straight_json, mesh):
        # the spectrum of the straight strip is [nu, inf), which bounds every
        # tail value from below: the count is 0 at the shift nu (1 - 1e-8)
        vcfg = geom.load_config(straight_json)
        ub, rec = certify._fem_upper_bounds(vcfg, *mesh, PI2)
        assert (ub, rec["inertia"], rec["shift"]) == ([], 0, PI2 - certify.BUDGET_FLOOR_REL * PI2)
        assert fem.lowest_eigs(fem.assemble(*certify._truncated_mesh(vcfg, *mesh)), 1).values[0] >= PI2

    def test_the_crossing_counts_one_and_stays_inconclusive(self):
        vcfg, plan = preset("crossing")
        v = run_certify(vcfg, plan, name="crossing")
        assert v.extra["fem_count"]["inertia"] == 1 and len(v.upper_bounds) == 1
        assert not v.certified and v.margins["dn_gap"] == 0.0

    def test_rounded_corner_certifies_on_a_small_rung_with_margin(self):
        vcfg, plan = preset("rounded_corner")
        v = run_certify(vcfg, plan, name="rounded_corner")
        assert v.certified and v.n_discrete == 1
        assert v.extra["fem_count"]["dof"] <= 3375 and v.margins["count_gap"] >= 0.05
        step = v.upper_bounds[0].trace
        assert len(step) == 1 and step[0].rule == "fem-upper" and step[0].params["kappa"] == certify.TAIL_KAPPA

    def test_the_climb_triangulates_each_truncation_once(self, monkeypatch):
        triangulated, triangulate = [], fem.triangulate
        monkeypatch.setattr(fem, "triangulate", lambda poly, h0: triangulated.append(h0) or triangulate(poly, h0))
        certify._truncated_mesh.cache_clear()
        vcfg, plan = preset("rounded_corner")
        assert run_certify(vcfg, plan).certified
        assert triangulated == [0.5]  # (2.0, 0.5, 2) refines the (2.0, 0.5, 1) mesh


class TestFamilyReports:
    # sha256 of the whole reports (traces, tols, budgets, margins) of seeded
    # family_fact verdicts: bent angles on both sides of the critical 0.408637,
    # with 0.41 and 0.84 as np.arange(0.30, ..., 0.01) makes them, whose alpha
    # reads back as its one-ulp neighbour; Y angles below, at and above pi/3;
    # and rect_two_eigs points of the region grid, in and out of the region,
    # under their preset plan
    GOLDEN = "17747dc6ecf013cf7c083a7ccecf711fc8200e0362fcd9272c8a62a81dd13142"

    @staticmethod
    def runs() -> list[tuple]:
        """The config and plan of each seeded member."""
        rng = random.Random(7)
        runs = []
        for a in [0.36, 0.4086, 0.408637, 0.4087, 0.4100000000000001, 0.8400000000000005, 1.0, 1.56] + [rng.uniform(0.35, 1.57) for _ in range(12)]:
            runs.append(preset("broken", alpha=a, count_strategy="family_fact"))
        for a in [0.6, 0.95, math.pi / 3, 1.2, 1.5] + [rng.uniform(0.6, 1.5) for _ in range(10)]:
            runs.append(preset("y_alpha", alpha=a, count_strategy="family_fact"))
        grid = [(i / 301, 0.5 * j / 151) for i in range(1, 301) for j in range(1, 151)]
        inside = [p for p in grid if region_inside(*p)]
        points = rng.sample(inside, 14) + rng.sample([p for p in grid if not region_inside(*p)], 6)
        return runs + [preset("rect_two_eigs", a=1.0 / x, b=1.0 / y) for x, y in points]

    def _reports(self) -> list[str]:
        return [cli.dumps_report(run_certify(vcfg, plan, name=vcfg.name).to_dict()) for vcfg, plan in self.runs()]

    def test_report_bytes_are_pinned(self):
        assert hashlib.sha256("".join(self._reports()).encode()).hexdigest() == self.GOLDEN

    def test_the_reports_cover_both_verdicts_of_each_family(self):
        seen = {(r["name"].split("_")[0], r["verdict"]) for r in map(json.loads, self._reports())}
        assert seen == {(family, v) for family in ("broken", "y", "rect") for v in ("CertifiedNoResonance", "Inconclusive")}


class TestLowerRuleOracle:
    def test_every_lower_bound_lies_below_the_fem_upper_bound(self):
        """Differential oracle for the lower rules: for seeded members of the
        domains of box, broken_chain, y_chain and sector, each l_k (k = 1, 2)
        lies at or below the finest P1 value of fem.dn_spectrum(center, 2, 3,
        0.25), an upper bound of the same mixed-condition center operator.
        The check is loose: over 44 members the smallest ratios u/l were 1.12
        (sector) to 1.57 (y_chain), and among these members box comes closest
        at about 1.006.  It catches a formula wrong by more than that slack,
        not a small drift."""
        rng = random.Random(3)
        members = []
        for _ in range(2):
            members += [("box", preset("rect_two_eigs", a=rng.uniform(1.0, 3.0), b=rng.uniform(2.1, 3.0))[0]),
                        ("broken_chain", preset("broken", alpha=rng.uniform(0.35, 1.5))[0]),
                        ("y_chain", preset("y_alpha", alpha=rng.uniform(0.6, 1.5))[0]),
                        ("sector", preset("rounded_corner", alpha=rng.uniform(0.35, 3.0))[0])]
        for rule, vcfg in members:
            lowers = [b.value for b in certify._LOWER_RULES[rule](vcfg.center, 2)]
            uppers = fem.dn_spectrum(vcfg.center, 2, 3, 0.25).level_values[-1]
            assert len(lowers) == 2 and all(l <= u for l, u in zip(lowers, uppers)), (rule, vcfg.name, lowers, uppers)


class TestSweepAnchor:
    # sha256 of the sweep_broken rows on 0.30-1.56 and the sweep_y_alpha rows
    # on 0.60-1.49 (0.01 grids) as CSV; at 0.41 and 0.84 the bent guide's
    # alpha reads back as its one-ulp neighbour, which builds the same center
    ROWS = "4360c59ff6172dce74956d853a3c560707c7cb817db6bc4738e73c96c587db37"

    def test_rows_are_unchanged(self):
        texts = [
            *cli._sweep_csv(certify.sweep_broken(np.arange(0.30, 1.56 + 1e-12, 0.01))),
            *cli._sweep_csv(certify.sweep_y_alpha(np.arange(0.60, 1.49 + 1e-12, 0.01))),
        ]
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == self.ROWS

    def test_the_pi6_embedding_is_built_once(self, monkeypatch):
        built, eigs = [], exact.equilateral_eigs
        monkeypatch.setattr(exact, "equilateral_eigs", lambda *args: built.append(args) or eigs(*args))
        certify._pi6_embedding.cache_clear()
        rows = certify.sweep_broken(np.linspace(0.45, 1.5, 50))
        assert sum(r.certified for r in rows) == 50
        assert len(built) <= 1

    @pytest.mark.parametrize("sweep", [certify.sweep_broken, certify.sweep_y_alpha])
    def test_a_sweep_solves_no_mesh(self, monkeypatch, sweep):
        dofs = _count_solves(monkeypatch)
        assert sweep([1.0])[0].certified
        assert dofs == []

    def test_a_sweep_makes_its_plan_once_and_validates_every_angle(self, monkeypatch):
        made = _plans_made(monkeypatch)
        validated = _spy_calls(monkeypatch, geom, "validate_config")
        alphas = np.linspace(0.35, 1.57, 2000)
        rows = certify.sweep_broken(alphas)
        assert len(made) == 1 and len(rows) == 2000
        assert [c.center for (c,) in validated] == [geom.broken_polygon(a) for a in alphas]

    @pytest.mark.parametrize("sweep, family, alphas", [(certify.sweep_broken, "broken", [1.0, "x"]),
                                                       (certify.sweep_y_alpha, "y_alpha", [True]),
                                                       (certify.sweep_broken, "broken", [None])])
    def test_every_angle_is_checked_as_preset_checks_it(self, sweep, family, alphas):
        with pytest.raises(ValueError, match=f"^(alpha = .*: must be a number|preset '{family}' needs alpha)$") as want:
            preset(family, alpha=alphas[-1], count_strategy="family_fact")
        with pytest.raises(ValueError) as got:
            sweep(alphas)
        assert str(got.value) == str(want.value)

    def test_a_sweep_builds_each_family_polygon_as_often_as_before(self):
        # the preset and the alpha binding of a verdict share one cached build,
        # a one-ulp read-back neighbour builds again, and the fact and the
        # chain read the binding the config keeps: a lost cache or a second
        # binding builds more
        rng = random.Random(1)
        for sweep, build, lo, hi, misses in [(certify.sweep_broken, geom.broken_polygon, 0.35, 1.57, 2161),
                                             (certify.sweep_y_alpha, geom.y_center_polygon, 0.6, 1.5, 2178)]:
            alphas = [rng.uniform(lo, hi) for _ in range(2000)]
            build.cache_clear()
            sweep(alphas)
            assert build.cache_info().misses == misses


class TestFamilyFacts:
    # (fact, preset, its keywords, config file): each fact binds its preset and
    # the config file of the same geometry, and no other fact binds them
    BINDS = [
        ("bent_guide", "broken", {"alpha": 1.0}, "broken_1.0"),
        ("y_junction", "y_alpha", {"alpha": 0.95}, "y_alpha_0.95"),
        ("y_junction", "y_junction", {}, "y_junction"),
        ("cube_square", "cube_square", {}, "cube_square"),
        ("cube_disk", "cube_disk", {}, "cube_disk"),
    ]

    @staticmethod
    def _binding(vcfg) -> list:
        return [name for name, (binds, *_) in certify._FACTS.items() if binds(vcfg)]

    @pytest.mark.parametrize("fact, name, kw, stem", BINDS)
    def test_each_fact_binds_its_preset_and_config_file(self, fact, name, kw, stem):
        vcfg, plan = preset(name, **kw)
        plan = dataclasses.replace(plan, count_strategy="family_fact")
        for cfg in (vcfg, geom.load_config(f"configs/{stem}.json")):
            assert self._binding(cfg) == [fact]
            n, ub = count_discrete(cfg, plan, threshold(cfg))
            assert n == len(ub) == 1
            assert ub[0].trace[0].params["fact"] == certify._FACTS[fact][1]

    def test_every_fact_is_cited_and_bound(self):
        assert {b[0] for b in self.BINDS} == set(certify._FACTS)
        assert all(cite for *_, cite in certify._FACTS.values())

    @pytest.mark.parametrize("name", ["t_junction", "crossing", "rounded_corner", "rect_two_eigs", "straight"])
    def test_no_fact_binds_the_other_geometries(self, straight_json, name):
        if name == "straight":
            vcfg, plan = geom.load_config(straight_json), CertificationPlan("family_fact", "box")
        else:
            vcfg, plan = preset(name)
            plan = dataclasses.replace(plan, count_strategy="family_fact")
        assert self._binding(vcfg) == []
        v = run_certify(vcfg, plan, name=name)
        assert not v.certified and v.reason.startswith("family_fact")
        assert v.upper_bounds == v.lower_bounds == ()


class TestAlphaRecovery:
    # family -> (its config builder, the lower rule and the fact that bind it,
    # the angles drawn)
    FAMILIES = {
        "bent-guide": (lambda a: preset("broken", alpha=a)[0], "broken_chain", "bent_guide", (0.35, 1.56)),
        "Y-junction": (lambda a: preset("y_alpha", alpha=a)[0], "y_chain", "y_junction", (0.35, 1.56)),
        "sector": (lambda a: preset("rounded_corner", alpha=a)[0], "sector", None, (0.35, 3.0)),
    }

    # the Y builder makes a triangle for every alpha within 1e-12 of pi/3
    @pytest.mark.parametrize("family, lo, hi", [(family, *rng[-1]) for family, rng in FAMILIES.items()]
                             + [("Y-junction", math.pi / 3 - 1e-12, math.pi / 3 + 1e-12)])
    def test_alpha_reads_back_from_the_center(self, family, lo, hi):
        build = self.FAMILIES[family][0]
        polygon = geom.FAMILIES[family][0]
        rng = random.Random(26)
        neighbours = 0
        for _ in range(2000):
            a = rng.uniform(lo, hi)
            vcfg = build(a)
            got = geom.family_alpha(vcfg.center, family)
            if got != a:  # only a one-ulp neighbour that builds the same center
                assert got in (math.nextafter(a, 0.0), math.nextafter(a, 4.0)), (a, got)
                assert polygon(got, vcfg.center) == vcfg.center
                neighbours += 1
        assert neighbours < 200

    @pytest.mark.parametrize("family, alpha", [("bent-guide", 1.0), ("Y-junction", 0.95), ("Y-junction", 1.2),
                                               ("Y-junction", math.pi / 3), ("sector", math.pi / 2)])
    def test_a_center_one_ulp_off_is_bound_by_neither_rule_nor_fact(self, family, alpha):
        build, rule, fact, _ = self.FAMILIES[family]
        vcfg = build(alpha)
        assert geom.family_alpha(vcfg.center, family) == alpha
        if fact:
            assert certify._FACTS[fact][0](vcfg)
        for i in range(vcfg.center.n_edges):
            for j in (0, 1):
                moved = _moved(vcfg, i, j)
                assert geom.family_alpha(moved.center, family) is None
                with pytest.raises(certify.Unbound, match=f"^{rule} needs a {family} center"):
                    certify._LOWER_RULES[rule](moved.center, 2)
                assert not any(binds(moved) for binds, *_ in certify._FACTS.values())

    def test_a_triangle_off_pi_3_reads_back_its_own_alpha(self):
        # the triangle at pi/3 + 1e-13 differs from the one at pi/3 in its last bits
        alpha = math.pi / 3 + 1e-13
        assert geom.family_alpha(geom.y_center_polygon(alpha), "Y-junction") == alpha
        row = certify.sweep_y_alpha([alpha])[0]
        assert (row.certified, row.n) == (True, 1)

    def test_the_shipped_family_files_read_back_their_alpha(self):
        for stem, family, alpha in [("broken_1.0", "bent-guide", 1.0), ("y_alpha_0.95", "Y-junction", 0.95),
                                    ("y_junction", "Y-junction", math.pi / 3), ("rounded_corner", "sector", math.pi / 2)]:
            assert geom.family_alpha(geom.load_config(f"configs/{stem}.json").center, family) == alpha

    def test_a_vertex_count_the_family_never_builds_builds_no_polygon(self, monkeypatch):
        built = _spy_calls(monkeypatch, geom, "broken_polygon")
        assert geom.family_alpha(geom.y_center_polygon(0.95), "bent-guide") is None
        assert built == []

    @pytest.mark.parametrize("name, alpha, families", [("broken", 1.0, ["bent-guide"]),
                                                       ("y_alpha", 0.95, ["bent-guide", "Y-junction"])])
    def test_a_verdict_binds_each_family_once(self, monkeypatch, name, alpha, families):
        # the fact binding and the chain read the alpha the center keeps, and
        # a second verdict on the same config binds nothing again
        geom.broken_polygon.cache_clear(), geom.y_center_polygon.cache_clear()  # centers that have bound nothing yet
        vcfg, plan = preset(name, alpha=alpha, count_strategy="family_fact")
        bound = _spy_calls(monkeypatch, geom, "family_alpha")
        for _ in range(2):
            assert run_certify(vcfg, plan, name=name).certified
        assert bound == [(vcfg.center, family) for family in families]


class TestAutoLowerRule:
    # config file -> the rule auto picks, and the exit code of the default plan
    PICKS = {
        "t_junction": ("box", 0), "rect_two_eigs": ("box", 0), "y_junction": ("neumann_equilateral", 0),
        "broken_1.0": ("broken_chain", 0), "y_alpha_0.95": ("y_chain", 0), "rounded_corner": ("sector", 0),
        "crossing": ("box", 2), "straight_strip": ("box", 2), "cube_square": ("box", 2), "cube_disk": ("box", 2),
    }

    def test_auto_is_the_config_default(self):
        assert certify.make_plan({}) == CertificationPlan("fem", "auto")

    def test_each_config_file_gets_the_first_rule_that_binds(self):
        assert sorted(p.stem for p in Path("configs").glob("*.json")) == sorted(self.PICKS)
        for stem, (rule, code) in self.PICKS.items():
            vcfg = geom.load_config(f"configs/{stem}.json")
            assert certify._first_binding_rule(vcfg.center) == rule, stem
            earlier = list(certify._LOWER_RULES)[: list(certify._LOWER_RULES).index(rule)]
            for name in earlier:
                with pytest.raises(certify.Unbound):
                    certify._LOWER_RULES[name](vcfg.center, 1)

    def test_the_default_plan_certifies_six_config_files_as_their_rule_does(self):
        for stem, (rule, code) in self.PICKS.items():
            vcfg = geom.load_config(f"configs/{stem}.json")
            v = run_certify(vcfg, certify.make_plan({}), name=stem)
            assert v.certified is (code == 0), stem
            explicit = run_certify(vcfg, certify.make_plan({"lower_strategy": rule}), name=stem)
            assert cli.dumps_report(v.to_dict()) == cli.dumps_report(explicit.to_dict())


def _bytes(lowers) -> str:
    return json.dumps([bnd.bound_to_json(b) for b in lowers])


class TestRulesReadTheCenter:
    """A lower rule reads the center alone: called on the center of a config,
    the rule its verdict used gives that verdict's lower bounds bit for bit,
    and it bounds a center that no config holds."""

    @staticmethod
    def _check(asked: list, vcfg, plan, name: str) -> None:
        v = run_certify(vcfg, plan, name=name)
        rule = certify._first_binding_rule(vcfg.center) if plan.lower_strategy == "auto" else plan.lower_strategy
        k = asked[-1][2]  # the count the verdict asked dn_lower_bounds for
        assert v.lower_bounds and _bytes(certify._LOWER_RULES[rule](vcfg.center, k)) == _bytes(v.lower_bounds), name

    # every preset but crossing_symmetric, whose parity bookkeeping is no lower rule, and every config file
    @pytest.mark.parametrize("target", [*(n for n in certify.PRESET_NAMES if n != "crossing_symmetric"),
                                        *sorted(f"configs/{p.name}" for p in (ROOT / "configs").glob("*.json"))])
    def test_the_rule_on_the_center_gives_the_verdicts_lower_bounds(self, monkeypatch, target):
        vcfg, plan = (geom.load_config(ROOT / target), certify.make_plan({})) if target.endswith(".json") else preset(target)
        if vcfg.is_3d:  # the fem count meshes no box, and its Unbound verdict asks no rule
            plan = dataclasses.replace(plan, count_strategy="family_fact")
        self._check(_spy_calls(monkeypatch, certify, "dn_lower_bounds"), vcfg, plan, target)

    def test_so_it_does_on_the_seeded_family_members(self, monkeypatch):
        asked = _spy_calls(monkeypatch, certify, "dn_lower_bounds")
        for vcfg, plan in TestFamilyReports.runs():
            self._check(asked, vcfg, plan, vcfg.name)

    def test_each_analytic_rule_bounds_a_center_no_config_holds(self):
        geom.broken_polygon.cache_clear(), geom.y_center_polygon.cache_clear()  # no preset has built these yet
        D, N = geom.BC.DIRICHLET, geom.BC.NEUMANN
        rectangle = geom.Polygon(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)),
                                 (D, N, D, N), (geom.EdgeRole.WALL,) * 4)
        assert [b.value for b in certify._lower_box(rectangle, 3)] == list(box_eigs((2.0, 1.0), ("NN", "DD"), 3).values)
        # the other centers are equal to the ones of config files, whose verdicts bound their index 2
        for rule, center, stem in [("y_chain", geom.y_center_polygon(0.95), "y_alpha_0.95"),
                                   ("broken_chain", geom.broken_polygon(1.0), "broken_1.0"),
                                   ("neumann_equilateral", geom.y_center_polygon(math.pi / 3), "y_junction"),
                                   ("sector", geom.rounded_corner_polygon(math.pi / 2, 24), "rounded_corner")]:
            vcfg = geom.load_config(f"configs/{stem}.json")
            assert center == vcfg.center and center is not vcfg.center
            v = run_certify(vcfg, CertificationPlan("family_fact" if stem != "rounded_corner" else "fem", rule), name=stem)
            assert _bytes(certify._LOWER_RULES[rule](center, 2)) == _bytes(v.lower_bounds), rule


class TestReadingsLiveOnTheCenter:
    def test_configs_that_share_a_center_read_it_once_between_them(self, monkeypatch):
        boxes = _spy_calls(monkeypatch, geom, "axis_box")
        alphas = _spy_calls(monkeypatch, geom, "family_alpha")
        centers = []
        for stem, plan in [("rect_two_eigs", CertificationPlan("exact_box_B", "box")),
                           ("broken_1.0", CertificationPlan("family_fact", "auto"))]:
            vcfg = geom.load_config(f"configs/{stem}.json")
            twin = dataclasses.replace(vcfg, name="twin")
            assert twin.center is vcfg.center
            for c in (vcfg, twin):
                assert run_certify(c, plan, name=stem).certified
                for family in geom.FAMILIES:
                    c.center.family_alpha(family)
            centers.append(vcfg.center)
        # auto probes box on the bent center; its fact binding and chain share one bent-guide alpha
        assert boxes == [(center,) for center in centers]
        assert alphas == [(center, family) for center in centers for family in geom.FAMILIES]


def _pinned_upper(value: float) -> bnd.SpectralBound:
    """A waveguide upper bound of the given value from a recorded FEM step."""
    step = bnd.TraceStep("fem-upper", {"index": 1}, value)
    return bnd.SpectralBound(certify.WAVEGUIDE_OP, 1, value, bnd.Direction.UPPER, (step,), 0.0)


class TestVerdictInequalities:
    """Each strict inequality of _verdict and _n_below decides a verdict on its
    own: a count and a lower rule pinned next to one inequality's edge, on
    the t_junction (nu = pi^2, budget floor BUDGET_FLOOR_REL nu)."""

    @staticmethod
    def _certify(monkeypatch, uppers, lowers):
        def count(vcfg, plan, nu, extra):
            return certify._n_below(uppers, nu), list(uppers)

        monkeypatch.setitem(certify._COUNT_RULES, "pinned", count)
        monkeypatch.setitem(certify._LOWER_RULES, "pinned", lambda center, k: list(lowers))
        return run_certify(certify.preset("t_junction")[0], CertificationPlan("pinned", "pinned"))

    @staticmethod
    def _lower(index: int, value: float, tol: float = 0.0) -> bnd.SpectralBound:
        return bnd.lower_bound(certify.DN_CENTER_OP, index, value, "pinned", {}, tol=tol)

    def test_an_upper_bound_within_the_total_budget_is_inconclusive(self, monkeypatch):
        # u_1 clears its own budget (the floor), so it counts, but a lower
        # bound's tolerance of 4 floors puts nu - u_1 = 2 floors inside the total
        floor = certify.BUDGET_FLOOR_REL * PI2
        u1 = PI2 - 2 * floor
        v = self._certify(monkeypatch, [_pinned_upper(u1)], [self._lower(1, 0.0, 4 * floor), self._lower(2, 2 * PI2)])
        assert certify._n_below([_pinned_upper(u1)], PI2) == 1
        assert (v.certified, v.margins["count_gap"]) == (False, PI2 - u1)
        assert v.budget == 4 * floor and v.margins["dn_gap"] > v.budget
        assert v.reason == f"count margin {PI2 - u1:.6g} within tolerance budget {v.budget:.6g}"

    @pytest.mark.parametrize("below", [1.0, 0.5, 0.0])
    def test_a_value_within_the_budget_below_nu_is_not_counted(self, monkeypatch, below):
        floor = certify.BUDGET_FLOOR_REL * PI2
        u1 = PI2 - below * floor
        assert certify._n_below([_pinned_upper(u1)], PI2) == 0
        v = self._certify(monkeypatch, [_pinned_upper(u1)], [self._lower(1, PI2 / 2), self._lower(2, 2 * PI2)])
        assert v.margins == {"dn_gap": PI2 / 2 - PI2}  # n = 0: no count_gap, and l_1 is the next bound
        assert not v.certified and v.reason.startswith("center lower bound margin")

    def test_a_lower_bound_above_its_upper_bound_is_inconsistent(self, monkeypatch):
        u1 = PI2 / 2
        v = self._certify(monkeypatch, [_pinned_upper(u1)], [self._lower(1, u1 + 1.0), self._lower(2, 2 * PI2)])
        assert v.margins["dn_gap"] > v.budget and v.margins["count_gap"] > v.budget
        assert (v.certified, v.reason) == (False, "lower/upper bracketing inconsistent")


@pytest.mark.usefixtures("stub_count")
class TestCrossingSymmetry:
    def test_parity_decomposition(self):
        # the stub supplies the waveguide count so the parity bookkeeping can
        # be checked without the finite-element step
        plan = CertificationPlan(count_strategy="stub", lower_strategy="crossing_symmetry")
        v = run_certify(certify.preset("crossing")[0], plan, name="crossing-sym")
        assert v.certified
        assert v.n_discrete == 1
        p = v.extra["parities"]
        assert v.extra["sum_njk"] == 1
        assert p["00"]["n_jk"] == 1
        assert p["11"]["n_jk"] == 0
        assert v.margins["parity_00_host_gap"] == pytest.approx(3 * PI2, rel=1e-12)
        assert v.margins["parity_11_host_gap"] == pytest.approx(PI2, rel=1e-12)
        assert v.margins["parity_01_host_gap"] == v.margins["parity_10_host_gap"]


class TestGeometryBuilders:
    def test_y_center_valid_across_the_angle_range(self):
        for alpha in (0.6, 0.9, math.pi / 3, 1.2, 1.45):
            vcfg = preset("y_alpha", alpha=alpha)[0]
            assert vcfg.center.is_simple()
            assert vcfg.center.area() > 0
            assert len(vcfg.branches) == 3

    def test_y_junction_is_the_symmetric_case(self):
        vcfg = preset("y_junction")[0]
        assert vcfg.center.n_edges == 3

    def test_rounded_corner_has_arc_wall(self):
        vcfg = preset("rounded_corner")[0]
        assert vcfg.center.n_edges > 10  # polyline approximation of the arc
        assert len(vcfg.branches) == 2


class TestSweepHelpers:
    def test_first_certified(self):
        rows = [
            certify.SweepRow(0.3, PI2, False, None, -1.0, ""),
            certify.SweepRow(0.5, PI2, True, 1, 0.5, ""),
            certify.SweepRow(0.7, PI2, True, 1, 1.0, ""),
        ]
        assert certify.first_certified(rows) == 0.5
        assert certify.first_certified(rows[:1]) is None

    def test_a_sweep_row_is_a_dataclass(self):
        # the benchmark digests each families row as dataclasses.astuple(row)
        row = certify.sweep_broken([1.0])[0]
        assert dataclasses.astuple(row) == (row.param, row.nu, row.certified, row.n, row.dn_margin, row.reason)

    def test_a_sweep_row_has_no_instance_dict(self):
        # a sweep holds one row per angle, up to MAX_GRID_POINTS of them
        row = certify.SweepRow(0.5, PI2, True, 1, 0.5, "r")
        assert not hasattr(row, "__dict__")
        assert repr(row) == "SweepRow(param=0.5, nu=%r, certified=True, n=1, dn_margin=0.5, reason='r')" % PI2
        assert row == certify.SweepRow(0.5, PI2, True, 1, 0.5, "r") != certify.SweepRow(0.5, PI2, True, 1, 0.5, "")

    def test_y_interval_roots(self):
        a1, a2 = y_alpha_certified_interval()
        assert a1 == pytest.approx(0.9203379160993881, abs=1e-10)
        assert a2 == pytest.approx(1.1621584716973044, abs=1e-10)


class TestRegion:
    def test_membership_samples(self):
        assert region_inside(0.42, 0.49)
        assert not region_inside(0.1, 0.1)  # all strips too long: q1 small but q2 fails
        assert not region_inside(0.42, 0.3)  # third inequality violated
        assert not region_inside(0.5, 0.5)  # boundary of the admissible band
        assert not region_inside(-0.1, 0.2)

    # sha256 of repr(region_rows(100, 50)) and of the default region CSV:
    # the vectorized inside flags must leave every row, and its types, as
    # the point-by-point loop wrote them
    ROWS = "dfefcd53f5835f26ca7574c1bb5c911fb5cfcca25fd97436670922080b250e81"
    CSV = "e6dffbde8f1a591d31034ce08e3e7235db1a8aaacf71143ed0822c9a27b9d688"

    def test_rows_and_csv_are_pinned(self, tmp_path):
        assert hashlib.sha256(repr(region_rows(100, 50)).encode()).hexdigest() == self.ROWS
        assert cli.run(["region", "-o", str(tmp_path / "region.csv")]) == cli.EXIT_CERTIFIED
        assert hashlib.sha256((tmp_path / "region.csv").read_bytes()).hexdigest() == self.CSV

    def test_rows_hold_python_floats_and_bools(self):
        # a np.float64 or np.bool_ in a row changes its repr, and so the
        # benchmark's region digests
        rows = region_rows(100, 50)
        assert {tuple(map(type, row)) for row in rows} == {(float, float, bool, bool)}

    @staticmethod
    def _inside_reference(x: float, y: float) -> bool:
        """The point-by-point membership test region_inside replaced."""
        if not (x > 0 and 0 < y < 0.5):
            return False
        return 4 * x * x + y * y < 1 and 25 * x * x / 4 + y * y > 1 and x * x / 4 + 4 * y * y > 1

    def test_the_grid_membership_is_the_pointwise_one(self):
        xs = np.array([i / 301 for i in range(1, 301)] + [-0.1, 0.0, 0.5, 1.0, 2.0])
        ys = np.array([0.5 * j / 151 for j in range(1, 151)] + [-0.1, 0.0, 0.25, 0.5, 0.6])
        grid = region_inside(xs[:, None], ys)
        assert grid.shape == (305, 155) and grid.dtype == bool
        want = [[self._inside_reference(x, y) for y in ys.tolist()] for x in xs.tolist()]
        assert grid.tolist() == want == [[region_inside(x, y) for y in ys.tolist()] for x in xs.tolist()]
        assert type(region_inside(0.42, 0.49)) is bool

    def test_the_grid_makes_its_plan_once_and_validates_every_inside_point(self, monkeypatch):
        made = _plans_made(monkeypatch)
        validated = _spy_calls(monkeypatch, geom, "validate_config")
        rows = region_rows(100, 50)
        assert len(made) <= 1
        assert len(validated) == sum(r[2] for r in rows) > 0

    def test_grid_rows_certify_inside_points(self):
        # the admissible set is a thin sliver near y = 1/2, so the grid must
        # be reasonably fine before any node lands inside
        rows = region_rows(100, 50)
        inside = [r for r in rows if r[2]]
        assert inside
        assert all(r[3] for r in inside)  # every inside point certifies n = 2
        assert all(not r[3] for r in rows if not r[2])
