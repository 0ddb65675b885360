"""Bound rules: soundness against exact spectra, trace replay, direct sums."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspec import bounds as bnd
from starspec.bounds import (
    ContainmentViolation,
    Direction,
    DirectionMismatch,
    SpectralBound,
    TraceStep,
    bounds_from_eiglist,
    check_containment,
    direct_sum_bounds,
    dirichlet_monotone,
    lower_bound,
    neumann_enclosure_bounds,
    replay_bound,
    scale_bound,
    trace_to_json,
)
from starspec.exact import PI2, box_eigs, equilateral_eigs
from starspec.geom import Polygon, simple_polygon

REPLAY_REL = 1e-13

# every containment outcome holds for the enclosure in either orientation
EITHER_ORIENTATION = pytest.mark.parametrize("clockwise", [False, True], ids=["ccw", "cw"])


def _enclosure(vertices, clockwise):
    """simple_polygon(vertices), or with clockwise its vertices reversed as a
    raw Polygon: simple_polygon would orient them counterclockwise again."""
    outer = simple_polygon(vertices)
    return Polygon(outer.vertices[::-1], outer.edge_tags, outer.edge_roles) if clockwise else outer


def dn_square_lowers(k=3):
    eigs = box_eigs((1.0, 1.0), ("NN", "DN"), k)
    return bounds_from_eiglist(
        "dn-square", eigs, Direction.LOWER, "box-eig",
        {"dims": [1.0, 1.0], "bcs": ["NN", "DN"]},
    )


class TestRules:
    def test_dirichlet_monotone_rejects_lowers(self):
        with pytest.raises(DirectionMismatch):
            dirichlet_monotone(dn_square_lowers(), "waveguide")

    def test_scale_bound_rectangle_oracle(self):
        # bound for the (2, 3) Dirichlet rectangle from the unit square under
        # diag(2, 3); compare against the exact scaled spectrum
        src = bounds_from_eiglist(
            "unit-square",
            box_eigs((1.0, 1.0), ("DD", "DD"), 6),
            Direction.LOWER,
            "box-eig",
            {"dims": [1.0, 1.0], "bcs": ["DD", "DD"]},
        )
        scaled = scale_bound(src, (2.0, 3.0), "rect")
        exact_vals = box_eigs((2.0, 3.0), ("DD", "DD"), 6).values
        for b, ev in zip(scaled, exact_vals):
            assert b.value <= ev + 1e-12

    def test_scale_bound_is_sharp_for_isotropic_maps(self):
        src = bounds_from_eiglist(
            "unit-square",
            box_eigs((1.0, 1.0), ("DD", "DD"), 4),
            Direction.LOWER,
            "box-eig",
            {"dims": [1.0, 1.0], "bcs": ["DD", "DD"]},
        )
        scaled = scale_bound(src, (2.0, 2.0), "big-square")
        exact_vals = box_eigs((2.0, 2.0), ("DD", "DD"), 4).values
        for b, ev in zip(scaled, exact_vals):
            assert b.value == pytest.approx(ev, rel=1e-12)

    def test_scale_bound_cap_at_one_caps_factor(self):
        src = [lower_bound("x", 1, 10.0, "interval-eig", {"length": 1.0, "bc": "DD", "index": 1})]
        capped = scale_bound(src, (0.5, 1.0), "y", cap_at_one=True)[0]
        assert capped.value == pytest.approx(10.0)
        sharp = scale_bound(src, (0.5, 1.0), "y")[0]
        assert sharp.value == pytest.approx(10.0)  # min(4, 1) capped by axis 2

    def test_scale_bound_rejects_nonpositive(self):
        with pytest.raises(bnd.NonPositiveCoeff):
            scale_bound(dn_square_lowers(), (0.0, 1.0), "y")

    def test_neumann_enclosure_square_oracle(self):
        # mixed problem on the unit square vs the all-Neumann square: the
        # Neumann values never exceed the mixed ones
        neu = bounds_from_eiglist(
            "neumann-square", box_eigs((1.0, 1.0), ("NN", "NN"), 4), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["NN", "NN"]},
        )
        square = simple_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        lows = neumann_enclosure_bounds("dn-square", square, square, neu)
        mixed = box_eigs((1.0, 1.0), ("NN", "DN"), 4).values
        for b, ev in zip(lows, mixed):
            assert b.value <= ev + 1e-12

    @EITHER_ORIENTATION
    def test_neumann_enclosure_containment_violation(self, clockwise):
        inner = simple_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        lows = bounds_from_eiglist(
            "outer", box_eigs((1.0, 1.0), ("NN", "NN"), 2), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["NN", "NN"]},
        )
        with pytest.raises(ContainmentViolation):
            neumann_enclosure_bounds("x", inner, outer, lows)

    @EITHER_ORIENTATION
    def test_neumann_enclosure_bounds_transport(self, clockwise):
        inner = simple_polygon([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)])
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        lows = bounds_from_eiglist(
            "outer", box_eigs((1.0, 1.0), ("NN", "NN"), 2), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["NN", "NN"]},
        )
        out = neumann_enclosure_bounds("inner-dn", inner, outer, lows)
        assert out[1].value == pytest.approx(PI2, rel=1e-12)
        assert out[1].trace[-1].rule == "neumann-enclosure"

    @EITHER_ORIENTATION
    def test_containment_accepts_touching_boundary(self, clockwise):
        inner = simple_polygon([(0, 0), (1, 0), (0.5, 0.5)])
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(inner, outer)  # shared edge is fine

    # a triangle with its vertex `first` at distance d beyond the right side
    # of the unit square; rotating the vertex list puts it at each index
    @staticmethod
    def _poking_triangle(d, first):
        verts = [(1.0 + d, 0.5), (0.5, 0.8), (0.5, 0.2)]
        return simple_polygon(verts[-first:] + verts[:-first])

    @EITHER_ORIENTATION
    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_every_vertex_is_checked_with_the_same_tolerance(self, first, clockwise):
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(self._poking_triangle(0.5e-10, first), outer)  # tol / 2 outside
        with pytest.raises(ContainmentViolation, match="vertex"):
            check_containment(self._poking_triangle(2e-10, first), outer)  # 2 tol outside

    @pytest.mark.parametrize(
        "outer",
        [
            # an L: the inner triangle's vertices lie in it, its hypotenuse does not
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
            # a pentagram turns left at every vertex but crosses itself
            [(math.cos(a), math.sin(a)) for a in (math.pi / 2 + 4 * math.pi * i / 5 for i in range(5))],
        ],
    )
    @EITHER_ORIENTATION
    def test_a_non_convex_enclosure_is_refused(self, outer, clockwise):
        inner = simple_polygon([(0.1, 0.1), (1.9, 0.1), (0.1, 1.9)])
        with pytest.raises(ContainmentViolation, match="not convex"):
            check_containment(inner, _enclosure(outer, clockwise))

    @EITHER_ORIENTATION
    def test_a_straight_angle_keeps_an_enclosure_convex(self, clockwise):
        outer = _enclosure([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(simple_polygon([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]), outer)


class TestDirectSum:
    def test_bound_merge_tail_extension_is_sound(self):
        # part one lists a single bound; indices beyond it must reuse that
        # value instead of pretending the part has no more spectrum
        one = [lower_bound("a", 1, 3.0, "interval-eig", {"length": 1, "bc": "DD", "index": 1})]
        two = [
            lower_bound("b", 1, 1.0, "interval-eig", {"length": 1, "bc": "NN", "index": 1}),
            lower_bound("b", 2, 10.0, "interval-eig", {"length": 1, "bc": "NN", "index": 2}),
        ]
        merged = direct_sum_bounds([one, two], "sum", 3)
        assert [b.value for b in merged] == pytest.approx([1.0, 3.0, 3.0])

    def test_bound_merge_rejects_mixed_directions(self):
        lo = [lower_bound("a", 1, 1.0, "interval-eig", {"length": 1, "bc": "DD", "index": 1})]
        step = TraceStep("interval-eig", {"length": 1, "bc": "DD", "index": 1}, 2.0)
        hi = [SpectralBound("b", 1, 2.0, Direction.UPPER, (step,))]
        with pytest.raises(DirectionMismatch):
            direct_sum_bounds([lo, hi], "sum", 2)

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_merges_match_tail_extended_oracle(self, groups, k):
        parts = []
        for gi, vals in enumerate(groups):
            vals = sorted(vals)
            parts.append(
                [
                    lower_bound(f"p{gi}", i + 1, v, "frozen", {"v": v})
                    for i, v in enumerate(vals)
                ]
            )
        merged = direct_sum_bounds(parts, "sum", k)
        oracle_pool = []
        for vals in (sorted(g) for g in groups):
            oracle_pool.extend(vals)
            oracle_pool.extend([vals[-1]] * max(0, k - len(vals)))
        oracle = sorted(oracle_pool)[:k]
        assert [b.value for b in merged] == pytest.approx(oracle, rel=1e-12)


class TestReplay:
    def test_catalog_pipelines_replay_identically(self):
        chains = []
        eq = bounds_from_eiglist(
            "tri", equilateral_eigs(2 * math.sqrt(3), "dirichlet", 4),
            Direction.LOWER, "equilateral-eig", {"side": 2 * math.sqrt(3), "bc": "dirichlet"},
        )
        chains += scale_bound(eq, (1.5, 1.0), "stretched")
        chains += direct_sum_bounds([dn_square_lowers(), dn_square_lowers(2)], "sum", 4)
        for b in chains:
            replayed = replay_bound(b)
            assert replayed == pytest.approx(b.value, rel=REPLAY_REL)

    def test_frozen_steps_replay_as_recorded(self):
        b = SpectralBound(
            "op", 1, 42.0, Direction.UPPER,
            (TraceStep("fem-upper", {"h0": 0.25}, 42.0),), 1e-8,
        )
        assert replay_bound(b) == 42.0

    def test_trace_serialization_round_trip_fields(self):
        b = scale_bound(dn_square_lowers(), (2.0, 1.0), "wg")[0]
        js = trace_to_json(b)
        assert js[0]["rule"] == "box-eig"
        assert js[-1]["rule"] == "scale"
        d = bnd.bound_to_json(b)
        assert d["direction"] == "lower"
        assert d["index"] == 1


class TestConsistencyOnCatalog:
    def test_lower_rules_never_exceed_exact_values(self):
        # every lower-bound rule applied where the exact answer is known
        mixed = box_eigs((1.0, 1.0), ("NN", "DN"), 4).values
        for b, ev in zip(dn_square_lowers(4), mixed):
            assert b.value <= ev + 1e-12
        # scaling on rectangles
        src = bounds_from_eiglist(
            "s", box_eigs((1.0, 1.0), ("DD", "DD"), 5), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["DD", "DD"]},
        )
        for c in ((1.5, 2.5), (3.0, 1.0), (1.0, 1.0)):
            got = scale_bound(src, c, "r")
            ev = box_eigs((c[0], c[1]), ("DD", "DD"), 5).values
            for b, e in zip(got, ev):
                assert b.value <= e + 1e-12
