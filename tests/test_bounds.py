"""Bound rules: soundness against exact spectra, trace replay, direct sums."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspec import bounds as bnd
from starspec.bounds import (
    Direction,
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
from starspec.geom import BC, EdgeRole, Polygon, orient

REPLAY_REL = 1e-13

# rule -> (params as a rule records them, k, the formula's keywords, the exact call they stand for), for each
# entry of bounds.CLOSED_FORMS
CLOSED_FORM_CASES = {
    "box-eig": [
        ({"dims": [2.381, 2.041], "bcs": ["DD", "DN"]}, 5, {}, lambda: box_eigs((2.381, 2.041), ("DD", "DN"), 5)),
        ({"dims": [2.0, 1.5], "bcs": ["DD", "DD"]}, 6, {"below": 12.0}, lambda: box_eigs((2.0, 1.5), ("DD", "DD"), 6, below=12.0)),
        ({"dims": [1.0, 1.0, 1.0], "bcs": ["DN", "DN", "DN"]}, 4, {}, lambda: box_eigs((1.0, 1.0, 1.0), ("DN", "DN", "DN"), 4)),
    ],
    "equilateral-eig": [
        ({"side": 2 * math.sqrt(3), "bc": "dirichlet"}, 4, {}, lambda: equilateral_eigs(2 * math.sqrt(3), "dirichlet", 4)),
        ({"side": 1.0, "bc": "neumann"}, 3, {}, lambda: equilateral_eigs(1.0, "neumann", 3)),
    ],
}

# every containment outcome holds for the enclosure in either orientation
EITHER_ORIENTATION = pytest.mark.parametrize("clockwise", [False, True], ids=["ccw", "cw"])


def _walls(vertices) -> Polygon:
    """The polygon of the vertices, in their order, with a Dirichlet wall on every edge."""
    n = len(vertices)
    return Polygon(tuple(tuple(map(float, v)) for v in vertices), (BC.DIRICHLET,) * n, (EdgeRole.WALL,) * n)


def _enclosure(vertices, clockwise):
    """_walls(vertices) of counterclockwise vertices, or with clockwise its
    vertices reversed."""
    outer = _walls(vertices)
    return Polygon(outer.vertices[::-1], outer.edge_tags, outer.edge_roles) if clockwise else outer


def dn_square_lowers(k=3):
    eigs = box_eigs((1.0, 1.0), ("NN", "DN"), k)
    return bounds_from_eiglist(
        "dn-square", eigs, Direction.LOWER, "box-eig",
        {"dims": [1.0, 1.0], "bcs": ["NN", "DN"]},
    )


class TestRules:
    def test_dirichlet_monotone_rejects_lowers(self):
        with pytest.raises(ValueError, match="^domain monotonicity transports upper bounds only$"):
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

    def test_scale_bound_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^scaling coefficients must be positive$"):
            scale_bound(dn_square_lowers(), (0.0, 1.0), "y")

    def test_neumann_enclosure_square_oracle(self):
        # mixed problem on the unit square vs the all-Neumann square: the
        # Neumann values never exceed the mixed ones
        neu = bounds_from_eiglist(
            "neumann-square", box_eigs((1.0, 1.0), ("NN", "NN"), 4), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["NN", "NN"]},
        )
        square = _walls([(0, 0), (1, 0), (1, 1), (0, 1)])
        lows = neumann_enclosure_bounds("dn-square", square, square, neu)
        mixed = box_eigs((1.0, 1.0), ("NN", "DN"), 4).values
        for b, ev in zip(lows, mixed):
            assert b.value <= ev + 1e-12

    @EITHER_ORIENTATION
    def test_neumann_enclosure_containment_violation(self, clockwise):
        inner = _walls([(0, 0), (2, 0), (2, 1), (0, 1)])
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        lows = bounds_from_eiglist(
            "outer", box_eigs((1.0, 1.0), ("NN", "NN"), 2), Direction.LOWER,
            "box-eig", {"dims": [1.0, 1.0], "bcs": ["NN", "NN"]},
        )
        with pytest.raises(ValueError, match=r"^vertex \(2\.0, 0\.0\) of the inner domain lies outside the enclosure$"):
            neumann_enclosure_bounds("x", inner, outer, lows)

    @EITHER_ORIENTATION
    def test_neumann_enclosure_bounds_transport(self, clockwise):
        inner = _walls([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)])
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
        inner = _walls([(0, 0), (1, 0), (0.5, 0.5)])
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(inner, outer)  # shared edge is fine

    # a triangle with its vertex `first` at distance d beyond the right side
    # of the unit square; rotating the vertex list puts it at each index
    @staticmethod
    def _poking_triangle(d, first):
        verts = [(1.0 + d, 0.5), (0.5, 0.8), (0.5, 0.2)]
        return _walls(verts[-first:] + verts[:-first])

    @EITHER_ORIENTATION
    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_every_vertex_is_checked_with_the_same_tolerance(self, first, clockwise):
        outer = _enclosure([(0, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(self._poking_triangle(0.5e-10, first), outer)  # tol / 2 outside
        with pytest.raises(ValueError, match=r"^vertex \(.*\) of the inner domain lies outside the enclosure$"):
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
        inner = _walls([(0.1, 0.1), (1.9, 0.1), (0.1, 1.9)])
        with pytest.raises(ValueError, match="^the enclosure is not convex$"):
            check_containment(inner, _enclosure(outer, clockwise))

    @EITHER_ORIENTATION
    def test_a_straight_angle_keeps_an_enclosure_convex(self, clockwise):
        outer = _enclosure([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], clockwise)
        check_containment(_walls([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]), outer)


def _reference_containment(inner: Polygon, outer: Polygon, tol: float = 1e-10) -> str | None:
    """The message of the ValueError that check_containment raised
    when it tested each vertex with orient and a fresh _near_boundary scan of
    the raw edges, or None where it accepted."""
    v = outer.vertices
    sign = math.copysign(1.0, outer.signed_area())
    if any(sign * orient(a, b, c) < 0 for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2])) or not outer.is_simple():
        return "the enclosure is not convex"
    edges = [outer.edge(i) for i in range(outer.n_edges)]
    for x, y in inner.vertices:
        if all(sign * orient(p, q, (x, y)) > 0 for p, q in edges):
            continue
        for (x0, y0), (x1, y1) in edges:
            dx, dy = x1 - x0, y1 - y0
            t = max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / (dx * dx + dy * dy)))
            if math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)) <= tol:
                break
        else:
            return f"vertex ({x}, {y}) of the inner domain lies outside the enclosure"
    return None


class TestContainmentMatchesPerVertexScan:
    def test_seeded_enclosures(self):
        # 4,000 convex enclosures of 3-8 vertices on an ellipse, half of them
        # clockwise and a quarter translated far from the origin; each inner
        # vertex lies on an edge (up to rounding), 1e-11 to 1e-9 off it on
        # either side, or far inside or outside
        rng = random.Random(11)
        outcomes = {"accepted": 0, "vertex": 0}
        for _ in range(4000):
            n = rng.randint(3, 8)
            rx, ry, cx, cy = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), 0.0, 0.0
            if rng.random() < 0.25:
                cx, cy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
            verts = [(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles]
            outer = _enclosure(verts, clockwise=rng.random() < 0.5)
            inner_verts = []
            for _ in range(rng.randint(3, 6)):
                (x0, y0), (x1, y1) = outer.edge(rng.randrange(n))
                t = rng.random()
                x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
                kind = rng.choice(["on", "off", "off", "far"])
                if kind == "off":
                    length = math.hypot(x1 - x0, y1 - y0)
                    d = rng.choice([-1, 1]) * 10 ** rng.uniform(-11, -9) / length
                    x, y = x + d * (y1 - y0), y - d * (x1 - x0)
                elif kind == "far":
                    s = rng.choice([0.5, 1.5])
                    x, y = cx + s * (x - cx), cy + s * (y - cy)
                inner_verts.append((x, y))
            m = len(inner_verts)
            inner = Polygon(tuple(inner_verts), (BC.DIRICHLET,) * m, (EdgeRole.WALL,) * m)
            want = _reference_containment(inner, outer)
            try:
                check_containment(inner, outer)
                got = None
            except ValueError as e:
                got = str(e)
            assert got == want, (outer.vertices, inner.vertices)
            outcomes["accepted" if got is None else got.split()[0]] += 1
        # both outcomes are common, and no ellipse polygon is refused as non-convex
        assert min(outcomes.values()) > 800 and sum(outcomes.values()) == 4000


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
        with pytest.raises(ValueError, match="^direct_sum_bounds merges lower bounds only$"):
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


class TestClosedForms:
    def test_every_closed_form_has_cases(self):
        assert CLOSED_FORM_CASES.keys() == bnd.CLOSED_FORMS.keys()

    @pytest.mark.parametrize(
        "rule, params, k, kw, exact_call",
        [(rule, *case) for rule, cases in CLOSED_FORM_CASES.items() for case in cases],
        ids=[f"{rule}-{i}" for rule, cases in CLOSED_FORM_CASES.items() for i in range(len(cases))],
    )
    def test_the_bounds_are_those_of_the_exact_call(self, rule, params, k, kw, exact_call):
        then = ("relaxation", {"detail": "x"})
        for direction in Direction:
            got = bnd.closed_form_bounds("op", direction, rule, params, k, then, **kw)
            assert got == bounds_from_eiglist("op", exact_call(), direction, rule, params, then)
            assert [replay_bound(b) for b in got] == [b.value for b in got]


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
