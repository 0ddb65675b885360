"""Geometry layer: polygons, configuration validation, truncation, config I/O."""

import dataclasses
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starspec import bounds, certify, geom
from starspec.geom import (
    BC,
    Branch,
    CrossSection,
    EdgeRole,
    InvalidGeometry,
    Polygon,
    StarWaveguideConfig,
    truncate,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def t_config():
    return certify.preset("t_junction")[0]


def walls(vertices) -> Polygon:
    """The polygon of the vertices, in their order, with a Dirichlet wall on every edge."""
    n = len(vertices)
    return Polygon(tuple(tuple(map(float, v)) for v in vertices), (BC.DIRICHLET,) * n, (EdgeRole.WALL,) * n)


class TestPolygon:
    def test_signed_area_follows_the_vertex_order(self):
        assert walls(UNIT_SQUARE).signed_area() == 1.0
        assert walls(UNIT_SQUARE[::-1]).signed_area() == -1.0

    def test_outward_normal_unit_square(self):
        p = walls(UNIT_SQUARE)
        normals = [p.outward_normal(i) for i in range(4)]
        assert normals[0] == pytest.approx((0.0, -1.0))
        assert normals[1] == pytest.approx((1.0, 0.0))
        assert normals[2] == pytest.approx((0.0, 1.0))
        assert normals[3] == pytest.approx((-1.0, 0.0))

    def test_self_intersection_detected(self):
        bowtie = Polygon(
            vertices=((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)),
            edge_tags=(BC.DIRICHLET,) * 4,
            edge_roles=(EdgeRole.WALL,) * 4,
        )
        assert not bowtie.is_simple()

    @staticmethod
    def _segments_meet(p, q, r, s) -> bool:
        """The closed-segment test on geom.orient, with its own copy of the
        1e-14-widened bounding-box test: the reference for _segments_intersect."""
        def on_seg(a, b, c):
            return (min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
                    and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14)

        d1, d2, d3, d4 = geom.orient(r, s, p), geom.orient(r, s, q), geom.orient(p, q, r), geom.orient(p, q, s)
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
            return True
        return any(d == 0 and on_seg(a, b, c) for d, a, b, c in ((d1, r, s, p), (d2, r, s, q), (d3, p, q, r), (d4, p, q, s)))

    @classmethod
    def _crossing_pairs(cls, p: Polygon) -> list[tuple[int, int]]:
        """Every pair i < j of edges that share no vertex and meet: the
        all-pairs loop is_simple must agree with."""
        n = p.n_edges
        return [(i, j) for i in range(n) for j in range(i + 1, n)
                if (j + 1) % n != i and (i + 1) % n != j and cls._segments_meet(*p.edge(i), *p.edge(j))]

    @given(st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-2, 2)), min_size=8, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_the_segment_test_matches_the_reference(self, c):
        # integer coordinates give touching and collinear segments, floats near-collinear ones
        p, q, r, s = (c[0], c[1]), (c[2], c[3]), (c[4], c[5]), (c[6], c[7])
        assert geom._segments_intersect(p, q, r, s) is self._segments_meet(p, q, r, s)

    @staticmethod
    def _rotated(vertices, k: int) -> Polygon:
        v = vertices[k:] + vertices[:k]
        return Polygon(tuple(map(tuple, v)), (BC.DIRICHLET,) * len(v), (EdgeRole.WALL,) * len(v))

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_is_simple_agrees_with_the_all_pairs_loop(self, points):
        # small integer coordinates: many vertices on far edges and collinear overlaps
        p = self._rotated([tuple(map(float, v)) for v in points], 0)
        assert p.is_simple() == (self._crossing_pairs(p) == [])

    @pytest.mark.parametrize("vertices, name", [
        # edges 0 and 2 cross, every other pair is apart: the bowtie, and a
        # pentagon and a hexagon grown from it
        ([(0, 0), (1, 1), (1, 0), (0, 1)], "bowtie"),
        ([(0, 0), (2, 2), (2, 0), (0, 2), (-1, 1)], "pentagon"),
        ([(0, 0), (2, 2), (2, 0), (0, 2), (-1, 2), (-1, 1)], "hexagon"),
        # vertex 3 lies on the far edge 0
        ([(0, 0), (4, 0), (4, 4), (2, 0), (-1, 2)], "vertex on a far edge"),
        # edge 4 lies along edge 0
        ([(0, 0), (4, 0), (4, 2), (3, 2), (3, 0), (1, 0), (1, 2), (0, 2)], "collinear overlap"),
    ])
    def test_every_rotation_of_a_lone_crossing_is_found(self, vertices, name):
        # rotating the vertices moves the one meeting pair through every
        # position, the wrap-around pairs (0, n-2) and (1, n-1) included
        n, lone = len(vertices), name in ("bowtie", "pentagon", "hexagon")
        seen = set()
        for k in range(n):
            p = self._rotated([tuple(map(float, v)) for v in vertices], k)
            pairs = self._crossing_pairs(p)
            assert pairs and not p.is_simple(), (name, k, pairs)
            assert len(pairs) == 1 or not lone
            seen.update(pairs)
        assert {(0, n - 2), (1, n - 1)} <= seen or not lone

    def test_edge_length(self):
        p = walls([(0, 0), (3, 0), (0, 4)])
        assert p.edge_length(0) == pytest.approx(3.0)
        assert p.edge_length(1) == pytest.approx(5.0)

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=2 * math.pi - 0.05),
            min_size=3,
            max_size=10,
            unique=True,
        ),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_inscribed_polygons_are_simple_and_contain_centroid(self, angles, r):
        angles = sorted(angles)
        assume(min(b - a for a, b in zip(angles, angles[1:])) > 0.05)
        pts = [(r * math.cos(a), r * math.sin(a)) for a in angles]
        p = walls(pts)
        assert p.is_simple()
        assert p.signed_area() > 0
        # vertices in convex position: the polygon contains its centroid
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        e = 1e-6  # the thinnest polygon drawn (three vertices 0.05 apart, r = 0.5) has its centroid 2e-4 inside
        bounds.check_containment(walls([(cx + e, cy), (cx, cy + e), (cx - e, cy - e)]), p)


D, N = BC.DIRICHLET, BC.NEUMANN
W, C = EdgeRole.WALL, EdgeRole.CUT
T_CENTER = Polygon(tuple(UNIT_SQUARE), (D, N, N, N), (W, C, C, C))
UNIT_BRANCHES = tuple(Branch(i, CrossSection.interval(1.0)) for i in (1, 2, 3))
CUBE = geom.Box3(dims=(1.0, 1.0, 1.0), axis_bcs=((D, N),) * 3)
SQUARE_DUCT = CrossSection.rectangle(1.0, 1.0)


def _duct(face, section=SQUARE_DUCT):
    return (Branch(face, section),)


class TestValidation:
    # (center, branches, the message of the InvalidGeometry they raise)
    INVALID = {
        "cut-width": (Polygon(tuple(UNIT_SQUARE), (D, N, D, D), (W, C, W, W)),
                      (Branch(1, CrossSection.interval(2.0)),), "branch width 2.0 does not match cut edge length 1.0"),
        "dirichlet-cut": (Polygon(tuple(UNIT_SQUARE), (D,) * 4, (W, C, W, W)), UNIT_BRANCHES[:1],
                          "cut edge 1 must carry the Neumann tag"),
        "no-branch": (T_CENTER, (), "configuration has no branch"),
        "clockwise": (walls(UNIT_SQUARE[::-1]), UNIT_BRANCHES[:1], "center polygon must be positively oriented"),
        "self-intersecting": (walls([(0, 0), (2, 2), (2, 0), (0, 2), (-1, 1)]), UNIT_BRANCHES[:1],
                              "center polygon is self-intersecting"),
        "nan-vertex": (walls([(0, 0), (1, 0), (math.nan, 1)]), UNIT_BRANCHES[:1],
                       "center vertices must be pairs of finite numbers"),
        "shared-cut": (T_CENTER, UNIT_BRANCHES[:1] + UNIT_BRANCHES, "two branches share cut edge 1"),
        "wall-branch": (T_CENTER, (Branch(0, CrossSection.interval(1.0)),) + UNIT_BRANCHES,
                        "branch references non-cut edge 0"),
        "2d-rectangle": (T_CENTER, (Branch(1, SQUARE_DUCT),) + UNIT_BRANCHES[1:],
                         "2D branches must have interval cross-sections"),
        "uncovered-cut": (T_CENTER, UNIT_BRANCHES[:2], "cut edges [3] have no branch attached"),
        "two-axis-pairs": (geom.Box3(CUBE.dims, CUBE.axis_bcs[:2]), _duct(1),
                           "box center needs three dims and three axis_bcs pairs"),
        "face-range": (CUBE, _duct(6), "cut face index 6 out of range"),
        "shared-face": (CUBE, _duct(1) * 2, "two branches share cut face 1"),
        "dirichlet-face": (CUBE, _duct(0), "cut face 0 must carry the Neumann tag"),
        "duct-mismatch": (CUBE, _duct(1, CrossSection.rectangle(1.0, 2.0)), "rectangular branch must match the cut face"),
        "disk-too-wide": (CUBE, _duct(1, CrossSection.disk(0.8)), "disk branch does not fit inside the cut face"),
        "3d-interval": (CUBE, _duct(1, CrossSection.interval(1.0)), "3D branches must be rectangles or disks"),
    }

    @staticmethod
    def _routes(center, branches, valid=None) -> list[str]:
        """The InvalidGeometry message of each way to build the config: the
        constructor, config_from_dict and dataclasses.replace on a valid one."""
        valid = valid or certify.preset("cube_square" if isinstance(center, geom.Box3) else "t_junction")[0]
        as_dict = geom.config_to_dict(SimpleNamespace(name="bad", center=center, branches=branches,
                                                      is_3d=isinstance(center, geom.Box3)))
        routes = [lambda: StarWaveguideConfig("bad", center, branches), lambda: geom.config_from_dict(as_dict),
                  lambda: dataclasses.replace(valid, center=center, branches=branches)]
        messages = []
        for build in routes:
            with pytest.raises(InvalidGeometry) as e:
                build()
            messages.append(str(e.value))
        return messages

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_an_invalid_config_cannot_be_built(self, case):
        center, branches, message = self.INVALID[case]
        assert self._routes(center, branches) == [message] * 3

    def test_a_center_past_the_vertex_cap_is_refused_before_the_simplicity_test(self, monkeypatch):
        monkeypatch.setattr(geom, "MAX_VERTICES", 4)
        valid = t_config()  # four vertices: at the cap
        monkeypatch.setattr(Polygon, "is_simple", lambda self: pytest.fail("is_simple ran"))
        monkeypatch.setattr(Polygon, "signed_area", lambda self: pytest.fail("signed_area ran"))
        pentagon = geom.y_center_polygon(1.0)
        branches = tuple(Branch(i, CrossSection.interval(1.0)) for i, r in enumerate(pentagon.edge_roles) if r is C)
        assert self._routes(pentagon, branches, valid) == ["center polygon has 5 vertices, more than the cap of 4 vertices"] * 3

    def test_a_bound_alpha_leaves_equality_hash_and_repr_alone(self):
        # the mesh cache keys on the config: a verdict that bound alpha must
        # not make the next config of the same geometry a cache miss
        bound, fresh = (geom.load_config("configs/broken_1.0.json") for _ in range(2))
        assert bound.center.family_alpha("bent-guide") == 1.0
        assert "_alphas" in vars(bound.center) and "_alphas" not in vars(fresh.center)
        for a, b in [(bound.center, fresh.center), (bound, fresh)]:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert certify._truncated_mesh(bound, 2.0, 1) is certify._truncated_mesh(fresh, 2.0, 1)

    def test_a_read_box_leaves_equality_hash_and_repr_alone(self):
        bound, fresh = (geom.load_config("configs/rect_two_eigs.json") for _ in range(2))
        assert bound.center.axis_box == ([2.381, 2.041], ["DN", "DD"], "branch side relaxed to full Neumann")
        assert "axis_box" in vars(bound.center) and "axis_box" not in vars(fresh.center)
        for a, b in [(bound.center, fresh.center), (bound, fresh)]:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_a_family_polygon_that_has_read_equals_a_fresh_center(self):
        # family_alpha finds a center by built == center, and the build may be
        # the cached family polygon, which keeps whatever it has read
        geom.broken_polygon.cache_clear()
        built = geom.broken_polygon(1.0)
        box3 = certify.preset("cube_square")[0].center
        for center in (built, box3):
            assert center.axis_box == geom.axis_box(center)
            assert [center.family_alpha(f) for f in geom.FAMILIES] == [geom.family_alpha(center, f) for f in geom.FAMILIES]
        fresh = geom.load_config("configs/broken_1.0.json").center
        assert "_alphas" in vars(built) and "_alphas" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert geom.family_alpha(fresh, "bent-guide") == 1.0 and geom.broken_polygon(1.0) is built

    def test_t_junction_valid(self):
        vcfg = t_config()
        assert len(vcfg.branches) == 3
        assert not vcfg.is_3d

    def test_an_all_neumann_center_validates(self):
        # the crossing's center: every edge is a cut with a branch
        sq = Polygon(
            vertices=tuple(UNIT_SQUARE),
            edge_tags=(BC.NEUMANN,) * 4,
            edge_roles=(EdgeRole.CUT,) * 4,
        )
        branches = tuple(Branch(i, CrossSection.interval(1.0)) for i in range(4))
        assert StarWaveguideConfig(name="x", center=sq, branches=branches).name == "x"

    def test_3d_box_valid(self):
        vcfg = certify.preset("cube_square")[0]
        assert vcfg.is_3d


class TestTruncate:
    def test_t_truncation_geometry(self):
        poly = truncate(t_config(), 3.0)
        assert poly.n_edges == 10
        assert poly.area() == pytest.approx(1.0 + 3 * 3.0)
        assert all(t is BC.DIRICHLET for t in poly.edge_tags)

    def test_area_grows_linearly(self):
        vcfg = t_config()
        a2 = truncate(vcfg, 2.0).area()
        a4 = truncate(vcfg, 4.0).area()
        assert a4 - a2 == pytest.approx(3 * 2.0)

    def test_crossing_truncation(self):
        poly = truncate(certify.preset("crossing")[0], 2.0)
        assert poly.area() == pytest.approx(1.0 + 4 * 2.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_length_must_be_positive_and_finite(self, length):
        with pytest.raises(InvalidGeometry):
            truncate(t_config(), length)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0, 4.0])
    def test_every_preset_and_config_has_disjoint_half_strips(self, length):
        configs = [certify.preset(n)[0] for n in certify.PRESET_NAMES]
        configs += [certify.preset("broken", alpha=a)[0] for a in (0.1, 0.5, 1.0, 1.5)]
        configs += [certify.preset("y_alpha", alpha=a)[0] for a in (0.3, 0.9, 1.3, 1.55)]
        configs += [geom.load_config(str(p)) for p in sorted(Path("configs").glob("*.json"))]
        for vcfg in configs:
            if vcfg.is_3d:
                continue
            poly = truncate(vcfg, length)  # raises InvalidGeometry if the half-strips meet
            caps = [i for i, r in enumerate(poly.edge_roles) if r is EdgeRole.CUT]
            assert len(caps) == len(vcfg.branches)
            assert all(poly.edge_tags[i] is BC.DIRICHLET for i in caps)
            widths = sorted(b.cross_section.dims[0] for b in vcfg.branches)
            assert sorted(poly.edge_length(i) for i in caps) == pytest.approx(widths, rel=1e-12)

    def test_the_truncated_polygon_is_counterclockwise(self):
        # each stub adds its positive area w L to the center's, so truncate
        # never needs to reverse its vertex list
        rng = random.Random(3)
        configs = [certify.preset(n)[0] for n in certify.PRESET_NAMES]
        for name, lo, hi in [("broken", 0.1, 1.5), ("y_alpha", 0.3, 1.55), ("rounded_corner", 0.3, math.pi)]:
            configs += [certify.preset(name, alpha=rng.uniform(lo, hi))[0] for _ in range(20)]
        configs += [geom.load_config(str(p)) for p in sorted(Path("configs").glob("*.json"))]
        for vcfg in configs:
            if not vcfg.is_3d:
                length = rng.uniform(0.5, 4.0)
                assert truncate(vcfg, length).signed_area() > 0, (vcfg.name, length)

    def test_facing_cuts_overlap_raises(self):
        # U-shaped center with facing cuts on the inner prong walls: long
        # stubs collide across the notch, and the half-strips beyond the caps
        # of short stubs still do
        D, N = BC.DIRICHLET, BC.NEUMANN
        W, C = EdgeRole.WALL, EdgeRole.CUT
        u = Polygon(
            vertices=(
                (0.0, 0.0), (5.0, 0.0), (5.0, 3.0), (4.0, 3.0),
                (4.0, 2.5), (4.0, 1.5), (4.0, 1.0), (1.0, 1.0),
                (1.0, 1.5), (1.0, 2.5), (1.0, 3.0), (0.0, 3.0),
            ),
            edge_tags=(D, D, D, D, N, D, D, D, N, D, D, D),
            edge_roles=(W, W, W, W, C, W, W, W, C, W, W, W),
        )
        vcfg = StarWaveguideConfig(
            name="u",
            center=u,
            branches=(Branch(4, CrossSection.interval(1.0)), Branch(8, CrossSection.interval(1.0))),
        )
        with pytest.raises(InvalidGeometry, match="^the branch half-strips beyond the caps at length 0.5 overlap$"):
            truncate(vcfg, 0.5)
        with pytest.raises(InvalidGeometry, match="^branch stubs of length 10.0 self-intersect; shorten the stubs$"):
            truncate(vcfg, 10.0)


class TestConfigIO:
    def test_round_trip_2d(self, tmp_path):
        vcfg = t_config()
        d = geom.config_to_dict(vcfg)
        path = tmp_path / "t.json"

        path.write_text(json.dumps(d))
        back = geom.load_config(str(path))
        assert back.name == vcfg.name
        assert back.center.vertices == vcfg.center.vertices
        assert back.center.edge_tags == vcfg.center.edge_tags

    def test_round_trip_3d(self, tmp_path):
        vcfg = certify.preset("cube_disk")[0]
        d = geom.config_to_dict(vcfg)
        path = tmp_path / "c.json"

        path.write_text(json.dumps(d))
        back = geom.load_config(str(path))
        assert back.is_3d
        assert back.branches[0].cross_section.kind == "disk"

    def test_shipped_configs_load(self):
        import glob

        paths = sorted(glob.glob("configs/*.json"))
        assert len(paths) >= 8
        for p in paths:
            geom.load_config(p)


class TestFamilyAlpha:
    @pytest.mark.parametrize("family", sorted(geom.FAMILIES))
    def test_a_box_or_a_fixed_shape_binds_no_family(self, family):
        box = geom.Box3(dims=(1.0, 1.0, 1.0), axis_bcs=((BC.DIRICHLET, BC.NEUMANN),) * 3)
        assert geom.family_alpha(box, family) is None
        for stem in ("t_junction", "crossing", "straight_strip"):
            assert geom.family_alpha(geom.load_config(f"configs/{stem}.json").center, family) is None
