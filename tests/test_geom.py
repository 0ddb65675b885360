"""Geometry layer: polygons, configuration validation, truncation, config I/O."""

import math
from pathlib import Path

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
    StubOverlap,
    simple_polygon,
    truncate,
    validate_config,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def t_config():
    return certify.t_junction_config()


class TestPolygon:
    def test_signed_area_and_orientation(self):
        p = simple_polygon(UNIT_SQUARE)
        assert p.signed_area() == pytest.approx(1.0)
        q = simple_polygon(list(reversed(UNIT_SQUARE)))
        assert q.signed_area() == pytest.approx(1.0)  # orientation fixed

    def test_outward_normal_unit_square(self):
        p = simple_polygon(UNIT_SQUARE)
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

    def test_edge_length(self):
        p = simple_polygon([(0, 0), (3, 0), (0, 4)])
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
        p = simple_polygon(pts)
        assert p.is_simple()
        assert p.signed_area() > 0
        # vertices in convex position: the polygon contains its centroid
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        e = 1e-6  # the thinnest polygon drawn (three vertices 0.05 apart, r = 0.5) has its centroid 2e-4 inside
        bounds.check_containment(simple_polygon([(cx + e, cy), (cx, cy + e), (cx - e, cy - e)]), p)


class TestValidation:
    def test_t_junction_valid(self):
        vcfg = t_config()
        assert len(vcfg.branches) == 3
        assert not vcfg.is_3d

    def test_cut_width_mismatch_rejected(self):
        sq = Polygon(
            vertices=tuple(UNIT_SQUARE),
            edge_tags=(BC.DIRICHLET, BC.NEUMANN, BC.DIRICHLET, BC.DIRICHLET),
            edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.WALL, EdgeRole.WALL),
        )
        cfg = StarWaveguideConfig(
            name="bad", center=sq, branches=(Branch(1, CrossSection.interval(2.0)),)
        )
        with pytest.raises(InvalidGeometry):
            validate_config(cfg)

    def test_dirichlet_cut_rejected(self):
        sq = Polygon(
            vertices=tuple(UNIT_SQUARE),
            edge_tags=(BC.DIRICHLET, BC.DIRICHLET, BC.DIRICHLET, BC.DIRICHLET),
            edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.WALL, EdgeRole.WALL),
        )
        cfg = StarWaveguideConfig(
            name="bad", center=sq, branches=(Branch(1, CrossSection.interval(1.0)),)
        )
        with pytest.raises(InvalidGeometry):
            validate_config(cfg)

    def test_an_all_neumann_center_validates(self):
        # the crossing's center: every edge is a cut with a branch
        sq = Polygon(
            vertices=tuple(UNIT_SQUARE),
            edge_tags=(BC.NEUMANN,) * 4,
            edge_roles=(EdgeRole.CUT,) * 4,
        )
        branches = tuple(Branch(i, CrossSection.interval(1.0)) for i in range(4))
        assert validate_config(StarWaveguideConfig(name="x", center=sq, branches=branches)).name == "x"

    def test_3d_box_valid(self):
        vcfg = certify.cube_square_config()
        assert vcfg.is_3d

    def test_3d_disk_must_fit(self):
        box = geom.Box3(dims=(1.0, 1.0, 1.0), axis_bcs=((BC.DIRICHLET, BC.NEUMANN),) * 3)
        cfg = StarWaveguideConfig(
            name="bad", center=box, branches=(Branch(1, CrossSection.disk(0.8)),)
        )
        with pytest.raises(InvalidGeometry):
            validate_config(cfg)


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
        poly = truncate(certify.crossing_config(), 2.0)
        assert poly.area() == pytest.approx(1.0 + 4 * 2.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_length_must_be_positive_and_finite(self, length):
        with pytest.raises(InvalidGeometry):
            truncate(t_config(), length)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0, 4.0])
    def test_every_preset_and_config_has_disjoint_half_strips(self, length):
        configs = [certify.preset(n)[0] for n in certify.PRESET_NAMES]
        configs += [certify.broken_config(a) for a in (0.1, 0.5, 1.0, 1.5)]
        configs += [certify.y_alpha_config(a) for a in (0.3, 0.9, 1.3, 1.55)]
        configs += [geom.load_config(str(p)) for p in sorted(Path("configs").glob("*.json"))]
        for vcfg in configs:
            if vcfg.is_3d:
                continue
            poly = truncate(vcfg, length)  # raises StubOverlap if the half-strips meet
            caps = [i for i, r in enumerate(poly.edge_roles) if r is EdgeRole.CUT]
            assert len(caps) == len(vcfg.branches)
            assert all(poly.edge_tags[i] is BC.DIRICHLET for i in caps)
            widths = sorted(b.cross_section.dims[0] for b in vcfg.branches)
            assert sorted(poly.edge_length(i) for i in caps) == pytest.approx(widths, rel=1e-12)

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
        vcfg = validate_config(
            StarWaveguideConfig(
                name="u",
                center=u,
                branches=(Branch(4, CrossSection.interval(1.0)), Branch(8, CrossSection.interval(1.0))),
            )
        )
        with pytest.raises(StubOverlap, match="half-strips beyond the caps at length 0.5 overlap"):
            truncate(vcfg, 0.5)
        with pytest.raises(StubOverlap, match="self-intersect"):
            truncate(vcfg, 10.0)


class TestConfigIO:
    def test_round_trip_2d(self, tmp_path):
        vcfg = t_config()
        d = geom.config_to_dict(vcfg.cfg)
        path = tmp_path / "t.json"
        import json

        path.write_text(json.dumps(d))
        back = geom.load_config(str(path))
        assert back.name == vcfg.name
        assert back.center.vertices == vcfg.center.vertices
        assert back.center.edge_tags == vcfg.center.edge_tags

    def test_round_trip_3d(self, tmp_path):
        vcfg = certify.cube_disk_config()
        d = geom.config_to_dict(vcfg.cfg)
        path = tmp_path / "c.json"
        import json

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
