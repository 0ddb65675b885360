"""P1 finite elements: meshing, assembly invariants, convergence."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from starspec import certify, fem, geom
from starspec.exact import PI2, EigList, box_eigs, equilateral_eigs
from starspec.geom import BC, EdgeRole, Polygon

DN_SQUARE = Polygon(
    vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    edge_tags=(BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.NEUMANN),
    edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.CUT),
)

NEUMANN_TRIANGLE = Polygon(
    vertices=((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
    edge_tags=(BC.NEUMANN,) * 3,
    edge_roles=(EdgeRole.CUT,) * 3,
)

NEUMANN_SQUARE = Polygon(DN_SQUARE.vertices, (BC.NEUMANN,) * 4, (EdgeRole.WALL,) * 4)

L_SHAPE = Polygon(
    vertices=((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)),
    edge_tags=(BC.DIRICHLET,) * 6,
    edge_roles=(EdgeRole.WALL,) * 6,
)


def _area(mesh):
    """Total area of the mesh triangles, from mesh.nodes and mesh.triangles."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * float(np.sum((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                              - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])))


class TestMeshing:
    def test_triangulate_respects_target(self):
        h, min_angle = fem.triangulate(DN_SQUARE, 0.25).quality()
        assert h <= 0.25 + 1e-12
        assert min_angle > 0

    def test_triangle_areas_sum_to_polygon_area(self):
        for poly in (DN_SQUARE, NEUMANN_TRIANGLE):
            mesh = fem.triangulate(poly, 0.3)
            assert _area(mesh) == pytest.approx(poly.area(), rel=1e-12)

    def test_refine_quarters_triangles(self):
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        fine = fem.refine(mesh)
        assert fine.triangles.shape[0] == 4 * mesh.triangles.shape[0]
        assert _area(fine) == pytest.approx(_area(mesh), rel=1e-12)
        assert fine.quality()[0] == pytest.approx(mesh.quality()[0] / 2, rel=1e-12)

    def test_boundary_tags_survive_refinement(self):
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        fine = fem.refine(mesh)
        # total boundary length per tag is conserved
        def tag_length(m, tag):
            total = 0.0
            for (a, b), src in zip(m.boundary_edges, m.boundary_src):
                if m.edge_tags[src] is tag:
                    total += np.linalg.norm(m.nodes[a] - m.nodes[b])
            return total

        for tag in (BC.DIRICHLET, BC.NEUMANN):
            assert tag_length(fine, tag) == pytest.approx(tag_length(mesh, tag), rel=1e-12)

    def test_nonconvex_polygon_meshes(self):
        ell = L_SHAPE
        mesh = fem.triangulate(ell, 0.25)
        assert _area(mesh) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("h0", [0.0, -0.5, math.nan, math.inf])
    def test_mesh_size_must_be_positive_and_finite(self, h0):
        with pytest.raises(ValueError, match=f"^{re.escape(f'h_target must be positive and finite, not {h0}')}$"):
            fem.triangulate(DN_SQUARE, h0)


def _delaunay_excess(mesh):
    """Largest amount by which the two angles facing an interior edge sum
    past pi: positive exactly when flipping that edge would make the mesh
    more Delaunay (a pair summing past pi spans a strictly convex quad)."""
    owners = {}
    for tri in mesh.triangles.tolist():
        for i in range(3):
            owners.setdefault(frozenset((tri[i], tri[i - 1])), []).append(tri[i - 2])
    worst = -math.pi
    for edge, facing in owners.items():
        if len(facing) == 2:
            a, b = (mesh.nodes[v] for v in edge)
            total = 0.0
            for v in facing:
                u, w = a - mesh.nodes[v], b - mesh.nodes[v]
                total += math.acos(np.clip(u @ w / (np.linalg.norm(u) * np.linalg.norm(w)), -1, 1))
            worst = max(worst, total - math.pi)
    return worst


def _rescan_flips(nodes, tris, fixed_edges):
    """Reference for fem._delaunay_flips: after every flip, rebuild the edge
    map and flip the first flippable edge in order of first appearance."""

    def in_circumcircle(a, b, c, d):
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        ax, ay, bx, by, cx, cy = a[0] - d[0], a[1] - d[1], b[0] - d[0], b[1] - d[1], c[0] - d[0], c[1] - d[1]
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        det = ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) + a2 * (bx * cy - by * cx)
        return math.copysign(1.0, orient) * det > 1e-12

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    pts = nodes.tolist()
    for _ in range(len(pts) * (len(pts) - 1) // 2 + 1):
        edge_map = {}
        for t, tri in enumerate(tris):
            for i in range(3):
                edge_map.setdefault(tuple(sorted((tri[i], tri[(i + 1) % 3]))), []).append(t)
        for e, owners in edge_map.items():
            if len(owners) != 2 or e in fixed_edges:
                continue
            t1, t2 = owners
            a, b = e
            c = next(v for v in tris[t1] if v not in e)
            d = next(v for v in tris[t2] if v not in e)
            if not in_circumcircle(pts[tris[t1][0]], pts[tris[t1][1]], pts[tris[t1][2]], pts[d]):
                continue
            if orient(pts[c], pts[a], pts[d]) <= 1e-14 or orient(pts[d], pts[b], pts[c]) <= 1e-14:
                continue
            tris[t1] = [c, a, d]
            tris[t2] = [d, b, c]
            break
        else:
            return
    raise ValueError("Delaunay flips did not settle")


def _flip_inputs():
    """The distinct vertex arrays of every 2D preset and shipped config
    center, each also truncated at L 2, 3 and 4, of 24 family angles and of
    40 random star polygons with 8 to 80 vertices."""
    vcfgs = [certify.preset(name)[0] for name in certify.PRESET_NAMES]
    vcfgs += [geom.load_config(str(path)) for path in sorted(Path("configs").glob("*.json"))]
    vcfgs = [v for v in vcfgs if isinstance(v.center, Polygon)]
    polys = [v.center for v in vcfgs] + [geom.truncate(v, length) for v in vcfgs for length in (2.0, 3.0, 4.0)]
    polys += [geom.truncate(certify.preset("broken", alpha=float(a))[0], 2.0) for a in np.linspace(0.3, 1.5, 12)]
    polys += [geom.truncate(certify.preset("y_alpha", alpha=float(a))[0], 2.0) for a in np.linspace(0.55, 1.45, 12)]
    vertices = [np.array(p.vertices, dtype=float) for p in polys]
    rng = np.random.default_rng(19)
    for n in rng.integers(8, 81, size=40):
        theta = np.sort(rng.uniform(0, 2 * math.pi, n))
        radius = rng.uniform(0.3, 1.0, n)
        vertices.append(np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1))
    return list({v.tobytes(): v for v in vertices}.values())  # the config files repeat preset centers


class TestDelaunayFlips:
    def test_the_flip_sequence_is_the_rescan_sequence(self):
        for verts in _flip_inputs():
            n = len(verts)
            fixed = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
            tris = [list(t) for t in fem._ear_clip(verts)]
            reference = [list(t) for t in tris]
            _rescan_flips(verts, reference, fixed)
            fem._delaunay_flips(verts, tris, fixed)
            assert tris == reference

    def test_the_flips_run_until_no_edge_flips(self):
        # the 64-segment arc needs 63 flips; the last arc triangle's angle is 90 / 64 degrees
        poly = geom.truncate(certify._unit_star("rounded_corner", geom.rounded_corner_polygon(math.pi / 2, 64)), 2.0)
        mesh = fem.triangulate(poly, 1e3)  # no refinement
        assert _delaunay_excess(mesh) <= 1e-9
        assert mesh.quality()[1] == pytest.approx(90 / 64, rel=1e-9)


class TestRefinementCap:
    def test_refine_stops_past_the_cap(self, monkeypatch):
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        monkeypatch.setattr(fem, "MAX_TRIANGLES", 4 * len(mesh.triangles))
        fine = fem.refine(mesh)  # exactly at the cap
        with pytest.raises(ValueError, match=f"^refining to {16 * len(mesh.triangles)} triangles exceeds the cap of {4 * len(mesh.triangles)} triangles$"):
            fem.refine(fine)

    def test_every_refinement_loop_meets_the_cap(self, monkeypatch):
        monkeypatch.setattr(fem, "MAX_TRIANGLES", 1000)
        full = "^refining to 2048 triangles exceeds the cap of 1000 triangles$"  # each refines to 512 and stops there
        with pytest.raises(ValueError, match=full):
            fem.triangulate(DN_SQUARE, 1e-6)
        with pytest.raises(ValueError, match=full):
            fem.dn_spectrum(DN_SQUARE, 2, 40, 0.5)

    def test_the_cap_admits_the_largest_mesh_the_benchmark_refines(self):
        # the refinement workload's deepest spectrum mesh: 163,840 triangles, 82,689 nodes
        assert fem.MAX_TRIANGLES >= 163_840


def _norm_max_diameter(mesh):
    """The longest edge, as np.linalg.norm over (T, 2) edge vectors."""
    p = mesh.nodes[mesh.triangles]
    return float(np.max([np.linalg.norm(p[:, i] - p[:, j], axis=1) for i, j in ((0, 1), (1, 2), (2, 0))]))


def _norm_min_angle_deg(mesh):
    """The smallest angle, as one acos of the largest corner cosine from np.sum
    and np.linalg.norm over (T, 2) edge vectors."""
    p = mesh.nodes[mesh.triangles]
    cosines = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosines.append(np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)))
    return math.degrees(math.acos(min(1.0, float(np.max(cosines)))))


class TestMeshDiagnostics:
    # the rungs the FEM presets solve
    @pytest.mark.parametrize(
        "name, length, h0, levels",
        [
            ("t_junction", 2.0, 0.5, 1),
            ("y_junction", 2.0, 0.5, 1),
            ("crossing", 2.0, 0.5, 1),
            ("crossing", 3.0, 0.25, 2),
            ("rounded_corner", 2.0, 0.5, 1),
            ("rounded_corner", 3.0, 0.25, 2),
            # count meshes that end in a partial chunk: 7,168 and 10,240 triangles
            ("rounded_corner", 2.0, 0.5, 2),
            ("crossing", 2.0, 0.5, 3),
        ],
    )
    def test_column_formulas_give_the_same_bits(self, name, length, h0, levels):
        mesh = fem.triangulate(geom.truncate(certify.preset(name)[0], length), h0)
        for _ in range(levels - 1):
            mesh = fem.refine(mesh)
        assert mesh.quality() == (_norm_max_diameter(mesh), _norm_min_angle_deg(mesh))

    def test_the_worst_triangle_counts_in_every_chunk(self):
        # one sliver, its corners in each rotation, put on either side of each
        # chunk boundary of the crossing's 10,240-triangle count mesh
        mesh, _ = certify._truncated_mesh(certify.preset("crossing")[0], 2.0, 3)
        assert len(mesh.triangles) % fem.CHUNK  # the last chunk is partial
        sliver = len(mesh.nodes) + np.arange(3)
        nodes = np.concatenate([mesh.nodes, [[0.0, 0.0], [10.0, 0.0], [5.0, 0.1]]])
        for row in (0, fem.CHUNK - 1, fem.CHUNK, 2 * fem.CHUNK, len(mesh.triangles) - 1):
            for shift in range(3):
                tris = mesh.triangles.copy()
                tris[row] = np.roll(sliver, shift)
                worse = dataclasses.replace(mesh, nodes=nodes, triangles=tris)
                h, min_angle = worse.quality()
                assert (h, min_angle) == (10.0, _norm_min_angle_deg(worse))
                assert min_angle == pytest.approx(math.degrees(math.atan2(0.1, 5.0)), rel=1e-12)

    def test_the_bits_do_not_depend_on_numpy_cpu_dispatch(self):
        # np.arccos of an array takes a path per CPU feature, and once moved
        # the last bit of min_angle; NumPy ignores the names a CPU lacks
        code = (
            "from starspec import certify; "
            "print(*(x.hex() for name in ('t_junction', 'crossing') for levels in (1, 2, 3) "
            "for x in certify._truncated_mesh(certify.preset(name)[0], 2.0, levels)[0].quality()))"
        )
        src = str(Path(fem.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        outs = [
            subprocess.run([sys.executable, "-c", code], env={**env, **disabled}, capture_output=True, text=True, check=True).stdout
            for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})
        ]
        assert len(outs[0].split()) == 12
        assert outs[0] == outs[1]


def _coo_assemble(mesh, tails=None):
    """Reference for fem.assemble: the element and cap matrices summed by a
    COO -> CSR conversion on all nodes, then the free block cut out with
    np.ix_.  Returns (free nodes, K, M)."""
    tails = tails or {}
    nn = len(mesh.nodes)
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area[:, None, None])
    me = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None]
    rows, cols = np.repeat(mesh.triangles, 3, axis=1).ravel(), np.tile(mesh.triangles, (1, 3)).ravel()
    ke, me = ke.ravel(), me.ravel()
    cap = np.array([src in tails for src in mesh.boundary_src], dtype=bool)
    if cap.any():
        e = mesh.boundary_edges[cap]
        k = np.array([tails[src] for src in mesh.boundary_src[cap]])[:, None, None]
        h = np.hypot(*(mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]]).T)[:, None, None]
        k1, m1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h, np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
        ke, me = np.concatenate([ke, ((k1 + k * k * m1) / (2 * k)).ravel()]), np.concatenate([me, (m1 / (2 * k)).ravel()])
        rows, cols = np.concatenate([rows, np.repeat(e, 2, axis=1).ravel()]), np.concatenate([cols, np.tile(e, (1, 2)).ravel()])
    K = sp.coo_matrix((ke, (rows, cols)), shape=(nn, nn)).tocsr()
    M = sp.coo_matrix((me, (rows, cols)), shape=(nn, nn)).tocsr()
    is_dirichlet = np.array([mesh.edge_tags[src] is BC.DIRICHLET for src in mesh.boundary_src], dtype=bool) & ~cap
    free = np.setdiff1d(np.arange(nn), mesh.boundary_edges[is_dirichlet])
    return free, K[np.ix_(free, free)].tocsr(), M[np.ix_(free, free)].tocsr()


def _assembly_inputs():
    """(mesh, tails) pairs: the center of every 2D preset and shipped config,
    and its guide truncated at L 2 with and without tail caps, each meshed
    at FEM_H0 and refined once."""
    vcfgs = [certify.preset(name)[0] for name in certify.PRESET_NAMES]
    vcfgs += [geom.load_config(str(path)) for path in sorted(Path("configs").glob("*.json"))]
    out = []
    for vcfg in (v for v in vcfgs if isinstance(v.center, Polygon)):
        guide = geom.truncate(vcfg, 2.0)
        for poly, tails in ((vcfg.center, None), (guide, None), (guide, certify.tail_caps(guide))):
            out.append((fem.refine(fem.triangulate(poly, certify.FEM_H0)), tails))
    return out


class TestAssembly:
    def test_the_shared_pattern_matches_the_coo_reference(self):
        for mesh, tails in _assembly_inputs():
            prob = fem.assemble(mesh, tails)
            free, *reference = _coo_assemble(mesh, tails)
            assert np.array_equal(prob.free_nodes, free)
            for got, want in zip((prob.stiffness, prob.mass), reference):
                want.sort_indices()
                assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                scale = abs(want).max(axis=1).toarray().ravel()
                assert np.all(abs(got - want).max(axis=1).toarray().ravel() <= 1e-14 * scale)
                assert (got != got.T).nnz == 0  # bitwise symmetric
            assert np.array_equal(prob.stiffness.indices, prob.mass.indices)
            assert np.array_equal(prob.stiffness.indptr, prob.mass.indptr)

    def test_mass_sums_to_area(self):
        # all-Neumann polygons keep every node, so the mass matrix integrates 1 * 1
        for poly in (NEUMANN_SQUARE, NEUMANN_TRIANGLE):
            prob = fem.assemble(fem.triangulate(poly, 0.25))
            assert prob.mass.sum() == pytest.approx(poly.area(), rel=1e-12)

    def test_stiffness_kernel_is_constants_without_dirichlet(self):
        prob = fem.assemble(fem.triangulate(NEUMANN_TRIANGLE, 0.3))
        ones = np.ones(prob.stiffness.shape[0])
        assert np.abs(prob.stiffness @ ones).max() < 1e-12

    def test_dirichlet_nodes_eliminated(self):
        mesh = fem.triangulate(DN_SQUARE, 0.25)
        prob = fem.assemble(mesh)
        assert prob.stiffness.shape[0] == len(prob.free_nodes)
        assert prob.stiffness.shape[0] < mesh.nodes.shape[0]

    def test_translation_invariance(self):
        shifted = Polygon(
            vertices=tuple((x + 3.0, y - 2.0) for x, y in DN_SQUARE.vertices),
            edge_tags=DN_SQUARE.edge_tags,
            edge_roles=DN_SQUARE.edge_roles,
        )
        a = fem.lowest_eigs(fem.assemble(fem.triangulate(DN_SQUARE, 0.25)), 3).values
        b = fem.lowest_eigs(fem.assemble(fem.triangulate(shifted, 0.25)), 3).values
        assert b == pytest.approx(a, rel=1e-9)

    def test_rotation_invariance(self):
        th = 0.7
        R = lambda p: (
            p[0] * math.cos(th) - p[1] * math.sin(th),
            p[0] * math.sin(th) + p[1] * math.cos(th),
        )
        rotated = Polygon(
            vertices=tuple(R(p) for p in DN_SQUARE.vertices),
            edge_tags=DN_SQUARE.edge_tags,
            edge_roles=DN_SQUARE.edge_roles,
        )
        a = fem.lowest_eigs(fem.assemble(fem.triangulate(DN_SQUARE, 0.25)), 3).values
        b = fem.lowest_eigs(fem.assemble(fem.triangulate(rotated, 0.25)), 3).values
        assert b == pytest.approx(a, rel=1e-8)


# sha256 of the text dump of one refinement of the coarse t_junction mesh;
# pins the node numbering (old nodes, then midpoints by first appearance)
T_JUNCTION_REFINED_SHA256 = "a935c564e5d55de71ab1be0bb4a9d750ffb4b865d03d443f0a4247bd5c2189a9"


def _loop_refine(mesh):
    """Edge-by-edge reference for fem.refine, with the same numbering rule."""
    nodes = [tuple(p) for p in mesh.nodes]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(nodes)
            nodes.append(tuple(0.5 * (mesh.nodes[i] + mesh.nodes[j])))
        return midpoint[key]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    bedges = []
    for i, j in mesh.boundary_edges:
        m = mid(i, j)
        bedges += [[i, m], [m, j]]
    return np.array(nodes), np.array(tris), np.array(bedges)


class TestRefineNumbering:
    @pytest.fixture(scope="class")
    def meshes(self):
        poly = geom.truncate(certify.preset("t_junction")[0], 3.0)
        coarse = fem.triangulate(poly, 0.5)
        return coarse, fem.refine(coarse)

    def test_golden_dump(self, meshes):
        _, fine = meshes
        assert len(fine.nodes) == 4257
        digest = hashlib.sha256("".join(fem.mesh_text_dump(fine)).encode()).hexdigest()
        assert digest == T_JUNCTION_REFINED_SHA256

    @pytest.mark.parametrize(
        "poly",
        [
            DN_SQUARE,
            NEUMANN_TRIANGLE,
            L_SHAPE,
        ],
    )
    def test_matches_edge_loop_reference(self, poly):
        mesh = fem.triangulate(poly, 0.5)
        for _ in range(2):
            nodes, tris, bedges = _loop_refine(mesh)
            fine = fem.refine(mesh)
            assert np.array_equal(fine.nodes, nodes)
            assert np.array_equal(fine.triangles, tris)
            assert np.array_equal(fine.boundary_edges, bedges)
            assert fine.edge_tags is mesh.edge_tags
            assert fine.boundary_src.tolist() == [s for s in mesh.boundary_src.tolist() for _ in range(2)]
            mesh = fine

    def test_old_nodes_are_a_prefix(self, meshes):
        coarse, fine = meshes
        assert np.array_equal(fine.nodes[: len(coarse.nodes)], coarse.nodes)

    def test_new_nodes_are_exact_edge_midpoints(self, meshes):
        coarse, fine = meshes
        a, b, c = coarse.triangles.T
        # children of triangle t are 4t..4t+3; the last is (ab, bc, ca)
        ab, bc, ca = fine.triangles[3::4].T
        x = coarse.nodes
        for m, (i, j) in ((ab, (a, b)), (bc, (b, c)), (ca, (c, a))):
            assert np.all(fine.nodes[m] == 0.5 * (x[i] + x[j]))
        bm = fine.boundary_edges[0::2, 1]
        bi, bj = coarse.boundary_edges.T
        assert np.all(fine.nodes[bm] == 0.5 * (x[bi] + x[bj]))
        new = np.unique(np.concatenate([ab, bc, ca, bm]))
        assert np.array_equal(new, np.arange(len(coarse.nodes), len(fine.nodes)))

    def test_no_duplicate_nodes(self, meshes):
        _, fine = meshes
        assert len(np.unique(fine.nodes, axis=0)) == len(fine.nodes)

    def test_children_positively_oriented(self, meshes):
        _, fine = meshes
        p = fine.nodes[fine.triangles]
        det = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 2, 0] - p[:, 0, 0]
        ) * (p[:, 1, 1] - p[:, 0, 1])
        assert np.all(det > 0)

    def test_boundary_edges_belong_to_one_triangle(self, meshes):
        _, fine = meshes
        t = fine.triangles
        edges = np.sort(np.stack([t, t[:, [1, 2, 0]]], axis=2).reshape(-1, 2), axis=1)
        keys, counts = np.unique(edges, axis=0, return_counts=True)
        owners = dict(zip(map(tuple, keys), counts))
        for e in np.sort(fine.boundary_edges, axis=1):
            assert owners.get(tuple(e)) == 1


class TestProlongation:
    @pytest.mark.parametrize("poly", [DN_SQUARE, NEUMANN_TRIANGLE, geom.truncate(certify.preset("crossing")[0], 2.0)])
    def test_every_midpoint_is_the_mean_of_its_parents(self, poly):
        mesh = fem.triangulate(poly, 0.5)
        for _ in range(2):
            fine = fem.refine(mesh)
            n = len(mesh.nodes)
            assert fine.parents.shape == (len(fine.nodes) - n, 2) and fine.parents.max() < n
            assert np.all(fine.nodes[n:] == 0.5 * (fine.nodes[fine.parents[:, 0]] + fine.nodes[fine.parents[:, 1]]))
            edges = {tuple(sorted(e)) for t in mesh.triangles.tolist() for e in zip(t, t[1:] + t[:1])}
            assert {tuple(sorted(e)) for e in fine.parents.tolist()} == edges
            mesh = fine

    @pytest.mark.parametrize("poly", [DN_SQUARE, L_SHAPE])
    def test_a_linear_function_is_reproduced_exactly(self, poly):
        # dyadic nodes keep every value exact
        f = lambda p: 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]
        mesh = fem.triangulate(poly, 0.5)
        for _ in range(2):
            fine = fem.refine(mesh)
            assert np.array_equal(fine.prolong(f(mesh.nodes)), f(fine.nodes))
            mesh = fine


class TestConvergence:
    def test_upper_bound_and_nesting_on_dn_square(self):
        exact_vals = np.array(box_eigs((1.0, 1.0), ("NN", "DN"), 3).values)
        spec = fem.dn_spectrum(DN_SQUARE, 3, 3, 0.25)
        prev = None
        for vals in spec.level_values:
            assert np.all(vals >= exact_vals - 1e-10)  # conforming upper bounds
            if prev is not None:
                assert np.all(vals <= prev + 1e-10)  # nested spaces
            prev = vals

    def test_observed_order_is_quadratic(self):
        spec = fem.dn_spectrum(DN_SQUARE, 2, 4, 0.25)
        orders = np.atleast_1d(spec.observed_order)
        assert np.all(orders > 1.8)
        assert np.all(orders < 2.2)

    def test_extrapolation_accuracy_square(self):
        exact_vals = np.array(box_eigs((1.0, 1.0), ("NN", "DN"), 2).values)
        spec = fem.dn_spectrum(DN_SQUARE, 2, 4, 0.25)
        rel = abs(spec.extrapolated[1] - exact_vals[1]) / exact_vals[1]
        assert rel < 0.005

    def test_extrapolation_accuracy_neumann_triangle(self):
        lam2 = equilateral_eigs(1.0, "neumann", 2).values[1]
        spec = fem.dn_spectrum(NEUMANN_TRIANGLE, 2, 4, 0.25)
        rel = abs(spec.extrapolated[1] - lam2) / lam2
        assert rel < 0.005

    def test_a_neumann_kernel_extrapolates_to_no_less_than_zero(self):
        # level values falling at rounding onto the kernel's 0 extrapolate to -3.3e-16
        spec = fem._extrapolate([np.array([2e-15]), np.array([1e-15]), np.array([0.0])])
        assert spec.extrapolated[0] >= 0.0

    @pytest.mark.parametrize("levels", [2, 3])
    def test_refines_only_between_solves(self, monkeypatch, levels):
        calls = []
        refine = fem.refine

        def counting_refine(mesh):
            calls.append(1)
            return refine(mesh)

        monkeypatch.setattr(fem, "refine", counting_refine)
        fem.triangulate(DN_SQUARE, 0.25)
        by_triangulate = len(calls)
        calls.clear()
        fem.dn_spectrum(DN_SQUARE, 2, levels, 0.25)
        assert len(calls) == by_triangulate + levels - 1

    def test_deterministic_repeat(self):
        a = fem.dn_spectrum(DN_SQUARE, 2, 3, 0.25)
        b = fem.dn_spectrum(DN_SQUARE, 2, 3, 0.25)
        assert a.extrapolated[1] == b.extrapolated[1]

    def test_byte_stable_between_processes(self):
        # fresh single-threaded interpreters: nothing but the input may move a bit
        code = (
            "import hashlib; from starspec import certify, fem, geom; "
            "spec = fem.dn_spectrum(geom.truncate(certify.preset('y_junction')[0], 3.0), 2, 3, 0.5); "
            "print(hashlib.sha256(repr(spec.level_values).encode()).hexdigest())"
        )
        src = str(Path(fem.__file__).resolve().parents[1])
        env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        digests = [
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert digests[0].strip() and digests[0] == digests[1]


def _spy(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call of module.name."""
    calls, f = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestShiftedLevels:
    @pytest.mark.parametrize("levels", [2, 4])
    def test_each_finer_level_is_one_factorization_and_one_count(self, monkeypatch, levels):
        lowest, below = _spy(monkeypatch, fem, "lowest_eigs"), _spy(monkeypatch, fem, "eigs_below")
        rungs, factors = _spy(monkeypatch, fem, "_factor"), _spy(monkeypatch, spla, "splu")
        fem.dn_spectrum(DN_SQUARE, 2, levels, 0.25)
        # level 0 counts lowest_eigs's ladder by one factorization a rung up to
        # the first rung above lambda_2 = 5 pi^2 / 4, then solves that rung alone
        # on the rung's own factorization
        assert [args[1] for args, _ in rungs[:3]] == pytest.approx([1.001, 4.004, 16.016], rel=1e-15)
        assert below[0][0][1] == rungs[2][0][1]
        assert (len(lowest), len(below), len(factors)) == (1, levels, 3 + levels - 1)

    @pytest.mark.parametrize("poly, k", [(DN_SQUARE, 3), (NEUMANN_TRIANGLE, 2), ("y_junction", 2), ("crossing", 3)])
    def test_no_level_value_rises(self, poly, k):
        if isinstance(poly, str):
            poly = geom.truncate(certify.preset(poly)[0], 3.0)
        spec = fem.dn_spectrum(poly, k, 3, 0.5)
        # exactly, but for the rounding (1e-14) of the Neumann kernel's zero
        assert np.all(np.diff(np.array(spec.level_values), axis=0) <= 1e-13)

    def test_an_inertia_below_k_raises(self, monkeypatch):
        # each finer level's solve returns one value, not the k = 2 it needs
        below = fem.eigs_below

        def one_value(prob, sigma, v0=None, factor=None):
            ritz = below(prob, sigma, v0, factor)
            return ritz if v0 is None else EigList(ritz.values[:1], ritz.provenance[:1], ritz.vectors[:, :1])

        monkeypatch.setattr(fem, "eigs_below", one_value)
        with pytest.raises(fem.SolverFailure, match="inertia 1 below 2"):
            fem.dn_spectrum(DN_SQUARE, 2, 2, 0.25)

    def test_an_undercount_never_stops_lanczos(self, monkeypatch):
        # one DN-square eigenvalue lies below each finer shift by the tampered
        # inertia, two by T's Ritz values, so Lanczos never holds exactly one;
        # level 0's three rungs, the last of which it solves, count truly
        _tampered_splu(monkeypatch, inertia_shift=-1, untouched=3)
        with pytest.raises(fem.SolverFailure, match="Lanczos found no 1 Ritz values"):
            fem.dn_spectrum(DN_SQUARE, 2, 2, 0.25)

    def test_a_neumann_kernel_keeps_the_shift_positive(self, monkeypatch):
        # lambda_1 = 0 on every level: a zero shift would make K - sigma M singular
        below = _spy(monkeypatch, fem, "eigs_below")
        spec = fem.dn_spectrum(NEUMANN_TRIANGLE, 1, 3, 0.25)
        assert np.array(spec.level_values).shape == (3, 1) and np.max(spec.level_values) < 1e-10
        assert below and all(args[1] > 0 for args, _ in below)


class TestSolvers:
    # the truncated y_junction's lambda_2 = lambda_3 is double: Lanczos alone
    # can return one copy and lambda_4 in place of the other
    @pytest.mark.parametrize("poly", [DN_SQUARE, NEUMANN_TRIANGLE, "y_junction"], ids=["dn_square", "neumann_triangle", "y_junction_L3"])
    def test_lowest_ritz_pairs_match_dense_eigh(self, poly):
        if isinstance(poly, str):
            poly = geom.truncate(certify.preset(poly)[0], 3.0)
        prob = fem.assemble(fem.triangulate(poly, 0.25))
        dense = scipy.linalg.eigh(
            prob.stiffness.toarray(),
            prob.mass.toarray(),
            eigvals_only=True,
            subset_by_index=(0, 2),
        )
        ritz = fem.lowest_eigs(prob, 3)
        got, X = np.array(ritz.values), ritz.vectors
        # upper bounds of the discrete eigenvalues, but for rounding
        assert got == pytest.approx(dense, rel=1e-8, abs=1e-12)
        assert np.all(got >= dense - 1e-12 * dense[-1])
        assert X.shape == (prob.stiffness.shape[0], 3)
        assert np.abs(X.T @ (prob.mass @ X) - np.eye(3)).max() < 1e-10
        if poly is NEUMANN_TRIANGLE:  # the kernel's 0, clipped: never negative
            assert dense[0] < 1e-12 and 0.0 <= got[0] < 1e-12

    def test_too_many_eigs_raises(self):
        prob = fem.assemble(fem.triangulate(DN_SQUARE, 0.6))
        n = prob.stiffness.shape[0]
        with pytest.raises(fem.SolverFailure, match=f"requested {n + 1} eigenvalues from {n} DOF"):
            fem.lowest_eigs(prob, n + 1)

    def test_a_shift_above_every_eigenvalue_solves_them_all(self):
        # an inertia of n: the Lanczos basis spans the whole space; one
        # Gram-Schmidt pass loses orthogonality long before that
        prob = fem.assemble(fem.triangulate(DN_SQUARE, 0.6))
        n = prob.stiffness.shape[0]
        dense = scipy.linalg.eigh(prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        ritz = fem.eigs_below(prob, 1e9)
        assert len(ritz) == n == 20
        assert ritz.values == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_rung_holding_every_value_solves(self, k):
        # the 6-DOF Neumann triangle: the rung 64.064 holds 4 values, 256.256 all 6
        prob = fem.assemble(fem.triangulate(NEUMANN_TRIANGLE, 0.5))
        dense = scipy.linalg.eigh(prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        assert prob.stiffness.shape[0] == 6
        assert fem.lowest_eigs(prob, k).values == pytest.approx(dense[:k], rel=1e-12, abs=1e-12)

    def test_an_invariant_subspace_restarts_from_a_fresh_vector(self):
        # the 153-DOF Neumann triangle at an inertia of n: the Krylov space
        # from the constant turns invariant before the last step, and the
        # rounding noise left in w, orthogonalized twice, is not orthogonal
        prob = fem.assemble(fem.triangulate(NEUMANN_TRIANGLE, 0.125))
        dense = scipy.linalg.eigh(prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        ritz = fem.eigs_below(prob, 2e4)
        assert len(ritz) == prob.stiffness.shape[0] == 153
        assert ritz.values == pytest.approx(dense, rel=1e-12, abs=1e-12)
        assert ritz.lanczos["restarts"] > 0 and ritz.lanczos["residual"] == 0.0

    @pytest.mark.parametrize("sigma", [None, 16.016], ids=["count", "m7"])
    def test_a_step_takes_three_mass_products(self, monkeypatch, sigma):
        # one per Gram-Schmidt pass and the norm's M w, which divided by b is
        # the next step's M q; one more starts Lanczos, one projects X
        prob, count_shift = _count_problem("t_junction")
        prob.mass = _CountedProducts(prob.mass)
        counts = _solves_per_call(monkeypatch)
        ritz = fem.eigs_below(prob, sigma or count_shift)
        assert prob.mass.ndims == [1] * (3 * counts[0] + 1) + [2]
        assert ritz.lanczos["lanczos_steps"] == counts[0] and ritz.lanczos["restarts"] == 0
        assert 0 < ritz.lanczos["residual"] <= fem.LANCZOS_TOL

    def test_every_factorization_is_minimum_degree_ldlt_without_relaxation(self, monkeypatch):
        # COLAMD makes the crossing's 81k-DOF factor larger and slower, and the
        # default supernode relaxation makes factoring it take 22 s, not 0.5 s
        prob, sigma = _truncated_problem("t_junction", 2.0, 0.5, 1)
        calls = _spy(monkeypatch, spla, "splu")
        fem.lowest_eigs(prob, 2)  # a factorization per rung of its ladder
        fem.eigs_below(prob, sigma)
        want = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1, "diag_pivot_thresh": 0, "options": {"SymmetricMode": True}}
        assert len(calls) >= 2 and all(kwargs == want for _, kwargs in calls)

    @pytest.mark.parametrize("sigma, m, steps", [(None, 1, 60), (30.0, 11, 84)])
    def test_the_step_cap_raises(self, monkeypatch, sigma, m, steps):
        # no residual passes a negative tolerance: min(n, max(4 m + 40, 60))
        # solves on the 238 DOF, then a failure
        prob, count_shift = _count_problem("t_junction")
        sigma = sigma or count_shift
        assert fem._factor(prob, sigma)[1] == m
        counts = _solves_per_call(monkeypatch)
        monkeypatch.setattr(fem, "LANCZOS_TOL", -1.0)
        with pytest.raises(fem.SolverFailure, match=f"found no {m} Ritz values below the shift .* in {steps} steps"):
            fem.eigs_below(prob, sigma)
        assert counts == [steps]

    def test_the_count_bits_do_not_depend_on_the_blas_thread_count(self):
        # the level-3 count of configs/rounded_corner.json (L 2, 13,919 DOF)
        code = (
            "import hashlib, sys; import numpy as np; from starspec import certify, fem, geom; "
            "vcfg = geom.load_config(sys.argv[1]); mesh, caps = certify._truncated_mesh(vcfg, 2.0, 3); "
            "prob = fem.assemble(mesh, caps); nu = certify.threshold(vcfg); "
            "ritz = fem.eigs_below(prob, nu - certify.BUDGET_FLOOR_REL * nu); "
            "print(prob.stiffness.shape[0], len(ritz), hashlib.sha256(np.array(ritz.values).tobytes() + ritz.vectors.tobytes()).hexdigest())"
        )
        src = str(Path(fem.__file__).resolve().parents[1])
        config = str(Path("configs/rounded_corner.json").resolve())
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            outs.append(subprocess.run([sys.executable, "-c", code, config], env=env, capture_output=True, text=True, check=True).stdout)
        assert outs[0].split()[:2] == ["13919", "1"]
        assert outs[0] == outs[1]



def _truncated_problem(name: str, length: float, h0: float, levels: int):
    vcfg, _ = certify.preset(name)
    mesh = fem.triangulate(geom.truncate(vcfg, length), h0)
    for _ in range(levels - 1):
        mesh = fem.refine(mesh)
    return fem.assemble(mesh), PI2 - certify.BUDGET_FLOOR_REL * PI2


def _tampered_splu(monkeypatch, perm_shift: int = 0, inertia_shift: int = 0, untouched: int = 0) -> None:
    """Make scipy's splu report rows pivoted (perm_shift) or an inertia off by
    inertia_shift, by flipping the sign of U diagonal entries, from the
    factorization after the first `untouched` on; solves still use the true
    factorization."""
    splu, calls = spla.splu, []

    def tampered(*args, **kwargs):
        lu = splu(*args, **kwargs)
        calls.append(1)
        if len(calls) <= untouched:
            return lu
        d = lu.U.diagonal().copy()
        flip = np.flatnonzero(d > 0 if inertia_shift > 0 else d < 0)[: abs(inertia_shift)]
        d[flip] = -d[flip]
        return SimpleNamespace(
            perm_r=np.roll(lu.perm_r, perm_shift), perm_c=lu.perm_c, U=sp.diags(d), solve=lu.solve
        )

    monkeypatch.setattr(spla, "splu", tampered)


def _count_problem(name: str):
    """A preset's level-1 count problem: the tail-capped guide truncated at
    the plan's length, meshed at FEM_H0, and the counting cut below nu."""
    vcfg, plan = certify.preset(name)
    poly = geom.truncate(vcfg, plan.truncation_length)
    nu = certify.threshold(vcfg)
    return fem.assemble(fem.triangulate(poly, certify.FEM_H0), certify.tail_caps(poly)), nu - certify.BUDGET_FLOOR_REL * nu


class _CountedProducts:
    """A sparse matrix that records the ndim of each operand it multiplies."""

    def __init__(self, matrix):
        self.matrix, self.ndims = matrix, []

    def __getattr__(self, name):
        return getattr(self.matrix, name)

    def __matmul__(self, other):
        self.ndims.append(np.ndim(other))
        return self.matrix @ other


def _solves_per_call(monkeypatch) -> list:
    """The shift-invert solves (lu.solve calls) of each fem.eigs_below call
    from here on, one count per call."""
    counts, below, factor = [], fem.eigs_below, fem._factor

    def counting_below(*args, **kwargs):
        counts.append(0)
        return below(*args, **kwargs)

    def counting_factor(prob, sigma):
        lu, m = factor(prob, sigma)

        def solve(x):
            counts[-1] += 1
            return lu.solve(x)

        return SimpleNamespace(solve=solve), m

    monkeypatch.setattr(fem, "eigs_below", counting_below)
    monkeypatch.setattr(fem, "_factor", counting_factor)
    return counts


class TestWarmStart:
    def test_the_prolonged_start_saves_solves_and_keeps_the_values(self, monkeypatch):
        # level 0 is lowest_eigs, every finer level starts from the coarser
        # Ritz vectors; a cold level 1 starts from the constant vector
        poly = geom.truncate(certify.preset("crossing")[0], 3.0)
        counts = _solves_per_call(monkeypatch)
        warm = fem.dn_spectrum(poly, 2, 3, 0.5)
        warm_counts = list(counts)
        counts.clear()
        below = fem.eigs_below
        monkeypatch.setattr(fem, "eigs_below", lambda prob, sigma, v0=None, factor=None: below(prob, sigma, factor=factor))
        cold = fem.dn_spectrum(poly, 2, 3, 0.5)
        assert len(warm_counts) == len(counts) == 3 and warm_counts[0] == counts[0]
        assert all(warm <= cold for warm, cold in zip(warm_counts, counts)) and warm_counts[1] < counts[1]
        assert np.array(warm.level_values) == pytest.approx(np.array(cold.level_values), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["crossing", "neumann_k1"])
    def test_the_bits_do_not_depend_on_earlier_spectra(self, case):
        # the Neumann triangle's k = 1 Ritz vector is the constant: its
        # prolongation is an exact eigenvector of the finer level
        code = (
            "import hashlib, math, sys; from starspec import certify, fem, geom; "
            "tri = geom.Polygon(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)), (geom.BC.NEUMANN,) * 3, (geom.EdgeRole.WALL,) * 3); "
            "cases = {'crossing': (geom.truncate(certify.preset('crossing')[0], 3.0), 2, 3, 0.5), "
            "'neumann_k1': (tri, 1, 3, 0.25), 'y_junction': (geom.truncate(certify.preset('y_junction')[0], 3.0), 2, 3, 0.5)}; "
            "bits = lambda spec: hashlib.sha256(b''.join(v.tobytes() for v in spec.level_values)).hexdigest(); "
            "first = bits(fem.dn_spectrum(*cases[sys.argv[1]])); "
            "[fem.dn_spectrum(*args) for args in cases.values()]; "
            "print(first, bits(fem.dn_spectrum(*cases[sys.argv[1]])))"
        )
        src = str(Path(fem.__file__).resolve().parents[1])
        env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code, case], env=env, capture_output=True, text=True, check=True).stdout
        first, later = out.split()
        assert first == later


class TestLanczosTolerance:
    # a Ritz value's error is the square of its residual: sqrt(eps) residuals
    # leave the values at rounding, at fewer solves than ARPACK's default of eps
    def test_both_solvers_stop_at_sqrt_eps_residuals(self, monkeypatch):
        assert fem.LANCZOS_TOL == math.sqrt(np.finfo(float).eps)
        prob, sigma = _count_problem("t_junction")
        counts = _solves_per_call(monkeypatch)
        got = fem.lowest_eigs(prob, 2).values + fem.eigs_below(prob, sigma).values
        at_sqrt_eps = list(counts)
        counts.clear()
        monkeypatch.setattr(fem, "LANCZOS_TOL", np.finfo(float).eps)
        assert got == pytest.approx(fem.lowest_eigs(prob, 2).values + fem.eigs_below(prob, sigma).values, rel=1e-12)
        assert len(at_sqrt_eps) == len(counts) == 2
        assert all(fewer < more for fewer, more in zip(at_sqrt_eps, counts))

    # at ARPACK's default tolerance (machine precision) these took 21 and 36
    @pytest.mark.parametrize("name, eps_solves", [("t_junction", 21), ("crossing", 36)])
    def test_the_count_takes_fewer_solves(self, monkeypatch, name, eps_solves):
        prob, sigma = _count_problem(name)
        counts = _solves_per_call(monkeypatch)
        assert len(fem.eigs_below(prob, sigma)) == 1
        assert len(counts) == 1 and 0 < counts[0] < eps_solves

    @pytest.mark.parametrize("tol", [0.5, 1e-2])
    def test_values_are_rayleigh_ritz_upper_bounds_at_any_tolerance(self, monkeypatch, tol):
        # a loose stop leaves Ritz values of T below the eigenvalues they
        # approximate; the Rayleigh-Ritz projection onto their vectors does not
        prob, _ = _count_problem("t_junction")
        dense = scipy.linalg.eigh(prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        monkeypatch.setattr(fem, "LANCZOS_TOL", tol)
        ritz = fem.eigs_below(prob, 16.016)
        got, X = np.array(ritz.values), ritz.vectors
        assert len(got) == 7 and np.all(got >= dense[:7] * (1 - 1e-12))
        assert np.abs(X.T @ (prob.mass @ X) - np.eye(7)).max() < 1e-12
        assert np.abs(X.T @ (prob.stiffness @ X) - np.diag(got)).max() < 1e-10 * got[-1]

    @pytest.mark.parametrize("name", ["t_junction", "crossing"])
    def test_count_values_match_dense(self, name):
        prob, sigma = _count_problem(name)
        got = fem.eigs_below(prob, sigma).values
        dense = scipy.linalg.eigh(prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        assert len(got) == np.count_nonzero(dense < sigma) == 1
        assert got == pytest.approx(dense[: len(got)], rel=1e-11, abs=0)


class TestInertiaCount:
    # t/y/crossing/rounded_corner truncated guides on three meshes each,
    # 189 to 20,097 DOF
    MESHES = [
        (name, *mesh)
        for name in ("t_junction", "y_junction", "crossing", "rounded_corner")
        for mesh in ((2.0, 0.5, 1), (3.0, 0.25, 1), (3.0, 0.25, 2))
    ]

    @pytest.mark.parametrize("name, length, h0, levels", MESHES)
    def test_inertia_and_ritz_values_match_the_eigensolver(self, name, length, h0, levels):
        prob, sigma = _truncated_problem(name, length, h0, levels)
        got = fem.eigs_below(prob, sigma).values
        ref = fem.lowest_eigs(prob, len(got) + 1).values
        assert sum(1 for v in ref if v < sigma) == len(got)
        assert got == pytest.approx(ref[: len(got)], rel=1e-10, abs=0)

    def test_no_eigenvalue_below_the_shift_solves_nothing(self, monkeypatch):
        prob, sigma = _truncated_problem("rounded_corner", 2.0, 0.5, 1)
        counts = _solves_per_call(monkeypatch)
        assert fem.eigs_below(prob, sigma).values == ()
        assert counts == [0]

    def test_row_pivoting_raises(self, monkeypatch):
        prob, sigma = _truncated_problem("t_junction", 2.0, 0.5, 1)
        _tampered_splu(monkeypatch, perm_shift=1)
        with pytest.raises(fem.SolverFailure, match="pivoted rows"):
            fem.eigs_below(prob, sigma)

    @pytest.mark.parametrize("name", ["t_junction", "crossing", "rounded_corner"])
    @pytest.mark.parametrize("mesh", [(2.0, 0.5, 1), (3.0, 0.25, 1)])
    def test_an_overcount_raises(self, monkeypatch, name, mesh):
        prob, sigma = _truncated_problem(name, *mesh)
        _tampered_splu(monkeypatch, inertia_shift=1)
        with pytest.raises(fem.SolverFailure):
            fem.eigs_below(prob, sigma)

    def test_an_overcount_fails_whatever_vectors_the_solver_returns(self, monkeypatch):
        # min-max: the k-th Rayleigh-Ritz value of any k vectors is at least
        # lambda_k, which an overcount puts at or above the shift; T's Ritz
        # pairs are replaced by random vectors with converged negative values
        prob, sigma = _truncated_problem("t_junction", 2.0, 0.5, 1)
        _tampered_splu(monkeypatch, inertia_shift=1)
        rng = np.random.default_rng(0)

        def random_pairs(alpha, beta):
            vectors = rng.standard_normal((len(alpha), len(alpha)))
            vectors[-1] = 0.0  # zero residuals
            return -np.ones(len(alpha)), vectors, 0

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", random_pairs)
        with pytest.raises(fem.SolverFailure, match="not below the shift"):
            fem.eigs_below(prob, sigma)

    @pytest.mark.parametrize("name", ["t_junction", "y_junction", "rounded_corner"])
    def test_an_undercount_never_certifies(self, monkeypatch, name):
        vcfg, plan = certify.preset(name)
        assert certify.certify(vcfg, plan).certified
        _tampered_splu(monkeypatch, inertia_shift=-1)
        v = certify.certify(vcfg, plan)
        assert not v.certified and v.n_discrete is None


class TestTriangulateGolden:
    # sha256 of the text dumps of these meshes, measured before the Delaunay
    # in-circle test computed its determinant in closed form
    GOLDEN = "9571c1cea95f576a7a3e8e773b76ae81ed0bf257ae72f26183a0035031fc2cf9"

    def test_meshes_are_unchanged(self):
        configs = [(certify.preset(name)[0], length)
                   for name in ("t_junction", "y_junction", "crossing", "rounded_corner", "rect_two_eigs")
                   for length in (1.0, 2.0, 3.0, 4.0)]
        configs += [(certify.preset("broken", alpha=float(a))[0], 2.0) for a in np.linspace(0.3, 1.5, 12)]
        configs += [(certify.preset("y_alpha", alpha=float(a))[0], 2.0) for a in np.linspace(0.55, 1.45, 12)]
        digest = hashlib.sha256()
        for vcfg, length in configs:
            digest.update("".join(fem.mesh_text_dump(fem.triangulate(geom.truncate(vcfg, length), 0.5))).encode())
        assert digest.hexdigest() == self.GOLDEN

    # sha256 of the ear clip and then the flipped triangles of every
    # _flip_inputs() array (the centers and random stars no mesh above
    # covers), measured before the mesher's orientation tests went through
    # geom.orient
    EAR_CLIP_GOLDEN = "333f5586c727dbe3e189f486db66087914f0c359ab28ffe76267c2a83192e8ec"

    def test_ear_clips_and_flips_are_unchanged(self):
        digest = hashlib.sha256()
        for verts in _flip_inputs():
            n = len(verts)
            ear = [list(t) for t in fem._ear_clip(verts)]
            tris = [list(t) for t in ear]
            fem._delaunay_flips(verts, tris, {tuple(sorted((i, (i + 1) % n))) for i in range(n)})
            digest.update(repr(ear).encode())
            digest.update(repr(tris).encode())
        assert digest.hexdigest() == self.EAR_CLIP_GOLDEN


class TestTailCaps:
    @pytest.mark.parametrize("kappa", [0.1, 0.3, 3.0])
    def test_the_tail_adds_the_energy_of_the_exponential_continuation(self, kappa):
        # u = a + b y on the cap x = 1 of an all-Neumann unit square continues
        # as u e^{-kappa t}: energy (b^2 + kappa^2 |u|^2) / 2 kappa and mass
        # |u|^2 / 2 kappa, with |u|^2 = a^2 + a b + b^2 / 3; P1 holds u exactly
        square = NEUMANN_SQUARE
        mesh = fem.refine(fem.triangulate(square, 0.5))
        plain, tailed = fem.assemble(mesh), fem.assemble(mesh, {1: kappa})
        assert np.array_equal(plain.free_nodes, tailed.free_nodes)
        a, b = 0.7, -1.3
        u = a + b * mesh.nodes[plain.free_nodes, 1]
        norm2 = a * a + a * b + b * b / 3
        assert u @ (tailed.stiffness - plain.stiffness) @ u == pytest.approx((b * b + kappa**2 * norm2) / (2 * kappa), rel=1e-12)
        assert u @ (tailed.mass - plain.mass) @ u == pytest.approx(norm2 / (2 * kappa), rel=1e-12)

    def test_cap_nodes_are_free_and_wall_corners_stay_dirichlet(self):
        poly = geom.truncate(certify.preset("t_junction")[0], 2.0)
        mesh = fem.triangulate(poly, 0.5)
        caps = certify.tail_caps(poly)
        plain, tailed = fem.assemble(mesh), fem.assemble(mesh, caps)
        on_cap = {int(n) for (i, j), src in zip(mesh.boundary_edges, mesh.boundary_src) if src in caps for n in (i, j)}
        corners = {j for i in caps for j in (i, (i + 1) % poly.n_edges)}  # polygon vertices are the first nodes
        assert set(tailed.free_nodes) - set(plain.free_nodes) == on_cap - corners
        assert len(corners) == 2 * len(caps) and not corners & set(tailed.free_nodes)


class TestDumps:
    def test_text_dump_contains_counts(self):
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        dump = "".join(fem.mesh_text_dump(mesh))
        assert str(mesh.nodes.shape[0]) in dump

    def test_svg_has_triangles(self):
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        svg = "".join(fem.mesh_svg(mesh))
        assert svg.startswith("<svg") or "<svg" in svg
        assert "polygon" in svg or "path" in svg or "line" in svg

    @pytest.mark.parametrize("dump", [fem.mesh_text_dump, fem.mesh_svg])
    def test_a_dump_streams_its_lines(self, dump):
        # the mesh command writes each line as it comes: no dump holds the whole text
        mesh = fem.triangulate(DN_SQUARE, 0.5)
        lines = dump(mesh)
        assert isinstance(lines, Iterator)
        first = next(lines)
        assert first.endswith("\n") and first.count("\n") == 1
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
