"""P1 finite elements for mixed Dirichlet-Neumann Laplacian eigenvalues on
polygons: ear-clipping triangulation with Delaunay flips, uniform red
refinement, sparse assembly, and Richardson-extrapolated spectra.

Refinement is nested and deterministic: the old nodes keep their indices and
each new edge midpoint is numbered in order of first appearance (triangle
edges in triangle order, then boundary edges).

Every sparse solve factors through _factor, one minimum-degree L D L^T, and
each finer level of dn_spectrum is an inertia-checked count below a shift.
Lanczos stops at LANCZOS_TOL residuals, which leave the Ritz values at
rounding.

FEM eigenvalues from a conforming space are variational upper bounds; they
are never used as lower bounds anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exact import EigList
from .geom import BC, Polygon

# dense eigh beats shift-invert eigsh (k = 2) at 189 DOF and loses from 272 up
DENSE_DOF_LIMIT = 250
# the most triangles refine makes: the T-junction's level-6 count mesh, which
# peaks at 1.1 GB RSS; level 7 (2,097,152 triangles) peaks at 5.5 GB
MAX_TRIANGLES = 524_288
# delta in dn_spectrum's shift (1 + delta) lambda_k + delta above the coarser
# level (nested: lambda_k(fine) <= lambda_k(coarse)): the relative part covers
# rounding of the coarse value, the absolute part a Neumann kernel's 0
NESTED_SHIFT = 1e-3
# ARPACK's residual tolerance for every Lanczos solve: a Ritz value's error is
# the square of its vector's residual (||r||^2 / gap), so sqrt(eps) residuals
# leave the values at rounding; any tolerance keeps them Rayleigh-Ritz upper
# bounds, so soundness never depends on it
LANCZOS_TOL = math.sqrt(np.finfo(float).eps)


class MeshFailure(RuntimeError):
    pass


class SolverFailure(RuntimeError):
    pass


@dataclass
class Mesh:
    nodes: np.ndarray  # (N, 2) float
    triangles: np.ndarray  # (T, 3) int, positively oriented
    boundary_edges: np.ndarray  # (B, 2) int node pairs
    boundary_tags: list[BC]
    boundary_src: list[int]  # polygon edge id each boundary edge came from

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, 3) x and y coordinates of the triangle corners; the diagnostics
        work on these columns, since NumPy's axis=1 reductions over (T, 2)
        arrays cost several times the arithmetic."""
        return self.nodes[:, 0][self.triangles], self.nodes[:, 1][self.triangles]

    def max_diameter(self) -> float:
        x, y = self._corners()
        d = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            dx, dy = x[:, i] - x[:, j], y[:, i] - y[:, j]
            d.append(np.sqrt(dx * dx + dy * dy))
        return float(np.max(d))

    def min_angle_deg(self) -> float:
        x, y = self._corners()
        angles = []
        for i in range(3):
            ax, ay = x[:, (i + 1) % 3] - x[:, i], y[:, (i + 1) % 3] - y[:, i]
            bx, by = x[:, (i + 2) % 3] - x[:, i], y[:, (i + 2) % 3] - y[:, i]
            cosang = (ax * bx + ay * by) / (np.sqrt(ax * ax + ay * ay) * np.sqrt(bx * bx + by * by))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        return float(np.min(angles))


@dataclass
class DiscreteProblem:
    stiffness: sp.csr_matrix  # on free nodes
    mass: sp.csr_matrix
    free_nodes: np.ndarray  # indices of free nodes in the mesh


@dataclass
class FemSpectrum:
    level_values: list[np.ndarray]  # eigenvalues per refinement level
    extrapolated: np.ndarray
    error_estimate: np.ndarray
    observed_order: np.ndarray


# -- triangulation ----------------------------------------------------------


def _ear_clip(vertices: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon (collinear vertices allowed)."""
    n = len(vertices)
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise MeshFailure("ear clipping stalled; polygon may be degenerate")
        clipped = False
        m = len(idx)
        for pos in range(m):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            a, b, c = vertices[i0], vertices[i1], vertices[i2]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if area2 <= 1e-14:
                continue  # reflex or flat corner
            if _any_point_in_triangle(vertices, [j for j in idx if j not in (i0, i1, i2)], a, b, c):
                continue
            tris.append((i0, i1, i2))
            idx.pop(pos)
            clipped = True
            break
        if not clipped:
            raise MeshFailure("no clippable ear found; polygon may be degenerate")
    i0, i1, i2 = idx
    a, b, c = vertices[i0], vertices[i1], vertices[i2]
    if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) <= 1e-14:
        raise MeshFailure("degenerate final triangle")
    tris.append((i0, i1, i2))
    return tris


def _any_point_in_triangle(vertices, candidates, a, b, c) -> bool:
    for j in candidates:
        p = vertices[j]
        d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
        d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
        if d1 > -1e-12 and d2 > -1e-12 and d3 > -1e-12:
            return True
    return False


def _delaunay_flips(nodes: np.ndarray, tris: list[list[int]], fixed_edges: set) -> None:
    """Local edge flips, one per scan, until no edge flips; fixed edges stay.
    A flipped-out edge never returns (it lies above its replacement on the
    lifting paraboloid), so the flips number at most the n (n - 1) / 2 node
    pairs; more scans than that raise MeshFailure."""

    def in_circumcircle(a, b, c, d) -> bool:
        # sign normalized by triangle orientation so the test is order-free
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        ax, ay, bx, by, cx, cy = a[0] - d[0], a[1] - d[1], b[0] - d[0], b[1] - d[1], c[0] - d[0], c[1] - d[1]
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        det = ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) + a2 * (bx * cy - by * cx)
        return math.copysign(1.0, orient) * det > 1e-12

    pts = nodes.tolist()  # float arithmetic on Python floats: the same bits, without NumPy scalar overhead
    for _ in range(len(pts) * (len(pts) - 1) // 2 + 1):
        edge_map: dict[tuple[int, int], list[int]] = {}
        for t, tri in enumerate(tris):
            for i in range(3):
                e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                edge_map.setdefault(e, []).append(t)
        flipped = False
        for e, owners in edge_map.items():
            if len(owners) != 2 or e in fixed_edges:
                continue
            t1, t2 = owners
            a, b = e
            c = next(v for v in tris[t1] if v not in e)
            d = next(v for v in tris[t2] if v not in e)
            if not in_circumcircle(pts[tris[t1][0]], pts[tris[t1][1]], pts[tris[t1][2]], pts[d]):
                continue
            # flip only if the quad a-c-b-d is strictly convex
            def orient(p, q, r):
                return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

            if (
                orient(pts[c], pts[a], pts[d]) <= 1e-14
                or orient(pts[d], pts[b], pts[c]) <= 1e-14
            ):
                continue
            tris[t1] = [c, a, d]
            tris[t2] = [d, b, c]
            flipped = True
            break
        if not flipped:
            return
    raise MeshFailure("Delaunay flips did not settle")


def triangulate(poly: Polygon, h_target: float) -> Mesh:
    """Mesh the polygon: ear clipping, Delaunay flips, then uniform red
    refinement until the maximum element diameter is at most h_target."""
    if not 0 < h_target < math.inf:
        raise MeshFailure(f"h_target must be positive and finite, not {h_target}")
    if poly.area() < 1e-14:
        raise MeshFailure("zero-area polygon")
    verts = np.array(poly.vertices, dtype=float)
    tris = [list(t) for t in _ear_clip(verts)]
    fixed = {
        tuple(sorted((i, (i + 1) % poly.n_edges))) for i in range(poly.n_edges)
    }
    _delaunay_flips(verts, tris, fixed)
    bedges = np.array([[i, (i + 1) % poly.n_edges] for i in range(poly.n_edges)])
    mesh = Mesh(
        nodes=verts,
        triangles=_orient_ccw(verts, np.array(tris, dtype=int)),
        boundary_edges=bedges,
        boundary_tags=list(poly.edge_tags),
        boundary_src=list(range(poly.n_edges)),
    )
    while mesh.max_diameter() > h_target:
        mesh = refine(mesh)
    return mesh


def _orient_ccw(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    p = nodes[tris]
    det = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    out = tris.copy()
    flip = det < 0
    out[flip, 1], out[flip, 2] = tris[flip, 2], tris[flip, 1]
    return out


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: every triangle into four; nested spaces.

    Numbering: the old nodes keep their indices, then each new edge midpoint
    follows in order of first appearance, scanning the triangle edges
    (a,b), (b,c), (c,a) in triangle order and then the boundary edges.
    Each midpoint is 0.5 * (x_i + x_j) of the edge's first-seen pair.
    A refinement past MAX_TRIANGLES raises MeshFailure before allocating."""
    nn = len(mesh.nodes)
    tris = mesh.triangles
    if 4 * len(tris) > MAX_TRIANGLES:
        raise MeshFailure(f"refining to {4 * len(tris)} triangles exceeds the cap of {MAX_TRIANGLES} triangles")
    bedges = mesh.boundary_edges
    pairs = np.concatenate(
        [np.stack([tris, tris[:, [1, 2, 0]]], axis=2).reshape(-1, 2), bedges]
    )
    keys = np.minimum(pairs[:, 0], pairs[:, 1]) * nn + np.maximum(pairs[:, 0], pairs[:, 1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mid = nn + rank[inverse]
    parents = pairs[first[order]]
    nodes = np.concatenate(
        [mesh.nodes, 0.5 * (mesh.nodes[parents[:, 0]] + mesh.nodes[parents[:, 1]])]
    )

    a, b, c = tris.T
    ab, bc, ca = mid[: 3 * len(tris)].reshape(-1, 3).T
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    m = mid[3 * len(tris):]
    new_bedges = np.stack([bedges[:, 0], m, m, bedges[:, 1]], axis=1).reshape(-1, 2)
    return Mesh(
        nodes=nodes,
        triangles=new_tris,
        boundary_edges=new_bedges,
        boundary_tags=[tag for tag in mesh.boundary_tags for _ in range(2)],
        boundary_src=[src for src in mesh.boundary_src for _ in range(2)],
    )


# -- assembly and solve -----------------------------------------------------


def assemble(mesh: Mesh, tails: dict[int, float] | None = None) -> DiscreteProblem:
    """P1 stiffness and consistent mass over free nodes; Dirichlet nodes
    (anything on a Dirichlet boundary edge) are eliminated, Neumann edges
    contribute nothing (natural condition).

    tails maps a polygon edge id to a decay rate kappa > 0 and makes that
    edge a tail cap: each function continues beyond it as u(s) e^{-kappa t}
    (t: distance from the cap), which adds (K1 + kappa^2 M1) / 2 kappa to K
    and M1 / 2 kappa to M, K1 and M1 the 1D P1 matrices on the cap edges, as
    e^{-2 kappa t} integrates to 1 / 2 kappa.  Cap nodes are free."""
    tails = tails or {}
    nn = len(mesh.nodes)
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    if np.any(area <= 0):
        raise MeshFailure("mesh contains non-positively-oriented triangles")
    ke = (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ) / (4.0 * area[:, None, None])
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    ke, me = ke.ravel(), me.ravel()
    cap = np.array([src in tails for src in mesh.boundary_src], dtype=bool)
    if cap.any():
        e = mesh.boundary_edges[cap]
        k = np.array([tails[src] for src in np.asarray(mesh.boundary_src)[cap]])[:, None, None]
        h = np.hypot(*(mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]]).T)[:, None, None]
        k1, m1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h, np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
        ke, me = np.concatenate([ke, ((k1 + k * k * m1) / (2 * k)).ravel()]), np.concatenate([me, (m1 / (2 * k)).ravel()])
        rows, cols = np.concatenate([rows, np.repeat(e, 2, axis=1).ravel()]), np.concatenate([cols, np.tile(e, (1, 2)).ravel()])
    K = sp.coo_matrix((ke, (rows, cols)), shape=(nn, nn)).tocsr()
    M = sp.coo_matrix((me, (rows, cols)), shape=(nn, nn)).tocsr()
    is_dirichlet = np.array([tag is BC.DIRICHLET for tag in mesh.boundary_tags], dtype=bool) & ~cap
    free = np.setdiff1d(np.arange(nn), mesh.boundary_edges[is_dirichlet])
    return DiscreteProblem(
        stiffness=K[np.ix_(free, free)].tocsr(),
        mass=M[np.ix_(free, free)].tocsr(),
        free_nodes=free,
    )


def _factor(A: sp.spmatrix):
    """Every sparse FEM factorization: symmetric-mode SuperLU without row
    pivoting (checked), an L D L^T with D = diag(U), on a minimum-degree
    ordering; relax=1: supernode relaxation pads and slows the factor."""
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular pivot: the shift is an eigenvalue
        raise SolverFailure(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailure("the factorization pivoted rows")
    return lu


def lowest_eigs(prob: DiscreteProblem, k: int) -> EigList:
    """k smallest eigenvalues of (K, M): dense eigh up to DENSE_DOF_LIMIT DOF,
    else shift-invert Lanczos at sigma = -0.1 on the _factor of K + 0.1 M,
    to LANCZOS_TOL residuals."""
    n = prob.stiffness.shape[0]
    if k == 0:
        return EigList((), ())
    if k > n:
        raise SolverFailure(f"requested {k} eigenvalues from {n} DOF")
    try:
        if n <= DENSE_DOF_LIMIT:
            vals = scipy.linalg.eigh(
                prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True, subset_by_index=(0, k - 1)
            )
        else:
            lu = _factor(prob.stiffness + 0.1 * prob.mass)
            vals = np.sort(spla.eigsh(
                prob.stiffness, k=k, M=prob.mass, sigma=-0.1, which="LM", return_eigenvectors=False,
                OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
                v0=np.full(n, 1.0 / math.sqrt(n)),  # deterministic restarts
                maxiter=100,  # fail fast: a converging solve takes a few restarts
                tol=LANCZOS_TOL,
            ))
    except Exception as exc:  # ARPACK no convergence, backend failures
        raise SolverFailure(str(exc)) from exc
    vals = np.maximum(vals, 0.0)  # clip solver noise on Neumann kernels
    return EigList(tuple(float(v) for v in vals), tuple("fem" for _ in vals))


def eigs_below(prob: DiscreteProblem, sigma: float) -> EigList:
    """Rayleigh-Ritz values for the eigenvalues of (K, M) below sigma: their
    number m is the inertia of K - sigma M = P^T L D L^T P (the _factor),
    and shift-invert Lanczos on that factorization finds their m vectors
    ("SA": the negative 1 / (lambda - sigma)) to LANCZOS_TOL residuals; the
    Ritz values of any m vectors are upper bounds, so the tolerance sets
    only the work.  Row pivoting, no convergence or an m-th value >= sigma
    raise."""
    K, M = prob.stiffness, prob.mass
    n = K.shape[0]
    lu = _factor(K - sigma * M)
    m = int(np.count_nonzero(lu.U.diagonal() < 0))
    if m == 0:
        return EigList((), ())
    try:
        _, X = spla.eigsh(
            K, k=m, M=M, sigma=sigma, which="SA", ncv=min(n, 2 * m + 8), maxiter=100, tol=LANCZOS_TOL,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
            v0=np.full(n, 1.0 / math.sqrt(n)),  # deterministic restarts
        )
        vals = scipy.linalg.eigh(X.T @ (K @ X), X.T @ (M @ X), eigvals_only=True)
    except (spla.ArpackError, np.linalg.LinAlgError, ValueError) as exc:  # no convergence, m >= n
        raise SolverFailure(str(exc)) from exc
    if vals[-1] >= sigma:
        raise SolverFailure(f"Rayleigh-Ritz value {vals[-1]:.17g} is not below the shift {sigma:.17g}")
    return EigList(tuple(float(v) for v in vals), tuple("fem-ritz" for _ in vals))


def dn_spectrum(poly: Polygon, k: int, levels: int, h0: float = 0.25) -> FemSpectrum:
    """k eigenvalues on `levels` nested refinements from mesh size h0, with
    Richardson extrapolation using the empirically observed order.  Level 0
    is lowest_eigs, each finer one an eigs_below just above the coarser
    lambda_k whose inertia must be >= k (nested spaces), keeping the lowest k."""
    if k < 1 or levels < 2:
        raise ValueError(f"dn_spectrum needs k >= 1 and levels >= 2, not k = {k}, levels = {levels}")
    mesh = triangulate(poly, h0)
    level_values = [np.array(lowest_eigs(assemble(mesh), k).values)]
    for _ in range(levels - 1):
        mesh = refine(mesh)
        sigma = (1.0 + NESTED_SHIFT) * level_values[-1][-1] + NESTED_SHIFT
        vals = eigs_below(assemble(mesh), sigma).values
        if len(vals) < k:
            raise SolverFailure(f"inertia {len(vals)} below {k} at the shift {sigma:.17g} of a coarser level")
        level_values.append(np.maximum(vals[:k], 0.0))
    return _extrapolate(level_values)


def _extrapolate(level_values: list[np.ndarray]) -> FemSpectrum:
    last = level_values[-1]
    prev = level_values[-2]
    k = len(last)
    extr = np.empty(k)
    orders = np.empty(k)
    for i in range(k):
        ratio = 4.0  # order-2 default
        if len(level_values) >= 3:
            d1 = level_values[-3][i] - prev[i]
            d2 = prev[i] - last[i]
            if d2 > 1e-14 and d1 / d2 > 1.2:
                ratio = min(d1 / d2, 8.0)
        orders[i] = math.log2(ratio)
        extr[i] = last[i] + (last[i] - prev[i]) / (ratio - 1.0)
    err = np.abs(last - prev) + np.abs(extr - last)
    return FemSpectrum(
        level_values=level_values,
        extrapolated=extr,
        error_estimate=err,
        observed_order=orders,
    )


# -- debug output -----------------------------------------------------------


def mesh_text_dump(mesh: Mesh) -> str:
    lines = [f"nodes {len(mesh.nodes)}"]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"n {i} {x:.17g} {y:.17g}")
    lines.append(f"triangles {len(mesh.triangles)}")
    for a, b, c in mesh.triangles:
        lines.append(f"t {a} {b} {c}")
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    for (i, j), tag, src in zip(mesh.boundary_edges, mesh.boundary_tags, mesh.boundary_src):
        lines.append(f"b {i} {j} {tag.value} {src}")
    return "\n".join(lines) + "\n"


def mesh_svg(mesh: Mesh, size: int = 640) -> str:
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    pad = 0.05 * span

    def tx(p):
        return (
            (p[0] - lo[0] + pad) / (span + 2 * pad) * size,
            size - (p[1] - lo[1] + pad) / (span + 2 * pad) * size,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    for a, b, c in mesh.triangles:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, mesh.nodes[[a, b, c]]))
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#bbbbbb" stroke-width="0.5"/>'
        )
    colors = {BC.DIRICHLET: "#d62728", BC.NEUMANN: "#1f77b4"}
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        (x1, y1), (x2, y2) = tx(mesh.nodes[i]), tx(mesh.nodes[j])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{colors[tag]}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
