"""P1 finite elements for mixed Dirichlet-Neumann Laplacian eigenvalues on
polygons: ear-clipping triangulation with Delaunay flips, uniform red
refinement, sparse assembly, and Richardson-extrapolated spectra.

Refinement is nested and deterministic: the old nodes keep their indices and
each new edge midpoint is numbered in order of first appearance (triangle
edges in triangle order, then boundary edges).  A Mesh's boundary is its edges,
the polygon edge each came from and the polygon's tags, held once; free_nodes
alone says which nodes the space keeps (assemble eliminates the rest).

Every eigensolve is eigs_below: _factor, a minimum-degree L D L^T of
K - sigma M on the pattern K and M share, whose inertia counts the eigenvalues
below sigma, then shift-invert Lanczos in NumPy for that many (three M
products a step, restarted on an invariant space) and one Rayleigh-Ritz
projection.  lowest_eigs counts a ladder of shifts by _factor alone and solves
the first rung holding k values on its factor; dn_spectrum's level 0 is
lowest_eigs, each finer level one eigs_below just above the coarser lambda_k,
warm-started from it.

FEM eigenvalues from a conforming space are variational upper bounds; they
are never used as lower bounds anywhere in the package.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exact import EigList
from .geom import BC, Polygon, orient

if TYPE_CHECKING:  # SciPy itself loads on the first assembly or solve
    import scipy.sparse as sp

# the most triangles refine makes: the T-junction's level-6 count mesh, which
# peaks at 1.1 GB RSS; level 7 (2,097,152 triangles) peaks at 5.5 GB
MAX_TRIANGLES = 524_288
# delta in dn_spectrum's shift (1 + delta) lambda_k + delta above the coarser
# level (nested: lambda_k(fine) <= lambda_k(coarse)): the relative part covers
# rounding of the coarse value, the absolute part a Neumann kernel's 0; and
# the offset of lowest_eigs's shift ladder (1 + delta) 4^j from the powers of 4
NESTED_SHIFT = 1e-3
# the residual tolerance of every Lanczos stop, in ARPACK's test |beta s_last|
# <= tol |theta|: a Ritz value's error is the square of its vector's residual
# (||r||^2 / gap), so sqrt(eps) residuals leave the values at rounding; any
# tolerance keeps them Rayleigh-Ritz upper bounds, so soundness never depends on it
LANCZOS_TOL = math.sqrt(np.finfo(float).eps)
CHUNK = 4096  # the rows a pass over a whole mesh (Mesh.quality, the dumps) takes at a time


class SolverFailure(RuntimeError):
    pass


@dataclass
class Mesh:
    nodes: np.ndarray  # (N, 2) float
    triangles: np.ndarray  # (T, 3) int, positively oriented
    boundary_edges: np.ndarray  # (B, 2) int node pairs
    boundary_src: np.ndarray  # (B,) int: the polygon edge each boundary edge came from
    edge_tags: tuple[BC, ...]  # the polygon's, once: boundary edge i has edge_tags[boundary_src[i]]
    parents: np.ndarray | None = None  # (midpoints, 2) old-node pair of each node refine added

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """(3, T) x and y coordinates of the triangle corners, corner i in row
        i; assemble works on these rows, since NumPy's axis=1 reductions over
        (T, 2) arrays cost several times the arithmetic."""
        return self.nodes[:, 0][self.triangles.T], self.nodes[:, 1][self.triangles.T]

    def quality(self) -> tuple[float, float]:
        """(h, min_angle): the longest edge and the smallest corner angle in degrees, in one pass over the
        triangles CHUNK at a time.  min_angle is one math.acos of the largest corner cosine, so no bit of it
        depends on NumPy's CPU dispatch (np.arccos of an array does); h, a max of square roots, is exact."""
        xs, ys = self.nodes[:, 0], self.nodes[:, 1]
        h = cos_max = -math.inf
        for start in range(0, len(self.triangles), CHUNK):
            t = self.triangles[start:start + CHUNK, [2, 0, 1, 2, 0]].T
            x, y = xs[t], ys[t]
            ex, ey = x[1:] - x[:-1], y[1:] - y[:-1]  # the edges into corners 0, 1, 2 and 0 again
            length = np.sqrt(ex * ex + ey * ey)
            cos = -(ex[1:] * ex[:-1] + ey[1:] * ey[:-1]) / (length[1:] * length[:-1])  # at corners 0, 1, 2
            h, cos_max = max(h, float(length.max())), max(cos_max, float(cos.max()))
        return h, math.degrees(math.acos(min(1.0, cos_max)))

    def prolong(self, u: np.ndarray) -> np.ndarray:
        """P1 interpolation of u, given on the nodes of the mesh refine made this one from."""
        return np.concatenate([u, u[self.parents].mean(axis=1)])


@dataclass
class DiscreteProblem:
    stiffness: sp.csr_matrix  # on free nodes
    mass: sp.csr_matrix
    free_nodes: np.ndarray  # indices of free nodes in the mesh


@dataclass
class FemSpectrum:
    level_values: list[np.ndarray]  # eigenvalues per refinement level
    extrapolated: np.ndarray
    observed_order: np.ndarray


# -- triangulation ----------------------------------------------------------


def _ear_clip(vertices: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon (collinear vertices allowed)."""
    pts = vertices.tolist()  # float arithmetic on Python floats: the same bits, without NumPy scalar overhead
    idx = list(range(len(pts)))
    tris = []
    while len(idx) > 3:  # each pass clips an ear or raises
        m = len(idx)
        for pos in range(m):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if orient(a, b, c) <= 1e-14:
                continue  # reflex or flat corner
            if any(orient(a, b, pts[j]) > -1e-12 and orient(b, c, pts[j]) > -1e-12 and orient(c, a, pts[j]) > -1e-12
                   for j in idx if j not in (i0, i1, i2)):
                continue  # another vertex lies in or on the ear
            tris.append((i0, i1, i2))
            idx.pop(pos)
            break
        else:
            raise ValueError("no clippable ear found; polygon may be degenerate")
    i0, i1, i2 = idx
    if orient(pts[i0], pts[i1], pts[i2]) <= 1e-14:
        raise ValueError("degenerate final triangle")
    tris.append((i0, i1, i2))
    return tris


def _delaunay_flips(nodes: np.ndarray, tris: list[list[int]], fixed_edges: set) -> None:
    """Local edge flips until no edge flips; fixed edges stay.  Each flip
    takes the flippable edge that appears first in the triangle list (slot
    3 t + i: triangle t, local edge i), so the flip sequence is that of a
    full rescan after every flip, but only the edges of the two rewritten
    triangles are tested again.  A flipped-out edge never returns (it lies
    above its replacement on the lifting paraboloid), so the flips number at
    most the n (n - 1) / 2 node pairs; one more raises ValueError."""

    def in_circumcircle(a, b, c, d) -> bool:
        # sign normalized by triangle orientation so the test is order-free
        ax, ay, bx, by, cx, cy = a[0] - d[0], a[1] - d[1], b[0] - d[0], b[1] - d[1], c[0] - d[0], c[1] - d[1]
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        det = ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) + a2 * (bx * cy - by * cx)
        return math.copysign(1.0, orient(a, b, c)) * det > 1e-12

    pts = nodes.tolist()  # float arithmetic on Python floats: the same bits, without NumPy scalar overhead
    slots: dict[tuple[int, int], list[tuple[int, int]]] = {}  # edge -> the (t, i) that hold it
    flippable: dict[tuple[int, int], int] = {}  # edge -> its first slot 3 t + i
    heap: list[tuple[int, tuple[int, int]]] = []  # may hold stale entries: flippable decides

    def edge(t, i):
        u, v = tris[t][i], tris[t][(i + 1) % 3]
        return (u, v) if u < v else (v, u)

    def place(t):
        for i in range(3):
            slots.setdefault(edge(t, i), []).append((t, i))

    def quad(e):
        """(t1, i1, t2, c, d): the two triangles on e, t1 first, and their
        vertices off e."""
        (t1, i1), (t2, _) = sorted(slots[e])
        c = next(v for v in tris[t1] if v not in e)
        d = next(v for v in tris[t2] if v not in e)
        return t1, i1, t2, c, d

    def test(e):
        flippable.pop(e, None)
        if len(slots.get(e, ())) != 2 or e in fixed_edges:
            return
        t1, i1, _, c, d = quad(e)
        a, b = e
        if not in_circumcircle(pts[tris[t1][0]], pts[tris[t1][1]], pts[tris[t1][2]], pts[d]):
            return
        # flip only if the quad a-c-b-d is strictly convex
        if orient(pts[c], pts[a], pts[d]) <= 1e-14 or orient(pts[d], pts[b], pts[c]) <= 1e-14:
            return
        flippable[e] = key = 3 * t1 + i1
        heapq.heappush(heap, (key, e))

    for t in range(len(tris)):
        place(t)
    for e in list(slots):
        test(e)
    budget = len(pts) * (len(pts) - 1) // 2 + 1
    while heap:
        key, e = heapq.heappop(heap)
        if flippable.get(e) != key:
            continue
        t1, _, t2, c, d = quad(e)
        a, b = e
        for t in (t1, t2):
            for i in range(3):
                slots[edge(t, i)].remove((t, i))
        tris[t1] = [c, a, d]
        tris[t2] = [d, b, c]
        place(t1)
        place(t2)
        budget -= 1
        if budget == 0:
            raise ValueError("Delaunay flips did not settle")
        for f in {e, *(edge(t, i) for t in (t1, t2) for i in range(3))}:  # e now has no slot
            test(f)


def triangulate(poly: Polygon, h_target: float) -> Mesh:
    """Mesh the polygon: ear clipping, Delaunay flips, then uniform red
    refinement until the maximum element diameter is at most h_target."""
    if not 0 < h_target < math.inf:
        raise ValueError(f"h_target must be positive and finite, not {h_target}")
    if poly.area() < 1e-14:
        raise ValueError("zero-area polygon")
    verts = np.array(poly.vertices, dtype=float)
    tris = [list(t) for t in _ear_clip(verts)]
    bedges = [(i, (i + 1) % poly.n_edges) for i in range(poly.n_edges)]
    _delaunay_flips(verts, tris, {tuple(sorted(e)) for e in bedges})
    tris = np.array(tris, dtype=int)
    flip = orient(*verts[tris].transpose(1, 2, 0)) < 0  # make every triangle counterclockwise
    tris[flip, 1:] = tris[flip, 2:0:-1]
    mesh = Mesh(verts, tris, np.array(bedges), np.arange(poly.n_edges), tuple(poly.edge_tags))
    while mesh.quality()[0] > h_target:
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: every triangle into four; nested spaces.

    Numbering: the old nodes keep their indices, then each new edge midpoint
    follows in order of first appearance, scanning the triangle edges
    (a,b), (b,c), (c,a) in triangle order and then the boundary edges.
    Each midpoint is 0.5 * (x_i + x_j) of its parents, the edge's first-seen pair.
    A refinement past MAX_TRIANGLES raises ValueError before allocating."""
    nn = len(mesh.nodes)
    tris = mesh.triangles
    if 4 * len(tris) > MAX_TRIANGLES:
        raise ValueError(f"refining to {4 * len(tris)} triangles exceeds the cap of {MAX_TRIANGLES} triangles")
    bedges = mesh.boundary_edges
    pairs = np.concatenate([np.stack([tris, tris[:, [1, 2, 0]]], axis=2).reshape(-1, 2), bedges])
    keys = np.minimum(pairs[:, 0], pairs[:, 1]) * nn + np.maximum(pairs[:, 0], pairs[:, 1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mid = nn + rank[inverse]
    parents = pairs[first[order]]
    nodes = np.concatenate([mesh.nodes, 0.5 * (mesh.nodes[parents[:, 0]] + mesh.nodes[parents[:, 1]])])

    a, b, c = tris.T
    ab, bc, ca = mid[: 3 * len(tris)].reshape(-1, 3).T
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    m = mid[3 * len(tris):]
    new_bedges = np.stack([bedges[:, 0], m, m, bedges[:, 1]], axis=1).reshape(-1, 2)
    return Mesh(nodes, new_tris, new_bedges, np.repeat(mesh.boundary_src, 2), mesh.edge_tags, parents)


# -- assembly and solve -----------------------------------------------------


def free_nodes(mesh: Mesh, tails=()) -> np.ndarray:
    """The nodes of the FEM space, ascending: all but those on a Dirichlet boundary edge whose
    polygon edge is not a tail cap (tails: polygon edge ids)."""
    dirichlet = np.array([tag is BC.DIRICHLET and i not in tails for i, tag in enumerate(mesh.edge_tags)], dtype=bool)
    fixed = np.zeros(len(mesh.nodes), dtype=bool)
    fixed[mesh.boundary_edges[dirichlet[mesh.boundary_src]]] = True
    return np.flatnonzero(~fixed)


def assemble(mesh: Mesh, tails: dict[int, float] | None = None) -> DiscreteProblem:
    """P1 stiffness and consistent mass over free_nodes; every other node is
    eliminated, and Neumann edges contribute nothing (natural condition).  K
    and M share one CSR pattern: the diagonal and each edge between free
    nodes, summed once and mirrored, so each is bitwise its own CSC.

    tails maps a polygon edge id to a decay rate kappa > 0 and makes that
    edge a tail cap: each function continues beyond it as u(s) e^{-kappa t}
    (t: distance from the cap), which adds (K1 + kappa^2 M1) / 2 kappa to K
    and M1 / 2 kappa to M, K1 and M1 the 1D P1 matrices on the cap edges, as
    e^{-2 kappa t} integrates to 1 / 2 kappa.  Cap nodes are free."""
    import scipy.sparse as sp

    tails = tails or {}
    nn = len(mesh.nodes)
    x, y = mesh._corners()
    nxt, prv = [1, 2, 0], [2, 0, 1]
    b, c = y[nxt] - y[prv], x[prv] - x[nxt]
    area = 0.5 * (x[0] * b[0] + x[1] * b[1] + x[2] * b[2])
    if np.any(area <= 0):
        raise ValueError("mesh contains non-positively-oriented triangles")
    free = free_nodes(mesh, tails)
    nf = len(free)
    index = np.full(nn, nn)  # the free nodes first, in order; every other node past them
    index[free] = np.arange(nf)
    # each triangle's edges (corner i, corner i + 1): ends, K and M; then its diagonal: node, K and M
    i = index[mesh.triangles.T].ravel()
    terms = [i, np.roll(i, -len(area)), ((b * b[nxt] + c * c[nxt]) / (4.0 * area)).ravel(), np.tile(area / 12.0, 3),
             i, ((b * b + c * c) / (4.0 * area)).ravel(), np.tile(area / 6.0, 3)]
    cap = np.isin(mesh.boundary_src, list(tails))
    if cap.any():
        e = mesh.boundary_edges[cap]
        k = np.array([tails[src] for src in mesh.boundary_src[cap]])
        h = np.hypot(*(mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]]).T)
        e = index[e.T]  # K1 = [1 -1; -1 1] / h and M1 = [2 1; 1 2] h / 6
        cap_terms = [e[0], e[1], (-1.0 / h + k * k * (h / 6.0)) / (2 * k), h / 6.0 / (2 * k),
                     e.ravel(), np.tile((1.0 / h + k * k * (h / 3.0)) / (2 * k), 2), np.tile(h / 3.0 / (2 * k), 2)]
        terms = [np.concatenate(pair) for pair in zip(terms, cap_terms)]
    i, j, k_edge, m_edge, corner, k_diag, m_diag = terms
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    inner = hi < nf  # both ends free
    keys, slot = np.unique(lo[inner] * nf + hi[inner], return_inverse=True)
    lo, hi, n = keys // nf, keys % nf, np.arange(nf)
    # the pattern's data: where each entry of [lower; diagonal; upper] lands in CSR order
    pattern = sp.csr_matrix((np.arange(2 * len(keys) + nf), (np.concatenate([hi, n, lo]), np.concatenate([lo, n, hi]))), shape=(nf, nf))

    def matrix(edge, diag):
        off, on = np.bincount(slot, edge[inner]), np.bincount(corner, diag, minlength=nn)[:nf]
        return sp.csr_matrix((np.concatenate([off, on, off])[pattern.data], pattern.indices, pattern.indptr), shape=(nf, nf))

    return DiscreteProblem(stiffness=matrix(k_edge, k_diag), mass=matrix(m_edge, m_diag), free_nodes=free)


def _factor(prob: DiscreteProblem, sigma: float):
    """Every sparse FEM factorization, of K - sigma M as CSC (K and M share a
    symmetric pattern): symmetric-mode SuperLU without row pivoting (checked),
    an L D L^T with D = diag(U), on minimum degree; relax=1: relaxation pads it;
    panel_size=1: wider panels only cost time on supernodes this narrow.
    Returns the factor and its inertia m, the number of negative entries of D:
    by Sylvester, the number of eigenvalues of (K, M) below sigma."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    K, M = prob.stiffness, prob.mass
    A = sp.csc_matrix((K.data - sigma * M.data, K.indices, K.indptr), shape=K.shape)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1, diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular pivot: the shift is an eigenvalue
        raise SolverFailure(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailure("the factorization pivoted rows")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def eigs_below(prob: DiscreteProblem, sigma: float, v0: np.ndarray | None = None, factor: tuple | None = None) -> EigList:
    """Every FEM eigensolve: the Rayleigh-Ritz pairs of (K, M) below sigma.
    Their number m is the inertia of K - sigma M = P^T L D L^T P (_factor's,
    or the factor given).  Lanczos on (K - sigma M)^-1 M in the M inner product
    from v0 (default: constant), its basis stored once as rows, each new vector
    orthogonalized against all of them by classical Gram-Schmidt twice (an M
    product a pass, one for b = ||w||_M, whose M w / b is the next M q), stops
    when T has exactly m negative Ritz values 1 / (lambda - sigma), each to a
    LANCZOS_TOL residual.  b <= eps ||h||, the rounding that subtracting the
    coefficients h leaves (||h|| is the solve's ||w||_M when b = 0), is an
    invariant space: beta is 0, and Lanczos goes on from a seeded normal
    vector (ARPACK's dgetv0).  One Rayleigh-Ritz projection onto their vectors
    makes them M-orthonormal and the values upper bounds whatever the
    residuals.  Every dense reduction is np.einsum, never @: no bit depends on
    the BLAS threads.  No stop in min(n, max(4 m + 40, 60)) steps or an m-th
    value >= sigma raise; lanczos records steps, restarts, max |b s_j / theta_j|."""
    import scipy.linalg
    from scipy.linalg.lapack import dstevd

    K, M = prob.stiffness, prob.mass
    n = K.shape[0]
    lu, m = factor or _factor(prob, sigma)
    if m == 0:
        return EigList((), (), np.empty((n, 0)), {"lanczos_steps": 0, "restarts": 0, "residual": 0.0})
    Q = np.empty((min(n, max(4 * m + 40, 60)), n))  # the basis, a row per step: untouched rows take no memory

    def orthogonalized(w, rows):  # w, M w, ||w||_M and the summed coefficients after two passes against Q[:rows]
        h = 0.0
        for _ in range(2):
            c = np.einsum("ki,i->k", Q[:rows], M @ w)
            w, h = w - np.einsum("ki,k->i", Q[:rows], c), h + c
        Mw = M @ w
        return w, Mw, math.sqrt(np.einsum("i,i", w, Mw)), h

    w = np.ones(n) if v0 is None else v0
    Mw = M @ w
    b, alpha, beta = math.sqrt(np.einsum("i,i", w, Mw)), [], []
    for j in range(len(Q)):
        Q[j] = w / b
        w, Mw, b, h = orthogonalized(lu.solve(Mw / b), j + 1)
        alpha, r = alpha + [h[j]], b if b > np.finfo(float).eps * math.sqrt(np.einsum("k,k", h, h)) else 0.0
        if j + 1 >= m:  # a T of fewer than m rows has fewer than m Ritz values
            # eigh_tridiagonal's full-spectrum driver (e needs one entry at n = 1); ascending: the negative ones first
            theta, S, info = dstevd(alpha, beta or [0.0])
            if info:
                raise SolverFailure(f"dstevd failed with info {info} on the {j + 1}-step Lanczos matrix")
            if np.count_nonzero(theta < 0) == m and np.all(np.abs(r * S[-1, :m]) <= LANCZOS_TOL * np.abs(theta[:m])):
                break
        beta.append(r)
        if r == 0.0:  # an invariant subspace: restart from a fresh vector
            w, Mw, b, _ = orthogonalized(np.random.default_rng(j).standard_normal(n), j + 1)
    else:
        raise SolverFailure(f"Lanczos found no {m} Ritz values below the shift {sigma:.17g} in {len(Q)} steps")
    X = np.einsum("ki,ka->ia", Q[: j + 1], S[:, :m])
    vals, Y = scipy.linalg.eigh(np.einsum("ia,ib->ab", X, K @ X), np.einsum("ia,ib->ab", X, M @ X))
    if vals[-1] >= sigma:
        raise SolverFailure(f"Rayleigh-Ritz value {vals[-1]:.17g} is not below the shift {sigma:.17g}")
    record = {"lanczos_steps": j + 1, "restarts": beta.count(0.0), "residual": float(np.max(np.abs(r * S[-1, :m]) / np.abs(theta[:m])))}
    return EigList(tuple(float(v) for v in vals), tuple("fem-ritz" for _ in vals), np.einsum("ia,ab->ib", X, Y), record)


def lowest_eigs(prob: DiscreteProblem, k: int) -> EigList:
    """The k smallest Ritz pairs of (K, M), values clipped at 0: the inertia
    of _factor at (1 + NESTED_SHIFT) 4^j, j = 0, 1, ..., counts each rung, and
    the first with an inertia >= k is solved on its own factor.  In 2D the
    count grows linearly in lambda (Weyl), so that rung holds about 4 k values
    at most.  The offset keeps the rungs off exact eigenvalues such as the 64
    of the 6-DOF Neumann triangle."""
    n = prob.stiffness.shape[0]
    if k > n:  # the ladder would never stop
        raise SolverFailure(f"requested {k} eigenvalues from {n} DOF")
    sigma = 1.0 + NESTED_SHIFT
    lu, m = _factor(prob, sigma)
    while m < k:
        sigma *= 4.0
        del lu  # before the next rung factors
        lu, m = _factor(prob, sigma)
    ritz = eigs_below(prob, sigma, factor=(lu, m))
    vals = np.maximum(ritz.values[:k], 0.0)  # clip solver noise on Neumann kernels
    return EigList(tuple(float(v) for v in vals), tuple("fem" for _ in vals), ritz.vectors[:, :k])


def dn_spectrum(poly: Polygon, k: int, levels: int, h0: float = 0.25) -> FemSpectrum:
    """k eigenvalues on `levels` nested refinements from mesh size h0, with
    Richardson extrapolation using the empirically observed order.  Level 0
    is lowest_eigs, each finer one an eigs_below just above the coarser
    lambda_k (inertia >= k: nested spaces) keeping the lowest k, started from
    the coarser lowest-k Ritz vectors, summed and prolonged."""
    if k < 1 or levels < 2:
        raise ValueError(f"dn_spectrum needs k >= 1 and levels >= 2, not k = {k}, levels = {levels}")
    mesh = triangulate(poly, h0)
    prob = assemble(mesh)
    ritz = lowest_eigs(prob, k)
    level_values = [np.array(ritz.values)]
    for _ in range(levels - 1):
        u = np.zeros(len(mesh.nodes))  # the coarser lowest-k Ritz vectors summed, on all its nodes
        u[prob.free_nodes] = ritz.vectors[:, :k].sum(axis=1)
        del prob, ritz  # before the finer level refines and factors
        mesh = refine(mesh)
        prob = assemble(mesh)
        sigma = (1.0 + NESTED_SHIFT) * level_values[-1][-1] + NESTED_SHIFT
        ritz = eigs_below(prob, sigma, mesh.prolong(u)[prob.free_nodes])
        if len(ritz) < k:
            raise SolverFailure(f"inertia {len(ritz)} below {k} at the shift {sigma:.17g} of a coarser level")
        level_values.append(np.maximum(ritz.values[:k], 0.0))
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
    extr = np.maximum(extr, 0.0)  # no eigenvalue lies below 0: a Neumann kernel's rounding
    return FemSpectrum(level_values=level_values, extrapolated=extr, observed_order=orders)


# -- debug output -----------------------------------------------------------


def _rows(a: np.ndarray) -> Iterator[list]:
    """The rows of a as lists, converted CHUNK at a time: a dump holds no list of the whole array."""
    for start in range(0, len(a), CHUNK):
        yield from a[start:start + CHUNK].tolist()


def mesh_text_dump(mesh: Mesh) -> Iterator[str]:
    """The mesh as lines of text, one at a time: nodes, triangles, then the boundary edges with their tags."""
    tags = [tag.value for tag in mesh.edge_tags]
    yield f"nodes {len(mesh.nodes)}\n"
    for i, (x, y) in enumerate(_rows(mesh.nodes)):
        yield f"n {i} {x:.17g} {y:.17g}\n"
    yield f"triangles {len(mesh.triangles)}\n"
    for a, b, c in _rows(mesh.triangles):
        yield f"t {a} {b} {c}\n"
    yield f"boundary_edges {len(mesh.boundary_edges)}\n"
    for (i, j), src in zip(mesh.boundary_edges.tolist(), mesh.boundary_src.tolist()):
        yield f"b {i} {j} {tags[src]} {src}\n"


def mesh_svg(mesh: Mesh, size: int = 640) -> Iterator[str]:
    """The mesh as lines of an SVG picture, one at a time: grey triangles, boundary edges red (Dirichlet) or blue."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    pad = 0.05 * span
    xy = (mesh.nodes - lo + pad) / (span + 2 * pad) * size  # picture coordinates, y pointing down
    xy[:, 1] = size - xy[:, 1]
    yield f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">\n'
    for start in range(0, len(mesh.triangles), CHUNK):  # each chunk's corners, formatted as they are written
        for (xa, ya), (xb, yb), (xc, yc) in xy[mesh.triangles[start:start + CHUNK]].tolist():
            yield f'<polygon points="{xa:.2f},{ya:.2f} {xb:.2f},{yb:.2f} {xc:.2f},{yc:.2f}" fill="none" stroke="#bbbbbb" stroke-width="0.5"/>\n'
    colors = [{BC.DIRICHLET: "#d62728", BC.NEUMANN: "#1f77b4"}[tag] for tag in mesh.edge_tags]
    for (i, j), src in zip(mesh.boundary_edges.tolist(), mesh.boundary_src.tolist()):
        (x1, y1), (x2, y2) = xy[i].tolist(), xy[j].tolist()
        yield f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="{colors[src]}" stroke-width="2"/>\n'
    yield "</svg>\n"
