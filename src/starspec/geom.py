"""Geometric data model for star waveguides.

A star waveguide is a bounded center polygon with half-infinite branches
attached along designated "cut" edges.  This module owns the polygon /
cross-section / configuration types, validation and truncation (center plus
finite branch stubs whose caps carry the exponential tails of the upper
bounds), and the centers of the one-parameter families with the alpha that
binds a center to its family.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

CUT_WIDTH_RTOL = 1e-9
# the most vertices a 2D center has, refused before the O(n^2) simplicity test: on a 2-vCPU x86-64
# machine validate_config takes 0.5-0.6 s and triangulate 0.3 s at 1,000 vertices, 2.1-2.5 s and 1.2 s at 2,000
MAX_VERTICES = 1_000


class InvalidGeometry(ValueError):
    pass


class BC(Enum):
    DIRICHLET = "D"
    NEUMANN = "N"


class EdgeRole(Enum):
    WALL = "wall"
    CUT = "cut"


@dataclass(frozen=True)
class CrossSection:
    """Branch cross-section with a closed-form first Dirichlet eigenvalue."""

    kind: str  # "interval" | "rectangle" | "disk"
    dims: tuple[float, ...]

    def __post_init__(self):
        expected = {"interval": 1, "rectangle": 2, "disk": 1}
        if self.kind not in expected:
            raise InvalidGeometry(f"unknown cross-section kind {self.kind!r}")
        if len(self.dims) != expected[self.kind]:
            raise InvalidGeometry(f"{self.kind} needs {expected[self.kind]} dims")
        if not all(0 < d < math.inf for d in self.dims):
            raise InvalidGeometry(f"{self.kind} cross-section dims must be positive and finite, not {list(self.dims)}")

    @staticmethod
    def interval(width: float) -> "CrossSection":
        return CrossSection("interval", (float(width),))

    @staticmethod
    def rectangle(a: float, b: float) -> "CrossSection":
        return CrossSection("rectangle", (float(a), float(b)))

    @staticmethod
    def disk(radius: float) -> "CrossSection":
        return CrossSection("disk", (float(radius),))


@dataclass(frozen=True)
class Branch:
    edge: int  # index of the cut edge (2D) or cut face (3D)
    cross_section: CrossSection


class _Readings:
    """The readings a center keeps from their first use on, in its __dict__ and so outside
    ==, hash and repr: every config that holds the center shares them."""

    @functools.cached_property
    def axis_box(self) -> Optional[tuple[list, list, Optional[str]]]:
        return axis_box(self)

    def family_alpha(self, family: str) -> Optional[float]:
        alphas = self.__dict__.setdefault("_alphas", {})  # family -> its family_alpha
        if family not in alphas:
            alphas[family] = family_alpha(self, family)
        return alphas[family]


@dataclass(frozen=True)
class Polygon(_Readings):
    """Simple positively oriented polygon with per-edge condition and role tags.

    Edge i runs from vertex i to vertex (i+1) mod n.
    """

    vertices: tuple[tuple[float, float], ...]
    edge_tags: tuple[BC, ...]
    edge_roles: tuple[EdgeRole, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise InvalidGeometry("polygon needs at least 3 vertices")
        if len(self.edge_tags) != n or len(self.edge_roles) != n:
            raise InvalidGeometry("edge_tags/edge_roles length must match vertex count")

    @property
    def n_edges(self) -> int:
        return len(self.vertices)

    def edge(self, i: int) -> tuple[tuple[float, float], tuple[float, float]]:
        v = self.vertices
        return v[i], v[(i + 1) % len(v)]

    def edge_length(self, i: int) -> float:
        (x0, y0), (x1, y1) = self.edge(i)
        return math.hypot(x1 - x0, y1 - y0)

    def signed_area(self) -> float:
        s = 0.0
        for i in range(self.n_edges):
            (x0, y0), (x1, y1) = self.edge(i)
            s += x0 * y1 - x1 * y0
        return 0.5 * s

    def area(self) -> float:
        return abs(self.signed_area())

    def is_simple(self) -> bool:
        v = self.vertices
        n = len(v)
        edges = list(zip(v, v[1:] + v[:1]))  # edge(i) for every i
        for i in range(n - 2):
            p, q = edges[i]
            # the non-adjacent edges after i: edge 0 meets edge n-1 at vertex 0
            for j in range(i + 2, n - 1 if i == 0 else n):
                if _segments_intersect(p, q, *edges[j]):
                    return False
        return True

    def outward_normal(self, i: int) -> tuple[float, float]:
        (x0, y0), (x1, y1) = self.edge(i)
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        # positively oriented polygon: outward normal is the right-hand normal
        return dy / length, -dx / length


def orient(a, b, c):
    """Twice the signed area of the triangle a b c: positive when it turns
    counterclockwise.  Every orientation decision of the package is a sign
    of this determinant, on float pairs or, componentwise, on arrays."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p, q, r, s) -> bool:
    """Proper or touching intersection of closed segments pq and rs."""
    d1, d2, d3, d4 = orient(r, s, p), orient(r, s, q), orient(p, q, r), orient(p, q, s)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True
    return ((d1 == 0 and _on_seg(r, s, p)) or (d2 == 0 and _on_seg(r, s, q))
            or (d3 == 0 and _on_seg(p, q, r)) or (d4 == 0 and _on_seg(p, q, s)))


def _on_seg(a, b, c) -> bool:
    """Whether c lies in the bounding box of segment ab, widened by 1e-14."""
    return (
        min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
        and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
    )


@dataclass(frozen=True)
class Box3(_Readings):
    """Axis-aligned 3D box center for the separable mode.

    axis_bcs[d] is a pair of BCs for the two faces orthogonal to axis d;
    cut faces are identified by index 2*d (low face) or 2*d+1 (high face).
    """

    dims: tuple[float, float, float]
    axis_bcs: tuple[tuple[BC, BC], tuple[BC, BC], tuple[BC, BC]]

    def __post_init__(self):
        if not all(0 < d < math.inf for d in self.dims):
            raise InvalidGeometry(f"box dims must be positive and finite, not {list(self.dims)}")


@dataclass(frozen=True)
class StarWaveguideConfig:
    """A center with branches attached; construction runs validate_config, so a config that exists is valid."""

    name: str
    center: Polygon | Box3
    branches: tuple[Branch, ...]

    def __post_init__(self):
        validate_config(self)

    @property
    def is_3d(self) -> bool:
        return isinstance(self.center, Box3)


def axis_box(center: Polygon | Box3) -> Optional[tuple[list, list, Optional[str]]]:
    """Dims, interval condition pairs (low side first) and relaxation note of a Box3 or an axis-aligned rectangle
    center, or None.  A cut patch, or a side that mixes D and N edges, is relaxed to Neumann: eigenvalues only drop."""
    if isinstance(center, Box3):
        return list(center.dims), [a.value + b.value for a, b in center.axis_bcs], "cut patch relaxed to full face"
    v = center.vertices
    bbox = [(min(xs), max(xs)) for xs in zip(*v)]
    sides: dict = {}  # (axis, 0 for the low side or 1 for the high side) -> tags of its edges
    for p, q, tag in zip(v, v[1:] + v[:1], center.edge_tags):
        ax = 0 if p[0] == q[0] else 1
        if p[ax] != q[ax] or p[ax] not in bbox[ax]:
            return None
        sides.setdefault((ax, bbox[ax].index(p[ax])), []).append(tag)
    side = {key: "N" if BC.NEUMANN in tags else "D" for key, tags in sides.items()}
    note = "branch side relaxed to full Neumann" if any(BC.NEUMANN in t and BC.DIRICHLET in t for t in sides.values()) else None
    return [hi - lo for lo, hi in bbox], [side[ax, 0] + side[ax, 1] for ax in (0, 1)], note


def validate_config(cfg: StarWaveguideConfig) -> None:
    if not cfg.branches:
        raise InvalidGeometry("configuration has no branch")
    if cfg.is_3d:
        _validate_3d(cfg)
    else:
        _validate_2d(cfg)


def _validate_2d(cfg: StarWaveguideConfig) -> None:
    poly: Polygon = cfg.center  # type: ignore[assignment]
    if poly.n_edges > MAX_VERTICES:
        raise InvalidGeometry(f"center polygon has {poly.n_edges} vertices, more than the cap of {MAX_VERTICES} vertices")
    if not all(len(v) == 2 and math.isfinite(v[0]) and math.isfinite(v[1]) for v in poly.vertices):
        raise InvalidGeometry("center vertices must be pairs of finite numbers")
    if poly.signed_area() <= 0:
        raise InvalidGeometry("center polygon must be positively oriented")
    if not poly.is_simple():
        raise InvalidGeometry("center polygon is self-intersecting")
    cut_edges = [i for i, r in enumerate(poly.edge_roles) if r is EdgeRole.CUT]
    for i in cut_edges:
        if poly.edge_tags[i] is not BC.NEUMANN:
            raise InvalidGeometry(f"cut edge {i} must carry the Neumann tag")
    seen = set()
    for br in cfg.branches:
        if br.edge in seen:
            raise InvalidGeometry(f"two branches share cut edge {br.edge}")
        seen.add(br.edge)
        if br.edge not in cut_edges:
            raise InvalidGeometry(f"branch references non-cut edge {br.edge}")
        if br.cross_section.kind != "interval":
            raise InvalidGeometry("2D branches must have interval cross-sections")
        width = br.cross_section.dims[0]
        cut_len = poly.edge_length(br.edge)
        if not abs(width - cut_len) <= CUT_WIDTH_RTOL * max(1.0, abs(cut_len)):
            raise InvalidGeometry(
                f"branch width {width} does not match cut edge length {cut_len}"
            )
    uncovered = [i for i in cut_edges if i not in seen]
    if uncovered:
        raise InvalidGeometry(f"cut edges {uncovered} have no branch attached")


def _validate_3d(cfg: StarWaveguideConfig) -> None:
    box: Box3 = cfg.center  # type: ignore[assignment]
    if len(box.dims) != 3 or len(box.axis_bcs) != 3:
        raise InvalidGeometry("box center needs three dims and three axis_bcs pairs")
    seen = set()
    for br in cfg.branches:
        if not 0 <= br.edge < 6:
            raise InvalidGeometry(f"cut face index {br.edge} out of range")
        if br.edge in seen:
            raise InvalidGeometry(f"two branches share cut face {br.edge}")
        seen.add(br.edge)
        axis, side = divmod(br.edge, 2)
        if box.axis_bcs[axis][side] is not BC.NEUMANN:
            raise InvalidGeometry(f"cut face {br.edge} must carry the Neumann tag")
        cs = br.cross_section
        if cs.kind == "rectangle":
            face_dims = sorted(d for k, d in enumerate(box.dims) if k != axis)
            if sorted(cs.dims) != face_dims:
                raise InvalidGeometry("rectangular branch must match the cut face")
        elif cs.kind == "disk":
            face_dims = [d for k, d in enumerate(box.dims) if k != axis]
            if 2 * cs.dims[0] > min(face_dims) * (1 + CUT_WIDTH_RTOL):
                raise InvalidGeometry("disk branch does not fit inside the cut face")
        else:
            raise InvalidGeometry("3D branches must be rectangles or disks")


def truncate(cfg: StarWaveguideConfig, length: float) -> Polygon:
    """Center plus a straight branch stub of the given length on every cut.

    All edges of the result carry the Dirichlet tag, so the truncated domain
    is a Dirichlet subdomain of the full waveguide and its eigenvalues are
    upper bounds for the waveguide ones.  The far end of each stub, its cap,
    has the cut role: beyond it the branch goes on as a half-strip, and the
    half-strips must meet neither each other nor the truncated polygon, or
    InvalidGeometry is raised.
    """
    if cfg.is_3d:
        raise InvalidGeometry("truncate applies to 2D configs only")
    if not 0 < length < math.inf:
        raise InvalidGeometry(f"truncation length must be positive and finite, not {length}")
    poly: Polygon = cfg.center  # type: ignore[assignment]
    cut_edges = {br.edge for br in cfg.branches}
    verts: list[tuple[float, float]] = []
    roles: list[EdgeRole] = []
    for i in range(poly.n_edges):
        p, q = poly.edge(i)
        verts.append(p)
        roles.append(EdgeRole.WALL)
        if i in cut_edges:
            nx, ny = poly.outward_normal(i)
            verts += [(p[0] + nx * length, p[1] + ny * length), (q[0] + nx * length, q[1] + ny * length)]
            roles += [EdgeRole.CUT, EdgeRole.WALL]
    out = Polygon(tuple(verts), (BC.DIRICHLET,) * len(verts), tuple(roles))
    if not out.is_simple():
        raise InvalidGeometry(f"branch stubs of length {length} self-intersect; shorten the stubs")
    caps = [i for i, r in enumerate(out.edge_roles) if r is EdgeRole.CUT]
    # every edge as a segment (start, direction, 1), then the side rays (start, direction, inf) of every half-strip
    pieces = [(p, (q[0] - p[0], q[1] - p[1]), 1.0) for p, q in map(out.edge, range(out.n_edges))]
    pieces += [(v, out.outward_normal(i), math.inf) for i in caps for v in out.edge(i)]
    if any(_meets_half_strip(out, i, pieces) for i in caps):
        raise InvalidGeometry(f"the branch half-strips beyond the caps at length {length} overlap")
    return out


def _meets_half_strip(poly: Polygon, cap: int, pieces) -> bool:
    """Whether a piece a + u d, 0 <= u <= u_max, of pieces enters the open
    half-strip beyond the cap edge of poly.  Touching its sides within
    CUT_WIDTH_RTOL of the width does not count, and a direction within 1e-12
    of parallel to a side is parallel."""
    (px, py), (qx, qy) = poly.edge(cap)
    width = poly.edge_length(cap)
    ex, ey = (qx - px) / width, (qy - py) / width
    nx, ny = ey, -ex  # the outward normal of a positively oriented polygon
    tol = CUT_WIDTH_RTOL * max(1.0, width)
    for a, d, u_max in pieces:
        s0, t0 = (a[0] - px) * ex + (a[1] - py) * ey, (a[0] - px) * nx + (a[1] - py) * ny
        ds, dt = d[0] * ex + d[1] * ey, d[0] * nx + d[1] * ny
        lo, hi = 0.0, u_max
        # Liang-Barsky clip to c + k u > 0 for s > tol, s < width - tol and t > tol
        for c, k in ((s0 - tol, ds), (width - tol - s0, -ds), (t0 - tol, dt)):
            if abs(k) <= 1e-12:
                hi = hi if c > 0 else -math.inf
            elif k > 0:
                lo = max(lo, -c / k)
            else:
                hi = min(hi, -c / k)
        if lo < hi:
            return True
    return False


# -- the one-parameter family centers ---------------------------------------


@functools.lru_cache(maxsize=1)  # the preset, the fact binding and the chain share one build
def y_center_polygon(alpha: float) -> Polygon:
    """Smallest center of the three-ray junction with half-opening alpha
    measured from the vertical: a triangle at pi/3, a convex pentagon below
    it (the two upper cuts meet the walls at the apex, since the binding
    disjointness is between the two upper branches) and a concave pentagon
    above it (the upper cuts bind against the bottom cut)."""
    if not 0 < alpha < math.pi / 2:
        raise InvalidGeometry(f"alpha = {alpha} is not in (0, pi/2)")
    s, c = math.sin(alpha), math.cos(alpha)
    y0 = (c - 1) / (2 * s)  # bottom cut height
    top = (0.0, 1.0 / (2 * s))
    if abs(alpha - math.pi / 3) < 1e-12:
        verts = [(-0.5, y0), (0.5, y0), top]
        tags = [BC.NEUMANN] * 3
        roles = [EdgeRole.CUT] * 3
    elif alpha < math.pi / 3:
        yr = (2 * c * c - 1) / (2 * s)
        verts = [(-0.5, y0), (0.5, y0), (c, yr), top, (-c, yr)]
        tags = [BC.NEUMANN, BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.DIRICHLET]
        roles = [EdgeRole.CUT, EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.WALL]
    else:
        qr = (0.5 - c, y0 + s)
        ql = (-0.5 + c, y0 + s)
        verts = [(-0.5, y0), (0.5, y0), qr, top, ql]
        tags = [BC.NEUMANN, BC.NEUMANN, BC.DIRICHLET, BC.DIRICHLET, BC.NEUMANN]
        roles = [EdgeRole.CUT, EdgeRole.CUT, EdgeRole.WALL, EdgeRole.WALL, EdgeRole.CUT]
    return Polygon(tuple(verts), tuple(tags), tuple(roles))


@functools.lru_cache(maxsize=1)  # the preset, the fact binding and the chain share one build
def broken_polygon(alpha: float) -> Polygon:
    if not 0 < alpha < math.pi / 2:
        raise InvalidGeometry(f"alpha = {alpha} is not in (0, pi/2)")
    s, c = math.sin(alpha), math.cos(alpha)
    verts = ((-1.0 / s, 0.0), (-s, -c), (0.0, 0.0), (-s, c))
    tags = (BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.DIRICHLET)
    roles = (EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.WALL)
    return Polygon(verts, tags, roles)


def rounded_corner_polygon(alpha: float, arc_segments: int) -> Polygon:
    """Inscribed polygonal stand-in for the circular-sector center: the arc is
    replaced by an inscribed polyline, so truncated FEM values stay upper
    bounds for the true rounded waveguide."""
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    for i in range(arc_segments + 1):
        th = alpha * i / arc_segments
        verts.append((math.cos(th), math.sin(th)))
    radii = (0, len(verts) - 1)  # the two straight edges are cuts
    tags = tuple(BC.NEUMANN if i in radii else BC.DIRICHLET for i in range(len(verts)))
    roles = tuple(EdgeRole.CUT if i in radii else EdgeRole.WALL for i in range(len(verts)))
    return Polygon(tuple(verts), tags, roles)


def _y_alpha(c: Polygon) -> float:
    """atan2(sin, cos) of a Y center, whose apex stands at 1/(2 sin): cos is
    1 + y0 / apex for the triangle, whose bottom cut stands at
    y0 = (cos - 1) / (2 sin), and vertex 2 of a pentagon, (cos, .) below
    pi/3, where edge 1 is a wall, or (0.5 - cos, .) above it."""
    top = c.vertices[2 if c.n_edges == 3 else 3][1]
    if c.n_edges == 3:
        cos = 1 + c.vertices[0][1] / top
    else:
        cos = c.vertices[2][0] if c.edge_tags[1] is BC.DIRICHLET else 0.5 - c.vertices[2][0]
    return math.atan2(1 / (2 * top), cos)


# family -> (its polygon at alpha, for a center c of the family; the vertex
# counts it builds, None for any; the alpha read back from a center)
FAMILIES = {
    "bent-guide": (lambda a, c: broken_polygon(a), (4,), lambda c: math.atan2(-c.vertices[1][0], -c.vertices[1][1])),
    "Y-junction": (lambda a, c: y_center_polygon(a), (3, 5), _y_alpha),
    "sector": (lambda a, c: rounded_corner_polygon(a, c.n_edges - 2), None,
               lambda c: math.atan2(c.vertices[-1][1], c.vertices[-1][0])),
}
ALPHA_ULPS = 2  # reading alpha back loses up to two roundings; 30,000 seeded angles per family needed no more


def family_alpha(center: Polygon | Box3, family: str) -> Optional[float]:
    """The alpha whose family polygon is exactly the center, or None: the
    alpha read back from the center, or else the nearest float within
    ALPHA_ULPS of it that rebuilds the center.  The test stays float
    equality, so no binding widens, and a box or a vertex count the family
    never builds is refused before any polygon is built."""
    polygon, counts, read = FAMILIES[family]
    if isinstance(center, Polygon) and (counts is None or len(center.vertices) in counts):
        try:
            below = above = read(center)
            for _ in range(ALPHA_ULPS + 1):
                for alpha in (below, above):
                    built = polygon(alpha, center)
                    if built is center or built == center:  # a preset's center is the cached build itself
                        return alpha
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        except (ArithmeticError, ValueError):  # no family polygon at this alpha
            pass
    return None


# -- config files -----------------------------------------------------------


def load_config(path: str) -> StarWaveguideConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except RecursionError:  # the decoder recurses once per nesting level
            raise _malformed(path, "nested too deeply") from None
        except json.JSONDecodeError as e:
            raise _malformed(path, str(e)) from None
    return config_from_dict(raw)


def _malformed(path: str, problem: str) -> InvalidGeometry:
    return InvalidGeometry(f"malformed configuration: {path}: {problem}")


def _kind(kinds: tuple, text: str):
    """Parser that passes a value of one of kinds through; a bool is never a
    number."""
    def parse(value, path: str):
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise _malformed(path, f"expected {text}, not {json.dumps(value)}")
        return value
    return parse


_object = _kind((dict,), "an object")
_string = _kind((str,), "a string")
_integer = _kind((int,), "an integer")
_numeric = _kind((int, float), "a number")


def _number(value, path: str) -> float:
    return float(_numeric(value, path))


def _list(item, length: Optional[int] = None):
    """Parser of a list (of the given length) whose entries item parses,
    each under its index."""
    text = "a list" if length is None else f"a list of {length}"

    def parse(value, path: str) -> tuple:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise _malformed(path, f"expected {text}, not {json.dumps(value)}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return parse


def _enum(kind: type[Enum]):
    def parse(value, path: str):
        names = [m.value for m in kind]
        if value not in names:
            raise _malformed(path, f"expected one of {', '.join(names)}, not {json.dumps(value)}")
        return kind(value)
    return parse


_MISSING = object()


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fields(value, path: str, *keys: str) -> dict:
    """value as an object whose every key is one of keys; an unknown key is
    malformed under its key path."""
    obj = _object(value, path or "top level")
    unknown = next((k for k in obj if k not in keys), None)
    if unknown is not None:
        raise _malformed(_at(path, unknown), "unknown key")
    return obj


def _key(obj: dict, path: str, key: str, parse, default=_MISSING):
    """obj[key] parsed under the key path; a missing key without a default is
    malformed."""
    if key in obj:
        return parse(obj[key], _at(path, key))
    if default is _MISSING:
        raise InvalidGeometry(f"malformed configuration: {key!r} missing from {path or 'the top level'}")
    return default


def _build(path: str, cls, *args):
    """cls(*args), with a check the constructor fails named by the key path."""
    try:
        return cls(*args)
    except InvalidGeometry as e:
        raise _malformed(path, str(e)) from None


def _center(value, path: str) -> Polygon | Box3:
    if "dims" in _object(value, path):
        c = _fields(value, path, "dims", "axis_bcs")
        return _build(
            path, Box3, _key(c, path, "dims", _list(_number)), _key(c, path, "axis_bcs", _list(_list(_enum(BC), 2)))
        )
    c = _fields(value, path, "vertices", "edge_tags", "edge_roles")
    return _build(
        path, Polygon,
        _key(c, path, "vertices", _list(_list(_number, 2))),
        _key(c, path, "edge_tags", _list(_enum(BC))),
        _key(c, path, "edge_roles", _list(_enum(EdgeRole))),
    )


def _branch(value, path: str) -> Branch:
    b = _fields(value, path, "edge", "cross_section")
    where = f"{path}.cross_section"
    cs = _key(b, path, "cross_section", lambda v, p: _fields(v, p, "type", "dims"))
    section = _build(where, CrossSection, _key(cs, where, "type", _string), _key(cs, where, "dims", _list(_number)))
    return Branch(edge=_key(b, path, "edge", _integer), cross_section=section)


def config_from_dict(raw: dict) -> StarWaveguideConfig:
    """The configuration a JSON object describes.  Each field is parsed under
    its key path (center.vertices, branches[1].cross_section.dims, ...), and a
    missing key, an unknown key or a value of the wrong kind raises
    InvalidGeometry naming that path."""
    raw = _fields(raw, "", "name", "center", "branches")
    return StarWaveguideConfig(
        name=_key(raw, "", "name", _string),
        center=_key(raw, "", "center", _center),
        branches=_key(raw, "", "branches", _list(_branch), default=()),
    )


def config_to_dict(cfg: StarWaveguideConfig) -> dict:
    if cfg.is_3d:
        box: Box3 = cfg.center  # type: ignore[assignment]
        center = {
            "dims": list(box.dims),
            "axis_bcs": [[a.value, b.value] for a, b in box.axis_bcs],
        }
    else:
        poly: Polygon = cfg.center  # type: ignore[assignment]
        center = {
            "vertices": [list(v) for v in poly.vertices],
            "edge_tags": [t.value for t in poly.edge_tags],
            "edge_roles": [r.value for r in poly.edge_roles],
        }
    return {
        "name": cfg.name,
        "center": center,
        "branches": [
            {
                "edge": b.edge,
                "cross_section": {
                    "type": b.cross_section.kind,
                    "dims": list(b.cross_section.dims),
                },
            }
            for b in cfg.branches
        ],
    }
