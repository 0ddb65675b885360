"""Geometric data model for star waveguides.

A star waveguide is a bounded center polygon with half-infinite branches
attached along designated "cut" edges.  This module owns the polygon /
cross-section / configuration types, validation and truncation (center plus
finite branch stubs whose caps carry the exponential tails of the upper
bounds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

CUT_WIDTH_RTOL = 1e-9


class InvalidGeometry(ValueError):
    pass


class StubOverlap(InvalidGeometry):
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


@dataclass(frozen=True)
class Polygon:
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
        return self.vertices[i], self.vertices[(i + 1) % self.n_edges]

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
        n = self.n_edges
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex
                if _segments_intersect(*self.edge(i), *self.edge(j)):
                    return False
        return True

    def outward_normal(self, i: int) -> tuple[float, float]:
        (x0, y0), (x1, y1) = self.edge(i)
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        # positively oriented polygon: outward normal is the right-hand normal
        return dy / length, -dx / length


def simple_polygon(
    vertices: Sequence[Sequence[float]],
    edge_tags: Optional[Sequence[BC]] = None,
    edge_roles: Optional[Sequence[EdgeRole]] = None,
) -> Polygon:
    """Polygon constructor defaulting to all-Dirichlet walls, fixing orientation."""
    verts = [tuple(map(float, v)) for v in vertices]
    n = len(verts)
    tags = tuple(edge_tags) if edge_tags is not None else (BC.DIRICHLET,) * n
    roles = tuple(edge_roles) if edge_roles is not None else (EdgeRole.WALL,) * n
    poly = Polygon(tuple(verts), tags, roles)
    if poly.signed_area() < 0:
        # reverse; edge k (v_k -> v_{k+1}) becomes edge n-1-k in reversed order
        verts_r = tuple(reversed(verts))
        tags_r = tuple(tags[n - 1 - k] for k in range(n))
        roles_r = tuple(roles[n - 1 - k] for k in range(n))
        poly = Polygon(verts_r, tags_r, roles_r)
    return poly


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

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
            and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
        )

    if d1 == 0 and on_seg(r, s, p):
        return True
    if d2 == 0 and on_seg(r, s, q):
        return True
    if d3 == 0 and on_seg(p, q, r):
        return True
    if d4 == 0 and on_seg(p, q, s):
        return True
    return False


@dataclass(frozen=True)
class Box3:
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
    name: str
    center: Polygon | Box3
    branches: tuple[Branch, ...]

    @property
    def is_3d(self) -> bool:
        return isinstance(self.center, Box3)


@dataclass(frozen=True)
class ValidatedConfig:
    cfg: StarWaveguideConfig

    def __getattr__(self, item):
        return getattr(self.cfg, item)


def validate_config(cfg: StarWaveguideConfig) -> ValidatedConfig:
    if not cfg.branches:
        raise InvalidGeometry("configuration has no branch")
    if cfg.is_3d:
        _validate_3d(cfg)
    else:
        _validate_2d(cfg)
    return ValidatedConfig(cfg)


def _validate_2d(cfg: StarWaveguideConfig) -> None:
    poly: Polygon = cfg.center  # type: ignore[assignment]
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


def truncate(vcfg: ValidatedConfig, length: float) -> Polygon:
    """Center plus a straight branch stub of the given length on every cut.

    All edges of the result carry the Dirichlet tag, so the truncated domain
    is a Dirichlet subdomain of the full waveguide and its eigenvalues are
    upper bounds for the waveguide ones.  The far end of each stub, its cap,
    has the cut role: beyond it the branch goes on as a half-strip, and the
    half-strips must meet neither each other nor the truncated polygon, or
    StubOverlap is raised.
    """
    cfg = vcfg.cfg
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
    out = simple_polygon(verts, edge_roles=roles)
    if not out.is_simple():
        raise StubOverlap(
            f"branch stubs of length {length} self-intersect; shorten the stubs"
        )
    caps = [i for i, r in enumerate(out.edge_roles) if r is EdgeRole.CUT]
    # every edge as a segment (start, direction, 1), then the side rays (start, direction, inf) of every half-strip
    pieces = [(p, (q[0] - p[0], q[1] - p[1]), 1.0) for p, q in map(out.edge, range(out.n_edges))]
    pieces += [(v, out.outward_normal(i), math.inf) for i in caps for v in out.edge(i)]
    if any(_meets_half_strip(out, i, pieces) for i in caps):
        raise StubOverlap(f"the branch half-strips beyond the caps at length {length} overlap")
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


# -- config files -----------------------------------------------------------


def load_config(path: str) -> ValidatedConfig:
    with open(path) as f:
        raw = json.load(f)
    return validate_config(config_from_dict(raw))


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
