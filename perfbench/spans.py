"""Traced-run recorder: wraps the public functions of the starspec layers
from outside the package, keeps spans in memory and turns them into
per-layer self times and counts.

A span is a list ``[name, start, end, parent, item]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``item`` labels the
workload item that was running when the span opened.  Counts that belong to
a boundary (DOF, nnz, nodes) are recorded by the same wrapper that records
the span, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import defaultdict

LAYER_MODULES = ("geom", "exact", "bounds", "fem", "certify", "cli")


class Recorder:
    """In-memory spans plus the counts recorded at their boundaries."""

    def __init__(self, clock=time.perf_counter, dense_dof_limit: int = 0):
        self.clock = clock
        self.dense_dof_limit = dense_dof_limit
        self.spans: list[list] = []
        self.info: dict[int, dict] = {}
        self.item = ""
        self._stack: list[int] = []
        # id(mesh) -> [weakref, node count, used]; a refined mesh is "used"
        # once it is passed to assemble or refine
        self._meshes: dict[int, list] = {}
        self.refined_nodes = 0
        self.unused_nodes = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def mesh_in(self, mesh) -> None:
        entry = self._meshes.get(id(mesh))
        if entry is not None and entry[0]() is mesh:
            entry[2] = True

    def mesh_out(self, mesh) -> None:
        old = self._meshes.pop(id(mesh), None)
        if old is not None:
            self._retire(old)
        self._meshes[id(mesh)] = [weakref.ref(mesh), len(mesh.nodes), False]

    def _retire(self, entry: list) -> None:
        self.refined_nodes += entry[1]
        if not entry[2]:
            self.unused_nodes += entry[1]

    def finish(self) -> None:
        for entry in self._meshes.values():
            self._retire(entry)
        self._meshes.clear()


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _before_mesh_user(rec: Recorder, args, kwargs) -> None:
    rec.mesh_in(_first_arg(args, kwargs))


def _after_refine(rec: Recorder, args, kwargs, mesh) -> dict:
    rec.mesh_out(mesh)
    return {"nodes": len(mesh.nodes)}


def _after_assemble(rec: Recorder, args, kwargs, prob) -> dict:
    return {"dof": prob.stiffness.shape[0], "nnz": prob.stiffness.nnz}


def _after_lowest_eigs(rec: Recorder, args, kwargs, eigs) -> dict:
    dof = _first_arg(args, kwargs).stiffness.shape[0]
    return {"dof": dof, "dense": int(len(eigs) > 0 and dof <= rec.dense_dof_limit)}


# name -> (called before the span opens, called after it closes)
OBSERVERS = {
    "fem.refine": (_before_mesh_user, _after_refine),
    "fem.assemble": (_before_mesh_user, _after_assemble),
    "fem.lowest_eigs": (None, _after_lowest_eigs),
}


def replace_everywhere(modules, original, replacement) -> list[tuple]:
    """Point every module attribute bound to ``original`` at ``replacement``,
    including aliases made by ``from x import f``.  Returns what to restore."""
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, replacement)
                patched.append((mod, name, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for mod, name, original in reversed(patched):
        setattr(mod, name, original)


def public_functions(modules: dict) -> dict:
    """``{function: "module.name"}`` for the functions each module defines
    and does not mark private."""
    out = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{short}.{name}"
    return out


def _traced(rec: Recorder, label: str, fn):
    before, after = OBSERVERS.get(label, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            rec.info[idx] = after(rec, args, kwargs, result)
        return result

    return wrapper


class Tracer:
    """Context manager that wraps every public layer function for its
    duration and restores the originals on exit."""

    def __init__(self, modules: dict, recorder: Recorder):
        self.modules = modules
        self.recorder = recorder
        self._patched: list[tuple] = []

    def __enter__(self) -> Recorder:
        for fn, label in public_functions(self.modules).items():
            wrapper = _traced(self.recorder, label, fn)
            self._patched += replace_everywhere(self.modules.values(), fn, wrapper)
        return self.recorder

    def __exit__(self, *exc) -> None:
        restore(self._patched)
        self._patched = []
        self.recorder.finish()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its direct children covers."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _ancestor(spans: list, idx: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def layer_metrics(rec: Recorder) -> dict:
    """Per-function calls, self time and boundary counts, plus self time
    summed per module."""
    selfs = self_times(rec.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    module_s = {m: 0.0 for m in LAYER_MODULES}
    for span, st in zip(rec.spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st
        module_s[span[0].split(".", 1)[0]] += st

    def info_of(name):
        return [rec.info[i] for i, s in enumerate(rec.spans) if s[0] == name and i in rec.info]

    eig_info = info_of("fem.lowest_eigs")
    asm_info = info_of("fem.assemble")
    ref_info = info_of("fem.refine")
    # solves per count that solved at all: 2 with the truncation-doubling
    # check, 1 without; counts by exact or family-fact strategies do none
    solves: dict[int, int] = defaultdict(int)
    for i, s in enumerate(rec.spans):
        if s[0] == "fem.lowest_eigs":
            owner = _ancestor(rec.spans, i, "certify.count_discrete")
            if owner >= 0:
                solves[owner] += 1

    m = {}
    for name in (
        "fem.lowest_eigs", "certify.count_discrete", "fem.refine", "fem.assemble",
        "fem.triangulate", "fem.dn_spectrum", "bounds.check_containment",
        "certify.dn_lower_bounds", "exact.box_eigs", "exact.equilateral_eigs",
        "geom.validate_config",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("certify.certify", "certify.preset", "geom.truncate", "cli.dumps_report"):
        m[f"{name}.self_s"] = self_s[name]
    m["fem.lowest_eigs.dof_max"] = max((d["dof"] for d in eig_info), default=0)
    m["fem.lowest_eigs.dense_calls"] = sum(d["dense"] for d in eig_info)
    m["certify.count_discrete.solves_per_call"] = (
        sum(solves.values()) / len(solves) if solves else 0.0
    )
    m["fem.refine.nodes_out"] = sum(d["nodes"] for d in ref_info)
    m["fem.refine.unused_nodes_frac"] = (
        rec.unused_nodes / rec.refined_nodes if rec.refined_nodes else 0.0
    )
    m["fem.assemble.dof_sum"] = sum(d["dof"] for d in asm_info)
    m["fem.assemble.nnz_sum"] = sum(d["nnz"] for d in asm_info)
    for mod, s in module_s.items():
        m[f"layer.{mod}.self_s"] = s
    return m


def write_spans(path, rec: Recorder) -> None:
    selfs = self_times(rec.spans)
    with open(path, "w") as f:
        f.write("index\tname\tstart\tend\tparent\titem\tself_s\n")
        for idx, ((name, start, end, parent, item), st) in enumerate(zip(rec.spans, selfs)):
            f.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\t{item}\t{st!r}\n")
