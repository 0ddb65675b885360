#!/usr/bin/env python3
"""Self-check of the benchmark: self-time arithmetic on synthetic nested
spans, and every oracle accepting a right result and rejecting a
deliberately wrong one.  ``run.py`` runs it before measuring; it can also
be run on its own:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

import oracles
import spans


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


class _Mesh:
    def __init__(self, n: int):
        self.nodes = [0] * n


def check_self_times() -> list[str]:
    problems = []
    # root [0,10]; children [1,3] and [2,5] overlap (union 4), [8,12] is
    # clipped to [8,10]; a grandchild [2.5,3.5] sits inside [2,5]
    synthetic = [
        ["root", 0.0, 10.0, -1, "a"],
        ["c1", 1.0, 3.0, 0, "a"],
        ["c2", 2.0, 5.0, 0, "a"],
        ["c3", 8.0, 12.0, 0, "a"],
        ["g", 2.5, 3.5, 2, "a"],
        ["other", 20.0, 21.5, -1, "b"],
    ]
    want = [4.0, 2.0, 2.0, 4.0, 1.0, 1.5]
    got = spans.self_times(synthetic)
    if not all(_close(g, w) for g, w in zip(got, want)):
        problems.append(f"self_times {got} != {want}")

    # the recorder nests spans and labels them with the current item
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    rec.item = "x"
    outer = rec.open("certify.certify")
    inner = rec.open("fem.refine")
    rec.close(inner)
    rec.close(outer)
    if [s[3] for s in rec.spans] != [-1, 0] or [s[4] for s in rec.spans] != ["x", "x"]:
        problems.append(f"recorder parents/items wrong: {rec.spans}")
    m = spans.layer_metrics(rec)
    if not (_close(m["certify.certify.self_s"], 2.0) and _close(m["fem.refine.self_s"], 1.0)):
        problems.append("layer_metrics self times wrong")

    # a refined mesh that is never passed on counts as unused
    rec = spans.Recorder()
    used, unused = _Mesh(3), _Mesh(5)
    rec.mesh_out(used)
    rec.mesh_out(unused)
    rec.mesh_in(used)
    rec.finish()
    if (rec.refined_nodes, rec.unused_nodes) != (8, 5):
        problems.append(f"unused-node count {(rec.refined_nodes, rec.unused_nodes)} != (8, 5)")
    return problems


def _row(param, certified, n):
    return SimpleNamespace(param=param, certified=certified, n=n)


def _spectrum(levels, extrapolated):
    return SimpleNamespace(level_values=levels, extrapolated=extrapolated)


def check_oracles() -> list[str]:
    report = json.dumps({"verdict": "CertifiedNoResonance", "n": 1})
    inconclusive = json.dumps({"verdict": "Inconclusive", "n": None})
    interval = oracles.Y_INTERVAL
    lam = oracles.FROZEN_LAMBDA1["t_junction"]
    good_levels = [[1.0, 12.5], [1.0, 12.4], [1.0, 12.34]]
    exact = 12.337
    right = [
        oracles.check_catalog("t", 1, 0, report),
        oracles.check_catalog("c", None, 2, inconclusive),
        oracles.check_bent(_row(1.0, True, 1)),
        oracles.check_bent(_row(0.36, False, None)),
        oracles.check_y(_row(1.0, True, 1), interval),
        oracles.check_y(_row(0.7, False, None), interval),
        oracles.check_region((0.4, 0.3, True, True)),
        oracles.check_region((0.9, 0.3, False, False)),
        oracles.check_y_interval(interval),
        oracles.check_frozen("t_junction", _spectrum([], [lam])),
        oracles.check_convergence("s", _spectrum(good_levels, [1.0, 12.336]), exact),
    ]
    wrong = {
        "catalog exit code": oracles.check_catalog("t", 1, 2, report),
        "catalog verdict": oracles.check_catalog("c", None, 2, report),
        "catalog count": oracles.check_catalog("t", 2, 0, report),
        "catalog missing report": oracles.check_catalog("t", 1, 0, None),
        "bent below critical": oracles.check_bent(_row(0.36, True, 1)),
        "bent above critical": oracles.check_bent(_row(1.0, False, None)),
        "bent count": oracles.check_bent(_row(1.0, True, 2)),
        "y outside interval": oracles.check_y(_row(0.7, True, 1), interval),
        "y inside interval": oracles.check_y(_row(1.0, False, None), interval),
        "region inside": oracles.check_region((0.4, 0.3, True, False)),
        "region outside": oracles.check_region((0.9, 0.3, False, True)),
        "y interval": oracles.check_y_interval((interval[0] + 1e-6, interval[1])),
        "frozen": oracles.check_frozen("t_junction", _spectrum([], [lam * (1 + 1e-8)])),
        "below exact": oracles.check_convergence(
            "s", _spectrum([[1.0, 12.0]] + good_levels[1:], [1.0, 12.336]), exact
        ),
        "not monotone": oracles.check_convergence(
            "s", _spectrum([good_levels[0], [1.0, 12.6], good_levels[2]], [1.0, 12.336]), exact
        ),
        "not converged": oracles.check_convergence("s", _spectrum(good_levels, [1.0, 12.5]), exact),
    }
    problems = [f"oracle rejected a right result: {p}" for p in right if p is not None]
    problems += [f"oracle accepted a wrong result: {k}" for k, p in wrong.items() if p is None]

    book = oracles.DigestBook({"k": "earlier"})
    if book.check("j", "one") is not None or book.check("j", "two") is None:
        problems.append("digest book accepted a digest that changed between passes")
    if book.check("k", "now", persist=True) is None:
        problems.append("digest book accepted a digest that differs from an earlier run")
    if "j" in book.persisted():
        problems.append("digest book persisted a run-local key")
    return problems


def run() -> list[str]:
    return check_self_times() + check_oracles()


if __name__ == "__main__":
    found = run()
    for p in found:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if found else "passed"))
    sys.exit(1 if found else 0)
