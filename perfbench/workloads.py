"""The benchmark's three workloads.  Each builds its inputs from the seed and
runs its whole input set once per ``run_pass``, in a closed loop (the next
call starts when the previous one returns).  A run makes at least
``min_passes`` passes.  ``run_pass`` returns the time
spent in starspec calls; the oracle checks that follow are not timed.

- catalog: every preset through ``starspec certify``, as ``repro --all``
  runs them.  Dominated by the FEM count on the truncation-doubling mesh.
- families: thousands of sub-millisecond sweep verdicts plus the rectangle
  region grid.  Exercises certify/bounds/exact/geom and almost no FEM, so
  it is the control that FEM work should leave unchanged.
- refinement: deep nested refinement with small-k solves (the frozen
  criterion-8 spectra and the convergence-study shapes), which uses fem
  differently from catalog.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

from starspec import certify, cli, fem, geom
from starspec.exact import box_eigs, equilateral_eigs
from starspec.geom import BC, EdgeRole, Polygon

import oracles
import spans


@dataclass
class PassLog:
    """Per-item latencies and outcomes collected over the passes of a run."""

    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)  # item kind of each latency
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def timed(self, label: str, seconds: float) -> None:
        self.labels.append(label)
        self.latencies.append(seconds)

    def outcome(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(problem)


def _timed(log: PassLog, label: str, fn, *args):
    """Call ``fn`` as one item and return its result, or the exception it
    raised, with its latency."""
    t = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # a failed item, reported by the caller
        result = e
    seconds = time.perf_counter() - t
    log.timed(label, seconds)
    return result, seconds


def _error(name: str, e: Exception) -> str:
    return f"{name}: {type(e).__name__}: {e}"


class Catalog:
    name = "catalog"
    min_passes = 1
    setup_problem = None

    def __init__(self, seed: int, out_dir: Path, book: oracles.DigestBook):
        self.order = list(cli.REPRO_TARGETS)
        random.Random(seed).shuffle(self.order)
        self.out_dir = out_dir
        self.book = book

    def run_pass(self, log: PassLog, rec: spans.Recorder | None = None) -> float:
        busy = 0.0
        for name in self.order:
            path = self.out_dir / f"catalog-{name}.json"
            path.unlink(missing_ok=True)
            if rec is not None:
                rec.item = name
            code, seconds = _timed(log, name, cli.run, ["certify", "--preset", name, "-o", str(path)])
            busy += seconds
            if isinstance(code, Exception):
                log.outcome(_error(name, code))
                continue
            text = path.read_text() if path.exists() else None
            problem = oracles.check_catalog(name, cli.REPRO_TARGETS[name], code, text)
            if problem is None:
                problem = self.book.check(f"catalog/{name}", oracles.digest(text), persist=True)
            log.outcome(problem)
        return busy


class _VerdictTimer:
    """Replaces ``certify.certify`` for one pass so that every verdict a
    sweep makes is timed as one item."""

    def __init__(self, log: PassLog, rec: spans.Recorder | None):
        self.log, self.rec = log, rec
        self.group, self.count = "", 0
        self._patched: list = []

    def __enter__(self):
        inner = certify.certify

        def timed(*args, **kwargs):
            if self.rec is not None:
                self.rec.item = f"{self.group}#{self.count}"
            self.count += 1
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.log.timed(self.group, time.perf_counter() - t)
                if self.rec is not None:
                    self.rec.item = self.group

        self._patched = spans.replace_everywhere([certify], inner, timed)
        return self

    def start(self, group: str) -> None:
        self.group, self.count = group, 0
        if self.rec is not None:
            self.rec.item = group

    def __exit__(self, *exc):
        spans.restore(self._patched)


def _away_from(rng: random.Random, lo: float, hi: float, edges, n: int) -> list[float]:
    out = []
    while len(out) < n:
        a = rng.uniform(lo, hi)
        if all(abs(a - e) >= oracles.BOUNDARY_BAND for e in edges):
            out.append(a)
    return out


class Families:
    name = "families"
    min_passes = 1
    N_BENT = 2000
    BENT_RANGE = (0.35, 1.57)
    N_Y = 1000
    Y_RANGE = (0.6, 1.5)
    REGION_GRID = (300, 150)

    def __init__(self, seed: int, out_dir: Path, book: oracles.DigestBook):
        self.interval = certify.y_alpha_certified_interval()
        self.setup_problem = oracles.check_y_interval(self.interval)
        rng = random.Random(seed)
        self.bent = _away_from(rng, *self.BENT_RANGE, [oracles.BENT_CRITICAL], self.N_BENT)
        self.y = _away_from(rng, *self.Y_RANGE, self.interval, self.N_Y)
        self.seed = seed
        self.book = book

    def run_pass(self, log: PassLog, rec: spans.Recorder | None = None) -> float:
        with _VerdictTimer(log, rec) as timer:
            t = time.perf_counter()
            timer.start("bent")
            bent = self._rows(certify.sweep_broken, self.bent)
            timer.start("y")
            y = self._rows(certify.sweep_y_alpha, self.y)
            timer.start("region")
            region = self._rows(certify.region_rows, *self.REGION_GRID)
            busy = time.perf_counter() - t
        checks = [
            ("bent", bent, oracles.check_bent),
            ("y", y, lambda r: oracles.check_y(r, self.interval)),
            ("region", region, oracles.check_region),
        ]
        for kind, rows, check in checks:
            if isinstance(rows, Exception):  # a sweep that raises is one failed item
                log.outcome(_error(kind, rows))
                continue
            digests = []
            for i, row in enumerate(rows):
                d = oracles.digest(repr(row if kind == "region" else astuple(row)))
                digests.append(d)
                # a grid point outside the region that does not certify makes
                # no claim, so it is not an item
                if kind != "region" or row[2] or row[3]:
                    log.outcome(check(row) or self.book.check(f"{kind}/{i}", d))
            # the rows of one seed, and the seed-free region grid, must also
            # repeat exactly in every later run
            key = "families/region" if kind == "region" else f"families/{kind}/seed={self.seed}"
            problem = self.book.check(key, oracles.digest("".join(digests)), persist=True)
            if problem is not None:
                log.fail(problem)
        return busy

    @staticmethod
    def _rows(sweep, *args):
        try:
            return sweep(*args)
        except Exception as e:  # reported by run_pass
            return e


def _convergence_shapes() -> dict:
    """The shapes of scripts/convergence_study.py with their exact lambda_2."""
    square = Polygon(
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        edge_tags=(BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.NEUMANN),
        edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.CUT),
    )
    triangle = Polygon(
        vertices=((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
        edge_tags=(BC.NEUMANN,) * 3,
        edge_roles=(EdgeRole.CUT,) * 3,
    )
    return {
        "dn_square": (square, box_eigs((1.0, 1.0), ("NN", "DN"), 2).values[1]),
        "neumann_triangle": (triangle, equilateral_eigs(1.0, "neumann", 2).values[1]),
    }


class Refinement:
    name = "refinement"
    # a pass is five items of very different size, so the median item is a
    # single spectrum; three passes give every item three samples
    min_passes = 3
    setup_problem = None

    def __init__(self, seed: int, out_dir: Path, book: oracles.DigestBook):
        self.presets = {name: certify.preset(name)[0] for name in oracles.FROZEN_LAMBDA1}
        self.shapes = _convergence_shapes()
        self.order = sorted(self.presets) + sorted(self.shapes)
        random.Random(seed).shuffle(self.order)

    def _spectrum(self, name: str):
        if name in self.presets:
            return fem.dn_spectrum(geom.truncate(self.presets[name], 3.0), 2, 4, 0.5)
        return fem.dn_spectrum(self.shapes[name][0], 2, 4, 0.25)

    def run_pass(self, log: PassLog, rec: spans.Recorder | None = None) -> float:
        busy = 0.0
        for name in self.order:
            if rec is not None:
                rec.item = name
            spec, seconds = _timed(log, name, self._spectrum, name)
            busy += seconds
            if isinstance(spec, Exception):
                log.outcome(_error(name, spec))
            elif name in self.presets:
                log.outcome(oracles.check_frozen(name, spec))
            else:
                log.outcome(oracles.check_convergence(name, spec, self.shapes[name][1]))
        return busy


WORKLOADS = {w.name: w for w in (Catalog, Families, Refinement)}
