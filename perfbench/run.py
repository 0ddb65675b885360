#!/usr/bin/env python3
"""starspec benchmark.

    python3 perfbench/run.py --workload {catalog,families,refinement}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, with BLAS/OpenMP pinned to one thread.  The workload's input
set is run in whole passes, in a closed loop, until ``--seconds`` have
passed and the workload's ``min_passes`` are done.  Every result is checked
against an oracle.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run then makes one more pass with
every public function of geom/exact/bounds/fem/certify/cli wrapped and
reports the per-layer metrics instead.  Spans of the traced pass are written
to ``perfbench/out/``.  The metric names and units are those declared in
``BENCHMARK.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "STAR_SPECTRA_THREADS",
    )
}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four fresh ones


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["catalog", "families", "refinement"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import starspec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "starspec" / "__init__.py").is_file():
        raise BenchError(f"no starspec sources under {src}")
    sys.path.insert(0, str(src))
    import starspec

    if Path(starspec.__file__).resolve().parent != src / "starspec":
        raise BenchError(f"starspec imported from {starspec.__file__}, not {src}")
    # finish the imports the package defers to its first call
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    return starspec


def build(workload: str, seed: int, known_digests: dict):
    import oracles
    import workloads

    OUT.mkdir(exist_ok=True)
    book = oracles.DigestBook(known_digests)
    return workloads.WORKLOADS[workload](seed, OUT, book), book


def setup_probe_samples(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh interpreters, each reported by the child."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_digests(path: Path, digests: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=0, sort_keys=True))
    os.replace(tmp, path)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(args, np, scipy, starspec) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "starspec": starspec.__version__,
        "nproc": affinity,
        "thread_pins": THREAD_PINS,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run_passes(wl, log, seconds: float) -> list[float]:
    walls = []
    start = time.perf_counter()
    while len(walls) < wl.min_passes or time.perf_counter() - start < seconds:
        walls.append(wl.run_pass(log))
    return walls


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    starspec = import_package()
    import numpy as np
    import scipy

    import selfcheck
    import spans
    from workloads import PassLog

    digest_path = OUT / f"digests-{args.workload}.json"
    wl, book = build(args.workload, args.seed, load_digests(digest_path))
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    problems = selfcheck.run()
    if problems:
        raise BenchError("benchmark self-check failed: " + "; ".join(problems))

    log = PassLog()
    if wl.setup_problem is not None:
        log.fail(wl.setup_problem)
    walls = run_passes(wl, log, args.seconds)
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = np.asarray(log.latencies)
    table = [
        ("passes", len(walls)),
        ("items timed", lat.size),
        ("attempted", log.attempted),
        ("failed_frac", log.failed / max(log.attempted, 1)),
    ]

    if args.trace:
        modules = {m: importlib.import_module(f"starspec.{m}") for m in spans.LAYER_MODULES}
        rec = spans.Recorder(dense_dof_limit=getattr(modules["fem"], "DENSE_DOF_LIMIT", 0))
        with spans.Tracer(modules, rec):
            traced_wall = wl.run_pass(log, rec)
        values = spans.layer_metrics(rec)
        values["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
        spans.write_spans(OUT / f"spans-{args.workload}.tsv", rec)
        units = declared_metrics("per_layer")
        table.append(("spans", len(rec.spans)))
    else:
        samples = [setup_s] + setup_probe_samples(args, SETUP_SAMPLES - 1)
        values = {
            "setup_s": statistics.median(samples),
            "wall_s": wall_s,
            "item_p50_s": float(np.percentile(lat, 50)),
            "item_p99_s": float(np.percentile(lat, 99)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_metrics("end_to_end")
        table.append(("setup samples", len(samples)))
    metrics = emit(values, units)
    save_digests(digest_path, book.persisted())

    for line in log.failures:
        print(f"FAILED {line}")
    for name, value in table:
        print(f"{name:<40} {value}")
    for label in sorted(set(log.labels)):
        times = [t for t, lab in zip(log.latencies, log.labels) if lab == label]
        print(f"item {label:<35} median {statistics.median(times):.6g} s over {len(times)}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": environment(args, np, scipy, starspec)}))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": min(log.failed, log.attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
