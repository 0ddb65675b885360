"""Command-line front end: certification reports, exact spectra, parameter
sweeps, the two-eigenvalue region map, mesh dumps and the reproduction
harness.

Exit codes: 0 when every requested verdict is certified, 2 when at least one
is inconclusive, 1 on errors.  Output is deterministic: fixed field order and
floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import platform
import sys

import numpy as np
import scipy

from . import __version__, certify, exact, fem, geom

EXIT_CERTIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# the bytes of json.dumps(s) for a str s, without its per-call dispatch
_quote = json.encoder.encode_basestring_ascii


def _fmt(x) -> str:
    if isinstance(x, float):
        if x != x:
            return '"NaN"'
        if x in (float("inf"), float("-inf")):
            return '"Infinity"' if x > 0 else '"-Infinity"'
        if x == int(x) and abs(x) < 1e16:
            return format(x, ".1f")
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return "null"
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {_fmt(v)}" for k, v in x.items()) + "}"
    raise TypeError(f"cannot serialize {type(x)}")


def dumps_report(obj: dict) -> str:
    """Deterministic JSON: insertion field order, 17-significant-digit floats."""
    return _fmt(obj) + "\n"


def _versions() -> dict:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write(text, path: str | None) -> None:
    """Write a str, or each str of an iterable as it comes, to path or, for "-", to stdout."""
    lines = (text,) if isinstance(text, str) else text
    if path in (None, "-"):
        sys.stdout.writelines(lines)
    else:
        with open(path, "w") as f:
            f.writelines(lines)


def _overrides(args) -> dict:
    """The plan flags the user set, then the keys of the --params object."""
    try:
        extra = json.loads(args.params)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("--params: nested too deeply") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"--params: {e}") from None
    if not isinstance(extra, dict):
        raise ValueError("--params must be a JSON object")
    flags = {k: v for k, v in vars(args).items() if k in certify.PLAN_FIELDS and v is not None}
    return {**flags, **extra}


def cmd_certify(args) -> int:
    if args.config is None and not args.preset:
        raise ValueError("certify needs a configuration file or --preset")
    overrides = _overrides(args)
    if args.preset:
        vcfg, plan = certify.preset(args.preset, **overrides)
        name = args.preset
    else:
        plan = certify.make_plan(overrides)
        vcfg = geom.load_config(args.config)
        name = vcfg.name
    v = certify.certify(vcfg, plan, name=name)
    _write(dumps_report({**v.to_dict(), "versions": _versions()}), args.output)
    return EXIT_CERTIFIED if v.certified else EXIT_INCONCLUSIVE


# each catalog shape's closed-form spectrum, from the parsed arguments and the boundary condition
SPECTRA = {
    "interval": lambda args, bc: exact.interval_eigs(args.length, bc.upper(), args.k),
    "box": lambda args, bc: exact.box_eigs(tuple(args.dims), tuple(b.upper() for b in args.bcs), args.k),
    "equilateral": lambda args, bc: exact.equilateral_eigs(args.side, bc.lower(), args.k),
    "sector": lambda args, bc: exact.sector_dn_eigs(args.alpha, args.radius, args.k),
}
# the largest -k: at it the sector takes the longest, about 8 s and 110 MB (see README)
MAX_EIGENVALUES = 100_000


def cmd_spectrum(args) -> int:
    shape = args.shape
    if args.k > MAX_EIGENVALUES:
        raise ValueError(f"-k {args.k} exceeds the cap of {MAX_EIGENVALUES} eigenvalues")
    if not all(map(math.isfinite, [args.length, args.side, args.alpha, args.radius, *args.dims])):
        raise ValueError("--length, --side, --alpha, --radius and --dims must be finite")
    eigs = SPECTRA[shape](args, args.bc or ("dirichlet" if shape == "equilateral" else "DD"))
    report = {
        "shape": shape,
        "k": args.k,
        "values": list(eigs.values),
        "provenance": list(eigs.provenance),
        "versions": _versions(),
    }
    _write(dumps_report(report), args.output)
    return EXIT_CERTIFIED


def _sweep_csv(rows: list[certify.SweepRow]):
    """The sweep's CSV lines, each formatted as it is asked for."""
    yield "param,nu,verdict,n,dn_margin\n"
    for r in rows:
        verdict = "CertifiedNoResonance" if r.certified else "Inconclusive"
        n = "" if r.n is None else str(r.n)
        yield f"{format(r.param, '.17g')},{format(r.nu, '.17g')},{verdict},{n},{format(r.dn_margin, '.17g')}\n"


def cmd_sweep(args) -> int:
    if not -math.inf < args.start <= args.stop < math.inf:
        raise ValueError(f"--start and --stop must be finite with start <= stop, not {args.start} and {args.stop}")
    if not 0 < args.step < math.inf:
        raise ValueError(f"--step must be positive and finite, not {args.step}")
    if (args.stop + 1e-12 - args.start) / args.step > certify.MAX_GRID_POINTS:  # np.arange makes the ceiling of it
        raise ValueError(f"--step {args.step} makes a sweep grid that exceeds the cap of {certify.MAX_GRID_POINTS} grid points")
    grid = np.arange(args.start, args.stop + 1e-12, args.step)
    sweep = {"broken": certify.sweep_broken, "y_alpha": certify.sweep_y_alpha}[args.family]
    rows = sweep(grid)
    _write(_sweep_csv(rows), args.output)
    first = certify.first_certified(rows)
    if first is not None:
        sys.stderr.write(f"first certified grid point: {format(first, '.17g')}\n")
    return EXIT_CERTIFIED if any(r.certified for r in rows) else EXIT_INCONCLUSIVE


def cmd_region(args) -> int:
    if args.nx < 10 or args.ny < 10:
        raise ValueError("grid resolution must be at least 10 per axis")
    rows = certify.region_rows(args.nx, args.ny)
    lines = (f"{format(x, '.17g')},{format(y, '.17g')},{str(inside).lower()},{str(cert).lower()}\n" for x, y, inside, cert in rows)
    _write(itertools.chain(["x,y,inside,certified\n"], lines), args.output)
    return EXIT_CERTIFIED


def cmd_mesh(args) -> int:
    if args.levels < 1:
        raise ValueError(f"--levels must be at least 1, not {args.levels}")
    vcfg = geom.load_config(args.config)
    if vcfg.is_3d:
        raise ValueError("mesh needs a 2D config: it triangulates a polygon center")
    poly = geom.truncate(vcfg, args.truncation) if args.truncate else vcfg.center
    mesh = fem.triangulate(poly, args.h0)
    for _ in range(args.levels - 1):
        mesh = fem.refine(mesh)
    _write((fem.mesh_svg if args.format == "svg" else fem.mesh_text_dump)(mesh), args.output)
    sys.stderr.write(f"nodes={mesh.nodes.shape[0]} dof={fem.free_nodes(mesh, certify.tail_caps(poly)).size} triangles={mesh.triangles.shape[0]} "
                     f"max_diameter={mesh.max_diameter():.6g} min_angle={mesh.min_angle_deg():.4g}\n")
    return EXIT_CERTIFIED


REPRO_TARGETS = {
    "t_junction": 1,
    "y_junction": 1,
    "crossing": None,  # inconclusive by design without the symmetry plan
    "crossing_symmetric": 1,
    "rounded_corner": 1,
    "rect_two_eigs": 2,
    "cube_square": 1,
    "cube_disk": 1,
}


def cmd_repro(args) -> int:
    if not args.all and not args.names:
        raise ValueError("repro needs --all or preset names")
    names = list(REPRO_TARGETS) if args.all else args.names
    unknown = [name for name in names if name not in REPRO_TARGETS]
    if unknown:  # before any verdict runs: a bad name is malformed input, not a FAIL row
        raise ValueError(f"unknown preset {', '.join(map(repr, unknown))}; repro runs {', '.join(REPRO_TARGETS)}")
    failures = 0
    lines = []
    for name in names:
        target = REPRO_TARGETS[name]
        try:
            vcfg, plan = certify.preset(name)
            v = certify.certify(vcfg, plan, name=name)
            got = v.n_discrete if v.certified else None
            ok = got == target
        except Exception as e:  # keep the table going
            got, ok = f"error: {e}", False
        failures += 0 if ok else 1
        lines.append(
            f"{name:<22} expected n={target!s:<6} got n={got!s:<6} {'PASS' if ok else 'FAIL'}"
        )
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_CERTIFIED if failures == 0 else EXIT_INCONCLUSIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: run shares it between
    calls, so every default it holds is immutable."""
    p = argparse.ArgumentParser(
        prog="starspec",
        description="Certify discrete-spectrum counts and absence of threshold "
        "resonances for star waveguides.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify a configuration or preset")
    c.add_argument("config", nargs="?", help="JSON configuration file")
    c.add_argument("--preset", choices=certify.PRESET_NAMES, help="built-in example")
    c.add_argument("--lower-strategy", dest="lower_strategy", help=f"lower-bound rule (default: {certify.CertificationPlan.lower_strategy})")
    c.add_argument("--count-strategy", dest="count_strategy", help=f"count rule (default: {certify.CertificationPlan.count_strategy})")
    c.add_argument("--truncation", dest="truncation_length", type=float, help="branch truncation length")
    c.add_argument("--levels", dest="fem_levels", type=int, help="finest refinement level the FEM count solves")
    c.add_argument("--params", default="{}", help="plan overrides and preset shape keywords (JSON object)")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("spectrum", help="closed-form spectra of catalog shapes")
    s.add_argument("--shape", required=True, choices=list(SPECTRA))
    s.add_argument("--bc", help="interval pair (DD/NN/DN/ND, default DD) or, for equilateral, dirichlet/neumann (default dirichlet)")
    s.add_argument("--length", type=float, default=1.0)
    s.add_argument("--side", type=float, default=1.0)
    s.add_argument("--dims", type=float, nargs="+", default=(1.0, 1.0))
    s.add_argument("--bcs", nargs="+", default=("DD", "DD"))
    s.add_argument("--alpha", type=float, default=math.pi / 2)
    s.add_argument("--radius", type=float, default=1.0)
    s.add_argument("-k", type=int, default=3)
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(func=cmd_spectrum)

    w = sub.add_parser("sweep", help="parameter sweep over a preset family")
    w.add_argument("--family", required=True, choices=["broken", "y_alpha"])
    w.add_argument("--start", type=float, required=True)
    w.add_argument("--stop", type=float, required=True)
    w.add_argument("--step", type=float, default=0.005)
    w.add_argument("-o", "--output", default="-")
    w.set_defaults(func=cmd_sweep)

    r = sub.add_parser("region", help="two-eigenvalue rectangle parameter region as CSV")
    r.add_argument("--nx", type=int, default=100)
    r.add_argument("--ny", type=int, default=50)
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(func=cmd_region)

    m = sub.add_parser("mesh", help="triangulate a configuration and dump the mesh")
    m.add_argument("config")
    # the defaults are the FEM count's: --truncate --levels N dumps level N of a default-plan count
    m.add_argument("--h0", type=float, default=certify.FEM_H0)
    m.add_argument("--levels", type=int, default=1)
    m.add_argument("--truncate", action="store_true", help="mesh the truncated waveguide")
    m.add_argument("--truncation", type=float, default=certify.CertificationPlan.truncation_length)
    m.add_argument("--format", choices=["text", "svg"], default="text")
    m.add_argument("-o", "--output", default="-")
    m.set_defaults(func=cmd_mesh)

    rp = sub.add_parser("repro", help="run every preset against its expected count")
    rp.add_argument("--all", action="store_true")
    rp.add_argument("names", nargs="*", default=())
    rp.add_argument("-o", "--output", default="-")
    rp.set_defaults(func=cmd_repro)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, exact.ConvergenceFailure, fem.MeshFailure, fem.SolverFailure) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
