"""Oracles for the benchmark's results and the determinism guard.

Each check returns ``None`` when the result is right and a one-line reason
when it is wrong.  The reference values are fixed here, independently of
the code under test, except the Y-family interval and the rectangle region,
which the package computes in closed form.
"""

from __future__ import annotations

import hashlib
import json

# Criterion 3: angle where the bent-guide chain bound crosses the threshold.
BENT_CRITICAL = 0.408637
# Criterion 4: the Y-family certified interval, pinned to 1e-10.
Y_INTERVAL = (0.9203379160993881, 1.1621584716973044)
Y_INTERVAL_TOL = 1e-9
# Seeded angles stay at least this far from a verdict boundary, where the
# tolerance budget makes Inconclusive a correct answer as well.
BOUNDARY_BAND = 1e-3

# Criterion 8: lambda_1 of each preset truncated at length 3, from
# dn_spectrum(poly, k=2, levels=4, h0=0.5).
FROZEN_LAMBDA1 = {
    "t_junction": 7.9398743699094805,
    "y_junction": 8.47980921779118,
    "crossing": 6.510357764166321,
}
FROZEN_TOL = 1e-9
# Criterion 2: the extrapolated lambda_2 of each convergence shape.
CONVERGENCE_TOL = 0.005
MONOTONE_SLACK = 1e-10

EXIT_CERTIFIED, EXIT_INCONCLUSIVE = 0, 2


def check_catalog(name: str, target, exit_code, report_text: str | None) -> str | None:
    """``target`` is the expected count, or None for a preset that must stay
    Inconclusive."""
    want_code = EXIT_CERTIFIED if target is not None else EXIT_INCONCLUSIVE
    if exit_code != want_code:
        return f"{name}: exit code {exit_code!r}, expected {want_code}"
    if report_text is None:
        return f"{name}: no report written"
    try:
        report = json.loads(report_text)
    except ValueError as e:
        return f"{name}: report is not JSON ({e})"
    want = ("CertifiedNoResonance", target) if target is not None else ("Inconclusive", None)
    got = (report.get("verdict"), report.get("n"))
    if got != want:
        return f"{name}: verdict {got}, expected {want}"
    return None


def _check_sweep_row(kind: str, row, expect_certified: bool) -> str | None:
    got = (row.certified, row.n)
    want = (True, 1) if expect_certified else (False, None)
    if got != want:
        return f"{kind} alpha={row.param!r}: (certified, n) = {got}, expected {want}"
    return None


def check_bent(row) -> str | None:
    return _check_sweep_row("bent", row, row.param > BENT_CRITICAL)


def check_y(row, interval: tuple[float, float]) -> str | None:
    a1, a2 = interval
    return _check_sweep_row("y", row, a1 < row.param < a2)


def check_region(row) -> str | None:
    x, y, inside, certified = row
    if certified != inside:
        return f"region ({x!r}, {y!r}): certified={certified}, inside={inside}"
    return None


def check_y_interval(interval: tuple[float, float]) -> str | None:
    if any(abs(a - b) > Y_INTERVAL_TOL for a, b in zip(interval, Y_INTERVAL)):
        return f"Y interval {interval} differs from {Y_INTERVAL}"
    return None


def check_frozen(name: str, spectrum) -> str | None:
    lam1 = float(spectrum.extrapolated[0])
    frozen = FROZEN_LAMBDA1[name]
    if abs(lam1 - frozen) > FROZEN_TOL * abs(frozen):
        return f"{name}: lambda_1 {lam1!r}, frozen {frozen!r}"
    return None


def check_convergence(name: str, spectrum, exact_value: float) -> str | None:
    """Every level is an upper bound that refinement never raises, and the
    extrapolated second eigenvalue is within CONVERGENCE_TOL."""
    prev = None
    for level, vals in enumerate(spectrum.level_values):
        v = float(vals[1])
        if v < exact_value - MONOTONE_SLACK:
            return f"{name}: level {level} value {v!r} below exact {exact_value!r}"
        if prev is not None and v > prev + MONOTONE_SLACK:
            return f"{name}: level {level} value {v!r} above previous {prev!r}"
        prev = v
    rel = abs(float(spectrum.extrapolated[1]) - exact_value) / exact_value
    if rel >= CONVERGENCE_TOL:
        return f"{name}: extrapolated error {rel:.3g} >= {CONVERGENCE_TOL}"
    return None


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class DigestBook:
    """First digest seen for each key; a later different digest is a
    determinism failure.  ``known`` holds the persisted digests of earlier
    runs; only keys checked with ``persist=True`` are added to it."""

    def __init__(self, known: dict | None = None):
        self.known = dict(known or {})
        self.seen: dict[str, str] = {}
        self._persist: set[str] = set()

    def check(self, key: str, value: str, persist: bool = False) -> str | None:
        if persist:
            self._persist.add(key)
        first = self.seen.setdefault(key, value)
        if first != value:
            return f"{key}: digest changed between passes"
        before = self.known.get(key)
        if before is not None and before != value:
            return f"{key}: digest differs from an earlier run"
        return None

    def persisted(self) -> dict:
        return {**{k: self.seen[k] for k in self._persist}, **self.known}
