"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS line naming the capability it witnesses, so a
verbose run doubles as a checklist.
"""

import math

import numpy as np
import pytest

from starspec import certify, fem
from starspec.certify import preset, certify as run_certify
from starspec.exact import (
    PI2,
    bessel_zero,
    box_eigs,
    cross_section_threshold,
    equilateral_eigs,
    sector_dn_eigs,
)
from starspec.geom import BC, CrossSection, EdgeRole, Polygon

REL_EXACT = 1e-12
BESSEL_TOL = 1e-5

# Frozen regression baselines for the truncated-waveguide ground states.
# Oracle: truncate each preset at length 3.0, run the mixed-boundary spectrum
# through 4 nested uniform refinements starting from target size 0.5, and
# Richardson-extrapolate; the shift-invert solver is seeded deterministically,
# so repeat runs agree bit for bit and the tolerance can stay tight.  The
# truncation itself is the dominant modelling error (about 7e-3 for the T,
# 4e-3 for the Y and 1.5e-1 for the crossing against longer-stub runs), which
# is why these serve only as regression anchors, not as certified values.
FROZEN_LAMBDA1 = {
    "t_junction": 7.9398743699094805,
    "y_junction": 8.47980921779118,
    "crossing": 6.510357764166321,
}
FROZEN_TOL = 1e-9


def _passline(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_exact_catalog_values():
    assert box_eigs((1.0, 1.0), ("NN", "DN"), 2).values[1] == pytest.approx(
        5 * PI2 / 4, rel=REL_EXACT
    )
    assert equilateral_eigs(1.0, "neumann", 2).values[1] == pytest.approx(
        16 * PI2 / 9, rel=REL_EXACT
    )
    big = equilateral_eigs(2 * math.sqrt(3), "dirichlet", 4)
    assert big.values[0] == pytest.approx(4 * PI2 / 9, rel=REL_EXACT)
    assert big.values[3] == pytest.approx(16 * PI2 / 9, rel=REL_EXACT)
    assert box_eigs((1.0, 1.0, 1.0), ("DN", "DN", "DN"), 2).values[1] == pytest.approx(
        11 * PI2 / 4, rel=REL_EXACT
    )
    disk = cross_section_threshold(CrossSection.disk(0.5))
    assert disk == pytest.approx(4 * bessel_zero(0.0, 1) ** 2, rel=REL_EXACT)
    assert disk == pytest.approx(23.132646, abs=BESSEL_TOL * 23)
    _passline(1, "closed-form catalog spectra match the reference values")


def test_criterion_2_fem_convergence():
    dn_square = Polygon(
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        edge_tags=(BC.DIRICHLET, BC.NEUMANN, BC.NEUMANN, BC.NEUMANN),
        edge_roles=(EdgeRole.WALL, EdgeRole.CUT, EdgeRole.CUT, EdgeRole.CUT),
    )
    neu_triangle = Polygon(
        vertices=((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
        edge_tags=(BC.NEUMANN,) * 3,
        edge_roles=(EdgeRole.CUT,) * 3,
    )
    cases = [
        (dn_square, box_eigs((1.0, 1.0), ("NN", "DN"), 2).values[1]),
        (neu_triangle, equilateral_eigs(1.0, "neumann", 2).values[1]),
    ]
    for poly, exact_val in cases:
        spec = fem.dn_spectrum(poly, 2, 4, 0.25)
        # each level is a true upper bound and refinement never increases it
        prev = None
        for vals in spec.level_values:
            assert vals[1] >= exact_val - 1e-10
            if prev is not None:
                assert vals[1] <= prev + 1e-10
            prev = vals[1]
        rel = abs(spec.extrapolated[1] - exact_val) / exact_val
        assert rel < 0.005
    _passline(2, "P1 upper bounds converge to 0.5% within four refinement levels")


def test_criterion_3_bent_guide_critical_angle():
    alphas = np.arange(0.35, 0.5 + 1e-12, 0.005)
    rows = certify.sweep_broken(alphas)
    first = certify.first_certified(rows)
    expected = 0.408637  # angle where the chain bound crosses the threshold
    assert first is not None
    assert expected <= first <= expected + 0.005 + 1e-9
    # below the crossing nothing certifies, above it everything does
    for r in rows:
        assert r.certified == bool(r.param >= first)
    _passline(3, "bent-guide sweep localizes the critical angle to one grid step")


def test_criterion_4_y_family_interval():
    a1, a2 = certify.y_alpha_certified_interval()
    assert a1 == pytest.approx(0.9203379160993881, abs=1e-10)
    assert a2 == pytest.approx(1.1621584716973044, abs=1e-10)
    step = 0.005
    alphas = np.arange(0.90, 1.18 + 1e-12, step)
    rows = certify.sweep_y_alpha(alphas)
    certified = [r.param for r in rows if r.certified]
    assert certified
    assert a1 <= min(certified) <= a1 + step + 1e-9
    assert a2 - step - 1e-9 <= max(certified) <= a2
    _passline(4, "Y-family certified interval matches the analytic endpoints")


def test_criterion_5_crossing_needs_symmetry():
    vcfg, plan = preset("crossing")
    v = run_certify(vcfg, plan, name="crossing")
    assert not v.certified
    assert v.margins["dn_gap"] == 0.0  # the naive bound lands exactly on nu

    vcfg, plan = preset("crossing_symmetric")
    vs = run_certify(vcfg, plan, name="crossing_symmetric")
    assert vs.certified
    assert vs.n_discrete == 1
    p = vs.extra["parities"]
    assert p["00"]["host"][1] == pytest.approx(4 * PI2, rel=REL_EXACT)
    assert p["11"]["host"][1] == pytest.approx(2 * PI2, rel=REL_EXACT)
    assert p["01"]["host"][1] == p["10"]["host"][1]
    assert min(p["01"]["strip_floors"]) == pytest.approx(PI2, rel=REL_EXACT)
    assert vs.extra["sum_njk"] == 1
    _passline(5, "crossing is inconclusive naively and certified via parity split")


def test_criterion_6_two_eigenvalue_region():
    vcfg, plan = preset("rect_two_eigs")
    v = run_certify(vcfg, plan, name="rect")
    assert v.certified and v.n_discrete == 2 and v.rigor == "analytic"

    rows = certify.region_rows(100, 50)
    inside = [r for r in rows if r[2]]
    assert inside
    assert all(r[3] for r in inside)  # every admissible sample certifies n = 2

    # violating only the third inequality must not certify two eigenvalues
    x, y = 0.42, 0.3
    assert not certify.region_inside(x, y)
    a, b = 1 / x, 1 / y
    v_bad = run_certify(*preset("rect_two_eigs", a=a, b=b), name="bad")
    assert not (v_bad.certified and v_bad.n_discrete == 2)
    _passline(6, "rectangle two-eigenvalue region certifies exactly where admissible")


def test_criterion_7_rounded_corner_sector_gaps():
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 3 * math.pi / 4):
        floor = certify.dn_lower_bounds(*preset("rounded_corner", alpha=alpha), 2)[1].value
        exact_eigs = sector_dn_eigs(alpha, 1.0, 2)
        assert PI2 < floor <= exact_eigs[1]  # the sector rule's lambda_2 floor, against the Bessel zeros
        assert exact_eigs[0] < PI2
    assert bessel_zero(0.0, 1) < math.pi  # the fundamental always sits below nu
    _passline(7, "sector gap certificates hold across the opening-angle range")


def test_criterion_8_frozen_waveguide_baselines():
    for name, frozen in FROZEN_LAMBDA1.items():
        vcfg, _ = preset(name)
        from starspec import geom

        poly = geom.truncate(vcfg, 3.0)
        spec = fem.dn_spectrum(poly, 2, 4, 0.5)
        lam1 = spec.extrapolated[0]
        assert lam1 == pytest.approx(frozen, rel=FROZEN_TOL), name
    _passline(8, "frozen truncated-waveguide baselines reproduce bit-stably")
