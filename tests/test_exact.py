"""Closed-form spectra: brute-force oracles, Bessel machinery, analytic bounds."""

import functools
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspec import certify, exact
from starspec.exact import (
    PI2,
    bessel_j,
    bessel_zero,
    bessel_zero_lower_bound,
    box_eigs,
    cross_section_threshold,
    equilateral_eigs,
    interval_eigs,
    right_triangle_dn_lower_bound,
    sector_dn_eigs,
    y_alpha_enclosure_triangle,
    y_alpha_threshold,
)
from starspec.geom import CrossSection

REL = 1e-12


class TestInterval:
    def test_closed_forms(self):
        assert interval_eigs(1.0, "DD", 2).values == pytest.approx((PI2, 4 * PI2), rel=REL)
        assert interval_eigs(1.0, "NN", 3).values == pytest.approx((0.0, PI2, 4 * PI2), abs=1e-12)
        assert interval_eigs(1.0, "DN", 2).values == pytest.approx((PI2 / 4, 9 * PI2 / 4), rel=REL)
        assert interval_eigs(1.0, "ND", 1).values == pytest.approx((PI2 / 4,), rel=REL)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.sampled_from(["DD", "NN", "DN", "ND"]),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_and_monotonicity(self, length, bc, k):
        eigs = interval_eigs(length, bc, k)
        unit = interval_eigs(1.0, bc, k)
        for a, b in zip(eigs.values, eigs.values[1:]):
            assert a <= b
        for v, u in zip(eigs.values, unit.values):
            assert v == pytest.approx(u / length**2, rel=1e-12, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            interval_eigs(0.0, "DD", 1)
        with pytest.raises(ValueError):
            interval_eigs(1.0, "DX", 1)
        with pytest.raises(ValueError):
            interval_eigs(1.0, "DD", 0)

    @pytest.mark.parametrize("size", [0.0, -1.0, math.inf, math.nan])
    def test_sizes_must_be_positive_and_finite(self, size):
        with pytest.raises(ValueError, match="positive and finite"):
            interval_eigs(size, "DD", 1)
        with pytest.raises(ValueError, match="positive and finite"):
            box_eigs((1.0, size), ("DD", "NN"), 1)
        with pytest.raises(ValueError, match="positive and finite"):
            equilateral_eigs(size, "neumann", 1)


def brute_force_box(dims, bcs, k, index_cap=30):
    """Oracle: enumerate separable sums directly over a large index window."""
    per_axis = []
    for L, bc in zip(dims, bcs):
        if bc == "DD":
            vals = [(n * math.pi / L) ** 2 for n in range(1, index_cap + 1)]
        elif bc == "NN":
            vals = [(n * math.pi / L) ** 2 for n in range(index_cap)]
        else:
            vals = [((n - 0.5) * math.pi / L) ** 2 for n in range(1, index_cap + 1)]
        per_axis.append(vals)
    sums = [0.0]
    for vals in per_axis:
        sums = [s + v for s in sums for v in vals]
    return sorted(sums)[:k]


class TestBox:
    def test_vs_brute_force_enumeration(self):
        cases = [
            ((1.0, 1.0), ("DD", "DD")),
            ((1.0, 1.0), ("NN", "DN")),
            ((2.381, 2.041), ("DD", "DD")),
            ((2.381, 2.041), ("DN", "DD")),
            ((1.0, 1.0, 1.0), ("DN", "DN", "DN")),
        ]
        for dims, bcs in cases:
            got = box_eigs(dims, bcs, 12).values
            want = brute_force_box(dims, bcs, 12)
            assert got == pytest.approx(want, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.3, max_value=4.0), min_size=2, max_size=3),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dims_match_oracle(self, dims, k):
        bcs = ["DD"] * len(dims)
        got = box_eigs(tuple(dims), tuple(bcs), k).values
        want = brute_force_box(dims, bcs, k)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bcs", [("DD", "DD"), ("NN", "DN"), ("DN", "DD", "NN")])
    @pytest.mark.parametrize("below", [0.0, PI2 / 4, 25.0, 80.0, math.inf])
    def test_below_keeps_the_prefix_under_it(self, bcs, below):
        dims = (1.0, 1.3, 0.8)[: len(bcs)]
        full = box_eigs(dims, bcs, 12)
        got = box_eigs(dims, bcs, 12, below=below)
        n = sum(1 for v in full.values if v < below)
        assert (got.values, got.provenance) == (full.values[:n], full.provenance[:n])

    @pytest.mark.parametrize(
        "dims, bcs",
        [((1.3,), ("NN",)), ((1.0, 1.0), ("DD", "DD")), ((40.0, 40.0), ("NN", "DN")),
         ((1.0, 1.0, 1.0), ("DN", "DN", "DN")), ((2.0, 1.0, 0.7), ("DD", "NN", "ND"))],
    )
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 27, 40])
    @pytest.mark.parametrize("below", [math.inf, 60.0])
    def test_the_corner_cap_changes_nothing(self, dims, bcs, k, below):
        # every k^d lattice sum below `below`, added and ordered as box_eigs
        # enumerates them; a stable sort keeps that order among equal sums
        axes = [interval_eigs(d, bc, k) for d, bc in zip(dims, bcs)]
        pairs = []
        for point in itertools.product(*(zip(a.values, a.provenance) for a in axes)):
            total = 0.0
            for v, _ in point:
                total += v
            if total < below:
                pairs.append((total, "box[" + ",".join(p for _, p in point) + "]"))
        pairs.sort(key=lambda pair: pair[0])
        got = box_eigs(dims, bcs, k, below=below)
        assert list(zip(got.values, got.provenance)) == pairs[:k]

    def test_mixed_square_values(self):
        # Dirichlet on one side, Neumann on the other three
        got = box_eigs((1.0, 1.0), ("NN", "DN"), 2).values
        assert got == pytest.approx((PI2 / 4, 5 * PI2 / 4), rel=REL)

    @staticmethod
    def _recursive_box_eigs(dims, bcs, k, below=math.inf):
        # the walk as a recursive closure over the axis EigLists, labelling
        # every lattice point it visits
        d = len(dims)
        axes = [interval_eigs(dims[i], bcs[i], k) for i in range(d)]
        r = round(k ** (1 / d))
        r += r**d < k
        corner = 0.0
        for axis in axes:
            corner += axis.values[r - 1]
        below = min(below, math.nextafter(corner, math.inf))
        pairs = []

        def rec(axis, total, label):
            if axis == d:
                pairs.append((total, "box[" + ",".join(label) + "]"))
                return
            for v, p in zip(axes[axis].values, axes[axis].provenance):
                if total + v >= below:
                    break
                label.append(p)
                rec(axis + 1, total + v, label)
                label.pop()

        rec(0, 0.0, [])
        pairs.sort(key=lambda p: p[0])
        return tuple(v for v, _ in pairs[:k]), tuple(p for _, p in pairs[:k])

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.tuples(
                # a few repeated lengths make equal dims, and so tied sums, common
                st.lists(st.sampled_from([0.5, 1.0, 1.3, 2.0]) | st.floats(min_value=0.3, max_value=4.0), min_size=d, max_size=d),
                st.lists(st.sampled_from(["DD", "NN", "DN", "ND"]), min_size=d, max_size=d),
            )
        ),
        st.integers(min_value=1, max_value=40),
        st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=400.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_walk_matches_the_recursive_walk(self, shape, k, below):
        dims, bcs = map(tuple, shape)
        got = box_eigs(dims, bcs, k, below=below)
        assert (got.values, got.provenance) == self._recursive_box_eigs(dims, bcs, k, below)


def brute_force_equilateral(side, bc, k, cap=25):
    scale = 16 * PI2 / (9 * side**2)
    lo = 1 if bc == "dirichlet" else 0
    vals = []
    for m in range(lo, cap):
        for n in range(lo, cap):
            vals.append(scale * (m * m + m * n + n * n))
    return sorted(vals)[:k]


class TestEquilateral:
    def test_vs_enumeration_with_multiplicity(self):
        for side in (1.0, 2 * math.sqrt(3)):
            for bc in ("dirichlet", "neumann"):
                got = equilateral_eigs(side, bc, 10).values
                want = brute_force_equilateral(side, bc, 10)
                assert got == pytest.approx(want, rel=1e-12)

    def test_reference_values(self):
        neu = equilateral_eigs(1.0, "neumann", 3)
        assert neu.values[0] == 0.0
        assert neu.values[1] == pytest.approx(16 * PI2 / 9, rel=REL)
        dir_big = equilateral_eigs(2 * math.sqrt(3), "dirichlet", 4)
        assert dir_big.values[0] == pytest.approx(4 * PI2 / 9, rel=REL)
        assert dir_big.values[3] == pytest.approx(16 * PI2 / 9, rel=REL)

    @staticmethod
    def _per_call_lattice(side, bc, k):
        # the lattice built and sorted afresh on every call, by floats
        lo = 1 if bc == "dirichlet" else 0
        scale = 16 * PI2 / (9 * side**2)
        pairs = []
        for m in range(lo, lo + k + 3):
            for n in range(m, lo + k + 3):
                v = scale * (m * m + m * n + n * n)
                pairs += [(v, f"equilateral-{bc[0].upper()}(m={m},n={n})")] * (1 if m == n else 2)
        pairs.sort(key=lambda p: p[0])
        return tuple(v for v, _ in pairs[:k]), tuple(p for _, p in pairs[:k])

    @staticmethod
    def _square_lattice(bc, k):
        # every pair up to lo + k + 2 on each index, labelled and sorted
        lo = 1 if bc == "dirichlet" else 0
        cap = lo + k + 2
        pairs = []
        for m in range(lo, cap + 1):
            for n in range(m, cap + 1):
                pairs += [(m * m + m * n + n * n, f"equilateral-{bc[0].upper()}(m={m},n={n})")] * (1 if m == n else 2)
        pairs.sort(key=lambda p: p[0])
        return tuple(v for v, _ in pairs[:k]), tuple(p for _, p in pairs[:k])

    @staticmethod
    def _index_square_lattice(bc, k):
        # the pairs m <= n of the r x r index square's value bound, r^2 >= k, sorted
        lo = 1 if bc == "dirichlet" else 0
        r = math.isqrt(k - 1) + 1
        top = 3 * (lo + r - 1) ** 2
        pairs = [(q, m, n) for m in range(lo, lo + r) for n in range(m, 2 * (lo + r))
                 if (q := m * m + m * n + n * n) <= top for _ in range(1 + (m < n))]
        pairs.sort()
        return tuple(q for q, _, _ in pairs[:k]), tuple(f"equilateral-{bc[0].upper()}(m={m},n={n})" for _, m, n in pairs[:k])

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_the_ascending_walk_matches_the_square_walk(self, bc):
        # every k to 120, then every tenth to 300: the square walk is O(k^2)
        for k in [*range(1, 121), *range(130, 301, 10)]:
            got = exact._equilateral_lattice(bc, k)
            assert (got.values, got.provenance) == self._square_lattice(bc, k), k

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_the_ascending_walk_matches_the_index_square_bound(self, bc):
        for k in [*range(1, 200), 2000, 20000]:
            got = exact._equilateral_lattice(bc, k)
            assert (got.values, got.provenance) == self._index_square_lattice(bc, k), k

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("side", [1.0, 2 * math.sqrt(3), 0.37, 1 / 3, math.pi, 250.0])
    def test_cached_lattice_matches_the_per_call_lattice(self, side, bc):
        for k in range(1, 41):
            got = equilateral_eigs(side, bc, k)
            assert (got.values, got.provenance) == self._per_call_lattice(side, bc, k)


KNOWN_BESSEL_ZEROS = {
    # order: first zeros, standard reference values
    0.0: (2.404825557695773, 5.520078110286311, 8.653727912911012),
    1.0: (3.831705970207512, 7.015586669815619, 10.173468135062722),
    2.0: (5.135622301840683, 8.417244140399864, 11.619841172149059),
}


def rescan_zero(s, k):
    # the k-th zero of J_s by a scan from the start for each k, on the same grid and bracket
    from scipy.optimize import brentq

    x = max(s + 1e-6, bessel_zero_lower_bound(s, 1) - 1.5, 1e-6)
    f_prev, found = bessel_j(s, x), 0
    for _ in range(exact.BESSEL_MAX_ITER * k):
        f_next = bessel_j(s, x + 1.0)
        if f_prev == 0.0 or f_prev * f_next < 0:
            found += 1
            if found == k:
                return x if f_prev == 0.0 else float(brentq(lambda t: bessel_j(s, t), x, x + 1.0, xtol=1e-13, rtol=1e-13, maxiter=exact.BESSEL_MAX_ITER))
        x, f_prev = x + 1.0, f_next
    raise ValueError(f"could not locate zero {k} of J_{s}")


class TestBessel:
    def test_zeros_match_reference(self):
        for s, zeros in KNOWN_BESSEL_ZEROS.items():
            for k, z in enumerate(zeros, start=1):
                assert bessel_zero(s, k) == pytest.approx(z, rel=1e-12)
            assert list(itertools.islice(exact._bessel_zeros(s), len(zeros))) == pytest.approx(zeros, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0, 10.5, 63.0])
    def test_one_scan_gives_every_zero_of_its_order(self, s):
        scanned = list(itertools.islice(exact._bessel_zeros(s), 30))
        assert scanned == [bessel_zero(s, k) for k in range(1, 31)] == [rescan_zero(s, k) for k in range(1, 31)]

    def test_half_order_zeros_are_multiples_of_pi(self):
        # J_{1/2} is proportional to sin(x)/sqrt(x)
        for k in range(1, 6):
            assert bessel_zero(0.5, k) == pytest.approx(k * math.pi, rel=1e-12)

    def test_interlacing_grid(self):
        orders = [0.0, 0.5, 1.0, 2.0, 5.0]
        for s in orders:
            zs = [bessel_zero(s, k) for k in range(1, 6)]
            zs_up = [bessel_zero(s + 1, k) for k in range(1, 6)]
            for k in range(5):
                assert zs[k] < zs_up[k]  # zeros increase with the order
                if k + 1 < 5:
                    assert zs_up[k] < zs[k + 1]  # and interlace

    def test_lower_bound_dominated_by_true_zero(self):
        for s in (0.0, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
            for k in range(1, 6):
                assert bessel_zero_lower_bound(s, k) < bessel_zero(s, k)

    def test_lower_bound_out_of_range(self):
        with pytest.raises(ValueError, match=r"^lower bound requires s > -1/2$"):
            bessel_zero_lower_bound(-0.6, 1)

    def test_bessel_j_values(self):
        assert bessel_j(0.0, 0.0) == pytest.approx(1.0)
        assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-12


cached_rescan_zero = functools.cache(rescan_zero)


def cap_growth_sector(alpha, radius, k):
    # the (n_max + 1) x k_max candidates, sorted, with caps grown until the analytic floors of the
    # first omitted order and rank lie above the k-th value
    n_max = k_max = max(2, k)
    for _ in range(20):
        pairs = [((cached_rescan_zero(math.pi * n / alpha, kk) / radius) ** 2, f"sector(n={n},k={kk})")
                 for n in range(n_max + 1) for kk in range(1, k_max + 1)]
        pairs.sort(key=lambda p: p[0])  # equal values stay in index order
        top = pairs[k - 1][0]
        lb_n = (bessel_zero_lower_bound(math.pi * (n_max + 1) / alpha, 1) / radius) ** 2
        lb_k = (bessel_zero_lower_bound(0.0, k_max + 1) / radius) ** 2
        if lb_n > top and lb_k > top:
            return tuple(v for v, _ in pairs[:k]), tuple(p for _, p in pairs[:k])
        n_max += 2
        k_max += 2
    raise AssertionError("the caps did not grow far enough")


class TestSector:
    @pytest.mark.parametrize("radius", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, math.pi / 3, math.pi / 2, 2.5])
    def test_the_walk_matches_the_cap_growth(self, alpha, radius):
        for k in range(1, 21):
            got = sector_dn_eigs(alpha, radius, k)
            assert (got.values, got.provenance) == cap_growth_sector(alpha, radius, k), k

    @pytest.mark.parametrize("alpha", [0.05, 1.0, math.pi / 2, 3.1])
    def test_the_walk_takes_at_most_2k_minus_1_zeros_of_k_orders(self, monkeypatch, alpha):
        scan, orders, zeros = exact._bessel_zeros, [], []

        def spy(s):
            orders.append(s)
            for z in scan(s):
                zeros.append(z)
                yield z

        monkeypatch.setattr(exact, "_bessel_zeros", spy)
        for k in [1, 2, 3, 5, 10, 40, 200]:
            orders.clear()
            zeros.clear()
            sector_dn_eigs(alpha, 1.0, k)
            assert len(zeros) <= 2 * k - 1 and len(orders) <= k, (k, len(zeros), len(orders))
            assert orders == [math.pi * n / alpha for n in range(len(orders))]

    def test_a_first_value_needs_no_second_order(self):
        # order pi / 1e-6 has no zero the scan can reach; k = 1 never opens it, k = 2 does
        eigs = sector_dn_eigs(1e-6, 1.0, 1)
        assert (eigs.values, eigs.provenance) == ((bessel_zero(0.0, 1) ** 2,), ("sector(n=0,k=1)",))
        with pytest.raises(ValueError, match=f"^{re.escape(f'could not locate zero 1 of J_{math.pi / 1e-6}')}$"):
            sector_dn_eigs(1e-6, 1.0, 2)

    def test_right_angle_sector_values(self):
        # Dirichlet arc, Neumann radii: zeros of J_{2n} for opening pi/2
        eigs = sector_dn_eigs(math.pi / 2, 1.0, 3)
        j01 = bessel_zero(0.0, 1)
        j21 = bessel_zero(2.0, 1)
        j02 = bessel_zero(0.0, 2)
        assert eigs.values[0] == pytest.approx(j01**2, rel=1e-12)
        assert eigs.values[1] == pytest.approx(min(j21, j02) ** 2, rel=1e-12)

    def test_radius_scaling(self):
        a = sector_dn_eigs(math.pi / 3, 1.0, 4).values
        b = sector_dn_eigs(math.pi / 3, 2.0, 4).values
        for x, y in zip(a, b):
            assert y == pytest.approx(x / 4, rel=1e-12)

    def test_gap_certificate(self):
        # the sector rule's lambda_2 floor lies between the threshold and the exact lambda_2
        for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 3 * math.pi / 4):
            floor = certify.dn_lower_bounds(*certify.preset("rounded_corner", alpha=alpha), 2)[1].value
            eigs = sector_dn_eigs(alpha, 1.0, 2)
            assert PI2 < floor <= eigs[1]
            assert eigs[0] == pytest.approx(bessel_zero(0.0, 1) ** 2, rel=1e-12)
            assert eigs[0] < PI2


class TestSpecialBounds:
    def test_right_triangle_floor(self):
        assert right_triangle_dn_lower_bound(math.pi / 4) == pytest.approx(PI2 * 1.25, rel=REL)
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, pi/2\)$"):
            right_triangle_dn_lower_bound(math.pi / 2)

    def test_thresholds(self):
        assert cross_section_threshold(CrossSection.interval(1.0)) == pytest.approx(PI2, rel=REL)
        assert cross_section_threshold(CrossSection.interval(2.0)) == pytest.approx(PI2 / 4, rel=REL)
        assert cross_section_threshold(CrossSection.rectangle(1.0, 1.0)) == pytest.approx(2 * PI2, rel=REL)
        disk = cross_section_threshold(CrossSection.disk(0.5))
        assert disk == pytest.approx(4 * bessel_zero(0.0, 1) ** 2, rel=1e-12)

    def test_y_threshold_branches_agree_at_junction_angle(self):
        a = math.pi / 3
        below = y_alpha_threshold(a - 1e-9)
        above = y_alpha_threshold(a + 1e-9)
        assert below == pytest.approx(16 * PI2 / 9, rel=1e-6)
        assert above == pytest.approx(16 * PI2 / 9, rel=1e-6)
        assert y_alpha_threshold(a) == pytest.approx(16 * PI2 / 9, rel=1e-12)

    def test_y_enclosure_triangle(self):
        l, h = y_alpha_enclosure_triangle(math.pi / 4)
        s, c = math.sin(math.pi / 4), math.cos(math.pi / 4)
        assert l == pytest.approx((2 - c) * c / s**2, rel=REL)
        assert h == pytest.approx((2 - c) / (2 * s), rel=REL)

    @given(st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
    @settings(max_examples=80, deadline=None)
    def test_y_threshold_positive_and_continuous_form(self, alpha):
        v = y_alpha_threshold(alpha)
        assert v > 0
        # both closed forms coincide only at pi/3; elsewhere the active one
        # is the minimum-defining branch for its side
        if alpha < math.pi / 3:
            s, c = math.sin(alpha), math.cos(alpha)
            assert v == pytest.approx(16 * PI2 * s**4 / (9 * c**2 * (2 - c) ** 2), rel=1e-12)
        elif alpha > math.pi / 3:
            assert v == pytest.approx(16 * PI2 / (3 * math.tan(alpha) ** 2), rel=1e-12)


# sizes log-uniform from the subnormal 1e-320 to 1e300, past both ends of the float range of every closed form
SIZES = st.floats(min_value=-320.0, max_value=300.0).map(lambda e: 10.0**e)
ZERO_MODES = {"interval-NN(n=0)", "equilateral-N(m=0,n=0)", "box[interval-NN(n=0)]", "box[interval-NN(n=0),interval-NN(n=0)]",
              "box[interval-NN(n=0),interval-NN(n=0),interval-NN(n=0)]"}


def assert_floats(values, labels=None):
    """Each value is a normal finite float, or exactly 0.0 for a zero mode."""
    for i, v in enumerate(values):
        assert type(v) is float and v < math.inf
        assert v >= exact.TINY or (v == 0.0 and labels is not None and labels[i] in ZERO_MODES), (i, v)


class TestRepresentableSizes:
    """Every closed form returns floats it can stand behind, or raises ValueError naming the
    size; never OverflowError, ZeroDivisionError, inf or nan."""

    @staticmethod
    def check(call, *sizes):
        try:
            eigs = call()
        except ValueError as e:
            assert "gives an eigenvalue outside the normal float range" in str(e)
            assert any(repr(size) in str(e) for size in sizes)
        else:
            values, labels = ([eigs], None) if isinstance(eigs, float) else (eigs.values, eigs.provenance)
            assert_floats(values, labels)

    @given(SIZES, st.sampled_from(["DD", "NN", "DN", "ND"]), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_interval(self, length, bc, k):
        self.check(lambda: interval_eigs(length, bc, k), length)

    @given(st.lists(st.tuples(SIZES, st.sampled_from(["DD", "NN", "DN", "ND"])), min_size=1, max_size=3), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_box(self, axes, k):
        dims, bcs = zip(*axes)
        self.check(lambda: box_eigs(dims, bcs, k), *dims)

    @given(SIZES, st.sampled_from(["dirichlet", "neumann"]), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_equilateral(self, side, bc, k):
        self.check(lambda: equilateral_eigs(side, bc, k), side)

    @given(st.floats(min_value=0.05, max_value=3.1), SIZES, st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_sector(self, alpha, radius, k):
        self.check(lambda: sector_dn_eigs(alpha, radius, k), radius)

    @given(st.sampled_from([CrossSection.interval, CrossSection.rectangle, CrossSection.disk]), st.lists(SIZES, min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_cross_section_threshold(self, kind, dims):
        cs = kind(*dims[: 2 if kind is CrossSection.rectangle else 1])
        self.check(lambda: cross_section_threshold(cs), *cs.dims)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: interval_eigs(1e-200, "DD", 1), "length 1e-200"),  # (pi / length)^2 overflows
            (lambda: interval_eigs(1e-320, "DD", 1), "length 1e-320"),  # pi / length is inf
            (lambda: interval_eigs(1e200, "NN", 2), "length 1e+200"),  # n = 1 underflows to 0
            (lambda: interval_eigs(1e155, "DD", 1), "length 1e+155"),  # a subnormal
            (lambda: box_eigs((1.0, 1e-200), ("NN", "DD"), 1), "dims entry 1e-200"),
            (lambda: box_eigs((3.2e-154, 3.2e-154), ("DD", "DD"), 1), "dims (3.2e-154, 3.2e-154)"),  # a sum past the largest float
            (lambda: equilateral_eigs(1e-200, "dirichlet", 1), "side 1e-200"),  # side^2 underflows to 0
            (lambda: equilateral_eigs(1e-160, "neumann", 1), "side 1e-160"),  # inf * 0 at the zero mode
            (lambda: equilateral_eigs(1e200, "neumann", 1), "side 1e+200"),  # side^2 overflows
            (lambda: sector_dn_eigs(1.0, 1e-200, 1), "radius 1e-200"),
            (lambda: sector_dn_eigs(1.0, 1e200, 1), "radius 1e+200"),
            (lambda: cross_section_threshold(CrossSection.interval(1e-160)), "cross-section dims (1e-160,)"),  # nu = inf
            (lambda: cross_section_threshold(CrossSection.rectangle(1.0, 1e-170)), "cross-section dims (1.0, 1e-170)"),
            (lambda: cross_section_threshold(CrossSection.disk(1e160)), "cross-section dims (1e+160,)"),
        ],
    )
    def test_an_out_of_range_size_is_named(self, call, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} gives an eigenvalue outside the normal float range")):
            call()

    def test_a_zero_mode_is_zero_at_any_size(self):
        assert interval_eigs(1e200, "NN", 1).values == (0.0,)
        assert interval_eigs(1e-320, "NN", 1).values == (0.0,)
        assert box_eigs((1e200, 1e-300), ("NN", "NN"), 1).values == (0.0,)
        assert equilateral_eigs(1e150, "neumann", 1).values == (0.0,)


class TestEigList:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            exact.EigList((2.0, 1.0), ("a", "b"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            exact.EigList((1.0, 2.0), ("a",))
