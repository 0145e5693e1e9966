import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import hypctrl.canon
from hypctrl.model import ControlDomain, Interval, SpeedProfile
from hypctrl.times import (CONSTANT_SLOPE_TOL, boundary_control_time,
                           boundary_time_interior, boundary_time_left,
                           boundary_time_right, characteristic_position,
                           characteristic_time,
                           linear_bound_constant, minimal_control_time,
                           refine_control_region, shrink_region, travel_time)
from conftest import make_spec, near_singular


def random_omega(rng, max_pieces=3, min_gap=0.02):
    while True:
        k = int(rng.integers(1, max_pieces + 1))
        pts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        if np.min(np.diff(pts)) < min_gap:
            continue
        return ControlDomain(tuple(zip(pts[0::2], pts[1::2])))


class TestTravelTime:
    def test_constant_speed(self):
        spec = make_spec([-2.0, 2.0], [[1.0]], [[1.0]], [(0.25, 0.75)])
        assert travel_time(spec, 1, (0.2, 0.5)) == pytest.approx(0.15, abs=1e-15)

    def test_linear_profile_log_antiderivative(self):
        # speed 1 + x on (0, 1): crossing time is log 2
        prof = SpeedProfile.piecewise_linear([0.0, 1.0], [[-1.0, -1.0], [1.0, 2.0]])
        spec = make_spec(prof, [[1.0]], [[1.0]], [(0.2, 0.8)])
        t = travel_time(spec, 1, (0.0, 1.0))
        assert t == pytest.approx(math.log(2.0), abs=1e-12)
        reference, _ = quad(lambda x: 1.0 / (1.0 + x), 0.0, 1.0, epsabs=1e-12)
        assert t == pytest.approx(reference, abs=1e-10)

    def test_multi_segment_against_quadrature(self):
        xs = [0.0, 0.3, 0.7, 1.0]
        vals = [[-2.0, -1.0, -1.5, -2.5], [0.5, 1.0, 1.0, 3.0]]
        prof = SpeedProfile.piecewise_linear(xs, vals)
        spec = make_spec(prof, [[1.0]], [[1.0]], [(0.2, 0.8)])
        for k in (0, 1):
            for lo, hi in [(0.0, 1.0), (0.1, 0.55), (0.65, 0.95)]:
                ref, _ = quad(lambda x: 1.0 / abs(np.interp(x, xs, vals[k])),
                              lo, hi, epsabs=1e-12, limit=200)
                assert travel_time(spec, k, (lo, hi)) == pytest.approx(ref, abs=1e-10)

    def test_vanishing_interval(self, spec_2x2):
        assert travel_time(spec_2x2, 0, (0.4, 0.4 + 1e-12)) <= 2e-12

    def test_bad_component(self, spec_2x2):
        with pytest.raises(ValueError):
            travel_time(spec_2x2, 5, (0.0, 1.0))

    def test_characteristic_time_inverts(self):
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[-1.0] * 3, [1.0, 2.0, 1.5]])
        spec = make_spec(prof, [[1.0]], [[1.0]], [(0.2, 0.8)])
        for x in (0.1, 0.45, 0.5, 0.81, 1.0):
            t = characteristic_time(spec, 1, x)
            assert characteristic_position(spec, 1, t) == pytest.approx(x, abs=1e-12)


def _reference_crossing(v0, v1, x0, x1, c, d):
    b = (v1 - v0) / (x1 - x0)
    if abs(b) < CONSTANT_SLOPE_TOL:
        return (d - c) / abs(v0 + b * (0.5 * (c + d) - x0))
    return abs(math.log((v0 + b * (d - x0)) / (v0 + b * (c - x0))) / b)


def reference_time(spec, k, x):
    """characteristic_time as the scalar loop over speed segments."""
    xs, vs = spec.speeds.segments(k)
    total = 0.0
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
        if x0 < min(x, x1):
            total += _reference_crossing(v0, v1, x0, x1, x0, min(x, x1))
    return total


def reference_position(spec, k, t):
    """characteristic_position as the scalar loop over speed segments."""
    if t <= 0.0:
        return 0.0
    xs, vs = spec.speeds.segments(k)
    acc = 0.0
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
        seg = _reference_crossing(v0, v1, x0, x1, x0, x1)
        if acc + seg >= t:
            rem, b = t - acc, (v1 - v0) / (x1 - x0)
            if abs(b) < CONSTANT_SLOPE_TOL:
                return x0 + v0 * rem
            return x0 + v0 * (math.exp(b * rem) - 1.0) / b
        acc += seg
    if t <= acc * (1.0 + 1e-12):
        return xs[-1]
    raise ValueError(f"time {t} exceeds the full crossing time {acc}")


ARRAY_PROFILES = {
    "constant": SpeedProfile.constant([-2.0, -1.0, 1.0, 3.0]),
    "linear": SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                            [[-1.0] * 3, [1.0, 2.0, 1.5]]),
    "flat-segment": SpeedProfile.piecewise_linear(
        [0.0, 0.3, 0.7, 1.0], [[-2.0, -1.0, -1.5, -2.5], [0.5, 1.0, 1.0, 3.0]]),
    # slope 5e-15 on (0, 0.4): integrated as constant
    "tiny-slope": SpeedProfile.piecewise_linear(
        [0.0, 0.4, 1.0], [[-1.0] * 3, [1.0, 1.0 + 2e-15, 2.0]]),
}


class TestArrayCharacteristics:
    @pytest.fixture(params=sorted(ARRAY_PROFILES))
    def spec(self, request):
        profile = ARRAY_PROFILES[request.param]
        return make_spec(profile, np.eye(profile.m), np.eye(profile.m), [(0.2, 0.8)])

    def test_tiny_slope_is_below_the_tolerance(self):
        xs, vs = ARRAY_PROFILES["tiny-slope"].segments(1)
        assert 0.0 < (vs[1] - vs[0]) / (xs[1] - xs[0]) < CONSTANT_SLOPE_TOL

    def test_time_matches_scalar_loop(self, spec):
        for k in range(spec.m, spec.n):
            xs, _ = spec.speeds.segments(k)
            x = np.concatenate([[0.0, 1e-9], xs, np.linspace(0.0, 1.0, 101),
                                np.random.default_rng(k).uniform(0.0, 1.0, 200)])
            ref = np.array([reference_time(spec, k, v) for v in x])
            np.testing.assert_allclose(characteristic_time(spec, k, x), ref,
                                       rtol=1e-14, atol=0.0)
            assert characteristic_time(spec, k, 0.0) == 0.0

    def test_position_matches_scalar_loop(self, spec):
        for k in range(spec.m, spec.n):
            xs, _ = spec.speeds.segments(k)
            full = reference_time(spec, k, 1.0)
            crossings = [reference_time(spec, k, v) for v in xs]
            t = np.concatenate([[0.0, 1e-9], crossings, np.linspace(0.0, full, 101),
                                np.random.default_rng(k).uniform(0.0, full, 200)])
            ref = np.array([reference_position(spec, k, v) for v in t])
            # x0 + v0 (exp(b r) - 1) / b loses relative digits as r -> 0:
            # one ulp of exp(b r) ~ 1 is 2.2e-16 absolute, hence the floor
            np.testing.assert_allclose(characteristic_position(spec, k, t), ref,
                                       rtol=1e-14, atol=1e-15)
            assert characteristic_position(spec, k, 0.0) == 0.0
            assert characteristic_position(spec, k, full) == pytest.approx(1.0, rel=1e-14)
            assert characteristic_position(spec, k, full * (1.0 + 5e-13)) == 1.0

    def test_errors_kept(self, spec):
        k = spec.n - 1
        full = reference_time(spec, k, 1.0)
        with pytest.raises(ValueError, match="exceeds the full crossing time"):
            characteristic_position(spec, k, full * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="exceeds the full crossing time"):
            characteristic_position(spec, k, np.array([0.1, full * 1.1]))
        with pytest.raises(ValueError, match="positive-speed"):
            characteristic_time(spec, 0, 0.5)
        with pytest.raises(ValueError, match="positive-speed"):
            characteristic_position(spec, 0, np.array([0.5]))
        with pytest.raises(ValueError):
            characteristic_time(spec, k, np.array([0.5, 1.5]))

    def test_position_keeps_its_digits_near_a_sloped_start(self):
        # the speed is 0.5 + b x on the first segment of "flat-segment", so x
        # is reached at t = log1p(b x / 0.5) / b; (exp(b t) - 1) / b gave x
        # back with up to 1.2e-13 relative error near x = 3e-4.  The times
        # come from log1p: characteristic_time's log(v(x) / v0) is itself
        # off by up to 1.1e-13 there
        spec = make_spec(ARRAY_PROFILES["flat-segment"], np.eye(1), np.eye(1),
                         [(0.2, 0.8)])
        b = (1.0 - 0.5) / 0.3
        x = np.linspace(2.9e-4, 3.1e-4, 201)
        t = np.log1p(b * x / 0.5) / b
        np.testing.assert_allclose(characteristic_position(spec, 1, t), x,
                                   rtol=1e-14, atol=0.0)

    def test_scalar_in_float_out(self, spec):
        k = spec.n - 1
        assert type(characteristic_time(spec, k, 0.3)) is float
        assert type(characteristic_position(spec, k, 0.3)) is float
        assert characteristic_time(spec, k, np.full((2, 3), 0.3)).shape == (2, 3)
        assert characteristic_position(spec, k, np.zeros(4)).shape == (4,)


class TestBoundaryTimes:
    def test_left_2x2(self, spec_2x2):
        res = boundary_time_left(spec_2x2, Interval(0.0, 0.25))
        assert res.value == pytest.approx(0.5, abs=1e-15)
        # the paired term 0.25 + 0.25 dominates the lone term 0.25
        assert sorted(t.value for t in res.terms) == pytest.approx([0.25, 0.5])

    def test_left_rank_deficient_is_infinite(self, spec_2x2):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.25, 0.75)])
        res = boundary_time_left(spec, Interval(0.0, 0.25))
        assert not res.finite
        assert "rank" in res.reason

    def test_left_4x4(self, spec_4x4):
        res = boundary_time_left(spec_4x4, Interval(0.0, 0.3))
        assert res.value == pytest.approx(0.45, abs=1e-15)
        values = sorted(t.value for t in res.terms)
        assert values == pytest.approx([0.3, 0.4, 0.45])

    def test_right_2x2(self, spec_2x2):
        res = boundary_time_right(spec_2x2, Interval(0.75, 1.0))
        assert res.value == pytest.approx(0.5, abs=1e-15)

    def test_right_4x4(self, spec_4x4):
        res = boundary_time_right(spec_4x4, Interval(0.8, 1.0))
        assert res.value == pytest.approx(0.3, abs=1e-15)
        values = sorted(t.value for t in res.terms)
        assert values == pytest.approx([0.2, 0.8 / 3.0, 0.3])

    def test_right_rank_deficient_is_infinite(self):
        spec = make_spec([-2.0, -1.0, 1.0, 3.0],
                         np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [(0.3, 0.8)])
        res = boundary_time_right(spec, Interval(0.8, 1.0))
        assert not res.finite

    def test_interior(self, spec_2x2, spec_4x4):
        assert boundary_time_interior(spec_2x2, Interval(0.2, 0.4)).value \
            == pytest.approx(0.2, abs=1e-15)
        assert boundary_time_interior(spec_4x4, Interval(0.2, 0.4)).value \
            == pytest.approx(0.2, abs=1e-15)

    def test_interior_degenerate(self, spec_2x2):
        assert boundary_time_interior(spec_2x2, Interval(0.3, 0.3 + 1e-12)).value \
            <= 1e-11

    def test_dispatch(self, spec_2x2):
        assert boundary_control_time(spec_2x2, Interval(0.0, 0.25)).case == "tau_minus"
        assert boundary_control_time(spec_2x2, Interval(0.2, 0.4)).case == "tau_two_sided"
        assert boundary_control_time(spec_2x2, Interval(0.75, 1.0)).case == "tau_plus"
        with pytest.raises(ValueError):
            boundary_control_time(spec_2x2, Interval(0.0, 1.0))

    def test_wrong_anchor_rejected(self, spec_2x2):
        with pytest.raises(ValueError):
            boundary_time_left(spec_2x2, Interval(0.1, 0.3))
        with pytest.raises(ValueError):
            boundary_time_right(spec_2x2, Interval(0.1, 0.3))

    def test_value_equals_max_of_terms(self, spec_4x4):
        for iv in (Interval(0.0, 0.3), Interval(0.8, 1.0), Interval(0.2, 0.5)):
            res = boundary_control_time(spec_4x4, iv)
            assert res.value == max(t.value for t in res.terms)
            assert all(any(t.lead == a for t in res.terms) for a in res.argmax)


class TestMinimalControlTime:
    def test_example_2x2(self, spec_2x2):
        res = minimal_control_time(spec_2x2)
        assert res.value == pytest.approx(0.5, abs=1e-15)
        assert not res.covers_all

    def test_covering_union_gives_zero(self):
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 0.5), (0.5, 1.0)])
        res = minimal_control_time(spec)
        assert res.value == 0.0
        assert res.covers_all

    def test_example_4x4_matches_independent_sides(self, spec_4x4):
        res = minimal_control_time(spec_4x4)
        assert res.value == pytest.approx(0.45, abs=1e-15)
        left = boundary_time_left(spec_4x4, Interval(0.0, 0.3)).value
        right = boundary_time_right(spec_4x4, Interval(0.8, 1.0)).value
        assert res.value == max(left, right)

    def test_singular_couplings_flagged_infinite(self):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.25, 0.75)])
        res = minimal_control_time(spec)
        assert not res.finite
        assert "invertible" in res.reason

    @pytest.mark.parametrize("k", [2, 3])
    def test_near_singular_couplings_never_raise(self, k):
        # the invertibility test and the right-end formula read one rank of
        # Q1; a finite minimal time has a finite value on every component
        rng = np.random.default_rng(30 + k)
        speeds = np.concatenate([-np.arange(k, 0, -1.0), np.arange(1.0, k + 1)])
        for _ in range(100):
            q = near_singular(rng, k)
            for q0, q1 in ((q, np.eye(k)), (np.eye(k), q)):
                res = minimal_control_time(make_spec(speeds, q0, q1, [(0.2, 0.5)]))
                if res.finite:
                    assert all(r.finite and math.isfinite(r.value)
                               for _, r in res.per_component)

    def test_couplings_factored_once_per_spec(self, monkeypatch, spec_4x4):
        # every binding of canonical_form in hypctrl counts; the halvings of
        # shrink_region read the spec's two forms instead of factoring again
        original, calls = hypctrl.canon.canonical_form, []

        def counted(q):
            calls.append(q)
            return original(q)

        for name, module in list(sys.modules.items()):
            if name.startswith("hypctrl") and getattr(module, "canonical_form", None) is original:
                monkeypatch.setattr(module, "canonical_form", counted)
        minimal_control_time(spec_4x4)
        refine_control_region(spec_4x4, 0.05)
        assert len(calls) <= 2

    def test_rectangular_couplings_flagged_infinite(self):
        spec = make_spec([-2.0, -1.0, 1.0], np.ones((1, 2)), np.ones((2, 1)),
                         [(0.25, 0.75)])
        assert not minimal_control_time(spec).finite


class TestFormulaProperties:
    def test_nested_monotonicity_same_case(self):
        rng = np.random.default_rng(5)
        spec = make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2),
                         [(0.4, 0.6)])
        for _ in range(300):
            a, b = np.sort(rng.uniform(0.05, 0.95, 2))
            if b - a < 1e-3:
                continue
            inner, outer = Interval(a, b), Interval(max(a - 0.04, 0.01),
                                                    min(b + 0.04, 0.99))
            assert boundary_time_interior(spec, inner).value \
                <= boundary_time_interior(spec, outer).value
            assert boundary_time_left(spec, Interval(0.0, a)).value \
                <= boundary_time_left(spec, Interval(0.0, b)).value
            assert boundary_time_right(spec, Interval(b, 1.0)).value \
                <= boundary_time_right(spec, Interval(a, 1.0)).value

    def test_linear_bound(self):
        rng = np.random.default_rng(6)
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[-2.0, -1.5, -2.0],
                                              [-1.0, -0.5, -0.8],
                                              [0.5, 1.0, 0.75],
                                              [2.0, 2.0, 2.0]])
        spec = make_spec(prof, np.eye(2), np.eye(2), [(0.4, 0.6)])
        c = linear_bound_constant(spec)
        for _ in range(300):
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            if b - a < 1e-6:
                continue
            assert boundary_time_interior(spec, Interval(a, b)).value <= c * (b - a)
            if a > 0:
                assert boundary_time_right(spec, Interval(a, 1.0)).value <= c * (1 - a)
            if b < 1:
                assert boundary_time_left(spec, Interval(0.0, b)).value <= c * b

    def test_continuity_under_shrinking_enlargement(self, spec_4x4):
        c = linear_bound_constant(spec_4x4)
        base = Interval(0.3, 0.6)
        value = boundary_time_interior(spec_4x4, base).value
        for eps in (0.1, 0.01, 0.001, 1e-6):
            bigger = Interval(base.lo - eps, base.hi + eps)
            diff = boundary_time_interior(spec_4x4, bigger).value - value
            assert 0.0 <= diff <= c * 2 * eps + 1e-15

    def test_control_region_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            omega1 = random_omega(rng)
            # enlarge each piece a little and add one more piece when it fits
            pieces = [(max(0.0, a - 0.01), min(1.0, b + 0.01))
                      for a, b in omega1.intervals]
            merged = []
            for a, b in sorted(pieces):
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            omega2 = ControlDomain(tuple(merged))
            spec1 = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], omega1.intervals)
            spec2 = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], omega2.intervals)
            t1 = minimal_control_time(spec1).value
            t2 = minimal_control_time(spec2).value
            assert t2 <= t1

    def test_right_formula_equals_mirrored_left_formula(self):
        # reflecting x -> 1-x and relabeling the components backwards turns a
        # right-end control problem into a left-end one; the two closed-form
        # values must coincide
        from hypctrl.canon import reversed_coupling
        rng = np.random.default_rng(42)
        trials = 0
        while trials < 200:
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            neg = np.sort(-rng.uniform(0.3, 3.0, m))
            pos = np.sort(rng.uniform(0.3, 3.0, p))
            q1 = rng.uniform(-1, 1, (m, p))
            if np.linalg.matrix_rank(q1) < m:
                continue
            q0 = rng.uniform(-1, 1, (p, m))
            speeds = np.concatenate([neg, pos])
            spec = make_spec(speeds, q0, q1, [(0.4, 0.6)])
            mirror = make_spec(-speeds[::-1], reversed_coupling(q1),
                               reversed_coupling(q0), [(0.4, 0.6)])
            b = float(rng.uniform(0.05, 0.9))
            right = boundary_time_right(spec, Interval(b, 1.0)).value
            left = boundary_time_left(mirror, Interval(0.0, 1.0 - b)).value
            assert right == left
            trials += 1

    def test_closed_form_when_region_touches_both_ends(self):
        # with constant speeds and a region touching both boundary points,
        # every complement component is interior, so the minimal time is the
        # largest component length times max(T_m, T_{m+1})
        rng = np.random.default_rng(12)
        for _ in range(100):
            cuts = np.sort(rng.uniform(0.05, 0.95, 4))
            if np.min(np.diff(cuts)) < 0.01:
                continue
            omega = ((0.0, cuts[0]), (cuts[1], cuts[2]), (cuts[3], 1.0))
            spec = make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), omega)
            lengths = [cuts[1] - cuts[0], cuts[3] - cuts[2]]
            t_m = travel_time(spec, 1, (0.0, 1.0))
            t_m1 = travel_time(spec, 2, (0.0, 1.0))
            expected = max(lengths) * max(t_m, t_m1)
            assert minimal_control_time(spec).value \
                == pytest.approx(expected, rel=1e-14)

    def test_closed_form_for_symmetric_2x2(self):
        # with speeds (-c, c) and unit couplings the minimal time reduces to
        # max(a, 1-b) * (T_1 + T_2); dyadic c keeps the arithmetic exact
        rng = np.random.default_rng(9)
        for c in (1.0, 2.0, 0.5):
            spec_full = make_spec([-c, c], [[1.0]], [[1.0]], [(0.0, 1.0)])
            t1 = travel_time(spec_full, 0, (0.0, 1.0))
            t2 = travel_time(spec_full, 1, (0.0, 1.0))
            for _ in range(100):
                a, b = np.sort(rng.uniform(0.01, 0.99, 2))
                if b - a < 1e-3:
                    continue
                spec = make_spec([-c, c], [[1.0]], [[1.0]], [(a, b)])
                assert minimal_control_time(spec).value == max(a, 1 - b) * (t1 + t2)


class TestRefineControlRegion:
    def test_single_interval(self, spec_2x2):
        refined = refine_control_region(spec_2x2, 0.1)
        assert spec_2x2.omega.compactly_contains(refined.region)
        assert refined.achieved_bound <= 0.6
        assert len(refined.region.intervals) >= 2

    def test_full_domain_rejected(self, spec_full_domain):
        with pytest.raises(ValueError):
            refine_control_region(spec_full_domain, 0.1)

    def test_singular_couplings_rejected(self):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.25, 0.75)])
        with pytest.raises(ValueError):
            refine_control_region(spec, 0.1)

    def test_two_component_region(self):
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]],
                         [(0.1, 0.3), (0.6, 0.9)])
        tau = minimal_control_time(spec).value
        refined = refine_control_region(spec, 0.05)
        assert spec.omega.compactly_contains(refined.region)
        assert len(refined.region.intervals) >= 2
        worst = max(boundary_control_time(spec, iv).value
                    for iv in refined.region.complement_components())
        assert worst <= tau + 0.05
        assert refined.achieved_bound == worst

    def test_shrink_region_below_tau_raises(self, spec_2x2):
        # every margin leaves omega's own complement, which costs tau = 0.5
        pieces = spec_2x2.omega.merged_closure()
        with pytest.raises(RuntimeError, match="60 halvings"):
            shrink_region(spec_2x2, 0.49, 0.1, lambda g: ControlDomain(
                tuple((a + g, b - g) for a, b in pieces)))

    def test_random_regions_meet_posted_bound(self):
        rng = np.random.default_rng(10)
        spec_proto = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.4, 0.6)])
        checked = 0
        while checked < 60:
            omega = random_omega(rng)
            if not omega.complement_components():
                continue
            spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], omega.intervals,
                             source=spec_proto.source)
            tau = minimal_control_time(spec).value
            if tau == 0.0:
                continue
            for frac in (0.2, 0.1, 0.05):
                refined = refine_control_region(spec, frac * tau)
                assert omega.compactly_contains(refined.region)
                assert refined.achieved_bound <= tau + frac * tau
            checked += 1
