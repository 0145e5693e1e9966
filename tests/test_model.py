import numpy as np
import pytest

from hypctrl.model import ConfigError, ControlDomain, Interval, SourceTerm, SpeedProfile
from conftest import make_spec


BREAKPOINT_SPEEDS = SpeedProfile.piecewise_linear(
    [0.0, 0.5, 1.0], [[-1.0, -1.0, -1.0], [1.0, 2.0, 3.0], [2.0, 2.0, 4.0]])
# speeds 0/1 equal at x = 0 only, 2/3 at x = 0.5 only
TWO_PAIRS_SPEEDS = SpeedProfile.piecewise_linear(
    [0.0, 0.5, 1.0], [[-2.0, -1.5, -1.0], [-2.0, -1.0, -0.5], [1.0, 2.0, 3.0],
                      [1.5, 2.0, 3.5]])
# in order at both ends, out of order at x = 0.5 only
INTERIOR_DISORDER_SPEEDS = SpeedProfile.piecewise_linear(
    [0.0, 0.5, 1.0], [[-1.0, -1.0, -1.0], [1.0, 2.5, 3.0], [2.0, 2.0, 4.0]])


@pytest.mark.parametrize("name,speeds,q0,q1,source", [
    ("speed-sign", [-1.0, 0.0], [[1.0]], [[1.0]], None),
    ("dimension", [-2.0, -1.0], [[1.0, 1.0]], [[1.0]], None),
    ("speed-ordering", [1.0, -1.0], [[1.0]], [[1.0]], None),
    ("speed-ordering", [-1.0, 1.0, -2.0], [[1.0, 0.0]], [[1.0], [0.0]], None),
    ("speed-coincidence", BREAKPOINT_SPEEDS, np.ones((2, 1)), np.ones((1, 2)), None),
    ("speed-coincidence", TWO_PAIRS_SPEEDS, np.eye(2), np.eye(2), None),
    ("speed-ordering", INTERIOR_DISORDER_SPEEDS, np.ones((2, 1)), np.ones((1, 2)), None),
    ("coupling-shapes", [-1.0, 1.0], np.ones((2, 2)), [[1.0]], None),
    ("coupling-shapes", [-1.0, 1.0], [[1.0, 1.0]], [[1.0]], None),
    ("coupling-shapes", [-1.0, 1.0], [[np.nan]], [[1.0]], None),
    ("source", [-1.0, 1.0], [[1.0]], [[1.0]], SourceTerm.zero(3)),
    ("speed-sign", [-np.inf, 1.0], [[1.0]], [[1.0]], None),
    ("speed-sign", SpeedProfile.piecewise_linear([0.0, 1.0], [[-1.0, -1.0], [1.0, np.inf]]),
     [[1.0]], [[1.0]], None),
], ids=["zero-speed", "no-positive-speed", "positive-first", "ungrouped",
        "equal-at-one-breakpoint", "first-equal-pair-named", "disorder-at-interior-breakpoint",
        "q0-2x2", "q0-1x2", "q0-nan", "source-3x3",
        "minus-infinite-speed", "infinite-breakpoint-speed"])
def test_broken_hypothesis_rejected_at_construction(name, speeds, q0, q1, source):
    with pytest.raises(ConfigError, match=rf"config \({name}\)"):
        make_spec(speeds, q0, q1, [(0.2, 0.7)], source)


class TestComplementComponents:
    def test_single_interval(self):
        comps = ControlDomain.of((0.25, 0.75)).complement_components()
        assert [(c.lo, c.hi) for c in comps] == [(0.0, 0.25), (0.75, 1.0)]

    def test_touching_closures_merge(self):
        comps = ControlDomain.of((0.0, 0.5), (0.5, 1.0)).complement_components()
        assert comps == []

    def test_two_interior_intervals(self):
        comps = ControlDomain.of((0.1, 0.2), (0.4, 0.5)).complement_components()
        assert [(c.lo, c.hi) for c in comps] == [(0.0, 0.1), (0.2, 0.4), (0.5, 1.0)]

    def test_components_partition_the_complement(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = np.sort(rng.uniform(0.0, 1.0, size=2 * rng.integers(1, 4)))
            try:
                omega = ControlDomain(tuple(zip(pts[0::2], pts[1::2])))
            except ValueError:
                continue
            comps = omega.complement_components()
            # sorted, pairwise disjoint
            for a, b in zip(comps, comps[1:]):
                assert a.hi <= b.lo
            # lengths add up to 1 - |closure|
            total = sum(c.length for c in comps)
            assert total == pytest.approx(1.0 - omega.length, abs=1e-12)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            ControlDomain.of((0.5, 0.4))
        with pytest.raises(ValueError):
            ControlDomain.of((0.1, 0.3), (0.2, 0.4))
        with pytest.raises(ValueError):
            ControlDomain(())


@pytest.mark.parametrize("build", [
    lambda x: SpeedProfile.piecewise_linear(x, [[-1.0] * 3, [1.0] * 3]),
    lambda x: SourceTerm.piecewise_constant(x, np.zeros((2, 2, 2))),
], ids=["speed", "source"])
def test_nan_breakpoint_rejected(build):
    # a step b - a that is NaN is not > 0
    with pytest.raises(ValueError, match="breakpoints must increase strictly from 0 to 1"):
        build([0.0, np.nan, 1.0])


class TestSpeedEval:
    def test_constant(self):
        prof = SpeedProfile.constant([-2.0, 1.0])
        assert prof.value(0, 0.3) == -2.0

    def test_interpolation(self):
        prof = SpeedProfile.piecewise_linear([0.0, 1.0], [[1.0, 2.0], [-1.0, -2.0]])
        assert prof.value(0, 0.5) == pytest.approx(1.5)
        assert prof.value(0, 1.0) == 2.0

    def test_out_of_range_rejected(self):
        prof = SpeedProfile.constant([-1.0, 1.0])
        with pytest.raises(ValueError):
            prof.value(0, 1.5)
        with pytest.raises(ValueError):
            prof.value(5, 0.5)

    def test_slope(self):
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[1.0, 2.0, 2.0], [-1.0, -1.0, -1.0]])
        assert prof.slope(0, 0.25) == pytest.approx(2.0)
        assert prof.slope(0, 0.75) == pytest.approx(0.0)
        assert prof.slope(1, 0.3) == 0.0


class TestInterval:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Interval(0.5, 0.5)
        with pytest.raises(ValueError):
            Interval(-0.1, 0.5)
