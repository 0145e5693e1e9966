"""Closed-form minimal control times for hyperbolic balance laws.

``travel_time`` integrates 1/|lambda_k| analytically over an interval (the
crossing time of the k-th characteristic).  The three boundary-control time
formulas combine travel times with the canonical pivots of the coupling
matrices, read from the forms ``model.CouplingSpec`` holds (see ``canon``):

* interval (0, a), control on the right end:  finite iff rank Q0 = p, value
  max_j { T_{m+j} + T_{c_j}, T_m } with c_j the pivot columns of Q0;
* interval (b, 1), control on the left end:  the mirror formula through the
  backwards-relabeled Q1;
* interior interval (c, d), controls on both ends:  max { T_m, T_{m+1} }.

``minimal_control_time`` maximizes the per-component values over the
connected components of the complement of the control region (0 when the
closure of omega covers [0, 1], infinite when the couplings are not
invertible).  ``shrink_region`` is the one construction of a region inside
omega: it shrinks every open interval of omega by a margin, halved until
the complement components cost at most a given bound.
``refine_control_region`` calls it with the bound tau + epsilon, the
control synthesis with tau plus most of its horizon margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ControlDomain, Interval, RankError, SystemSpec

# Below this slope magnitude a linear speed segment integrates as constant.
CONSTANT_SLOPE_TOL = 1e-14

CASE_LEFT = "tau_minus"
CASE_RIGHT = "tau_plus"
CASE_TWO_SIDED = "tau_two_sided"


def _as_interval(interval) -> Interval:
    if isinstance(interval, Interval):
        return interval
    lo, hi = interval
    return Interval(float(lo), float(hi))


def _segment_crossing(v0: float, v1: float, x0: float, x1: float,
                      c: float, d: float) -> float:
    """Integral of 1/|a + b x| over [c, d] for the linear speed through
    (x0, v0), (x1, v1); the speed has one sign on the segment."""
    b = (v1 - v0) / (x1 - x0)
    if abs(b) < CONSTANT_SLOPE_TOL:
        mid = v0 + b * (0.5 * (c + d) - x0)
        return (d - c) / abs(mid)
    vc = v0 + b * (c - x0)
    return abs(math.log1p(b * (d - c) / vc) / b)


def travel_time(spec: SystemSpec, k: int, interval) -> float:
    """Crossing time of `interval` by the k-th characteristic:
    integral over the interval of 1 / |lambda_k|.  A time that overflows
    (not a finite float) raises ``OverflowError``: no infinite time or NaN
    is returned.  A speed that rounds to zero inside a segment raises
    ``ZeroDivisionError`` naming the component, the interval and the
    segment."""
    if not 0 <= k < spec.n:
        raise ValueError(f"component index {k} out of range")
    iv = _as_interval(interval)
    lo, hi = iv.lo, iv.hi
    # Python floats: the double operations of numpy scalars, without their
    # per-operation cost
    xs, vs = spec.speeds.segments(k)
    xs, vs = xs.tolist(), vs.tolist()
    total = 0.0
    try:
        for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
            c = x0 if x0 > lo else lo
            d = x1 if x1 < hi else hi
            if c < d:
                total += _segment_crossing(v0, v1, x0, x1, c, d)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"the crossing time of component {k} over ({lo}, {hi}) "
                                f"divides by a speed that rounds to zero on its segment "
                                f"({x0}, {x1})") from None
    if not math.isfinite(total):
        raise OverflowError(f"the crossing time of component {k} over ({lo}, {hi}) "
                            "is not a finite float")
    return total


def _segment_table(spec: SystemSpec, k: int, caller: str):
    """Breakpoints, start speeds, slopes, flat mask and cumulative crossing
    times from x = 0 (summed as in ``travel_time``) of a positive component."""
    if spec.speeds.value(k, 0.0) <= 0:
        raise ValueError(f"{caller} needs a positive-speed component")
    xs, vs = spec.speeds.segments(k)
    xl, vl = xs.tolist(), vs.tolist()
    cum = [0.0]
    for x0, x1, v0, v1 in zip(xl, xl[1:], vl, vl[1:]):
        cum.append(cum[-1] + _segment_crossing(v0, v1, x0, x1, x0, x1))
    slopes = np.diff(vs) / np.diff(xs)
    return xs, vs[:-1], slopes, np.abs(slopes) < CONSTANT_SLOPE_TOL, np.array(cum)


def characteristic_time(spec: SystemSpec, k: int, x):
    """Time for the k-th (positive) characteristic from 0 to x, a scalar or an
    array (0 for x <= 0), by the closed forms of ``_segment_crossing``."""
    xs, v0, b, flat, cum = _segment_table(spec, k, "characteristic_time")
    x = np.asarray(x, dtype=float)
    if np.any(x > 1.0):
        raise ValueError(f"invalid interval (0.0, {np.max(x)})")
    i = np.clip(np.searchsorted(xs, x) - 1, 0, b.size - 1)
    x0, v0, b, d = xs[i], v0[i], b[i], np.maximum(x, 0.0)  # x <= 0: d = x0 = 0
    lin = np.where(flat[i], 1.0, b)  # a stand-in slope where log1p is unused
    out = cum[i] + np.where(flat[i], (d - x0) / np.abs(v0 + b * (0.5 * (x0 + d) - x0)),
                            np.abs(np.log1p(lin * (d - x0) / v0) / lin))
    return out if out.ndim else float(out)


def characteristic_position(spec: SystemSpec, k: int, t):
    """Inverse of ``characteristic_time``: position reached after time t, a
    scalar or an array (0 for t <= 0)."""
    xs, v0, b, flat, cum = _segment_table(spec, k, "characteristic_position")
    t = np.asarray(t, dtype=float)
    if np.any(t > cum[-1] * (1.0 + 1e-12)):
        raise ValueError(f"time {np.max(t)} exceeds the full crossing time {cum[-1]}")
    i = np.minimum(np.searchsorted(cum[1:], t), b.size - 1)  # first segment ending >= t
    rem, b = np.maximum(t - cum[i], 0.0), np.where(flat[i], 1.0, b[i])
    out = np.where(t > cum[-1], xs[-1], xs[i] + v0[i] * np.where(flat[i], rem,
                                                                  np.expm1(b * rem) / b))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TimeTerm:
    """One candidate value inside a boundary-time maximum.

    ``lead`` is the 0-based component whose travel time leads the term;
    paired terms add the travel time of ``partner``.
    """

    lead: int
    partner: int | None
    value: float


@dataclass(frozen=True)
class BoundaryTimeResult:
    """Minimal control time of one complement component.

    ``value`` is None when the rank condition fails (no finite time);
    ``argmax`` lists the lead indices of every term attaining the maximum.
    """

    case: str
    value: float | None
    terms: tuple[TimeTerm, ...] = ()
    argmax: tuple[int, ...] = ()
    reason: str = ""

    @property
    def finite(self) -> bool:
        return self.value is not None


def _finish(case: str, terms: list[TimeTerm]) -> BoundaryTimeResult:
    value = max(t.value for t in terms)
    argmax = tuple(t.lead for t in terms if t.value == value)
    return BoundaryTimeResult(case, value, tuple(terms), argmax)


def boundary_time_left(spec: SystemSpec, interval) -> BoundaryTimeResult:
    """Control time for a component (0, a): one control on its right end,
    the physical coupling Q0 retained at x = 0."""
    iv = _as_interval(interval)
    if iv.lo != 0.0:
        raise ValueError("interval must touch the left boundary")
    m, p, dec = spec.m, spec.p, spec.couplings.q0_form
    if dec.rank < p:
        return BoundaryTimeResult(CASE_LEFT, None,
                                  reason=f"rank Q0 = {dec.rank} < p = {p}")
    terms = [TimeTerm(m + j, c, travel_time(spec, m + j, iv) + travel_time(spec, c, iv))
             for j, (_, c) in enumerate(dec.pivots)]
    terms.append(TimeTerm(m - 1, None, travel_time(spec, m - 1, iv)))
    return _finish(CASE_LEFT, terms)


def boundary_time_right(spec: SystemSpec, interval) -> BoundaryTimeResult:
    """Control time for a component (b, 1): one control on its left end,
    the physical coupling Q1 retained at x = 1."""
    iv = _as_interval(interval)
    if iv.hi != 1.0:
        raise ValueError("interval must touch the right boundary")
    n, m, dec = spec.n, spec.m, spec.couplings.q1_form
    if dec.rank < m:
        return BoundaryTimeResult(CASE_RIGHT, None,
                                  reason=f"rank Q1 = {dec.rank} < m = {m}")
    terms = [TimeTerm(m - 1 - i, n - 1 - c,
                      travel_time(spec, m - 1 - i, iv) + travel_time(spec, n - 1 - c, iv))
             for i, (_, c) in enumerate(dec.pivots)]
    terms.append(TimeTerm(m, None, travel_time(spec, m, iv)))
    return _finish(CASE_RIGHT, terms)


def boundary_time_interior(spec: SystemSpec, interval) -> BoundaryTimeResult:
    """Control time for an interior component (c, d) with controls on both
    ends: the slowest crossing among the two speed families."""
    iv = _as_interval(interval)
    m = spec.m
    terms = [TimeTerm(m - 1, None, travel_time(spec, m - 1, iv)),
             TimeTerm(m, None, travel_time(spec, m, iv))]
    return _finish(CASE_TWO_SIDED, terms)


def boundary_control_time(spec: SystemSpec, interval) -> BoundaryTimeResult:
    """Dispatch on the ends of [0, 1] the component reaches."""
    iv = _as_interval(interval)
    if iv.lo == 0.0 and iv.hi == 1.0:
        raise ValueError("component covering the whole domain has no boundary-control time")
    if iv.lo == 0.0:
        return boundary_time_left(spec, iv)
    if iv.hi == 1.0:
        return boundary_time_right(spec, iv)
    return boundary_time_interior(spec, iv)


@dataclass(frozen=True)
class MinimalTimeResult:
    """Minimal control time of the full problem.

    ``value`` is 0 exactly when the closure of omega covers [0, 1]; it is
    None (infinite) when the coupling matrices are not invertible.
    """

    value: float | None
    per_component: tuple[tuple[Interval, BoundaryTimeResult], ...] = ()
    covers_all: bool = False
    reason: str = ""

    @property
    def finite(self) -> bool:
        return self.value is not None


def minimal_control_time(spec: SystemSpec) -> MinimalTimeResult:
    """Exact minimal time for internal exact controllability."""
    if not spec.couplings.invertible:
        return MinimalTimeResult(None, reason="coupling matrices must be invertible")
    comps = spec.omega.complement_components()
    if not comps:
        return MinimalTimeResult(0.0, covers_all=True)
    per = tuple((iv, boundary_control_time(spec, iv)) for iv in comps)
    return MinimalTimeResult(max(r.value for _, r in per), per)


def linear_bound_constant(spec: SystemSpec) -> float:
    """C with boundary_control_time(I) <= C |I| for every component I."""
    return 2.0 / spec.speeds.min_abs_speed()


def shrink_region(spec: SystemSpec, bound: float) -> tuple[ControlDomain, float]:
    """Omega's open intervals (a, b) shrunk to (a + gamma, b - gamma) for the
    first gamma among a quarter of the narrowest interval and its halvings
    (at most 60) whose complement components all cost at most ``bound`` of
    boundary-control time, with that worst cost by direct evaluation.

    The complement components grow by gamma per touching side, so their
    times exceed those of omega's own components by at most a multiple of
    gamma.  Wide margins matter numerically: in the synthesis they become
    the cut-off transition zones, and sub-cell zones make the glued control
    unresolvable on the grid.
    """
    pieces = spec.omega.intervals
    gamma = min(0.25 * (b - a) for a, b in pieces)
    for _ in range(60):
        region = ControlDomain(tuple((a + gamma, b - gamma) for a, b in pieces))
        worst = max(boundary_control_time(spec, iv).value
                    for iv in region.complement_components())
        if worst <= bound:
            return region, worst
        gamma *= 0.5
    raise RuntimeError("bisection for the shrink margin exhausted 60 halvings")


@dataclass(frozen=True)
class RefinedRegion:
    """A finite union of intervals compactly inside omega whose complement
    components cost at most ``target_bound`` of control time."""

    region: ControlDomain
    achieved_bound: float
    target_bound: float


def refine_control_region(spec: SystemSpec, epsilon: float) -> RefinedRegion:
    """Shrink omega to a finite union of intervals, compactly contained in
    omega, whose complement components all have boundary-control time at most
    ``minimal_control_time(spec) + epsilon``: one ``shrink_region`` call with
    that bound, so each open interval of omega keeps one piece.  An epsilon
    that is not finite and positive, or too small for the shrunk pieces to
    stay apart from omega's ends in double precision, raises ``ConfigError``.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError(f"epsilon must be finite and positive, got {epsilon}")
    if not spec.omega.complement_components():
        raise ConfigError("omega: its closure already covers [0, 1], nothing to refine")
    base = minimal_control_time(spec)
    if not base.finite:
        raise RankError(base.reason)

    target = base.value + epsilon
    region, achieved = shrink_region(spec, target)
    if not spec.omega.compactly_contains(region):
        raise ConfigError(f"epsilon {epsilon} is too small to resolve: the refined "
                          "region is not compactly contained in omega")
    return RefinedRegion(region, achieved, target)
