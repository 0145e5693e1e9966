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
invertible).  ``refine_control_region`` constructively shrinks omega to a
finite union of intervals compactly inside it whose complement components
lose at most epsilon of control time; ``shrink_region`` is the one halving
rule that decides whether such a region is cheap enough, shared with the
control synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, ControlDomain, Interval, PositionTag, RankError,
                    SystemSpec)

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
    vd = v0 + b * (d - x0)
    return abs(math.log(vd / vc) / b)


def travel_time(spec: SystemSpec, k: int, interval) -> float:
    """Crossing time of `interval` by the k-th characteristic:
    integral over the interval of 1 / |lambda_k|."""
    if not 0 <= k < spec.n:
        raise ValueError(f"component index {k} out of range")
    iv = _as_interval(interval)
    lo, hi = iv.lo, iv.hi
    xs, vs = spec.speeds.segments(k)
    total = 0.0
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
        c, d = max(lo, x0), min(hi, x1)
        if c < d:
            total += _segment_crossing(v0, v1, x0, x1, c, d)
    return total


def _segment_table(spec: SystemSpec, k: int, caller: str):
    """Breakpoints, start speeds, slopes, flat mask and cumulative crossing
    times from x = 0 (summed as in ``travel_time``) of a positive component."""
    if spec.speeds.value(k, 0.0) <= 0:
        raise ValueError(f"{caller} needs a positive-speed component")
    xs, vs = spec.speeds.segments(k)
    cum = [0.0]
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
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
    """Dispatch on the position of the component inside [0, 1]."""
    iv = _as_interval(interval)
    tag = iv.tag
    if tag is PositionTag.TOUCHES_LEFT:
        return boundary_time_left(spec, iv)
    if tag is PositionTag.TOUCHES_RIGHT:
        return boundary_time_right(spec, iv)
    if tag is PositionTag.INTERIOR:
        return boundary_time_interior(spec, iv)
    raise ValueError("component covering the whole domain has no boundary-control time")


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


def shrink_region(spec: SystemSpec, bound: float, margin: float,
                  region_at) -> tuple[ControlDomain, float]:
    """The first of ``region_at(margin)``, ``region_at(margin / 2)``, ... (at
    most 60 halvings) whose complement components all cost at most ``bound``
    of boundary-control time, with that worst cost by direct evaluation.

    ``region_at`` maps a margin to a control region whose gaps shrink with
    the margin, so that halving drives the worst cost down to that of
    omega's own complement.
    """
    for _ in range(60):
        region = region_at(margin)
        worst = max(boundary_control_time(spec, iv).value
                    for iv in region.complement_components())
        if worst <= bound:
            return region, worst
        margin *= 0.5
    raise RuntimeError("bisection for the shrink margin exhausted 60 halvings")


@dataclass(frozen=True)
class RefinedRegion:
    """A finite union of intervals compactly inside omega whose complement
    components cost at most ``target_bound`` of control time."""

    region: ControlDomain
    achieved_bound: float
    target_bound: float


def _middle_half(c: float, d: float) -> tuple[float, float]:
    """(c, d) shrunk by 25% of its width on each side."""
    w = d - c
    return (c + 0.25 * w, d - 0.25 * w)


def refine_control_region(spec: SystemSpec, epsilon: float) -> RefinedRegion:
    """Shrink omega to a finite union of intervals, compactly contained in
    omega, whose complement components all have boundary-control time at most
    ``minimal_control_time(spec) + epsilon``.

    The construction partitions [0, 1] into cells cheap enough that each
    costs at most tau_max + epsilon/2, finds the first and last point of
    omega in every cell meeting it, and keeps one small interval of omega
    within a margin ``delta`` of each: two pieces per cell, so a single-piece
    omega still yields two intervals.  ``shrink_region`` halves ``delta``
    until the gaps of the resulting region cost at most tau_max + epsilon.
    An epsilon that is not finite and positive, or too small for the margins
    to stay apart in double precision, raises ``ConfigError``.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError(f"epsilon must be finite and positive, got {epsilon}")
    if not spec.omega.complement_components():
        raise ConfigError("omega: its closure already covers [0, 1], nothing to refine")
    base = minimal_control_time(spec)
    if not base.finite:
        raise RankError(base.reason)

    tau = base.value
    omega = spec.omega
    ncells = max(1, math.ceil(linear_bound_constant(spec) / (tau + 0.5 * epsilon)))
    partition = np.linspace(0.0, 1.0, ncells + 1)

    # the first and the last piece of omega inside each cell it meets
    ends = []
    for lo, hi in zip(partition[:-1], partition[1:]):
        inside = [(max(a, lo), min(b, hi)) for a, b in omega.intervals
                  if max(a, lo) < min(b, hi)]
        if inside:
            ends.append((inside[0], inside[-1]))
    # each margin stays within half its cell's share of omega
    delta = min(0.5 * (leave - enter) for (enter, _), (_, leave) in ends)

    def region_at(margin: float) -> ControlDomain:
        pieces = []
        for (enter, first_end), (last_start, leave) in ends:
            pieces.append(_middle_half(enter, min(first_end, enter + margin)))
            pieces.append(_middle_half(max(last_start, leave - margin), leave))
        return ControlDomain(tuple(sorted(set(pieces))))

    region, achieved = shrink_region(spec, tau + epsilon, delta, region_at)
    if not omega.compactly_contains(region):
        raise ConfigError(f"epsilon {epsilon} is too small to resolve: the refined "
                          "region is not compactly contained in omega")
    return RefinedRegion(region, achieved, tau + epsilon)
