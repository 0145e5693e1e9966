"""Problem data for 1D linear hyperbolic balance laws with internal control.

The state y(t, x) takes values in R^n on the strip (0, T) x (0, 1) and obeys

    dy/dt + Lambda(x) dy/dx = M(x) y + 1_omega(x) u(t, x),

where Lambda = diag(lambda_1, ..., lambda_n) with

    lambda_1 <= ... <= lambda_m < 0 < lambda_{m+1} <= ... <= lambda_n,

together with the boundary couplings

    y_-(t, 1) = Q1 y_+(t, 1),    y_+(t, 0) = Q0 y_-(t, 0),

where y_- collects the m components with negative speed and y_+ the p = n - m
components with positive speed.  The control u acts only on the open set
omega, a finite union of open intervals.

This module holds the immutable data types, the standing-hypothesis check,
the interval algebra on the control region (complement components drive
everything downstream), and the errors a caller can act on.  All types are
plain-value objects; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .canon import CanonicalDecomposition, canonical_form, reversed_coupling

# Speeds equal at one breakpoint must be equal at all of them; this is the
# tolerance of that structural comparison (profiles are exact user data).
EQUAL_SPEED_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed or invalid configuration, flag value or input file, or a
    request the configured data cannot pose (exit code 2)."""


class RankError(ValueError):
    """A boundary coupling fails the rank condition the request needs, so
    its answer is infinite or does not exist (exit code 3)."""


class BelowThresholdError(ValueError):
    """Requested horizon is below the time the request needs (exit code 4)."""


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class PositionTag(Enum):
    """Where an interval sits inside [0, 1]."""

    TOUCHES_LEFT = "touches_left"
    TOUCHES_RIGHT = "touches_right"
    INTERIOR = "interior"
    FULL = "full"


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) inside [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"invalid interval ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def tag(self) -> PositionTag:
        at0 = self.lo == 0.0
        at1 = self.hi == 1.0
        if at0 and at1:
            return PositionTag.FULL
        if at0:
            return PositionTag.TOUCHES_LEFT
        if at1:
            return PositionTag.TOUCHES_RIGHT
        return PositionTag.INTERIOR


@dataclass(frozen=True)
class SpeedProfile:
    """Diagonal speed matrix Lambda(x), piecewise linear in x.

    All components share one breakpoint grid x_0 = 0 < ... < x_B = 1 and
    ``table[k, i]`` is lambda_k(x_i); between breakpoints the speed is
    interpolated linearly.  A constant profile is the one-segment table
    with breakpoints (0, 1); ``kind`` names the constructor.
    """

    kind: str
    table: np.ndarray
    breakpoints: np.ndarray

    @staticmethod
    def constant(values) -> "SpeedProfile":
        v = _readonly(values)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("constant profile needs a 1-d list of at least 2 speeds")
        return SpeedProfile("constant", _readonly(np.stack([v, v], axis=1)),
                            _readonly([0.0, 1.0]))

    @staticmethod
    def piecewise_linear(breakpoints, values) -> "SpeedProfile":
        x = _readonly(breakpoints)
        v = _readonly(values)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("breakpoints must be a 1-d list with at least 2 entries")
        if x[0] != 0.0 or x[-1] != 1.0 or np.any(np.diff(x) <= 0):
            raise ValueError("breakpoints must increase strictly from 0 to 1")
        if v.ndim != 2 or v.shape[1] != x.size or v.shape[0] < 2:
            raise ValueError("values must have shape (n, len(breakpoints))")
        return SpeedProfile("piecewise_linear", v, x)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def m(self) -> int:
        """Number of negative-speed components."""
        return int(np.sum(self.table[:, 0] < 0.0))

    @property
    def p(self) -> int:
        return self.n - self.m

    def value(self, k: int, x) -> np.ndarray | float:
        """lambda_k at positions x (scalar or array) in [0, 1]."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0.0) or np.any(xs > 1.0):
            raise ValueError("position outside [0, 1]")
        if not 0 <= k < self.n:
            raise ValueError(f"component index {k} out of range")
        out = np.interp(xs, self.breakpoints, self.table[k])
        return out if out.ndim else float(out)

    def slope(self, k: int, x) -> np.ndarray | float:
        """d lambda_k / dx at positions x (one-sided at breakpoints)."""
        xs = np.asarray(x, dtype=float)
        seg = np.clip(np.searchsorted(self.breakpoints, xs, side="right") - 1,
                      0, self.breakpoints.size - 2)
        out = (np.diff(self.table[k]) / np.diff(self.breakpoints))[seg]
        return out if out.ndim else float(out)

    def segments(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoint grid and lambda_k values on it."""
        return self.breakpoints, self.table[k]

    def min_abs_speed(self) -> float:
        """min over k, x of |lambda_k(x)| (attained at a breakpoint)."""
        return float(np.min(np.abs(self.table)))

    def max_abs_speed(self) -> float:
        return float(np.max(np.abs(self.table)))


@dataclass(frozen=True)
class SourceTerm:
    """Zero-order coupling M(x), constant or piecewise constant in x.

    ``matrices[i]`` applies on [breakpoints[i], breakpoints[i+1]).
    """

    matrices: np.ndarray
    breakpoints: np.ndarray

    @staticmethod
    def constant(matrix) -> "SourceTerm":
        m = _readonly(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("source matrix must be square")
        return SourceTerm(m.reshape((1,) + m.shape), _readonly([0.0, 1.0]))

    @staticmethod
    def zero(n: int) -> "SourceTerm":
        return SourceTerm.constant(np.zeros((n, n)))

    @staticmethod
    def piecewise_constant(breakpoints, matrices) -> "SourceTerm":
        x = _readonly(breakpoints)
        mats = _readonly(matrices)
        if x.ndim != 1 or x[0] != 0.0 or x[-1] != 1.0 or np.any(np.diff(x) <= 0):
            raise ValueError("breakpoints must increase strictly from 0 to 1")
        if mats.ndim != 3 or mats.shape[0] != x.size - 1 or mats.shape[1] != mats.shape[2]:
            raise ValueError("need one square matrix per breakpoint cell")
        return SourceTerm(mats, x)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def value(self, x: float) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                        0, self.matrices.shape[0] - 1))
        return self.matrices[i]

    def at_points(self, xs) -> np.ndarray:
        """M at each position, shape (len(xs), n, n)."""
        xs = np.asarray(xs, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, xs, side="right") - 1,
                      0, self.matrices.shape[0] - 1)
        return self.matrices[idx]

    def is_zero(self) -> bool:
        return not np.any(self.matrices)


@dataclass(frozen=True)
class CouplingSpec:
    """Boundary coupling matrices: Q0 (p x m) at x=0 and Q1 (m x p) at x=1,
    with the rank decision of each made once, on first use (see ``canon``)."""

    q0: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q0", np.atleast_2d(_readonly(self.q0)))
        object.__setattr__(self, "q1", np.atleast_2d(_readonly(self.q1)))

    @cached_property
    def q0_form(self) -> CanonicalDecomposition:
        return canonical_form(self.q0)

    @cached_property
    def q1_form(self) -> CanonicalDecomposition:
        return canonical_form(reversed_coupling(self.q1))

    @property
    def invertible(self) -> bool:
        """Both matrices square, of transposed shapes and of full rank."""
        k = self.q0.shape[0]
        return (self.q0.shape == (k, k) == self.q1.shape
                and self.q0_form.rank == k == self.q1_form.rank)


@dataclass(frozen=True)
class ControlDomain:
    """Control region omega: a finite union of disjoint open intervals in [0, 1]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        if not ivs:
            raise ValueError("control region must be nonempty")
        for a, b in ivs:
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"invalid control interval ({a}, {b})")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if a2 < b:
                raise ValueError("control intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    @staticmethod
    def of(*intervals) -> "ControlDomain":
        return ControlDomain(tuple(intervals))

    @property
    def length(self) -> float:
        return sum(b - a for a, b in self.merged_closure())

    def merged_closure(self) -> list[tuple[float, float]]:
        """Closed intervals of the closure (touching pieces merge)."""
        merged: list[list[float]] = []
        for a, b in self.intervals:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return [(a, b) for a, b in merged]

    def contains_points(self, xs) -> np.ndarray:
        """Boolean mask: strictly inside one of the open intervals."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (xs > a) & (xs < b)
        return out

    def complement_components(self) -> list[Interval]:
        """Connected components of (0,1) minus the closure, with position tags.

        Empty exactly when the closure covers [0, 1].
        """
        comps: list[Interval] = []
        cursor = 0.0
        for a, b in self.merged_closure():
            if a > cursor:
                comps.append(Interval(cursor, a))
            cursor = max(cursor, b)
        if cursor < 1.0:
            comps.append(Interval(cursor, 1.0))
        return comps

    def compactly_contains(self, other: "ControlDomain") -> bool:
        """True when the closure of `other` lies inside this open set."""
        for a, b in other.merged_closure():
            if not any(pa < a and b < pb for pa, pb in self.intervals):
                return False
        return True


@dataclass(frozen=True)
class SystemSpec:
    """The full problem datum: speeds, source, couplings and control region,
    checked against the standing hypotheses when it is built."""

    speeds: SpeedProfile
    source: SourceTerm
    couplings: CouplingSpec
    omega: ControlDomain

    def __post_init__(self):
        # the module global, looked up per call, so a rebinding of
        # ``model.validate`` sees every build
        validate(self)

    @property
    def n(self) -> int:
        return self.speeds.n

    @property
    def m(self) -> int:
        return self.speeds.m

    @property
    def p(self) -> int:
        return self.speeds.p


def validate(spec: SystemSpec) -> None:
    """Check the standing hypotheses in order; raise ``ConfigError`` naming
    the first one ``spec`` breaks."""
    table = spec.speeds.table
    n = table.shape[0]

    neg = np.all(table < 0.0, axis=1)
    pos = np.all(table > 0.0, axis=1)
    m = int(np.sum(neg))
    p = int(np.sum(pos))

    if m + p < n:
        bad = [k for k in range(n) if not (neg[k] or pos[k])]
        raise ConfigError(
            f"config (speed-sign): components {bad} change sign or vanish; negative "
            "speeds must be < 0 and positive speeds must be > 0 everywhere")
    if n < 2 or m < 1 or p < 1:
        raise ConfigError(
            "config (dimension): need n >= 2 with at least one negative and one "
            f"positive speed (m={m}, p={p})")
    if not np.all(np.diff(table, axis=0) >= 0.0):
        raise ConfigError(
            "config (speed-ordering): speeds must be nondecreasing in the component "
            "index at every breakpoint")

    for k in range(n):
        for l in range(k + 1, n):
            close = np.abs(table[k] - table[l]) <= EQUAL_SPEED_TOL
            if close.any() and not close.all():
                raise ConfigError(
                    f"config (speed-coincidence): speeds {k} and {l} are equal somewhere "
                    "but not everywhere; equal somewhere implies equal everywhere")

    q0, q1 = spec.couplings.q0, spec.couplings.q1
    if not (q0.shape == (p, m) and q1.shape == (m, p)
            and np.isfinite(q0).all() and np.isfinite(q1).all()):
        raise ConfigError(
            f"config (coupling-shapes): Q0 must be {p}x{m} and Q1 {m}x{p} with finite "
            f"entries; got {q0.shape} and {q1.shape}")

    src = spec.source.matrices
    if not (src.shape[1:] == (n, n) and np.isfinite(src).all()):
        raise ConfigError(
            f"config (source): source matrices must be {n}x{n} with finite entries")
