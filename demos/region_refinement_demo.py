"""Shrinking the control region to a finite union without losing much time.

Any open control region contains a finite union of intervals, compactly
inside it, whose complement components cost at most epsilon more control
time.  The construction shrinks every open interval (a, b) of the region to
(a + gamma, b - gamma), starting gamma at a quarter of the narrowest
interval, and halves gamma until every gap costs at most the target (the
same construction the control synthesis uses), so each interval keeps one
piece.
"""

from hypctrl import (ControlDomain, CouplingSpec, SourceTerm, SpeedProfile,
                     SystemSpec, boundary_control_time, minimal_control_time,
                     refine_control_region)

spec = SystemSpec(SpeedProfile.constant([-1.0, 1.0]), SourceTerm.zero(2),
                  CouplingSpec([[1.0]], [[1.0]]),
                  ControlDomain.of((0.1, 0.3), (0.55, 0.6), (0.8, 0.95)))

tau = minimal_control_time(spec).value
print(f"minimal control time of the full region: {tau:.6g}")

for eps in (0.2 * tau, 0.1 * tau, 0.05 * tau):
    refined = refine_control_region(spec, eps)
    print(f"\nepsilon = {eps:.4g}")
    print(f"  refined region ({len(refined.region.intervals)} intervals):")
    for a, b in refined.region.intervals:
        print(f"    ({a:.6g}, {b:.6g})")
    print(f"  achieved bound {refined.achieved_bound:.6g} "
          f"<= target {refined.target_bound:.6g}")
    worst = max(boundary_control_time(spec, iv).value
                for iv in refined.region.complement_components())
    print(f"  re-checked worst component time: {worst:.6g}")
