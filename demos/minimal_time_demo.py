"""Minimal control time for two benchmark systems.

For symmetric speeds (-1, 1), unit couplings and a control window (a, b),
the minimal time reduces to max(a, 1-b) * (T_1 + T_2); the second system has
four speeds and shows the per-component breakdown behind the maximum.
"""

import numpy as np

from hypctrl import (ControlDomain, CouplingSpec, SourceTerm, SpeedProfile,
                     SystemSpec, minimal_control_time)


def report(name, spec):
    print(f"== {name} ==")
    result = minimal_control_time(spec)
    print(f"minimal control time: {result.value}")
    for interval, bc in result.per_component:
        terms = ", ".join(f"k={t.lead}" + (f"+k={t.partner}" if t.partner is not None else "")
                          + f": {t.value:.6g}" for t in bc.terms)
        print(f"  component ({interval.lo:.3g}, {interval.hi:.3g}) "
              f"[{bc.case}] -> {bc.value:.6g}   ({terms})")
    print()


two = SystemSpec(SpeedProfile.constant([-1.0, 1.0]), SourceTerm.zero(2),
                 CouplingSpec([[1.0]], [[1.0]]), ControlDomain.of((0.25, 0.75)))
report("two speeds, omega = (0.25, 0.75)", two)

four = SystemSpec(SpeedProfile.constant([-2.0, -1.0, 1.0, 3.0]),
                  SourceTerm.zero(4), CouplingSpec(np.eye(2), np.eye(2)),
                  ControlDomain.of((0.3, 0.8)))
report("four speeds, omega = (0.3, 0.8)", four)

# a control region covering (0, 1) up to one point needs no time at all
covering = SystemSpec(SpeedProfile.constant([-1.0, 1.0]), SourceTerm.zero(2),
                      CouplingSpec([[1.0]], [[1.0]]),
                      ControlDomain.of((0.0, 0.5), (0.5, 1.0)))
print("covering union:", minimal_control_time(covering).value)

# singular couplings make internal exact controllability impossible
singular = SystemSpec(SpeedProfile.constant([-1.0, 1.0]), SourceTerm.zero(2),
                      CouplingSpec([[0.0]], [[1.0]]),
                      ControlDomain.of((0.25, 0.75)))
res = minimal_control_time(singular)
print("singular couplings:", "infinite" if not res.finite else res.value,
      "--", res.reason)
