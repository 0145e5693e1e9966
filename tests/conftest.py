import numpy as np
import pytest

from hypctrl.model import (ControlDomain, CouplingSpec, SourceTerm,
                           SpeedProfile, SystemSpec)


def make_spec(speeds, q0, q1, omega, source=None):
    profile = (speeds if isinstance(speeds, SpeedProfile)
               else SpeedProfile.constant(speeds))
    src = source if source is not None else SourceTerm.zero(profile.n)
    return SystemSpec(profile, src, CouplingSpec(q0, q1),
                      ControlDomain(tuple(omega)))


def near_singular(rng, k, rel=1e-12):
    """A k x k matrix of rank k - 1 plus a perturbation of about ``rel``
    relative to its largest entry: its rank sits at the ``PIVOT_RTOL`` edge,
    where Q and its backwards relabeling may factor to different ranks."""
    q = rng.uniform(-1.0, 1.0, (k, k))
    q[-1] = rng.uniform(-1.0, 1.0, k - 1) @ q[:-1]
    return q + rel * np.abs(q).max() * rng.uniform(-1.0, 1.0, (k, k))


@pytest.fixture
def spec_2x2():
    """Symmetric unit speeds, identity couplings, omega = (0.25, 0.75)."""
    return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)])


@pytest.fixture
def spec_4x4():
    """Four speeds (-2, -1, 1, 3), identity couplings, omega = (0.3, 0.8)."""
    return make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), [(0.3, 0.8)])


@pytest.fixture
def spec_full_domain():
    return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 1.0)])
