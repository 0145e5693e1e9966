"""Minimal control times, control synthesis and observability certification
for 1D linear hyperbolic balance laws with internal controls."""

from .canon import CanonicalDecomposition, canonical_form, reversed_coupling
from .model import (BelowThresholdError, ConfigError, ControlDomain,
                    CouplingSpec, Interval, PositionTag, RankError, SourceTerm,
                    SpeedProfile, SystemSpec)
from .obsv import (GramianSweepResult, NecessitySweep, NecessityWitness,
                   detect_threshold, kernel_vector, necessity_sweep,
                   necessity_witness, observability_gramian, sigma_min_sweep)
from .pde import (BoundaryControls, ControlField, EvolutionResult, Grid,
                  StateField, cfl_dt, characteristics_oracle,
                  sample_state, solve_adjoint, solve_backward,
                  solve_boundary_forward, solve_forward, state_function)
from .synth import (HumResult, SpaceCutoff, SynthesisReport, TimeCutoff,
                    assemble_internal_control, hum_boundary_control,
                    synthesize_full_domain)
from .times import (BoundaryTimeResult, MinimalTimeResult, RefinedRegion,
                    TimeTerm, boundary_control_time, boundary_time_interior,
                    boundary_time_left, boundary_time_right,
                    characteristic_position, characteristic_time,
                    linear_bound_constant, minimal_control_time,
                    refine_control_region, travel_time)

__version__ = "0.1.0"

__all__ = [
    "BelowThresholdError", "BoundaryControls", "BoundaryTimeResult",
    "CanonicalDecomposition", "ConfigError", "ControlDomain", "ControlField",
    "CouplingSpec", "EvolutionResult", "GramianSweepResult", "Grid",
    "HumResult", "Interval", "MinimalTimeResult", "NecessitySweep",
    "NecessityWitness", "PositionTag", "RankError", "RefinedRegion",
    "SourceTerm", "SpaceCutoff", "SpeedProfile", "StateField",
    "SynthesisReport", "SystemSpec", "TimeCutoff", "TimeTerm",
    "assemble_internal_control", "boundary_control_time",
    "boundary_time_interior", "boundary_time_left", "boundary_time_right",
    "canonical_form", "cfl_dt", "characteristic_position",
    "characteristic_time", "characteristics_oracle", "detect_threshold",
    "hum_boundary_control", "kernel_vector", "linear_bound_constant",
    "minimal_control_time", "necessity_sweep", "necessity_witness",
    "observability_gramian", "refine_control_region", "reversed_coupling",
    "sample_state", "sigma_min_sweep", "solve_adjoint", "solve_backward",
    "solve_boundary_forward", "solve_forward", "state_function",
    "synthesize_full_domain", "travel_time",
]
