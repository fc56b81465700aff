"""Deterministic closed-loop quadrotor trajectory-tracking simulator.

Output-feedback command-filtered backstepping on all six channels, with a
nonlinear disturbance observer and a high-gain observer per channel, a
12-state rigid-body plant, and a fixed-step integration engine with CSV
trace output.

The root exports what configures a run, runs it and reads its outputs back,
and the errors a run raises. The law's leaves, the integrator, the generators
and the airframe model functions are imported from their own modules.
"""

from .channel import ChannelGains
from .disturbances import (
    BandLimitedNoise,
    GaussianNoise,
    NoDisturbance,
    Ramp,
    Sinusoid,
    Step,
    UniformNoise,
)
from .engine import (
    COLUMNS,
    Metrics,
    SimLog,
    compute_rmse,
    read_trace,
    run_scenario,
    write_summary,
    write_trace,
)
from .errors import (
    AngleGuardError,
    DenominatorTooSmallError,
    NonFiniteError,
    ScenarioError,
    SimulationError,
)
from .scenario import (
    CHANNELS,
    Scenario,
    load_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from .vehicle import QuadrotorParams

__version__ = "0.1.0"
