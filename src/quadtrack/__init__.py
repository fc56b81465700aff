"""Deterministic closed-loop quadrotor trajectory-tracking simulator.

Output-feedback command-filtered backstepping on all six channels, with a
nonlinear disturbance observer and a high-gain observer per channel, a
12-state rigid-body plant, and a fixed-step integration engine with CSV
trace output.
"""

from .attitude import ChannelGains, attitude_torque, channel_errors
from .disturbances import (
    BandLimitedNoise,
    GaussianNoise,
    NoDisturbance,
    Ramp,
    SampledNoise,
    Sinusoid,
    Step,
    UniformNoise,
    make_generator,
    noise_boundary_values,
)
from .engine import (
    COLUMNS,
    ClosedLoop,
    Metrics,
    SimLog,
    compute_rmse,
    read_trace,
    rk4_step,
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
from .filters import command_filter_derivative, first_order_filter_derivative
from .observers import do_derivative, do_estimate, hgo_derivative
from .position import (
    extract_thrust_and_attitude,
    position_virtual_control,
    reference_trajectory,
    waypoint_trajectory,
)
from .scenario import (
    CHANNELS,
    Scenario,
    default_scenario,
    load_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from .vehicle import (
    ControlInputs,
    QuadrotorParams,
    RotorSpeeds,
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    mix_inputs_to_rotor_speeds,
    residual_speed,
    state_derivative,
)

__version__ = "0.1.0"
