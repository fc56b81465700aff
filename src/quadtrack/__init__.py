"""Deterministic closed-loop quadrotor trajectory-tracking simulator.

Output-feedback command-filtered backstepping on all six channels, with a
nonlinear disturbance observer and a high-gain observer per channel, a
12-state rigid-body plant, and a fixed-step integration engine with CSV
trace output.
"""

from .attitude import attitude_torque
from .channel import (
    ChannelGains,
    channel_errors,
    command_filter_derivative,
    do_derivative,
    do_estimate,
    first_order_filter_derivative,
    hgo_derivative,
    position_virtual_control,
)
from .disturbances import (
    BandLimitedNoise,
    GaussianNoise,
    NoDisturbance,
    Ramp,
    Sinusoid,
    Step,
    UniformNoise,
    make_generator,
    noise_boundary_values,
    noise_draw_size,
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
from .scenario import (
    CHANNELS,
    Scenario,
    load_scenario,
    reference_trajectory,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
    waypoint_trajectory,
)
from .vehicle import (
    QuadrotorParams,
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    extract_thrust_and_attitude,
    mix_inputs_to_rotor_speeds,
    residual_speed,
    state_derivative,
)

__version__ = "0.1.0"
