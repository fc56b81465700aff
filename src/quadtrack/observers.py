"""Disturbance observer and high-gain observer, one instance per channel.

Both operate on a scalar double-integrator channel

    d/dt output = rate
    d/dt rate   = coupling + input_term + disturbance

where coupling collects the known model terms on the rate row and
input_term is the known input contribution (input gain times input).  Only
outputs are measured; rates come from the high-gain observer.

Disturbance observer.  The design function is linear in the rate state,
p(x) = lam * rate, which gives estimate dynamics

    dhat      = gamma + lam * rate
    dgamma/dt = -lam * gamma - lam * (lam * rate + coupling + input_term)

so with exact rate information the estimation error decays as exp(-lam t).
lam must exceed 1/2 for the closed-loop damping argument to hold.

High-gain observer.  Gains beta1, beta2 are scaled by 1/eps and 1/eps^2;
smaller eps tracks faster at the price of transient peaking proportional
to (initial output mismatch)/eps.
"""


def do_derivative(
    gamma: float,
    lam: float,
    rate_estimate: float,
    coupling: float,
    input_term: float,
) -> float:
    """Internal-state derivative of the disturbance observer (terms as in hgo_derivative)."""
    return -lam * gamma - lam * (lam * rate_estimate + coupling + input_term)


def do_estimate(gamma: float, lam: float, rate_estimate: float) -> float:
    """Disturbance estimate: internal state plus the rate-linear design term."""
    return gamma + lam * rate_estimate


def hgo_derivative(
    xhat1: float,
    xhat2: float,
    beta1: float,
    beta2: float,
    eps: float,
    y_measured: float,
    f_nominal: float,
    input_term: float,
):
    """Derivatives (dxhat1, dxhat2) of the two-state high-gain observer.

    f_nominal is the modeled rate-row dynamics evaluated at estimates and
    input_term the known input contribution (zero when the input already
    enters through f_nominal).
    """
    innovation = y_measured - xhat1
    dxhat1 = xhat2 + beta1 * innovation / eps
    dxhat2 = f_nominal + input_term + beta2 * innovation / (eps * eps)
    return dxhat1, dxhat2
