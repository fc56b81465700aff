"""Reference-shaping filters used by every control channel.

Two kinds.  The super-twisting command filter turns a reference signal into
a smoothed copy plus its rate, so the control laws never differentiate a
reference analytically.  The first-order lag sits between backstepping
layers (dynamic surface construction) and supplies the filtered virtual
control together with its derivative (nu - sigma)/tau.
"""

import math


def command_filter_derivative(z1: float, z2: float, m1: float, m2: float, ref: float):
    """Derivatives (dz1, dz2) of the super-twisting command filter.

    z1 chases ref in finite time and z2 recovers the reference rate.  m1
    scales the square-root correction; m2 bounds the steepest reference
    slope the filter can follow.  sign(0) = 0 makes convergence an exact
    equilibrium; under fixed-step integration z2 chatters within m2*dt.
    """
    err = z1 - ref
    s = 1.0 if err > 0.0 else -1.0 if err < 0.0 else 0.0
    dz1 = -m1 * math.sqrt(abs(err)) * s + z2
    dz2 = -m2 * s
    return dz1, dz2


def first_order_filter_derivative(sigma: float, nu: float, tau: float) -> float:
    """Lag derivative (nu - sigma)/tau; stability needs tau in (0, 1]."""
    return (nu - sigma) / tau
