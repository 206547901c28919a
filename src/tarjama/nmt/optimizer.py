"""Adadelta: per-element learning rates from decaying squared averages."""

import numpy as np


class AdadeltaState:
    """Running averages E[g^2] and E[dx^2], one element per parameter."""

    def __init__(self, theta):
        self.sq_grad = np.zeros_like(theta)
        self.sq_delta = np.zeros_like(theta)


def adadelta_step(theta, grad, state, rho=0.95, epsilon=1e-6):
    """Apply one update to the parameter vector theta in place and
    return (theta, state).

    E[g^2] is refreshed before the step size is computed; E[dx^2] after,
    from the step actually taken.
    """
    eg2, ed2 = state.sq_grad, state.sq_delta
    eg2 *= rho
    eg2 += (1.0 - rho) * grad * grad
    delta = -np.sqrt((ed2 + epsilon) / (eg2 + epsilon)) * grad
    ed2 *= rho
    ed2 += (1.0 - rho) * delta * delta
    theta += delta
    return theta, state
