"""Adam and plain SGD over named parameter sets.

Updates are applied in place.  Every gradient is validated (names, shapes,
finiteness) before any parameter is touched, so a rejected step leaves the
model exactly as it was.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UpdateError
from .tensor import Tensor

__all__ = ["AdamState", "adam_init", "adam_step", "sgd_step"]


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Fresh Adam state with zeroed moments mirroring ``params``."""
    if not 0 < lr < np.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ConfigError(f"betas must lie in [0, 1), got {beta1} and {beta2}")
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    state = AdamState(lr=float(lr), beta1=float(beta1), beta2=float(beta2), eps=float(eps))
    for name, p in params.items():
        state.m[name] = Tensor(np.zeros(p.shape, dtype=p.dtype))
        state.v[name] = Tensor(np.zeros(p.shape, dtype=p.dtype))
    return state


def _validate_grads(params, grads, mirror=None):
    """Checks every gradient before anything is mutated."""
    if set(grads) != set(params):
        missing = sorted(set(params) - set(grads))
        extra = sorted(set(grads) - set(params))
        raise UpdateError(f"gradient names do not match parameters "
                          f"(missing {missing}, unexpected {extra})")
    for name, p in params.items():
        g = grads[name]
        if tuple(g.shape) != tuple(p.shape):
            raise UpdateError(
                f"gradient for '{name}' has shape {tuple(g.shape)}, expected {tuple(p.shape)}")
        if not np.isfinite(g.data).all():
            raise UpdateError(f"gradient for '{name}' contains non-finite values")
        if mirror is not None and (name not in mirror or tuple(mirror[name].shape) != tuple(p.shape)):
            raise UpdateError(f"optimizer state does not mirror parameter '{name}'")


def adam_step(state, params, grads):
    """One Adam update with bias correction.

    m and v track exponential moving averages of the gradient and its
    square; each is divided by ``1 - beta**t`` so early steps are not
    biased toward zero, and the parameter moves by
    ``-lr * m_hat / (sqrt(v_hat) + eps)``.  Returns ``(state, params)``,
    both updated in place.
    """
    _validate_grads(params, grads, mirror=state.m)
    _validate_grads(params, grads, mirror=state.v)
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name].data
        m = state.m[name].data
        v = state.v[name].data
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state, params


def sgd_step(params, grads, lr):
    """Plain gradient descent: ``p -= lr * g``, in place."""
    if not 0 < lr < np.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    _validate_grads(params, grads)
    for name, p in params.items():
        p.data -= lr * grads[name].data
    return params
