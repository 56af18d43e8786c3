"""Adam and plain SGD over named parameter sets.

Parameters are Tensors, updated in place through ``.data``; gradients and
the Adam moments are plain ndarrays.  Every gradient is validated (names,
shapes, finiteness) before any parameter is touched, so a rejected step
leaves the model exactly as it was.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import _finite_float
from .errors import ConfigError, UpdateError

__all__ = ["AdamState", "adam_init", "adam_step", "sgd_step"]


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def _learning_rate(lr):
    """``lr`` as a float; :class:`ConfigError` unless it is a positive,
    finite real number."""
    rate = _finite_float(lr)
    if rate is None or rate <= 0:
        raise ConfigError(f"learning rate must be positive and finite, got {lr!r}")
    return rate


def adam_init(params, lr=1e-3):
    """Fresh Adam state with zeroed moments mirroring ``params``."""
    state = AdamState(lr=_learning_rate(lr))
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def _validate_grads(params, grads, mirrors=()):
    """Checks every gradient, and that each dict in ``mirrors`` holds a
    same-shaped entry per parameter, before anything is mutated."""
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
        if not np.isfinite(g).all():
            raise UpdateError(f"gradient for '{name}' contains non-finite values")
        if any(name not in m or tuple(m[name].shape) != tuple(p.shape) for m in mirrors):
            raise UpdateError(f"optimizer state does not mirror parameter '{name}'")


def adam_step(state, params, grads):
    """One Adam update with bias correction.

    m and v track exponential moving averages of the gradient and its
    square; each is divided by ``1 - beta**t`` so early steps are not
    biased toward zero, and the parameter moves by
    ``-lr * m_hat / (sqrt(v_hat) + eps)``.  Returns ``(state, params)``,
    both updated in place.
    """
    _validate_grads(params, grads, mirrors=(state.m, state.v))
    state.t += 1
    bc1 = 1.0 - _BETA1 ** state.t
    bc2 = 1.0 - _BETA2 ** state.t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return state, params


def sgd_step(params, grads, lr):
    """Plain gradient descent: ``p -= lr * g``, in place."""
    rate = _learning_rate(lr)
    _validate_grads(params, grads)
    for name, p in params.items():
        p.data -= rate * grads[name]
    return params
