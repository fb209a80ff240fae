"""Symmetric entropy-like regularizer and its mirror maps.

The scalar potential

    phi(x) = alpha * ((|x| + beta) * ln(|x|/beta + 1) - |x|)

interpolates between the absolute value and the square.  Applied
coordinatewise and summed it yields a regularizer that is strongly convex
with respect to the l1 norm on bounded sets, which is what the learners in
:mod:`expopt.learners` rely on.  All functions here are pure and operate on
scalars or numpy arrays alike.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericRangeError",
    "EntropyParams",
    "EXP_ARG_LIMIT",
    "entropy",
    "entropy_grad",
    "entropy_hess",
    "entropy_conj",
    "entropy_conj_grad",
    "entropy_conj_hess",
    "reg_value",
    "mirror_map",
    "mirror_map_inv",
    "bregman_div",
]

# Dual arguments with |theta|/alpha beyond this would exp() past float range.
EXP_ARG_LIMIT = 700.0


class NumericRangeError(OverflowError):
    """A dual-side quantity left the representable floating-point range.

    Raised instead of silently producing ``inf`` so that proximal and
    projection code never consumes non-finite intermediates.
    """


class _range_guard(np.errstate):
    """Overflow, invalid operations and division by zero raise
    :class:`NumericRangeError`, not a ``RuntimeWarning``, in a ``with`` block or
    an ``@_range_guard()`` function.  Underflow stays silent, and a quiet NaN or
    an infinity taken as input sets no flag: check such inputs where they enter."""

    def __init__(self):
        super().__init__(over="raise", invalid="raise", divide="raise", under="ignore")

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if isinstance(exc, FloatingPointError):
            raise NumericRangeError(f"floating-point {exc}") from exc

    def __call__(self, fn):
        raising = super().__call__(fn)  # numpy's own wrapper: cheaper than entering self

        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return raising(*args, **kwargs)
            except FloatingPointError as exc:
                raise NumericRangeError(f"floating-point {exc}") from exc

        return guarded


@dataclass(frozen=True)
class EntropyParams:
    """Scale and offset of the entropy-like potential.

    Parameters
    ----------
    alpha : float
        Positive scale; in the online learners it varies per round.
    beta : float
        Positive offset controlling the curvature near zero, typically
        ``1/d`` for d-dimensional problems.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):  # NaN fails too
            raise ValueError(f"alpha and beta must be positive and finite, got {self}")


def entropy(x, p: EntropyParams):
    """Pointwise potential alpha*((|x|+beta)*ln(|x|/beta+1) - |x|).

    Even, nonnegative and strictly convex in ``x``.
    """
    ax = np.abs(x)
    val = p.alpha * ((ax + p.beta) * np.log1p(ax / p.beta) - ax)
    # Mathematically >= 0; rounding may leave a tiny negative near x = 0.
    return np.maximum(val, 0.0)


def entropy_grad(x, p: EntropyParams):
    """Derivative alpha*ln(|x|/beta+1)*sgn(x); odd, zero at the origin."""
    x = np.asarray(x, dtype=float)
    return p.alpha * np.log1p(np.abs(x) / p.beta) * np.sign(x)


def entropy_hess(x, p: EntropyParams):
    """Second derivative alpha/(|x|+beta)."""
    return p.alpha / (np.abs(x) + p.beta)


@_range_guard()
def _check_dual_range(theta, p: EntropyParams):
    u = np.abs(theta) / p.alpha
    if not np.all(u <= EXP_ARG_LIMIT):  # negated so that a NaN raises too
        raise NumericRangeError("dual argument |theta|/alpha exceeds the exponent range")
    return u


def entropy_conj(theta, p: EntropyParams):
    """Convex conjugate alpha*beta*exp(|theta|/alpha) - beta*|theta| - alpha*beta.

    Raises
    ------
    NumericRangeError
        If ``|theta|/alpha`` exceeds the exponent range of float64.
    """
    u = _check_dual_range(theta, p)
    # expm1(u) - u keeps full precision near the origin where the naive
    # exp(u) - 1 - u cancels catastrophically.
    return p.alpha * p.beta * (np.expm1(u) - u)


def entropy_conj_grad(theta, p: EntropyParams):
    """Gradient of the conjugate, (beta*exp(|theta|/alpha) - beta)*sgn(theta).

    Inverse of :func:`entropy_grad`.
    """
    u = _check_dual_range(theta, p)
    return p.beta * np.expm1(u) * np.sign(theta)


@_range_guard()
def entropy_conj_hess(theta, p: EntropyParams):
    """Second derivative of the conjugate, (beta/alpha)*exp(|theta|/alpha)."""
    u = _check_dual_range(theta, p)
    return (p.beta / p.alpha) * np.exp(u)


def reg_value(x, p: EntropyParams) -> float:
    """Vector regularizer: sum of the pointwise potential."""
    return float(np.sum(entropy(x, p)))


# The gradient of the vector regularizer, applied coordinatewise, and its
# inverse, the gradient of the conjugate regularizer.
mirror_map = entropy_grad
mirror_map_inv = entropy_conj_grad


def bregman_div(x, y, p: EntropyParams) -> float:
    """Bregman divergence of the vector regularizer.

    ``reg(x) - reg(y) - <mirror_map(y), x - y>``; nonnegative, zero iff
    ``x == y``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = reg_value(x, p) - reg_value(y, p) - float(np.dot(mirror_map(y, p), x - y))
    return max(val, 0.0)
