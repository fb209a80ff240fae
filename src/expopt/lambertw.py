"""Principal branch of the Lambert function.

Provides ``w`` solving ``w * exp(w) = z`` for ``z >= 0`` and, crucially for
the elastic-net proximal step, a log-domain variant solving
``w + ln(w) = s`` for ``z = exp(s)`` that never materializes ``exp(s)``.
The proximal argument ``a*b*exp(a*b - c)`` overflows float64 whenever
``-c`` is a few hundred, which happens routinely for adaptive stepsizes,
so the elastic-net prox and :func:`lambert_w0_from_log` call :func:`_w0_log_array`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["LambertResult", "lambert_w0", "lambert_w0_from_log"]

_MAX_ITER = 40
_CYCLE_FROM = 8  # the iteration from which the Newton loop looks for a two-cycle
_TINY = 1e-300


@dataclass(frozen=True)
class LambertResult:
    """Converged value with its backward error.

    ``residual`` is relative for :func:`lambert_w0` (absolute below
    ``1e-300``) and measured on ``w + ln w - s`` for the log-domain solver.
    """

    w: float
    residual: float
    iterations: int


def lambert_w0(z: float) -> LambertResult:
    """Principal branch value ``w >= 0`` with ``w * exp(w) = z``.

    Halley iteration seeded with the asymptotic initializer; monotone
    increasing in ``z``.

    Raises
    ------
    ValueError
        For negative or non-finite ``z``.
    """
    z = float(z)
    if not np.isfinite(z) or z < 0:
        raise ValueError(f"lambert_w0 requires finite z >= 0, got {z}")
    if z == 0.0:
        return LambertResult(0.0, 0.0, 0)

    if z > 3.0:
        # w ~ ln z - ln ln z for large arguments
        l1 = np.log(z)
        l2 = np.log(l1)
        w = l1 - l2 + l2 / l1
    elif z < 1e-3:
        w = z * (1.0 - z)
    else:
        w = np.log1p(z)

    its = 0
    for its in range(1, _MAX_ITER + 1):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break

    residual = abs(w * np.exp(w) - z) / max(z, _TINY)
    return LambertResult(float(w), float(residual), its)


def _w0_log_array(s, ignore=None):
    """Vectorized solve of ``w + ln w = s``; returns ``w = exp(v)``.

    Newton iteration on ``h(v) = exp(v) + v - s`` in ``v = ln w``; ``h`` is
    convex and increasing, and both seeds below start right of the root, so
    the iteration is monotone and safe for any finite ``s``.  Also returns
    the number of iterations run.  Each elastic-net prox call runs this
    loop on its active coordinates, so the loop uses ``abs`` and
    ``.all()`` rather than the ``np.abs``/``np.all`` wrappers.

    The stop test can ask for less than one ulp of ``v``; Newton may then
    alternate between two neighbouring floats.  Once every entry equals its
    iterate two steps back, the test can never pass, so the loop returns what
    the last of its ``_MAX_ITER`` iterations would hold, with that count.

    A stack ``(rows, k)`` solves each row as that row alone: a row leaves the
    loop at the iteration, and with the value, at which it leaves it alone, and
    its entries where ``ignore`` is set take no part in its stop.  Any other
    ``s`` is one row.  The count is then the most any row ran.
    """
    s = np.asarray(s, dtype=float)
    v = prev = np.where(s > 1.0, np.log(np.maximum(s, 1.0)), s)
    out = left = None  # once rows of a stack have left the loop: each row's v, the rows still in it
    its = most = 0
    for its in range(1, _MAX_ITER + 1):
        ev = np.exp(v)
        step = (ev + v - s) / (ev + 1.0)
        before, prev, v = prev, v, v - step
        ok = abs(step) <= 1e-16 * (2.0 + abs(v))
        if ignore is not None:
            ok |= ignore
        if ok.all():  # every row still in the loop stops here
            break
        if s.ndim < 2:  # one row, kept in its shape: a 0-d one runs on numpy scalars
            if its >= _CYCLE_FROM and (v == before).all():
                # the iterates repeat with period two: the capped loop ends on v or prev by parity
                return np.exp(prev if (_MAX_ITER - its) % 2 else v), _MAX_ITER
            continue
        done = ok.all(axis=1)
        if its >= _CYCLE_FROM:
            same = v == before
            if ignore is not None:
                same |= ignore
            cycling = same.all(axis=1) & ~done
            if cycling.any():  # each such row ends as the lone loop does, by parity
                if (_MAX_ITER - its) % 2:
                    v[cycling] = prev[cycling]
                done |= cycling
                most = _MAX_ITER
        if done.any():  # these rows leave the loop, with the value they leave it with alone
            if out is None:
                out, left = np.empty_like(s), np.arange(len(s))
            out[left[done]] = v[done]
            most = max(most, its)
            if done.all():
                return np.exp(out), most
            kept = ~done
            left, v, prev, s = left[kept], v[kept], prev[kept], s[kept]
            ignore = None if ignore is None else ignore[kept]
    if out is not None:
        out[left] = v
        v = out
    return np.exp(v), max(most, its)


def lambert_w0_from_log(s: float) -> LambertResult:
    """Solve ``w + ln w = s``, i.e. ``w * exp(w) = exp(s)``, for finite s.

    Agrees with ``lambert_w0(exp(s))`` wherever ``exp(s)`` is representable
    and remains accurate far outside that range.
    """
    s = float(s)
    if not np.isfinite(s):
        raise ValueError(f"lambert_w0_from_log requires finite s, got {s}")
    w, its = _w0_log_array(s)
    w = float(w)
    if w >= _TINY:
        residual = abs(w + np.log(w) - s) / max(abs(s), 1.0)
    else:
        residual = 0.0
    return LambertResult(w, float(residual), its)
