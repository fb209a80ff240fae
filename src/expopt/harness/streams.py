"""Synthetic data generators and their loss oracles.

Three problem families, all deterministic given a numpy Generator:

* sparse online logistic regression (uniform features, logit labels),
* online multitask logistic regression with a low-rank parameter matrix,
* a black-box composite: a hinge over convex quadratics plus elastic net,
  standing in for expensive model-specific losses.
"""

import copy
from dataclasses import dataclass

import numpy as np

from ..prox import CompositeRegularizer

__all__ = [
    "LogisticStream",
    "MultitaskStream",
    "BlackboxComposite",
    "gen_logistic_stream",
    "logistic_blocks",
    "gen_multitask_stream",
    "gen_blackbox_problem",
    "logistic_loss",
    "logistic_grad",
    "logistic_loss_grad",
    "multitask_loss",
    "multitask_grad",
    "multitask_loss_grad",
]


def _sigmoid(m):
    out = np.empty_like(m, dtype=float)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def _sigmoid_scalar(m: float) -> float:
    """:func:`_sigmoid` of one float, bit for bit.

    It goes through the same ``np.exp``; ``math.exp`` rounds differently.
    """
    if m >= 0:
        return 1.0 / (1.0 + float(np.exp(-m)))
    em = float(np.exp(m))
    return em / (1.0 + em)


@dataclass(frozen=True)
class LogisticStream:
    """Ground truth ``w_star`` plus the full (features, labels) stream."""

    w_star: np.ndarray
    features: np.ndarray  # (horizon, dim)
    labels: np.ndarray  # (horizon,), values in {-1, +1}


# Feature bytes per logistic block: 16 rows at d=20000, 640 at d=500.  The runs
# switch learners at each block, which cost 8% of d=500 throughput at 16 rows.
BLOCK_BYTES = 2_560_000


def logistic_blocks(dim: int, horizon: int, sparsity: float, rng: np.random.Generator):
    """``(w_star, blocks)``: :func:`gen_logistic_stream` drawn a block of rows at a time.

    ``blocks`` yields ``(features, labels, w_star's losses)``, bit for bit: labels come from a
    copy of ``rng`` advanced past the ``horizon * dim`` feature draws.  A block is the most rows
    within ``BLOCK_BYTES``, a multiple of 4 and at least 4: OpenBLAS's gemv groups rows by 4 and
    takes ddot for one row, so a lone last row joins the block before it.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must lie in [0, 1]")
    # round before the ceil so 0.01 * 100 = 1.0000000000000009 still gives 1
    nnz = int(np.ceil(round((1.0 - sparsity) * dim, 9)))
    w_star = np.zeros(dim)
    if nnz > 0:
        support = rng.choice(dim, size=nnz, replace=False)
        w_star[support] = rng.uniform(-1.0, 1.0, size=nnz)
    label_rng = copy.deepcopy(rng)
    label_rng.bit_generator.advance(horizon * dim)
    rows = 4 * max(BLOCK_BYTES // (32 * dim), 1)
    stops = [*range(rows, horizon - 1, rows), horizon]  # one block, empty, at horizon 0

    def blocks():
        for start, stop in zip([0, *stops], stops):
            features = rng.uniform(-1.0, 1.0, size=(stop - start, dim))
            margins = features @ w_star
            labels = np.where(label_rng.random(stop - start) < _sigmoid(margins), 1.0, -1.0)
            yield features, labels, np.logaddexp(0.0, -(labels * margins))

    return w_star, blocks()


def gen_logistic_stream(
    dim: int, horizon: int, sparsity: float, rng: np.random.Generator
) -> LogisticStream:
    """Sparse logit stream: ``ceil((1 - sparsity) * dim)`` nonzero truth.

    Nonzero coordinates and feature vectors are uniform on [-1, 1]; labels
    are +1 with probability ``sigmoid(w_star . x)``.
    """
    w_star, blocks = logistic_blocks(dim, horizon, sparsity, rng)
    features, labels, _ = zip(*blocks)
    rng.random(horizon)  # skip the label draws: rng ends as after one draw of each
    return LogisticStream(w_star, np.concatenate(features), np.concatenate(labels))


# OpenBLAS computes a ddot of at most this many elements on one thread; above
# it, the thread count decides how the partial sums are split and added.
_DOT_LEAF = 10_000


def _fixed_order_dot(a, b) -> float:
    """``a . b`` summed in an order fixed by the code, not by the BLAS threads.

    ``np.dot`` up to ``_DOT_LEAF`` elements, otherwise the sum of this
    reduction over the halves ``[:n//2]`` and ``[n//2:]``.  Every leaf runs
    on one thread, so no BLAS worker wakes up; at 20 000 elements the result
    equals a two-thread OpenBLAS ``np.dot`` bit for bit.
    """
    n = a.size
    if n <= _DOT_LEAF:
        return float(np.dot(a, b))
    h = n // 2
    return _fixed_order_dot(a[:h], b[:h]) + _fixed_order_dot(a[h:], b[h:])


def logistic_loss_grad(w, x, y):
    """Loss ``ln(1 + exp(-y * w.x))`` and its gradient, sharing the margin."""
    m = y * _fixed_order_dot(w, x)
    loss = float(np.logaddexp(0.0, -m))
    return loss, (-y * _sigmoid_scalar(-m)) * x


def logistic_loss(w, x, y) -> float:
    """ln(1 + exp(-y * w.x)) evaluated stably."""
    return logistic_loss_grad(w, x, y)[0]


def logistic_grad(w, x, y) -> np.ndarray:
    return logistic_loss_grad(w, x, y)[1]


@dataclass(frozen=True)
class MultitaskStream:
    """Low-rank truth ``w_star`` (dim x tasks) with per-task logit streams."""

    w_star: np.ndarray
    singular_values: np.ndarray  # the drawn spectrum of w_star
    features: np.ndarray  # (horizon, tasks, dim)
    labels: np.ndarray  # (horizon, tasks)


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def gen_multitask_stream(
    dim: int, tasks: int, rank: int, horizon: int, rng: np.random.Generator
) -> MultitaskStream:
    """Correlated tasks: ``w_star = U diag(sigma) V`` of exact rank ``rank``.

    ``sigma`` has ``rank`` nonzero entries uniform on [0, 10]; the per-task
    parameters are the columns of ``w_star``.
    """
    if rank > min(dim, tasks):
        raise ValueError("rank cannot exceed min(dim, tasks)")
    u = _random_orthogonal(dim, rng)
    v = _random_orthogonal(tasks, rng)
    sigma = np.zeros(tasks)
    sigma[:rank] = rng.uniform(0.0, 10.0, size=rank)
    w_star = (u[:, :tasks] * sigma) @ v
    features = rng.uniform(-1.0, 1.0, size=(horizon, tasks, dim))
    margins = np.einsum("tkd,dk->tk", features, w_star)
    labels = np.where(rng.random((horizon, tasks)) < _sigmoid(margins), 1.0, -1.0)
    return MultitaskStream(
        w_star=w_star, singular_values=sigma.copy(), features=features, labels=labels
    )


def multitask_loss_grad(w, features_t, labels_t):
    """Sum of the per-task logistic losses at round t, and its gradient."""
    m = labels_t * np.einsum("kd,dk->k", features_t, w)
    loss = float(np.sum(np.logaddexp(0.0, -m)))
    return loss, features_t.T * (-labels_t * _sigmoid(-m))


def multitask_loss(w, features_t, labels_t) -> float:
    """Sum of the per-task logistic losses at round t."""
    return multitask_loss_grad(w, features_t, labels_t)[0]


def multitask_grad(w, features_t, labels_t) -> np.ndarray:
    return multitask_loss_grad(w, features_t, labels_t)[1]


@dataclass(frozen=True)
class BlackboxComposite:
    """Hinge over convex quadratics plus an elastic-net term.

    The smooth(ish) part is ``max(max_j q_j(x), -kappa)`` with
    ``q_j(x) = 0.5 * ||A_j (x - c_j)||^2 + b_j``; only function values of
    it are exposed to the optimizer, the elastic net is handled in closed
    form by the learners.
    """

    mats: np.ndarray  # (pieces, dim, dim)
    centers: np.ndarray  # (pieces, dim)
    offsets: np.ndarray  # (pieces,)
    kappa: float
    reg: CompositeRegularizer

    def piece_values(self, x) -> np.ndarray:
        """Values ``q_j(x)`` of the pieces: shape ``(pieces,)`` for one point
        ``(d,)``, ``(n, pieces)`` for a stack of points ``(n, d)``."""
        t = np.einsum("pij,...pj->...pi", self.mats, x[..., None, :] - self.centers)
        return 0.5 * np.add.reduce(t * t, axis=-1) + self.offsets

    def smooth(self, x):
        """Black-box part: max of the quadratic pieces, hinged at -kappa.

        One point ``(d,)`` gives a float; a stack of points ``(n, d)`` gives
        their ``n`` values as an array, each equal bit for bit to the value
        of its row alone.  The two-point estimator evaluates its ``b + 1``
        points as one stack, so a round pays one call instead of ``b + 1``.
        The ufuncs and methods are called directly (``t * t``,
        ``np.add.reduce``, ``.max``) rather than through the ``**``,
        ``np.sum`` and ``np.max`` wrappers; the floating-point operations,
        and so the values, are the same.
        """
        x = np.asarray(x, dtype=float)
        values = np.maximum(self.piece_values(x).max(axis=-1), -self.kappa)
        return float(values) if x.ndim == 1 else values

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return (
            self.smooth(x)
            + self.reg.l1 * float(np.sum(np.abs(x)))
            + 0.5 * self.reg.l2 * float(np.dot(x, x))
        )


def gen_blackbox_problem(
    dim: int, rng: np.random.Generator, pieces: int = 3, kappa: float = 0.5
) -> BlackboxComposite:
    mats = rng.standard_normal((pieces, dim, dim)) / np.sqrt(dim)
    centers = 0.5 * rng.uniform(-1.0, 1.0, size=(pieces, dim))
    offsets = rng.uniform(-0.8, -0.2, size=pieces)
    return BlackboxComposite(
        mats=mats,
        centers=centers,
        offsets=offsets,
        kappa=kappa,
        reg=CompositeRegularizer(l1=0.5, l2=0.5),
    )
