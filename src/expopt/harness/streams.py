"""Synthetic data generators and their loss oracles.

Three problem families, all deterministic given a numpy Generator:

* sparse online logistic regression (uniform features, logit labels),
* online multitask logistic regression with a low-rank parameter matrix,
* a black-box composite: a hinge over convex quadratics plus elastic net,
  standing in for expensive model-specific losses.

The logistic and multitask streams are drawn a block of rounds at a time;
a budget that holds a whole stream draws it as one block.  Each loss is an
oracle: the loss and its gradient from one call.

The multitask loss also has a stacked form, ``multitask_loss_grad.rows``,
which scores the rounds of a stack of runs in one call, each row bit for
bit the lone call.  The logistic loss has none: at 2-4 rows, the stacks of
the two-trial logistic benchmark workloads, a stacked tail costs more than
the lone calls it replaces.  The black-box smooth part takes any stack of
points, so one call scores the estimator points of a whole stack of runs on
one problem, each value the bits of its point alone; its objective has a
form from a smooth value already held, ``objective.from_smooth``.
"""

import copy
from dataclasses import dataclass

import numpy as np

from ..prox import CompositeRegularizer

__all__ = [
    "BlackboxComposite",
    "logistic_blocks",
    "multitask_blocks",
    "gen_blackbox_problem",
    "logistic_loss_grad",
    "multitask_loss_grad",
]


def _sigmoid(m):
    # exp(-|m|), never above 1; np.minimum returns a NaN m itself, so a NaN keeps its sign
    e = np.exp(np.minimum(m, -m))
    return np.where(m >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_scalar(m: float) -> float:
    """:func:`_sigmoid` of one float, bit for bit.

    It goes through the same ``np.exp``; ``math.exp`` rounds differently.
    """
    if m >= 0:
        return 1.0 / (1.0 + float(np.exp(-m)))
    em = float(np.exp(m))
    return em / (1.0 + em)


# Feature bytes of the logistic blocks a spec holds at once, shared by its trials,
# which advance together: 16 rows at d=20000 and 640 at d=500 for one trial, 8 and
# 320 rows each for two.  The runs switch learners at each block, which cost 8% of
# d=500 throughput at 16 rows.
BLOCK_BYTES = 2_560_000


def logistic_blocks(
    dim: int, horizon: int, sparsity: float, rng: np.random.Generator, budget: int = BLOCK_BYTES
):
    """``(w_star, blocks)``: a sparse logit stream of ``horizon`` rounds in ``dim`` features,
    drawn a block of rows at a time.

    ``w_star`` has ``ceil((1 - sparsity) * dim)`` nonzero coordinates, at places drawn without
    replacement, each uniform on [-1, 1].  A round's features ``x`` are uniform on [-1, 1], and
    its label is +1 with probability ``sigmoid(w_star . x)``, else -1.  ``blocks`` yields
    ``(features, labels, w_star's losses)``.  Labels come from a copy of ``rng`` advanced past
    the ``horizon * dim`` feature draws, so every budget draws the same features and, at one
    BLAS thread, the same labels and losses, bit for bit; on more threads a gemv of more rows
    than the default budget's may sum in another order.  The drawn blocks leave ``rng`` past
    the features, where the labels' draws begin.  A block is the most rows within ``budget``
    bytes of features, a multiple of 4 and at least 4: OpenBLAS's gemv groups rows by 4 and
    takes ddot for one row, so a lone last row joins the block before it, and the one row of a
    horizon-1 stream takes :func:`_fixed_order_dot`.  A budget of ``8 * dim * (horizon + 2)``
    bytes or more draws the stream as one block.
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
    rows = 4 * max(budget // (32 * dim), 1)
    stops = [*range(rows, horizon - 1, rows), horizon]  # one block, empty, at horizon 0

    def blocks():
        for start, stop in zip([0, *stops], stops):
            features = rng.uniform(-1.0, 1.0, size=(stop - start, dim))
            if stop - start == 1:  # horizon 1: not ddot, whose bits depend on the BLAS threads
                margins = np.array([_fixed_order_dot(features[0], w_star)])
            else:
                margins = features @ w_star
            labels = np.where(label_rng.random(stop - start) < _sigmoid(margins), 1.0, -1.0)
            yield features, labels, np.logaddexp(0.0, -(labels * margins))

    return w_star, blocks()


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


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def multitask_blocks(
    dim: int, tasks: int, rank: int, horizon: int, rng: np.random.Generator,
    budget: int = BLOCK_BYTES,
):
    """``(w_star, singular_values, blocks)``: a stream of ``horizon`` rounds of ``tasks``
    correlated logit tasks in ``dim`` features, drawn a block of rounds at a time.

    ``w_star = U diag(sigma) V`` (``dim x tasks``; task ``k``'s parameter is its column ``k``)
    has exact rank ``rank``.  ``U`` and ``V`` are random orthogonal.  ``singular_values``, the
    ``sigma``, has ``tasks`` entries: the first ``rank`` uniform on [0, 10], the rest 0, and
    the first ``min(dim, tasks)`` are ``w_star``'s spectrum.  A round's features are ``(tasks,
    dim)``, uniform on [-1, 1]; task ``k``'s label is +1 with probability ``sigmoid(w_k . x_k)``
    for ``w_k = w_star[:, k]``, else -1.  ``blocks`` yields ``(features, labels, w_star's
    losses)`` of the most rounds within ``budget`` bytes of features, at least one, so a budget
    of ``8 * horizon * tasks * dim`` bytes or more draws the stream as one block.  Labels come
    from a copy of ``rng`` advanced past the ``horizon * tasks * dim`` feature draws, so every
    budget gives the same stream, bit for bit; the drawn blocks leave ``rng`` past the
    features, where the labels' draws begin.  A round's loss is the sum of its tasks' losses,
    from the margins that drew its labels.
    """
    if rank > min(dim, tasks):
        raise ValueError("rank cannot exceed min(dim, tasks)")
    u = _random_orthogonal(dim, rng)
    v = _random_orthogonal(tasks, rng)
    sigma = np.zeros(tasks)
    sigma[:rank] = rng.uniform(0.0, 10.0, size=rank)
    k = min(dim, tasks)
    w_star = (u[:, :k] * sigma[:k]) @ v[:k]
    label_rng = copy.deepcopy(rng)
    label_rng.bit_generator.advance(horizon * tasks * dim)
    rows = max(budget // (8 * tasks * dim), 1)
    stops = [*range(rows, horizon, rows), horizon]  # one block, empty, at horizon 0

    def blocks():
        for start, stop in zip([0, *stops], stops):
            features = rng.uniform(-1.0, 1.0, size=(stop - start, tasks, dim))
            margins = np.einsum("tkd,dk->tk", features, w_star)
            labels = np.where(label_rng.random(margins.shape) < _sigmoid(margins), 1.0, -1.0)
            yield features, labels, np.sum(np.logaddexp(0.0, -(labels * margins)), axis=1)

    return w_star, sigma, blocks()


def multitask_loss_grad(w, features_t, labels_t):
    """Sum of the per-task logistic losses at round t, and its gradient.

    ``multitask_loss_grad.rows`` is its stacked form: ``(rows, d, k)`` decisions, ``(rows, k,
    d)`` features and ``(rows, k)`` labels give ``(rows,)`` losses and ``(rows, d, k)``
    gradients, each row bit for bit this function's on it, from one call.
    """
    m = labels_t * np.einsum("kd,dk->k", features_t, w)
    loss = float(np.sum(np.logaddexp(0.0, -m)))
    return loss, features_t.T * (-labels_t * _sigmoid(-m))


def _multitask_loss_grad_rows(w, features, labels):
    # each row's own einsum over d; ``np.add.reduce`` sums each row's tasks as ``np.sum`` sums
    # one round's
    m = labels * np.einsum("rkd,rdk->rk", features, w)
    losses = np.add.reduce(np.logaddexp(0.0, -m), axis=1)
    return losses, features.transpose(0, 2, 1) * (-labels * _sigmoid(-m))[:, None, :]


multitask_loss_grad.rows = _multitask_loss_grad_rows


def _from_smooth(problem, x, value) -> float:
    """The objective of ``problem`` at one point ``x`` whose smooth part is ``value``."""
    x = np.asarray(x, dtype=float)
    return value + problem.reg.l1 * float(np.sum(np.abs(x))) + 0.5 * problem.reg.l2 * float(
        np.dot(x, x))


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
        """``smooth(x)`` plus the elastic net at ``x``.  ``objective.from_smooth(problem, x,
        value)`` is the same from ``value = smooth(x)``, for a caller that holds that value."""
        x = np.asarray(x, dtype=float)
        return _from_smooth(self, x, self.smooth(x))

    objective.from_smooth = _from_smooth


def gen_blackbox_problem(dim: int, rng: np.random.Generator) -> BlackboxComposite:
    """Three quadratic pieces hinged at -0.5 (``kappa``), plus elastic net ``l1 = l2 = 0.5``."""
    mats = rng.standard_normal((3, dim, dim)) / np.sqrt(dim)
    centers = 0.5 * rng.uniform(-1.0, 1.0, size=(3, dim))
    offsets = rng.uniform(-0.8, -0.2, size=3)
    return BlackboxComposite(
        mats=mats,
        centers=centers,
        offsets=offsets,
        kappa=0.5,
        reg=CompositeRegularizer(l1=0.5, l2=0.5),
    )
