"""Property: the stacked multitask oracle gives each row the bits of the lone oracle.

``multitask_loss_grad.rows`` scores a stack of rounds in one call.  Each row's loss must
have the ``repr`` and its gradient the bytes of :func:`multitask_loss_grad` called on that
row alone, over stacks of 1-12 rows, up to 20 tasks (past the 8 terms numpy's pairwise sum
adds in one block, and past ``dim`` when ``dim`` is small), up to 200 features, and margins
up to about ``1e3`` and beyond, where the sigmoid saturates.  No call runs under a test's
own ``np.errstate``, so a floating-point warning fails the test.
"""

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from expopt.harness.streams import multitask_loss_grad


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(
    rows=st.integers(1, 12),
    dim=st.integers(1, 200),
    tasks=st.integers(1, 20),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=12, dim=3, tasks=20, scale=1e3, seed=1)  # tasks > 8 and > dim, saturated
@example(rows=1, dim=200, tasks=9, scale=1.0, seed=2)
def test_each_row_of_the_stacked_oracle_is_the_lone_call(rows, dim, tasks, scale, seed):
    rng = np.random.default_rng(seed)
    w = scale * rng.standard_normal((rows, dim, tasks))
    features = rng.uniform(-1.0, 1.0, size=(rows, tasks, dim))
    labels = np.where(rng.random((rows, tasks)) < 0.5, 1.0, -1.0)
    losses, grads = multitask_loss_grad.rows(w, features, labels)
    assert losses.shape == (rows,) and grads.shape == (rows, dim, tasks)
    for j, loss in enumerate(losses.tolist()):
        alone, grad = multitask_loss_grad(w[j], features[j], labels[j])
        assert repr(loss) == repr(alone)
        assert grads[j].tobytes() == grad.tobytes()
