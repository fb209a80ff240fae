"""The logistic and multitask streams drawn in blocks, and the trial loop that plays them.

A trial draws its data a block of rounds at a time and every algorithm
plays a block's rounds before the next block is drawn, so a trial holds a
block or two of features instead of the whole (horizon, dim) matrix, or
(horizon, tasks, dim) array.  The rows, labels and comparator losses are
those of one call that draws everything, bit for bit.
"""

import dataclasses
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from expopt import NumericRangeError
from expopt.harness import ExperimentSpec, TrialFailure, registry, run_experiment, streams
from expopt.harness.streams import BLOCK_BYTES, _fixed_order_dot, _sigmoid, logistic_blocks
from expopt.harness.streams import multitask_blocks
from whole_stream import WHOLE_STREAM


def materialised(dim, horizon, sparsity, seed):
    """``(w_star, features, labels, comparator losses)``, each drawn in one call.

    One row's margin is the fixed-order dot, whose bits do not depend on the
    BLAS threads; from two rows on, one-thread bits are the reference.
    """
    rng = np.random.default_rng(seed)
    nnz = int(np.ceil(round((1.0 - sparsity) * dim, 9)))
    w_star = np.zeros(dim)
    support = rng.choice(dim, size=nnz, replace=False)
    w_star[support] = rng.uniform(-1.0, 1.0, size=nnz)
    features = rng.uniform(-1.0, 1.0, size=(horizon, dim))
    xw = features @ w_star if horizon != 1 else np.array([_fixed_order_dot(features[0], w_star)])
    labels = np.where(rng.random(horizon) < _sigmoid(xw), 1.0, -1.0)
    return w_star, features, labels, np.logaddexp(0.0, -(labels * xw))


def block_rows(dim):
    """Rows in a full logistic block at ``dim``, read off the first block of a long stream."""
    _, blocks = logistic_blocks(dim, 10**6, 0.5, np.random.default_rng(0))
    return len(next(blocks)[0])


def joined(dim, horizon, sparsity, seed, budget):
    """:func:`materialised`, from the blocks of :func:`logistic_blocks` within ``budget``."""
    rng = np.random.default_rng(seed)
    w_star, blocks = logistic_blocks(dim, horizon, sparsity, rng, budget)
    blocks = list(blocks)
    assert all(len(x) % 4 == 0 for x, _, _ in blocks[:-1])
    assert budget != WHOLE_STREAM or len(blocks) == 1
    return (w_star, *(np.concatenate(column) for column in zip(*blocks)))


@pytest.mark.parametrize("dim", [5, 2000, 20_000])
def test_a_block_is_a_multiple_of_4_rows_within_the_byte_budget(dim):
    rows = block_rows(dim)
    assert rows % 4 == 0 and rows * dim * 8 <= BLOCK_BYTES < (rows + 4) * dim * 8


@pytest.mark.parametrize("dim", [5, 2000, 20_000])
@pytest.mark.parametrize(
    "blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (0, 61)],
    ids=["0", "1", "block-1", "block", "block+1", "61"],
)
# the blocks of the default budget give the reference's bits at either thread count; the one
# block of the whole stream gives them at one thread (a gemv of that many rows may not at two)
@pytest.mark.parametrize("budget,thread_counts", [(BLOCK_BYTES, (1, 2)), (WHOLE_STREAM, (1,))],
                         ids=["default", "whole"])
def test_blocks_are_the_materialised_stream_bit_for_bit(
    pin_blas, dim, blocks, extra, budget, thread_counts
):
    horizon = blocks * block_rows(dim) + extra
    seed = dim + horizon
    pin_blas(1)
    ref = materialised(dim, horizon, 0.99, seed)
    for threads in thread_counts:
        pin_blas(threads)
        got = joined(dim, horizon, 0.99, seed, budget)
        for want, have in zip(ref, got):
            assert want.shape == have.shape
            assert want.tobytes() == have.tobytes()


def test_a_lone_last_row_joins_the_block_before_it():
    rng, block = np.random.default_rng(0), block_rows(20_000)
    for horizon, sizes in [(0, [0]), (1, [1]), (block + 1, [block + 1]),
                           (2 * block + 2, [block, block, 2])]:
        _, blocks = logistic_blocks(20_000, horizon, 0.5, rng)
        assert [len(x) for x, _, _ in blocks] == sizes


def test_a_logistic_run_holds_blocks_not_the_stream():
    dim, horizon = 20_000, 400
    spec = ExperimentSpec(kind="logistic", dim=dim, horizon=horizon, trials=1,
                          algorithms=("exp_md",), seed=7)
    tracemalloc.start()
    try:
        records, failures = run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == horizon and not failures
    # the feature matrix alone would take horizon * dim * 8 bytes
    assert peak < horizon * dim * 8 / 8


def test_the_trials_of_a_logistic_run_share_the_block_budget():
    dim, horizon, trials = 20_000, 400, 4
    spec = ExperimentSpec(kind="logistic", dim=dim, horizon=horizon, trials=trials,
                          algorithms=("exp_md",), seed=7)
    tracemalloc.start()
    try:
        records, failures = run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == trials * horizon and not failures
    # the bound of one trial: the trials advance together on one budget of blocks
    assert peak < horizon * dim * 8 / 8


def test_a_failure_inside_a_block_leaves_the_other_run_untouched(monkeypatch):
    dim = 20_000
    block = block_rows(dim)
    spec = ExperimentSpec(kind="logistic", dim=dim, horizon=3 * block, trials=1,
                          algorithms=("exp_md", "adagrad"), seed=5)
    alone = {name: run_experiment(dataclasses.replace(spec, algorithms=(name,)))[0]
             for name in spec.algorithms}
    build, steps = registry.build_vector_learner, []

    def failing_at_block_plus_3(name, *args):
        learner = build(name, *args)
        step, calls = learner.step, itertools.count(1)

        def logged_step(g, *a, **k):
            steps.append(name)
            if name == "adagrad" and next(calls) == block + 3:
                raise NumericRangeError("injected")
            return step(g, *a, **k)

        learner.step = logged_step
        return learner

    monkeypatch.setattr(registry, "build_vector_learner", failing_at_block_plus_3)
    records, failures = run_experiment(spec)
    rows = {name: [r for r in records if r.algorithm == name] for name in spec.algorithms}
    assert failures == [TrialFailure("adagrad", 0, block + 3, "injected")]
    assert [r.round for r in rows["adagrad"]] == list(range(1, block + 3))
    assert [repr(r) for r in rows["adagrad"]] == [repr(r) for r in alone["adagrad"][: block + 2]]
    assert [repr(r) for r in rows["exp_md"]] == [repr(r) for r in alone["exp_md"]]
    # each algorithm plays a block's rounds before the other starts it
    assert steps == ["exp_md"] * block + ["adagrad"] * block + ["exp_md"] * block + [
        "adagrad"] * 3 + ["exp_md"] * block


def materialised_multitask(dim, tasks, rank, horizon, seed):
    """``(w_star, sigma, features, labels, comparator losses)``, each drawn in one call."""
    rng = np.random.default_rng(seed)
    u, v = (q * np.sign(np.diag(r)) for q, r in (
        np.linalg.qr(rng.standard_normal((k, k))) for k in (dim, tasks)))
    sigma = np.zeros(tasks)
    sigma[:rank] = rng.uniform(0.0, 10.0, size=rank)
    w_star = (u[:, :tasks] * sigma) @ v
    features = rng.uniform(-1.0, 1.0, size=(horizon, tasks, dim))
    xw = np.einsum("tkd,dk->tk", features, w_star)
    labels = np.where(rng.random((horizon, tasks)) < _sigmoid(xw), 1.0, -1.0)
    comp_losses = np.sum(np.logaddexp(0.0, -(labels * xw)), axis=1)
    return w_star, sigma, features, labels, comp_losses


@pytest.mark.parametrize("dim,tasks,rank", [(20, 5, 2), (6, 3, 3), (7, 1, 1)])
@pytest.mark.parametrize("horizon", [0, 1, 1000])
@pytest.mark.parametrize("rows", [1, 7, None, "whole"], ids=["1", "7", "default", "whole"])
def test_multitask_blocks_are_the_materialised_stream_bit_for_bit(dim, tasks, rank, horizon, rows):
    seed = dim + horizon
    ref = materialised_multitask(dim, tasks, rank, horizon, seed)
    budget = {None: BLOCK_BYTES, "whole": WHOLE_STREAM}.get(rows) or rows * 8 * tasks * dim
    w_star, sigma, blocks = multitask_blocks(dim, tasks, rank, horizon,
                                             np.random.default_rng(seed), budget)
    blocks = list(blocks)
    # at 7 rows, 1000 rounds end in a partial block of 6
    assert [len(f) for f, _, _ in blocks] == (
        [min(horizon, len(blocks[0][0]))] * (len(blocks) - 1) + [len(blocks[-1][0])]
    )
    if rows == 7 and horizon == 1000:
        assert len(blocks[-1][0]) == 6
    assert rows != "whole" or len(blocks) == 1
    got = (w_star, sigma, *(np.concatenate(column) for column in zip(*blocks)))
    for want, have in zip(ref, got):
        assert want.shape == have.shape and want.tobytes() == have.tobytes()


def test_the_trials_of_a_multitask_run_share_the_block_budget():
    dim, tasks, horizon, trials = 200, 20, 300, 20
    spec = ExperimentSpec(kind="multitask", dim=dim, tasks=tasks, rank=2, horizon=horizon,
                          trials=trials, algorithms=("adagrad",), sparsity=0.0, seed=7)
    tracemalloc.start()
    try:
        records, failures = run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == trials * horizon and not failures
    # the trials together hold less than one trial's whole stream of features, learners and
    # records included (traced peak 7.2 MB of 9.6; 11.1 MB when each trial draws it whole)
    assert peak < horizon * tasks * dim * 8


@pytest.mark.parametrize("trials", [1, 2, 20])
def test_multitask_trials_hold_a_quarter_of_one_stream_at_most(monkeypatch, trials):
    dim, tasks, horizon = 20, 5, 200
    spec = ExperimentSpec(kind="multitask", dim=dim, tasks=tasks, rank=2, horizon=horizon,
                          trials=trials, algorithms=("adagrad",), sparsity=0.0, seed=3)
    real, rows = streams.multitask_blocks, []

    def spy(*args):
        w_star, sigma, blocks = real(*args)
        return w_star, sigma, (rows.append(len(block[0])) or block for block in blocks)

    monkeypatch.setattr(streams, "multitask_blocks", spy)
    records, _ = run_experiment(spec)
    assert len(records) == trials * horizon and sum(rows) == trials * horizon
    # 50 rounds a block for one trial, 25 for two, 2 for twenty
    assert trials * max(rows) * 8 * tasks * dim <= horizon * tasks * dim * 8 // 4
    assert max(rows) == horizon // 4 // trials


@pytest.mark.parametrize("chained", [False, True])
def test_a_failed_run_leaves_no_cycle_that_holds_its_block(monkeypatch, chained):
    # eg_pm's 3rd oracle call fails; with the collector off, only references free a block
    spec = ExperimentSpec(kind="logistic", dim=2000, horizon=2000, trials=1,
                          algorithms=("eg_pm", "exp_md"), seed=1)
    draw, oracle, calls = streams.logistic_blocks, streams.logistic_loss_grad, itertools.count(1)
    first, alive = [], []

    def spied_blocks(*args):
        w_star, blocks = draw(*args)

        def spied():
            for k, block in enumerate(blocks):
                if k == 0:
                    first.append(weakref.ref(block[0]))
                elif k > 1:  # every run has left the first block by the third
                    alive.append(first[0]() is not None)
                yield block

        return w_star, spied()

    def failing_oracle(w, x, y):
        if next(calls) == 3:
            if not chained:
                raise np.linalg.LinAlgError("injected")
            try:  # as the floating-point guard raises
                raise FloatingPointError("overflow")
            except FloatingPointError as err:
                raise NumericRangeError("injected") from err
        return oracle(w, x, y)

    monkeypatch.setattr(streams, "logistic_blocks", spied_blocks)
    monkeypatch.setattr(streams, "logistic_loss_grad", failing_oracle)
    enabled = gc.isenabled()
    gc.disable()
    try:
        records, failures = run_experiment(spec)
        assert [(f.algorithm, f.round, f.error) for f in failures] == [("eg_pm", 3, "injected")]
        assert len(records) == 2 + spec.horizon
        assert len(alive) > 2 and not any(alive)
    finally:
        if enabled:
            gc.enable()
