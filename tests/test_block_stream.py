"""The logistic stream drawn in blocks, and the trial loop that plays them.

A trial draws its logistic data a block of rows at a time and every algorithm
plays a block's rounds before the next block is drawn, so a trial holds a
block or two of features instead of the whole (horizon, dim) matrix.  The
rows, labels and comparator losses are those of one call that draws
everything, bit for bit.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from expopt import NumericRangeError, cli
from expopt.harness import ExperimentSpec, TrialFailure, gen_logistic_stream, run_experiment
from expopt.harness import registry
from expopt.harness.streams import BLOCK_BYTES, _sigmoid, logistic_blocks


def materialised(dim, horizon, sparsity, seed):
    """``(w_star, features, labels, comparator losses, rng)``, each drawn in one call."""
    rng = np.random.default_rng(seed)
    nnz = int(np.ceil(round((1.0 - sparsity) * dim, 9)))
    w_star = np.zeros(dim)
    support = rng.choice(dim, size=nnz, replace=False)
    w_star[support] = rng.uniform(-1.0, 1.0, size=nnz)
    features = rng.uniform(-1.0, 1.0, size=(horizon, dim))
    xw = features @ w_star
    labels = np.where(rng.random(horizon) < _sigmoid(xw), 1.0, -1.0)
    return w_star, features, labels, np.logaddexp(0.0, -(labels * xw)), rng


def block_rows(dim):
    """Rows in a full logistic block at ``dim``, read off the first block of a long stream."""
    _, blocks = logistic_blocks(dim, 10**6, 0.5, np.random.default_rng(0))
    return len(next(blocks)[0])


def joined(dim, horizon, sparsity, seed):
    """:func:`materialised`, from the blocks of :func:`logistic_blocks`."""
    rng = np.random.default_rng(seed)
    w_star, blocks = logistic_blocks(dim, horizon, sparsity, rng)
    blocks = list(blocks)
    assert all(len(x) % 4 == 0 for x, _, _ in blocks[:-1])
    return (w_star, *(np.concatenate(column) for column in zip(*blocks)))


@pytest.fixture
def pin_blas():
    blas = cli._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    _, get, set_ = blas
    before = get()
    yield set_
    set_(before)


@pytest.mark.parametrize("dim", [5, 2000, 20_000])
def test_a_block_is_a_multiple_of_4_rows_within_the_byte_budget(dim):
    rows = block_rows(dim)
    assert rows % 4 == 0 and rows * dim * 8 <= BLOCK_BYTES < (rows + 4) * dim * 8


@pytest.mark.parametrize("dim", [5, 2000, 20_000])
@pytest.mark.parametrize(
    "blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (0, 61)],
    ids=["0", "1", "block-1", "block", "block+1", "61"],
)
def test_blocks_are_the_materialised_stream_bit_for_bit(pin_blas, dim, blocks, extra):
    horizon = blocks * block_rows(dim) + extra
    seed = dim + horizon
    expected = {}
    for threads in (1, 2):
        pin_blas(threads)
        expected[threads] = materialised(dim, horizon, 0.99, seed)
    for threads in (1, 2):
        pin_blas(threads)
        # above 10 000 elements OpenBLAS splits a one-row product (ddot) across
        # threads, in one call as in a block; from two rows on, the blocks give
        # the one-thread bits at either thread count (one call may not)
        ref = expected[threads if horizon == 1 else 1]
        got = joined(dim, horizon, 0.99, seed)
        for want, have in zip(ref[:4], got[:4]):
            assert want.shape == have.shape
            assert want.tobytes() == have.tobytes()
        rng = np.random.default_rng(seed)
        stream = gen_logistic_stream(dim, horizon, 0.99, rng)
        assert stream.features.tobytes() == got[1].tobytes()
        assert stream.labels.tobytes() == got[2].tobytes()
        assert rng.bit_generator.state == ref[4].bit_generator.state


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
