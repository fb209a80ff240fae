"""A logistic or multitask stream drawn whole, as the one block of a budget that holds it."""

# more bytes of features than any stream of the tests holds
WHOLE_STREAM = 2**40


def whole_stream(blocks, *args):
    """The stream of ``blocks(*args)`` (``streams.logistic_blocks`` or ``multitask_blocks``) as
    its one block: the truth (``w_star``, then for multitask its singular values), then the
    features, the labels and ``w_star``'s losses."""
    *truth, stream = blocks(*args, budget=WHOLE_STREAM)
    (block,) = stream
    return (*truth, *block)
