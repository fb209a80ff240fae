"""A stack of elastic-net prox rows, and of log-domain Lambert solves, gives each row the bits
of its lone call.

A row of a stacked Newton solve leaves the loop at the iteration, and with the value, at which
it leaves it alone: at its own tolerance stop, or at its own two-cycle exit with the value of
that exit's parity.  A stacked prox row with no active entry is ``+0.0`` throughout, since the
lone call returns before it applies the signs.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from expopt import CompositeRegularizer, EntropyParams, elastic_net_prox_from_log
from expopt.lambertw import _MAX_ITER, _w0_log_array
from expopt.learners import _RowParams

# arguments at which the lone Newton loop alternates between two floats and takes its capped
# two-cycle exit (about 1 in 300 of this range)
CYCLING = [float(s) for s in np.linspace(-8.0, -4.0, 4001) if _w0_log_array(s)[1] == _MAX_ITER]
# rows whose lone solve finds its two-cycle only at iteration 9, an odd count short of the
# cap, so that it ends on the previous iterate (8 in 20 000 random rows of a cycling entry and
# two others; every row above finds its cycle at iteration 8 and ends on the last one)
ODD_CYCLES = [
    [-4.774577319102937, -145.08152014475706, 3.3336873414243584],
    [-4.758218716187936, 328.4652990711668, 5.5317335983408995],
    [-5.693637238597516, -115.31431277195111, 3.622101020363317],
    [-4.396548105091084, 599.3163093102605, 3.2252785479267843],
    [-4.619055779604759, 245.3718778951552, 3.4440087336193272],
]

# the shared prox parameters drawn; with beta 0.01, l2 0.02 and alpha 1, ``a*b`` is 2e-4, so a
# row's Lambert arguments reach the cycling range while its entries stay active
BETAS, L1S, L2S = (0.01, 0.2), (0.0, 0.4), (0.0, 0.02, 1.5)


def cycling_log_scales(beta, l1, l2):
    """Log scales whose Lambert argument, formed as the prox forms it at ``alpha = 1``, takes
    the two-cycle exit alone."""
    ab = beta * l2
    found = []
    for s in CYCLING:
        log_scale = s - (np.log(ab) + ab) + l1
        if _w0_log_array(np.log(ab) + ab - (l1 - log_scale))[1] == _MAX_ITER:
            found.append(float(log_scale))
    return found


CYCLING_LOG_SCALES = {(beta, l1): cycling_log_scales(beta, l1, 0.02) for beta in BETAS
                      for l1 in L1S}
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def test_the_drawn_cases_include_two_cycle_exits():
    assert len(CYCLING) >= 5
    assert all(len(found) >= 3 for found in CYCLING_LOG_SCALES.values())


def test_a_cycle_that_ends_on_the_previous_iterate_keeps_that_value_in_a_stack():
    for row in ODD_CYCLES:
        assert _w0_log_array(np.array(row))[1] == _MAX_ITER
    # beside rows that stop at their tolerance and rows that find their cycle at iteration 8
    s = np.array(ODD_CYCLES + [[1.0, 5.0, -300.0], CYCLING[:3], [0.5, 0.25, 700.0]])
    w, its = _w0_log_array(s)
    assert its == _MAX_ITER
    for row, got in zip(s, w):
        assert got.tobytes() == _w0_log_array(row)[0].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_each_row_of_a_stacked_solve_stops_as_alone(data):
    k = data.draw(st.integers(1, 6))
    kinds = data.draw(st.lists(st.sampled_from(["cycling", "wide", "mixed"]), min_size=1,
                               max_size=6))
    entries = {"cycling": st.sampled_from(CYCLING), "wide": st.floats(-800.0, 800.0),
               "mixed": st.one_of(st.sampled_from(CYCLING), st.floats(-30.0, 30.0))}
    s = np.array([data.draw(st.lists(entries[kind], min_size=k, max_size=k)) for kind in kinds])
    ignore = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                         min_size=len(kinds), max_size=len(kinds))))
    w, its = _w0_log_array(s, ignore)
    counts = []
    for row, skip, got in zip(s, ignore, w):
        alone, count = _w0_log_array(row[~skip])
        assert got[~skip].tobytes() == alone.tobytes()
        counts.append(count)
    assert its == max(counts)
    assert _w0_log_array(s)[0].tobytes() == np.array(
        [_w0_log_array(row)[0] for row in s]).tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), beta=st.sampled_from(BETAS), l1=st.sampled_from(L1S),
       l2=st.sampled_from(L2S))
def test_each_row_of_a_stacked_prox_is_its_lone_call(data, beta, l1, l2):
    d = data.draw(st.integers(1, 8))
    kinds = data.draw(st.lists(st.sampled_from(["inactive", "active", "cycling"]), min_size=1,
                               max_size=6))
    alphas, rows = [], []
    for kind in kinds:
        alpha = 1.0 if kind == "cycling" else data.draw(st.floats(0.05, 20.0))
        threshold = l1 / alpha
        if kind == "inactive":  # every entry at or below the threshold
            entry = st.floats(0.0, 1.0).map(lambda u, t=threshold: u * t)
        elif kind == "cycling" and l2 == 0.02:
            entry = st.one_of(st.sampled_from(CYCLING_LOG_SCALES[beta, l1]), st.just(0.0))
        else:
            entry = st.floats(0.0, 60.0)
        alphas.append(alpha)
        rows.append(data.draw(st.lists(entry, min_size=d, max_size=d)))
    log_scale = np.array(rows)
    signs = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1.0, 1.0, 0.0]), min_size=d,
                                                 max_size=d), min_size=len(kinds),
                                        max_size=len(kinds))))
    reg = CompositeRegularizer(l1, l2)
    out = elastic_net_prox_from_log(log_scale, signs, reg,
                                    _RowParams(np.array(alphas)[:, None], beta))
    assert out.shape == log_scale.shape
    for row, sign, alpha, got in zip(log_scale, signs, alphas, out):
        alone = elastic_net_prox_from_log(row, sign, reg, EntropyParams(alpha, beta))
        assert repr(got.tolist()) == repr(alone.tolist())
        assert got.tobytes() == alone.tobytes()


def test_a_row_with_no_active_entry_keeps_its_positive_zeros_beside_an_active_row():
    reg, beta = CompositeRegularizer(0.4, 1.5), 0.2
    log_scale = np.array([[0.1, 0.2, 0.3], [5.0, 0.1, 9.0]])
    signs = -np.ones((2, 3))
    out = elastic_net_prox_from_log(log_scale, signs, reg, _RowParams(np.ones((2, 1)), beta))
    assert out[0].tobytes() == np.zeros(3).tobytes()  # +0.0, where signs * 0.0 is -0.0
    assert np.signbit(out[1]).all()
