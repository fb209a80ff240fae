"""Host-speed probe: a fixed piece of work, timed in a fresh interpreter.

The benchmark runs this script before and after every timed CLI run and
every setup probe.  It does the same kind of work a CLI run does (start an
interpreter, import numpy, then a loop of interpreter-bound Python mixed
with small numpy kernels: exp/dot/logaddexp on 500-vectors, a sort of
20000 values, a thin SVD of a 20x5 matrix), but its amount never changes,
because it is part of the benchmark, not of the program.  Its time
therefore measures only how fast the host is running at that moment, and
``run.py`` divides it out of the neighbouring timings (see ``host_factor``
there).

    python3 perfbench/calibrate.py
"""

import numpy as np

ROUNDS = 2500


def step(state, x, m, big):
    y = np.exp(x - x.max())
    c = np.logaddexp.accumulate(np.sort(np.abs(x)))
    state["acc"] += float(np.dot(y, x)) + float(c[-1])
    state["acc"] += float(np.linalg.svd(m, compute_uv=False)[0])
    for j in range(40):
        state["acc"] += (j * 0.5) ** 2 % 7
    if state["n"] % 50 == 0:
        state["acc"] += float(np.sort(big)[len(big) // 2])
    state["n"] += 1


def main():
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(500)
    m = rng.standard_normal((20, 5))
    big = rng.standard_normal(20000)
    state = {"acc": 0.0, "n": 0}
    for _ in range(ROUNDS):
        step(state, x, m, big)
    print(f"{state['acc']:.6f}")


if __name__ == "__main__":
    main()
