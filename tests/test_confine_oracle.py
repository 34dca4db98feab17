"""The winding repair of the constructive path against the loop it replaces.

`loop_confine` is the original repair loop, kept here as the oracle: it
restarts after every swap and searches the pairs i < j, and each pair's
grid steps, in order for the first floor change of h_i - h_j that is a
winding pass. `cel._confine_branches` must return the same bits
(np.array_equal) and the same swap count.
"""

import numpy as np

from cellab.cel import _confine_branches


def loop_confine(h):
    h = h.copy()
    n, grid = h.shape
    swaps = 0
    max_rounds = 64 * n * n * (2 + int(np.max(np.abs(h))))
    for _ in range(max_rounds):
        found = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                e = h[i] - h[j]
                fl = np.floor(e)
                jumps = np.nonzero(fl[1:] != fl[:-1])[0]
                for k in jumps:
                    k = int(k)
                    m = int(max(fl[k], fl[k + 1]))
                    if m == 0:
                        continue
                    tail = slice(k + 1, grid)
                    hi_tail = h[i, tail].copy()
                    h[i, tail] = h[j, tail] + m
                    h[j, tail] = hi_tail - m
                    swaps += 1
                    found = True
                    break
                if found:
                    break
            if found:
                break
        if not found:
            return h, swaps
    raise ArithmeticError("branch winding repair did not converge")


def random_walk_branches(seed):
    """n in 2..5 branches (units of full turns) on a grid of 17..257 points:
    random walks whose differences cross integer levels many times."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    grid = int(rng.choice([17, 33, 65, 129, 257]))
    steps = rng.normal(0.0, rng.choice([0.05, 0.1, 0.2]), (n, grid))
    steps[:, 0] = rng.uniform(-1.0, 1.0, n)
    return np.cumsum(steps, axis=1)


def test_confine_matches_loop_on_random_walks():
    repaired = 0
    for seed in range(300):
        h = random_walk_branches(seed)
        want_h, want_swaps = loop_confine(h)
        got_h, got_swaps = _confine_branches(h)
        assert np.array_equal(got_h, want_h), seed
        assert got_swaps == want_swaps, seed
        repaired += want_swaps > 0
    assert repaired >= 200

