import math

import numpy as np
import pytest

from wulffsym.quad import legendre_rule, panel_cumulative


def test_legendre_rule_is_cached_and_read_only():
    x, w = legendre_rule(37)
    again = legendre_rule(37)
    assert again[0] is x and again[1] is w
    want_x, want_w = np.polynomial.legendre.leggauss(37)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_panel_cumulative_is_compensated():
    # one large panel then 1e5 small ones: each 1e-9 is below half an ulp
    # of 1e8, so a plain running sum ends 1e-4 short of the exact prefix
    heights = np.concatenate([[1e8], np.full(100_000, 1e-9)])
    grid = np.arange(heights.size + 1, dtype=float)
    got = panel_cumulative(lambda s: heights[s.astype(int)], grid)
    idx = np.append(np.arange(0, grid.size, 997), grid.size - 1)
    want = np.array([math.fsum(heights[:i]) for i in idx])
    assert np.max(np.abs(got[idx] - want)) <= 4.0 * np.spacing(want[-1])
