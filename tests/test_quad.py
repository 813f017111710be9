import functools
import math
import operator

import numpy as np
import pytest

from wulffsym.quad import (
    colwise,
    diff_matrix,
    interp_matrix,
    legendre_rule,
    panel_cumulative,
    rowsum,
)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rowsum_is_np_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((6, 5, n)) * 10.0 ** rng.integers(-8, 9, (6, 5, n))
    a[0, 0] = -0.0  # np.sum starts from +0.0: a row of -0.0 sums to +0.0
    a[1, 0, 0] = np.inf
    a[1, 1, -1] = -np.inf
    a[1, 2, 0], a[1, 2, -1] = np.inf, -np.inf
    a[2, 0, -1] = np.nan
    cases = [a, a[..., ::-1], np.asfortranarray(a), a[:, :1],
             np.broadcast_to(a[:1], (3, 5, n)),
             np.broadcast_to(a[0, 0], (4, n)), a[0, 0]]
    with np.errstate(invalid="ignore"):
        for x in cases:
            got, want = rowsum(x), np.sum(x, axis=-1)
            assert np.array_equal(got, want, equal_nan=True)
            # bytes compare the signs of zeros and the nan payloads too
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a sum started from the first component would keep -0.0 there
    assert np.signbit(functools.reduce(operator.add, a[0, 0]))
    assert not np.signbit(rowsum(a[0, 0]))


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_colwise_is_the_broadcast_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    a = rng.standard_normal((6, 5, n)) * 10.0 ** rng.integers(-8, 9, (6, 5, n))
    v = rng.standard_normal((4, 6, 5)) * 10.0 ** rng.integers(-8, 9, (4, 6, 5))
    a[0, 0] = -0.0
    v[0, 0, 0] = 0.0
    shift = rng.standard_normal(n)
    cases = [(a, v), (a[..., ::-1], v[0]), (a[0], v[..., 0, :]),
             (np.broadcast_to(a[0, 0], (5, n)), v[1, 0]),
             (a[0, 0], v[0, 0, 0]), (a, 2.5)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, y in cases:
            for op in (np.multiply, np.divide, np.add):
                want = op(x, np.asarray(y)[..., None])
                got = colwise(op, x, y)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            want = shift + np.asarray(y)[..., None] * x
            got = colwise(np.multiply, x, y, shift)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [1e-3, 2.0, 1e3])
def test_diff_matrix_on_the_level_rule_nodes(length):
    # the level rule's nodes, up to 399 Gauss nodes of [0, length] and the
    # end: every weight product stays finite, the matrix differentiates a
    # polynomial of lower degree to rounding, and its rows sum to zero
    for count in (9, 149, 399):
        x, _ = legendre_rule(count)
        s = np.append(0.5 * length * (x + 1.0), length)
        d = diff_matrix(s)
        assert np.all(np.isfinite(d))
        y = s / length
        got = d @ (y ** 3 - 2.0 * y) * length
        # rounding of ~N^2 eps per unit of the values, at the end rows
        assert np.max(np.abs(got - (3.0 * y ** 2 - 2.0))) < 1e-13 * count ** 2
        rows = np.abs(d @ np.ones_like(s)) * length
        assert np.max(rows) < 1e-13 * count ** 2


@pytest.mark.parametrize("length", [1e-3, 2.0, 1e3])
def test_interp_matrix_on_the_level_rule_nodes(length):
    # the level rule's nodes, up to 399 Gauss nodes of [0, length] and the
    # end, with a low, a middle and the end node taken out: the matrix
    # carries a polynomial of lower degree to the nodes taken out, and its
    # rows sum to one, to rounding of ~N^2 eps
    for count in (9, 149, 399):
        x, _ = legendre_rule(count)
        s = np.append(0.5 * length * (x + 1.0), length)
        out = np.isin(np.arange(s.size), [1, count // 2, count])
        p = interp_matrix(s[~out], s[out])
        assert np.all(np.isfinite(p))
        y = s / length
        got = p @ (y[~out] ** 3 - 2.0 * y[~out])
        want = y[out] ** 3 - 2.0 * y[out]
        assert np.max(np.abs(got - want)) < 1e-15 * count ** 2
        rows = p @ np.ones(np.sum(~out))
        assert np.max(np.abs(rows - 1.0)) < 1e-15 * count ** 2
