"""Quadrature building blocks: cached Gauss-Legendre rules, panel rules,
the barycentric differentiation and interpolation matrices of the level
rule, and rowsum and colwise, the n-axis sum and products of the sampling
and polar paths."""

import math
from functools import lru_cache

import numpy as np

_PANEL_ORDER = 15


@lru_cache(maxsize=None)
def legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def rowsum(a):
    """np.sum(a, axis=-1), bit for bit, without a reduction on short axes.

    np.sum adds a last axis shorter than 8 in order, starting from +0.0
    (so a row of -0.0 sums to +0.0); rowsum adds the same components in
    the same order, and hands longer axes to np.sum.
    """
    a = np.asarray(a)
    if not 0 < a.shape[-1] < 8:
        return np.sum(a, axis=-1)
    out = 0.0 + a[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def colwise(op, a, v, shift=None):
    """op(a, v[..., None]) bit for bit, plus the n-vector ``shift`` if one
    is given, one column of a (..., n) at a time (numpy runs a broadcast
    against a short last axis n elements per inner loop); v broadcasts
    against a[..., 0]."""
    out = np.empty(np.broadcast_shapes(a.shape[:-1], np.shape(v))
                   + a.shape[-1:])
    for j in range(a.shape[-1]):
        op(a[..., j], v, out=out[..., j])
        if shift is not None:
            out[..., j] += shift[j]
    return out


def chunked(n_total: int, chunk: int):
    """Yield (start, stop) index pairs covering range(n_total)."""
    for start in range(0, n_total, chunk):
        yield start, min(start + chunk, n_total)


def panel_cumulative(f, grid):
    """Cumulative integral of a callable along an increasing grid.

    Returns G with G[i] = integral of f from grid[0] to grid[i], computed
    with a fixed-order Gauss rule per panel and a compensated running sum:
    np.cumsum plus the running sum of its additions' exact rounding errors
    (Knuth's TwoSum), so long grids of small panels keep full precision.
    """
    grid = np.asarray(grid, dtype=float)
    x, w = legendre_rule(_PANEL_ORDER)
    lo = grid[:-1]
    half = 0.5 * np.diff(grid)
    nodes = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
    vals = f(nodes.reshape(-1)).reshape(nodes.shape)
    panel = half * (vals @ w)
    acc = np.cumsum(panel)
    back = acc[1:] - acc[:-1]
    err = (acc[:-1] - (acc[1:] - back)) + (panel[1:] - back)
    out = np.zeros(grid.shape[0])
    out[1:] = acc
    out[2:] += np.cumsum(err)
    return out


def _barycentric(x):
    """Gaps x_i - x_j (1 on the diagonal) and barycentric weights
    b_j = 1 / prod_{l != j} c (x_j - x_l) of distinct nodes x: the scale
    c = 4 / (max x - min x) keeps the products near 1 on Gauss-like nodes."""
    gaps = x[:, None] - x[None, :] + np.eye(x.size)
    return gaps, 1.0 / np.prod(4.0 / (np.max(x) - np.min(x)) * gaps, axis=1)


def diff_matrix(x):
    """The differentiation matrix D of the polynomials on distinct nodes x,
    (D @ p(x))[i] = p'(x[i]): D_ij = (b_j / b_i) / (x_i - x_j), D_ii =
    -sum_{j != i} D_ij."""
    gaps, b = _barycentric(x)
    d = b / b[:, None] / gaps
    np.fill_diagonal(d, 1.0 - np.sum(d, axis=1))
    return d


def interp_matrix(x, y):
    """The matrix P of the polynomials on distinct nodes x at points y off
    them, (P @ p(x))[i] = p(y[i]), by the second barycentric formula."""
    c = _barycentric(x)[1] / (y[:, None] - x)
    return c / np.sum(c, axis=1, keepdims=True)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
