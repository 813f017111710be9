import numpy as np
import pytest

from wulffsym.quad import legendre_rule


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
