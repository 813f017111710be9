import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wulffsym.anisotropy import euclidean_norm
from wulffsym.bodies import (
    LevelTable,
    mean_radius,
    mixed_volume,
    sample_level_set,
)
from wulffsym.errors import CostGuardError, DomainError
from wulffsym.field_ops import hessian_integral_coarea, level_curvature
from wulffsym.fields import quadratic_ellipsoid
from wulffsym.invariants import (
    generalized_kronecker,
    mixed_discriminant,
    newton_transform,
    newton_transform_delta_oracle,
    sigma_k,
    sk,
    sk_delta_oracle,
    sk_stack,
)
from wulffsym.radial import (
    MonotoneProfile,
    radial_energy,
    radial_sk,
    radial_sk_origin,
    solve_radial,
)
from wulffsym.symmetrize import sobolev_constant, zeta_profile


def random_matrix(rng, n):
    return rng.uniform(-1.0, 1.0, size=(n, n))


class TestSigmaK:
    def test_small_example(self):
        assert sigma_k([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=1e-14)

    def test_order_zero_is_one(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            assert sigma_k(rng.normal(size=n), 0) == 1.0

    def test_ones_vector_gives_binomial(self):
        assert sigma_k([1.0] * 4, 2) == pytest.approx(6.0, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sigma_k([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            sigma_k([1.0, 2.0], -1)


class TestSk:
    def test_diagonal_determinant(self):
        assert sk(np.diag([1.0, 2.0, 3.0]), 3) == pytest.approx(6.0, abs=1e-14)

    def test_rotation_generator(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert sk(a, 2) == pytest.approx(1.0, abs=1e-14)
        assert sk(a, 1) == pytest.approx(0.0, abs=1e-14)

    def test_product_of_spd_matches_eigenvalues(self):
        # eigenvalues of P @ Q with P, Q SPD are real; S_k must equal the
        # elementary symmetric functions of the (real) spectrum
        rng = np.random.default_rng(7)
        n = 5
        for _ in range(5):
            gp = rng.normal(size=(n, n))
            gq = rng.normal(size=(n, n))
            p = gp @ gp.T + n * np.eye(n)
            q = gq @ gq.T + n * np.eye(n)
            a = p @ q
            lam = np.linalg.eigvals(a)
            assert np.max(np.abs(lam.imag)) < 1e-9
            for k in range(n + 1):
                want = sigma_k(np.sort(lam.real), k)
                assert sk(a, k) == pytest.approx(want, rel=1e-9)

    def test_k_zero(self):
        assert sk(np.ones((3, 3)), 0) == 1.0

    def test_singular_diagonal_determinant_is_exact(self):
        assert sk(np.diag([10.0, 0.0, -1e-2]), 3) == 0.0
        assert sk(np.diag([1.0, 0.0, -1e-3, 1.0]), 4) == 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            sk(np.eye(2), 3)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            sk(np.array([[1.0, np.inf], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_s2_pair_rows_bit_equal_to_gathers(self, n):
        # the gather-based S_2: four fancy-index gathers and one rowsum,
        # whose summation order the pair rows keep for every stack shape
        i, j = np.triu_indices(n, 1)
        rng = np.random.default_rng(n)
        for shape in [(), (1,), (9,), (4, 7)]:
            for scale in [1e-9, 1.0, 1e9]:
                a = scale * rng.standard_normal(shape + (n, n))
                rows = np.moveaxis(
                    np.moveaxis(a, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))
                lead = a[..., :1, :, :] if a.ndim > 2 else a
                for mats in (a, np.swapaxes(a, -1, -2), rows,
                             np.broadcast_to(lead, a.shape)):
                    want = np.sum(mats[..., i, i] * mats[..., j, j]
                                  - mats[..., i, j] * mats[..., j, i], axis=-1)
                    got = sk_stack(mats, 2)
                    assert np.shape(got) == want.shape
                    assert np.asarray(got).tobytes() == want.tobytes(), (
                        shape, scale)


class TestDeltaOracle:
    def test_diagonal(self):
        assert sk_delta_oracle(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(11)
        a = random_matrix(rng, 4)
        for k in range(1, 5):
            fast = sk(a, k)
            assert sk_delta_oracle(a, k) == pytest.approx(
                fast, abs=1e-12 * (1.0 + abs(fast)))

    def test_k_zero_convention(self):
        assert sk_delta_oracle(np.ones((2, 2)), 0) == 1.0

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            sk_delta_oracle(np.eye(9), 1)
        with pytest.raises(CostGuardError):
            sk_delta_oracle(np.eye(8), 6)


class TestGeneralizedKronecker:
    def test_values(self):
        assert generalized_kronecker((0, 1), (0, 1)) == 1
        assert generalized_kronecker((0, 1), (1, 0)) == -1
        assert generalized_kronecker((0, 0), (0, 0)) == 0
        assert generalized_kronecker((0, 1), (0, 2)) == 0
        assert generalized_kronecker((2, 0, 1), (0, 1, 2)) == 1


class TestNewtonTransform:
    def test_order_one_is_identity(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 4)
        assert np.allclose(newton_transform(a, 1), np.eye(4))

    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = newton_transform(a, 2)
        assert np.allclose(t, [[4.0, -3.0], [-2.0, 1.0]])
        assert np.sum(t * a) == pytest.approx(2.0 * np.linalg.det(a))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 3)
        h = 1e-6
        for k in range(1, 4):
            t = newton_transform(a, k)
            for i in range(3):
                for j in range(3):
                    ap = a.copy()
                    am = a.copy()
                    ap[i, j] += h
                    am[i, j] -= h
                    fd = (sk(ap, k) - sk(am, k)) / (2.0 * h)
                    assert t[i, j] == pytest.approx(fd, abs=1e-6)

    def test_matches_delta_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            a = random_matrix(rng, n)
            for k in range(1, n + 1):
                assert np.allclose(
                    newton_transform(a, k),
                    newton_transform_delta_oracle(a, k),
                    atol=1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            newton_transform(np.eye(2), 0)


class TestMixedDiscriminant:
    def test_equal_arguments_reduce_to_sk(self):
        rng = np.random.default_rng(17)
        a = random_matrix(rng, 4)
        for k in range(1, 4):
            assert mixed_discriminant([a] * k) == pytest.approx(
                sk(a, k), rel=1e-12, abs=1e-12)

    def test_polarization_example(self):
        assert mixed_discriminant([np.eye(2), np.diag([2.0, 3.0])]) == (
            pytest.approx(2.5, abs=1e-14))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(19)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        assert mixed_discriminant([a, b]) == pytest.approx(
            mixed_discriminant([b, a]), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mixed_discriminant([np.eye(2), np.eye(3)])

    def test_multilinearity(self):
        rng = np.random.default_rng(23)
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        lhs = mixed_discriminant([a + 2.0 * c, b])
        rhs = mixed_discriminant([a, b]) + 2.0 * mixed_discriminant([c, b])
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


@st.composite
def square_matrices(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=n * n, max_size=n * n))
    return np.array(entries).reshape(n, n)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_oracle_equivalence(a):
    n = a.shape[0]
    for k in range(0, min(n, 4) + 1):
        fast = sk(a, k)
        assert abs(fast - sk_delta_oracle(a, k)) <= 1e-12 * (1.0 + abs(fast))


@settings(max_examples=30, deadline=None)
@given(square_matrices(max_dim=5), st.sampled_from([0.5, 2.0, 10.0]))
@example(np.diag([1.0, 0.0, -1e-3, 1.0]), 10.0)
def test_homogeneity(a, c):
    n = a.shape[0]
    for k in range(0, n + 1):
        base = sk(a, k)
        assert sk(c * a, k) == pytest.approx(
            c ** k * base, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(square_matrices(max_dim=6))
def test_trace_identity(a):
    # sum_ij T_ij A_ij = k S_k(A), with T from the recursion and S_k from
    # the principal-minor path
    n = a.shape[0]
    for k in range(1, n + 1):
        t = newton_transform(a, k)
        assert np.sum(t * a) == pytest.approx(
            k * sk(a, k), rel=1e-10, abs=1e-10)


def test_newton_recursion_identity_against_oracle():
    # T_k - S_{k-1} I + T_{k-1} A^T = 0 with both transforms taken from the
    # Kronecker-sum oracle and S_{k-1} from the minor path
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 5, 6):
        a = random_matrix(rng, n)
        for k in range(2, min(n, 5) + 1):
            tk = newton_transform_delta_oracle(a, k)
            tk1 = newton_transform_delta_oracle(a, k - 1)
            res = tk - sk(a, k - 1) * np.eye(n) + tk1 @ a.T
            assert np.max(np.abs(res)) < 1e-10


def test_binomial_expansion():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        for k in range(1, min(n, 4) + 1):
            want = sk(a + b, k)
            got = math.fsum(
                math.comb(k, r) * mixed_discriminant([a] * (k - r) + [b] * r)
                for r in range(k + 1))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.fixture(scope="module")
def order_args():
    """The arguments besides k of every entry point that takes an order,
    on the 2D unit disc."""
    norm, u = euclidean_norm(2), quadratic_ellipsoid(2)
    rising = MonotoneProfile([0.0, 1.0], [-0.5, 0.0], "increasing",
                             [0.0, 1.0])
    source = MonotoneProfile([0.0, 1.0], [1.0, 1.0], "decreasing")
    return {"norm": norm, "u": u, "rising": rising, "source": source,
            "sample": sample_level_set(norm, u, -0.25, rays=64),
            "table": LevelTable(norm, u, 20, rays=64)}


@pytest.mark.parametrize("call, lo, hi", [
    (lambda a, k: mixed_volume(a["sample"], k), 0, 1),
    (lambda a, k: mean_radius(a["sample"], k), 0, 1),
    (lambda a, k: level_curvature(a["norm"], a["u"], [0.5, 0.0], k), 0, 1),
    (lambda a, k: hessian_integral_coarea(a["table"], k), 1, 2),
    (lambda a, k: radial_sk(1.0, 1.0, 0.5, 2, k), 1, 2),
    (lambda a, k: radial_sk_origin(1.0, 2, k), 1, 2),
    (lambda a, k: radial_energy(a["rising"], 2, k, 2.0, math.pi), 1, 2),
    (lambda a, k: solve_radial(a["source"], 1.0, 2, k), 1, 2),
    (lambda a, k: zeta_profile(a["table"], k), 1, 2),
    (lambda a, k: sobolev_constant(a["norm"], k, 1.5), 1, 2),
], ids=["mixed_volume", "mean_radius", "level_curvature",
        "hessian_integral_coarea", "radial_sk", "radial_sk_origin",
        "radial_energy", "solve_radial", "zeta_profile", "sobolev_constant"])
def test_order_range_is_one_rule(order_args, call, lo, hi):
    # every order check is invariants._check_order, with one message
    for k in (lo - 1, hi + 1):
        with pytest.raises(DomainError,
                           match=rf"^order k={k} outside \[{lo}, {hi}\]$"):
            call(order_args, k)
