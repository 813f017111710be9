"""Elementary symmetric invariants of square matrices.

For an n-by-n real matrix A (symmetry is never assumed), S_k(A) is the sum
of all k-by-k principal minors, equivalently the degree-(n-k) coefficient
invariant of det(t*I - A). The entrywise derivative d S_k / d A_ij is the
(k-1)-th Newton transformation; polarizing S_k over k matrix slots gives
the mixed discriminant. One stacked kernel computes S_k (sk_stack, from
the C(n, k) principal minors) and the Newton transformations
(newton_stack, one recursion over sk_stack) for matrices of any
dimension; sk and newton_transform are its single-matrix forms. Every
production evaluator here is paired with a combinatorial oracle that
expands the generalized Kronecker symbol directly, so the two routes
share no linear algebra.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import CostGuardError, DomainError
from .quad import rowsum

DELTA_MAX_DIM = 8
DELTA_MAX_ORDER = 5


def as_square_matrix(a) -> np.ndarray:
    """Validate and return a float64 square matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def _check_order(k: int, hi: int, lo: int = 0):
    """Raise the DomainError of an order k outside [lo, hi]."""
    if not lo <= k <= hi:
        raise DomainError(f"order k={k} outside [{lo}, {hi}]")


def sigma_k(lam, k: int) -> float:
    """k-th elementary symmetric function of a real vector (sigma_0 = 1)."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise DomainError("sigma_k expects a vector")
    if not np.all(np.isfinite(lam)):
        raise DomainError("vector entries must be finite")
    n = lam.shape[0]
    _check_order(k, n)
    # coefficient recursion for prod_i (1 + lam_i t); updates run high-to-low
    e = [1.0] + [0.0] * k
    for x in lam:
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return float(e[k])


@lru_cache(maxsize=None)
def _perm_table(k: int):
    """All permutations of range(k) with their signs, as arrays."""
    perms = list(itertools.permutations(range(k)))
    signs = np.array([_perm_sign(p) for p in perms], dtype=float)
    return np.array(perms, dtype=np.intp), signs


def _perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..k-1."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def generalized_kronecker(bottom, top) -> int:
    """Generalized Kronecker symbol delta^{top}_{bottom}.

    +1 / -1 when the bottom indices are distinct and top is an even / odd
    rearrangement of them, 0 otherwise.
    """
    if len(set(bottom)) != len(bottom) or set(top) != set(bottom):
        return 0
    pos = {v: i for i, v in enumerate(bottom)}
    return _perm_sign(tuple(pos[t] for t in top))


def _guard(n: int, k: int):
    if n > DELTA_MAX_DIM or k > DELTA_MAX_ORDER:
        raise CostGuardError(
            f"delta-sum oracle limited to n <= {DELTA_MAX_DIM}, "
            f"k <= {DELTA_MAX_ORDER}; got n={n}, k={k}")


@lru_cache(maxsize=None)
def _minor_sets(n: int, k: int) -> np.ndarray:
    """Index sets of the k-by-k principal minors of an n-by-n matrix."""
    idx = np.array(list(itertools.combinations(range(n), k)),
                   dtype=np.intp).reshape(-1, k)
    idx.setflags(write=False)
    return idx


def _as_stack(mats) -> np.ndarray:
    """Validate and return a float64 stack of square matrices (..., n, n)."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim < 2 or mats.shape[-1] < 1 or (
            mats.shape[-1] != mats.shape[-2]):
        raise DomainError(
            f"expected a stack of square matrices, got shape {mats.shape}")
    return mats


def sk_stack(mats, k: int) -> np.ndarray:
    """S_k over a stack of matrices of shape (..., n, n), any n.

    Sums the C(n, k) principal k-minors: S_0 = 1, S_1 is the trace, S_2
    the written-out sum of a_ii a_jj - a_ij a_ji over i < j, and k >= 3
    batched LU determinants of the principal submatrices. A singular
    diagonal matrix gives exactly 0.
    """
    mats = _as_stack(mats)
    _check_order(k, mats.shape[-1])
    if k == 0:
        return np.ones(mats.shape[:-2])
    if k == 1:
        return rowsum(np.diagonal(mats, axis1=-2, axis2=-1))
    idx = _minor_sets(mats.shape[-1], k)
    if k == 2:
        # one row per pair, summed by rowsum over a (pairs, ...) array
        # viewed as (..., pairs): the layout, so the summation order, of
        # a fancy-index gather
        terms = np.empty((idx.shape[0],) + mats.shape[:-2])
        for c, (i, j) in enumerate(idx):
            row = np.multiply(mats[..., i, i], mats[..., j, j],
                              out=terms[c, ...])
            row -= mats[..., i, j] * mats[..., j, i]
        return rowsum(np.moveaxis(terms, 0, -1))
    minors = mats[..., idx[:, :, None], idx[:, None, :]]
    return rowsum(np.linalg.det(minors))


def newton_stack(mats, k: int) -> np.ndarray:
    """Newton transformations T_1..T_k over a stack of shape (..., n, n).

    Returns shape (k, ..., n, n), entry j - 1 holding T_j with
    (T_j)_il = d S_j / d A_il, from the recursion
    T_j = S_{j-1}(A) I - T_{j-1} A^T seeded with T_1 = I; each S_{j-1}
    comes from sk_stack. The transforms are in general not symmetric.
    """
    mats = _as_stack(mats)
    n = mats.shape[-1]
    _check_order(k, n, lo=1)
    eye = np.eye(n)
    at = np.swapaxes(mats, -1, -2)
    out = np.empty((k,) + mats.shape)
    out[0] = eye
    for j in range(1, k):
        out[j] = sk_stack(mats, j)[..., None, None] * eye - out[j - 1] @ at
    return out


def sk(a, k: int) -> float:
    """S_k(A), the sum of all k-by-k principal minors.

    Validates A and evaluates sk_stack: C(n, k) minors, batched LU
    determinants for k >= 3.
    """
    return float(sk_stack(as_square_matrix(a), k))


def sk_delta_oracle(a, k: int) -> float:
    """S_k(A) by direct expansion of the generalized Kronecker symbol.

    The sum over ordered bottom tuples factors exactly through unordered
    index sets (each set is hit by k! orderings contributing equally,
    cancelling the 1/k! prefactor), so the oracle enumerates index sets
    and, per set, every signed permutation product. No LU, no recursion.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    _check_order(k, n)
    if k == 0:
        return 1.0
    _guard(n, k)
    perms, signs = _perm_table(k)
    cols = np.arange(k)
    total = []
    for subset in itertools.combinations(range(n), k):
        sub = m[np.ix_(subset, subset)]
        prods = np.prod(sub[cols[None, :], perms], axis=1)
        total.append(float(signs @ prods))
    return math.fsum(total)


def newton_transform(a, k: int) -> np.ndarray:
    """Newton transformation T with T_ij = d S_k(A) / d A_ij.

    Validates A and takes the last transform of newton_stack, whose
    recursion T_k = S_{k-1}(A) I - T_{k-1} A^T reads each S_{k-1} from
    the principal minors (C(n, k-1) of them). The result is in general
    not symmetric.
    """
    return newton_stack(as_square_matrix(a), k)[-1]


def newton_transform_delta_oracle(a, k: int) -> np.ndarray:
    """Newton transformation by expanding the Kronecker-symbol sum.

    Entry (i, j) collects, over every index set T of size k containing i
    and j, the signed products of the bijections of T that send i to j,
    with the factor at slot i removed. Guarded combinatorial cost.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    _check_order(k, n, lo=1)
    _guard(n, k)
    target, rows, cols, signs = _newton_delta_table(n, k)
    prods = np.prod(m[rows, cols], axis=-1)
    return np.bincount(target, weights=signs * prods,
                       minlength=n * n).reshape(n, n)


@lru_cache(maxsize=None)
def _newton_delta_table(n: int, k: int):
    """Terms of the Newton-transform delta sum for dimension n, order k.

    One term per index set T (sorted), permutation pi of its k slots and
    slot a: it adds sign(pi) * prod_{b != a} A[T_b, T_pi(b)] to entry
    (T_a, T_pi(a)), flattened to T_a * n + T_pi(a). Returns (target,
    rows, cols, signs) with rows and cols of shape (terms, k - 1).
    """
    perms, signs = _perm_table(k)
    sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    images = sets[:, perms]                                  # (C, P, k)
    others = np.array([[b for b in range(k) if b != a] for a in range(k)],
                      dtype=np.intp).reshape(k, k - 1)
    shape = images.shape + (k - 1,)
    rows = np.broadcast_to(sets[:, None, others], shape)
    cols = images[:, :, others]
    target = sets[:, None, :] * n + images
    terms = target.size
    return (target.reshape(-1), rows.reshape(terms, k - 1),
            cols.reshape(terms, k - 1),
            np.broadcast_to(signs[None, :, None], images.shape).reshape(-1))


def mixed_discriminant(mats) -> float:
    """Mixed discriminant of k matrices of common dimension n.

    Literal signed sum over ordered tuples of distinct row indices and
    permuted column indices, divided by k!. Multilinear and totally
    symmetric in its arguments; with k equal arguments it reduces to S_k.
    """
    mats = [as_square_matrix(m) for m in mats]
    if not mats:
        raise DomainError("mixed discriminant needs at least one matrix")
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise DomainError("all matrices must share one dimension")
    k = len(mats)
    _check_order(k, n, lo=1)
    _guard(n, k)
    perms, signs = _perm_table(k)
    ordered = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp)
    prods = np.ones((ordered.shape[0], perms.shape[0]))
    for slot in range(k):
        rows = ordered[:, slot]
        cols = ordered[:, perms[:, slot]]
        prods *= mats[slot][rows[:, None], cols]
    return float((prods @ signs).sum() / math.factorial(k))
