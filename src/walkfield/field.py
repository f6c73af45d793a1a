"""The intrinsic random field pi ~ N(0, (QQ')^-) restricted to sum(pi) = 0.

Q is any irreducible generator, directed or not.  Since Q1 = 0, the field
solves Q'pi = gamma for sum-zero white noise gamma, and its density on the
sum-zero subspace has precision F'QQ'F for an orthonormal basis F of that
subspace.  The null vector of QQ' is the stationary law of the walk, which
is 1 only when in-rates equal out-rates, so the normalizer is
log det(F'QQ'F), not the pseudo-determinant of QQ'.

Everything runs on one sparse LU of Q' grounded at node 0 (its row and
column removed), after Rue & Held, Gaussian Markov Random Fields (2005),
section 2.3: sum-zero solves, field draws and the exact normalizer, with
no dense eigendecomposition and no jitter on the diagonal.

The minor is ordered symmetrically (minimum degree on A + A') and
eliminated on its diagonal, with no row interchanges.  That is stable
here: column j of Q' holds -sum_k alpha_jk on the diagonal and alpha_jk
off it, so every symmetric reordering of the grounded minor is
diagonally dominant by columns, and Gaussian elimination on such a
matrix needs no pivoting and grows its entries by at most a factor 2
(Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.9).  The
minor of P = QQ' that log_pseudo_det factors is positive definite.

Right-hand sides reach the LU in blocks of at most BLOCK_VALUES values,
so a batch of draws is solved in place a cache-sized block at a time
instead of in one call on all of its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._scipy import connected_components, splu
from .errors import DataError, NumericalError
from .graph import GeneratorMatrix


def stationary_precision(Q: GeneratorMatrix) -> sp.csr_matrix:
    """Sparse precision P = Q Q', symmetrized to kill roundoff asymmetry."""
    p = (Q.matrix @ Q.matrix.T).tocsr()
    p = (p + p.T) * 0.5
    return p.tocsr()


# Values per block of right-hand sides given to SuperLU's solve.  300 draws
# (sample_fields, medians of 9, one BLAS thread, 2-vCPU Xeon VM with 2 MiB
# of L2 per core) took the same time from 2^14 to 2^17 values per block on
# a 44 x 44 grid, a 2000-node directed stream network and a 1000-node
# reach: 1.3-1.6x less than in one 300-column call, and 1.2-1.4x less than
# at 2^18.
BLOCK_VALUES = 2**16


def helmert(m: int) -> np.ndarray:
    """The (m-1, m) Helmert matrix: orthonormal rows spanning the sum-zero subspace.

    Row k (k = 1..m-1) is k ones, then -k, then zeros, over sqrt(k(k+1));
    the same values, bit for bit, as scipy.linalg.helmert(m).
    """
    k = np.arange(1, m)[:, None]
    j = np.arange(m)
    return ((j < k) - k * (j == k)) / np.sqrt(k * (k + 1))


class _GroundedLU:
    """Sparse LU of a singular A with 1'A = 0 on a strongly connected graph.

    Deleting node 0's row and column leaves a nonsingular minor A0 (a
    principal minor of an irreducible singular M-matrix, or of a PSD matrix
    of rank M-1 with null vector 1); unlike the bordered [[A, 1], [1', 0]]
    it has no dense row to fill in.  One more solve gives the null vector
    v of A with v_0 = 1.  With F an orthonormal basis of the sum-zero
    subspace, det(F'AF) is the product of A's nonzero eigenvalues, the
    trace of adj(A) = det(A0) v 1', so log|det F'AF| = log|det A0| + log|1'v|.

    A0 is factored in SuperLU's symmetric mode: a minimum-degree ordering
    of A0 + A0' applied to rows and columns alike, and diagonal pivots
    (perm_r == perm_c).  A0 is diagonally dominant by columns, or positive
    definite, so no row interchange is needed (see the module docstring);
    on this pattern the fill is lower than COLAMD's, e.g. 51k against 84k
    entries of L + U on a 44 x 44 grid.  `a` is a CSR copy of A for the
    products A x.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        self.a = A.tocsr()
        n_parts, _ = connected_components(A, directed=True, connection="strong")
        if n_parts > 1:
            raise NumericalError(
                f"graph has {n_parts} strongly connected components: the field "
                "needs an irreducible generator"
            )
        try:
            self._lu = splu(A[1:, 1:], permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise NumericalError(f"grounded factorization failed ({exc})") from exc
        v = np.zeros(A.shape[0])
        v[0] = 1.0
        v[1:] = self._lu.solve(-(A @ v)[1:])  # A e_0 is A's column 0
        self._v = v
        self._v_sum = float(v.sum())
        self.logdet = float(np.log(np.abs(self._lu.U.diagonal())).sum()) + math.log(
            abs(self._v_sum)
        )
        if not (np.isfinite(v).all() and math.isfinite(self.logdet)):
            raise NumericalError("grounded factorization is numerically singular")

    def solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x with Ax = r and 1'x = 0, for r (or each column of r) summing to zero.

        The columns go to the LU in blocks of at most BLOCK_VALUES values
        (at least one column).  Each block's grounded solution y, zero at
        node 0, is moved onto the sum-zero subspace along v,
        x = y - v (1'y / 1'v), before the next block is solved.  x is
        written into `out` when it is given, which may be r itself: a
        block's rows 1..M-1 are read into SuperLU's fresh result y, and
        row 0 is never read, before that block is written.
        """
        x = np.empty_like(r) if out is None else out
        m = x.shape[0]
        rows, xs = r.reshape(m, -1), x.reshape(m, -1)  # a vector is one column
        step = max(1, BLOCK_VALUES // m)
        for a in range(0, rows.shape[1], step):
            y = self._lu.solve(rows[1:, a : a + step])
            shift = y.sum(axis=0) / self._v_sum
            block = xs[:, a : a + step]
            block[0] = -shift
            np.multiply(self._v[1:, None], shift, out=block[1:])
            np.subtract(y, block[1:], out=block[1:])
        return x


def log_pseudo_det(P) -> float:
    """Log product of the nonzero eigenvalues of a PSD matrix with null vector 1.

    Runs on the grounded sparse LU of P.  A P whose pattern falls apart into
    several components has more than one null direction and raises.  For
    P = QQ' the factor's condition number is Q's squared, and so is the
    error: 2.6e-8 on a 1000-node unit reach, where IntrinsicField(Q).logpdet,
    from the factor of Q' itself, is off by 2.5e-13.  Callers that have Q
    should read logpdet.
    """
    P = sp.csc_matrix(P, dtype=float)
    if np.max(np.abs(P @ np.ones(P.shape[0]))) > 1e-8 * max(1.0, abs(P).max()):
        raise DataError("matrix does not annihilate the constant vector")
    return _GroundedLU(P).logdet


def constrained_solve(Q: GeneratorMatrix, r: np.ndarray) -> np.ndarray:
    """Solve Q' pi = r on the sum-zero subspace, for r of shape (M,) or (M, k).

    r is first projected onto range(Q') by removing its mean (column by
    column); the unique pi with 1'pi = 0 comes from the grounded LU of Q'.
    This is the constrained generalized inverse applied to r.

    Each column must pass a backward-error test,
    max|Q'pi - r~| <= 1e-10 * max(|Q'||pi| + |r~|): the residual is scaled
    by the size of the terms that make it up, so accurate solves whose
    |pi| grows with M (like M^1.5 on a long path) are not rejected.
    """
    m = Q.dim
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[0] != m:
        raise DataError(f"right-hand side must have {m} rows")
    if not np.isfinite(r).all():
        raise DataError("right-hand side r has non-finite entries")
    r_tilde = r - r.mean(axis=0)
    qt = Q.matrix.T
    pi = _GroundedLU(qt).solve(r_tilde)
    resid = np.abs(qt @ pi - r_tilde).max(axis=0)
    scale = (abs(qt) @ np.abs(pi) + np.abs(r_tilde)).max(axis=0)
    if not np.isfinite(pi).all() or np.any(resid > 1e-10 * scale):
        # irreducibility was checked structurally by _GroundedLU, so what
        # fails here is the accuracy of the solve
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(resid / scale))
        raise NumericalError(
            f"constrained solve failed its backward-error test: worst backward "
            f"error {worst:.3g} against the bound 1e-10; the grounded minor of Q' "
            "at node 0 is ill-conditioned"
        )
    return pi


@dataclass(frozen=True)
class IntrinsicField:
    """Immutable field object: Q, the grounded LU of Q' and the normalizer.

    The factor is the only thing built from Q; log_density reads its
    quadratic form from Q'pi.  logpdet is log det(F'QQ'F) = 2 log|det F'Q'F|,
    exact for directed Q.  sigma is the standard deviation of the driving
    noise.  The genetics model fixes sigma = 1; the precision itself
    carries no free scale.
    """

    Q: GeneratorMatrix
    sigma: float = 1.0
    logpdet: float = field(init=False)
    _factor: _GroundedLU = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DataError("sigma must be positive and finite")
        factor = _GroundedLU(self.Q.matrix.T)
        object.__setattr__(self, "logpdet", 2.0 * factor.logdet)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self):
        return self.Q.dim


def sample_fields(fld: IntrinsicField, n_draws: int, seed: int) -> np.ndarray:
    """Draw n_draws independent field realizations as an (n_draws, M) array.

    gamma ~ N(0, sigma^2 I) conditioned on 1'gamma = 0 (mean subtraction is
    exact for exchangeable Gaussian noise), then pi solves Q'pi = gamma.
    One RNG stream and one factorization serve every draw.  The noise is
    drawn into the output itself, which the factor then solves in place.
    """
    if n_draws <= 0:
        raise DataError("n_draws must be positive")
    out = np.random.default_rng(seed).standard_normal((n_draws, fld.dim))
    out *= fld.sigma
    out -= out.mean(axis=1, keepdims=True)
    fld._factor.solve(out.T, out=out.T)
    if not (math.isfinite(out.max()) and math.isfinite(out.min())):  # NaN if any entry is NaN
        raise NumericalError("field solve produced non-finite values")
    return out


def log_density(pi: np.ndarray, fld: IntrinsicField) -> float:
    """Proper log density of the field on the sum-zero subspace.

    -(M-1)/2 log(2 pi sigma^2) + 1/2 log det(F'QQ'F) - |Q'pi|^2 / (2 sigma^2).
    The normalizing constant is exact, which matters for inference on Q.
    The quadratic form pi'QQ'pi is the squared norm of g = Q'pi: a sum of
    squares, free of the cancellation in pi'(QQ')pi on long reaches.
    """
    pi = np.asarray(pi, dtype=float)
    m = fld.dim
    if pi.shape != (m,):
        raise DataError(f"field vector must have length {m}")
    hi, lo = float(pi.max()), float(pi.min())  # NaN if any entry is NaN
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DataError("field vector pi has non-finite entries")
    if abs(pi.sum()) > 1e-8 * max(1.0, max(hi, -lo) * m):
        raise DataError("field vector violates the sum-to-zero constraint")
    g = fld._factor.a @ pi  # Q'pi
    quad = float(g @ g)
    if not math.isfinite(quad):
        raise NumericalError("non-finite quadratic form")
    s2 = fld.sigma**2
    return -0.5 * (m - 1) * math.log(2.0 * math.pi * s2) + 0.5 * fld.logpdet - quad / (2.0 * s2)
