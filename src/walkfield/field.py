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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import DataError, NumericalError
from .graph import GeneratorMatrix


def stationary_precision(Q: GeneratorMatrix) -> sp.csr_matrix:
    """Sparse precision P = Q Q', symmetrized to kill roundoff asymmetry."""
    p = (Q.matrix @ Q.matrix.T).tocsr()
    p = (p + p.T) * 0.5
    return p.tocsr()


class _GroundedLU:
    """Sparse LU of a singular A with 1'A = 0 on a strongly connected graph.

    Deleting node 0's row and column leaves a nonsingular minor A0 (a
    principal minor of an irreducible singular M-matrix, or of a PSD matrix
    of rank M-1 with null vector 1); unlike the bordered [[A, 1], [1', 0]]
    it has no dense row to fill in.  One more solve gives the null vector
    v of A with v_0 = 1.  With F an orthonormal basis of the sum-zero
    subspace, det(F'AF) is the product of A's nonzero eigenvalues, the
    trace of adj(A) = det(A0) v 1', so log|det F'AF| = log|det A0| + log|1'v|.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        n_parts, _ = connected_components(A, directed=True, connection="strong")
        if n_parts > 1:
            raise NumericalError(
                f"graph has {n_parts} strongly connected components: the field "
                "needs an irreducible generator"
            )
        try:
            self._lu = spla.splu(A[1:, 1:])
        except RuntimeError as exc:
            raise NumericalError(f"grounded factorization failed ({exc})") from exc
        v = np.ones(A.shape[0])
        v[1:] = self._lu.solve(-A[1:, 0].toarray().ravel())
        self._v = v
        self._v_sum = float(v.sum())
        self.logdet = float(np.log(np.abs(self._lu.U.diagonal())).sum()) + math.log(
            abs(self._v_sum)
        )
        if not (np.isfinite(v).all() and math.isfinite(self.logdet)):
            raise NumericalError("grounded factorization is numerically singular")

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with Ax = r and 1'x = 0, for r (or each column of r) summing to zero."""
        x = np.zeros_like(r)
        x[1:] = self._lu.solve(r[1:])
        x -= np.multiply.outer(self._v, x.sum(axis=0) / self._v_sum)
        return x


def log_pseudo_det(P) -> float:
    """Log product of the nonzero eigenvalues of a PSD matrix with null vector 1.

    Runs on the grounded sparse LU of P.  A P whose pattern falls apart into
    several components has more than one null direction and raises.
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
    r_tilde = r - r.mean(axis=0)
    qt = Q.matrix.T
    pi = _GroundedLU(qt).solve(r_tilde)
    resid = np.abs(qt @ pi - r_tilde).max(axis=0)
    scale = (abs(qt) @ np.abs(pi) + np.abs(r_tilde)).max(axis=0)
    if not np.isfinite(pi).all() or np.any(resid > 1e-10 * scale):
        raise NumericalError(
            "constrained solve did not converge; check that Q is irreducible"
        )
    return pi


@dataclass(frozen=True)
class IntrinsicField:
    """Immutable field object with its precision, factor and normalizer cached.

    logpdet is log det(F'QQ'F) = 2 log|det F'Q'F|, exact for directed Q.
    sigma is the standard deviation of the driving noise.  The genetics
    model fixes sigma = 1; the precision itself carries no free scale.
    """

    Q: GeneratorMatrix
    sigma: float = 1.0
    precision: sp.csr_matrix = field(init=False, repr=False)
    logpdet: float = field(init=False)
    _factor: _GroundedLU = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sigma > 0:
            raise DataError("sigma must be positive")
        factor = _GroundedLU(self.Q.matrix.T)
        object.__setattr__(self, "precision", stationary_precision(self.Q))
        object.__setattr__(self, "logpdet", 2.0 * factor.logdet)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self):
        return self.Q.dim


@dataclass(frozen=True)
class FieldSample:
    pi: np.ndarray
    seed: int


def sample_field(fld: IntrinsicField, seed: int) -> FieldSample:
    """Draw one realization of the intrinsic field.

    gamma ~ N(0, sigma^2 I) conditioned on 1'gamma = 0 (mean subtraction is
    exact for exchangeable Gaussian noise), then pi solves Q'pi = gamma.
    """
    rng = np.random.default_rng(seed)
    gamma = rng.normal(0.0, fld.sigma, fld.dim)
    gamma -= gamma.mean()
    pi = fld._factor.solve(gamma)
    if not np.isfinite(pi).all():
        raise NumericalError("field solve produced non-finite values")
    return FieldSample(pi=pi, seed=seed)


def sample_fields(fld: IntrinsicField, n_draws: int, seed: int) -> np.ndarray:
    """Draw n_draws independent field realizations as an (n_draws, M) array.

    One RNG stream, one matrix factorization: equivalent in law to repeated
    sample_field calls but far cheaper for Monte Carlo studies.
    """
    if n_draws <= 0:
        raise DataError("n_draws must be positive")
    m = fld.dim
    rng = np.random.default_rng(seed)
    gamma = rng.normal(0.0, fld.sigma, (n_draws, m))
    gamma -= gamma.mean(axis=1, keepdims=True)
    out = fld._factor.solve(gamma.T).T
    if not np.isfinite(out).all():
        raise NumericalError("field solve produced non-finite values")
    return out


def log_density(pi: np.ndarray, fld: IntrinsicField) -> float:
    """Proper log density of the field on the sum-zero subspace.

    -(M-1)/2 log(2 pi sigma^2) + 1/2 log det(F'QQ'F) - pi'QQ'pi / (2 sigma^2).
    The normalizing constant is exact, which matters for inference on Q.
    """
    pi = np.asarray(pi, dtype=float)
    m = fld.dim
    if pi.shape != (m,):
        raise DataError(f"field vector must have length {m}")
    if abs(pi.sum()) > 1e-8 * max(1.0, np.max(np.abs(pi)) * m):
        raise DataError("field vector violates the sum-to-zero constraint")
    quad = float(pi @ (fld.precision @ pi))
    if not math.isfinite(quad):
        raise NumericalError("non-finite quadratic form")
    s2 = fld.sigma**2
    return -0.5 * (m - 1) * math.log(2.0 * math.pi * s2) + 0.5 * fld.logpdet - quad / (2.0 * s2)
