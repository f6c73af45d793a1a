"""DIC and the split-half convergence diagnostic."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .specs import DICResult, PosteriorSamples

MIN_DIC_DRAWS = 100
MIN_SPLIT_DRAWS = 200
SPLIT_FLAG_SD = 0.2


def compute_dic(samples: PosteriorSamples, loglik_fn) -> DICResult:
    """Deviance information criterion over the retained draws.

    The deviance is -2 log L conditional on every sampled parameter
    (including the spatial effect), evaluated per draw for dbar and at the
    component-wise posterior mean for d_at_mean.  Samples without a
    parameter that ``loglik_fn`` reads raise ``DataError`` naming it.
    """
    if samples.n_draws < MIN_DIC_DRAWS:
        raise DataError(
            f"need at least {MIN_DIC_DRAWS} retained draws for a stable p_D, "
            f"got {samples.n_draws}"
        )
    dbar = float(np.mean(-2.0 * samples.loglik))
    try:
        at_mean = loglik_fn(samples.mean())
    except KeyError as exc:
        source = samples.metadata.get("source", "samples")
        raise DataError(f"{source}: no draws of model parameter {exc.args[0]!r}") from None
    d_at_mean = -2.0 * float(at_mean)
    return DICResult(dbar=dbar, d_at_mean=d_at_mean)


def split_half_diagnostic(samples: PosteriorSamples) -> dict:
    """Compare first-half vs second-half marginals per parameter.

    A parameter is flagged when its half-means differ by more than 0.2
    pooled standard deviations.  Returns {name: report dict}.
    """
    n = samples.n_draws
    if n < MIN_SPLIT_DRAWS:
        raise DataError(f"need at least {MIN_SPLIT_DRAWS} retained draws, got {n}")
    half = n // 2
    # one row per parameter: each reduction runs along contiguous rows,
    # which sums in the order of the per-column 1-D reductions
    cols = np.ascontiguousarray(samples.draws.T)
    first, second = cols[:, :half], cols[:, half:]
    mean_a, mean_b = first.mean(axis=1), second.mean(axis=1)
    pooled_sd = np.sqrt(0.5 * (first.var(axis=1, ddof=1) + second.var(axis=1, ddof=1)))
    q025_a, q975_a = np.quantile(first, [0.025, 0.975], axis=1)
    q025_b, q975_b = np.quantile(second, [0.025, 0.975], axis=1)
    flagged = (pooled_sd > 0) & (np.abs(mean_a - mean_b) > SPLIT_FLAG_SD * pooled_sd)
    return {
        name: {
            "mean_first": float(mean_a[j]),
            "mean_second": float(mean_b[j]),
            "q025_first": float(q025_a[j]),
            "q025_second": float(q025_b[j]),
            "q975_first": float(q975_a[j]),
            "q975_second": float(q975_b[j]),
            "pooled_sd": float(pooled_sd[j]),
            "flagged": bool(flagged[j]),
        }
        for j, name in enumerate(samples.names)
    }
