"""Finite populations of random walkers vs their deterministic limit.

Simulates N independent walkers on a small cycle with balanced birth and
death, overlays the large-population ODE, and shows the sup-norm gap
between the normalized counts and the ODE shrinking as N grows.  Also
draws a few intrinsic field realizations to show what the stationary
spatial effect looks like on the same graph.

Run from the repository root:

    python demos/population_limit.py
"""

import numpy as np

from walkfield import (
    DemographyRates,
    IntrinsicField,
    convergence_gap,
    generator_from_rates,
    integrate_limit_ode,
    sample_fields,
    simulate_population,
)
from walkfield.popsim import initial_counts

M = 4
SEED = 11


def cycle_generator():
    rates = {(i, (i + 1) % M): 1.5 for i in range(M)}
    rates.update({(i, (i - 1) % M): 0.5 for i in range(M)})  # clockwise bias
    return generator_from_rates(M, rates)


def main():
    Q = cycle_generator()
    demo = DemographyRates(b=np.full(M, 0.3), d=np.full(M, 0.3))
    z0 = np.array([0.7, 0.1, 0.1, 0.1])

    ode = integrate_limit_ode(Q, demo, z0, t_end=2.0, snapshot_every=0.5)
    traj = simulate_population(Q, demo, initial_counts(1000, z0),
                               N=1000, t_end=2.0, seed=SEED, snapshot_every=0.5)
    print("density at snapshot times (N = 1000 vs ODE limit):")
    for t, row, ref in zip(traj.times, traj.density(), ode.values):
        cells = "  ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(row, ref))
        print(f"  t={t:3.1f}  {cells}")

    gaps = convergence_gap(Q, demo, z0, t_end=2.0,
                           N_list=[100, 1000, 10000], replicates=20, seed=SEED)
    print("\nmedian sup-norm gap to the ODE over 20 replicates:")
    for n, g in gaps.items():
        print(f"  N = {n:>6}: {g:.4f}")

    draws = sample_fields(IntrinsicField(Q, sigma=1.0), 5, seed=SEED)
    print("\nfive intrinsic field draws (rows sum to zero):")
    for row in draws:
        print("  " + "  ".join(f"{v:7.3f}" for v in row))


if __name__ == "__main__":
    main()
