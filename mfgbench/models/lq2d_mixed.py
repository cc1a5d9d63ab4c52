"""Two-population, two-dimensional linear-quadratic game in the mixed regime.

Population 0 ("traders") is competitive and population 1 ("planners") is
cooperative, so the fixed point dispatches one frozen-flow adjoint solve
and one McKean-Vlasov adjoint solve per iteration. The data exercise the
d >= 2 code paths that no builtin reaches: a non-diagonal drift matrix A,
a correlated (lower-triangular) volatility, cross-population mean targets
S_bar with off-diagonal entries, the d x d Z regression, the cross-term
regression features and sliced-W2 flow distances.

Loaded through the CLI as ``model: mfgbench/models/lq2d_mixed.py``.
"""

import numpy as np

from mfglab import (
    COMPETITIVE,
    COOPERATIVE,
    GameSpec,
    ModelConstants,
    PopulationLq,
    StructuralFlags,
    gaussian_initial_law,
    population_from_lq,
)


def make_game():
    eye = np.eye(2)
    traders = PopulationLq(
        A=[[-0.2, 0.3], [-0.1, -0.1]],
        B=eye,
        sigma=[[0.6, 0.0], [0.3, 0.5]],
        R=eye,
        W=eye,
        Wg=0.5 * eye,
        C=([[0.1, 0.0], [0.05, 0.1]],),
        S_bar=([[0.25, 0.1], [0.0, 0.2]],),
    )
    planners = PopulationLq(
        A=[[-0.15, -0.2], [0.1, -0.2]],
        A_bar=0.1 * eye,
        B=eye,
        sigma=[[0.5, 0.0], [-0.2, 0.6]],
        R=eye,
        W=eye,
        Wg=0.5 * eye,
        S=0.3 * eye,
        S_bar=([[0.2, 0.0], [0.1, 0.15]],),
        G=0.25 * eye,
    )
    pop0 = population_from_lq(
        traders, COMPETITIVE, gaussian_initial_law([1.0, -0.5], 0.5),
        initial_mean=[1.0, -0.5], initial_cov=0.25 * eye, label="traders",
    )
    pop1 = population_from_lq(
        planners, COOPERATIVE, gaussian_initial_law([-0.5, 0.8], 0.5),
        initial_mean=[-0.5, 0.8], initial_cov=0.25 * eye, label="planners",
    )
    return GameSpec(
        populations=(pop0, pop1),
        horizon=1.0,
        constants=ModelConstants(lipschitz_L=1.0, convexity_lambda=0.5,
                                 growth_K=1.0),
        structural_flags=StructuralFlags(True, True, True, True),
        name="lq2d-mixed",
    )
