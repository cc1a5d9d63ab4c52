"""Linear-quadratic games whose regression knots are rank-deficient.

Every state of a knot with a coordinate of no spread lies on a hyperplane,
so that knot's polynomial features have dependent columns and the knot's
least-squares fit takes the minimum-norm (SVD) path.

- point_mass_game: one 1-d competitive population whose initial law is a
  point mass, so knot 0 is degenerate.
- make_game: one 2-d competitive population whose second coordinate is
  deterministic (no noise, no initial variance, no control acting on it),
  so every knot is degenerate. The first coordinate's drift reads the
  second, so the Riccati matrix P is not diagonal.

Loaded through the CLI as ``model: tests/models/degenerate_knots.py``.
"""

import numpy as np

from mfglab import (
    COMPETITIVE,
    GameSpec,
    ModelConstants,
    PopulationLq,
    StructuralFlags,
    gaussian_initial_law,
    population_from_lq,
)


def _game(name, lq, mean, cov):
    pop = population_from_lq(
        lq, COMPETITIVE, gaussian_initial_law(mean, np.sqrt(np.diag(cov))),
        initial_mean=mean, initial_cov=cov, label="crowd",
    )
    return GameSpec(
        populations=(pop,),
        horizon=1.0,
        constants=ModelConstants(lipschitz_L=1.0, convexity_lambda=0.5,
                                 growth_K=1.0),
        structural_flags=StructuralFlags(True, True, True, True),
        name=name,
    )


def point_mass_game():
    lq = PopulationLq(A=[[0.0]], B=[[1.0]], sigma=[[1.0]], R=[[1.0]],
                      W=[[1.0]], Wg=[[0.5]], S=[[0.3]])
    return _game("point-mass", lq, [1.0], [[0.0]])


def make_game():
    lq = PopulationLq(
        A=[[-0.2, 0.3], [0.0, -0.1]],
        B=[[1.0], [0.0]],
        sigma=[[0.6, 0.0], [0.0, 0.0]],
        R=[[1.0]],
        W=np.eye(2),
        Wg=0.5 * np.eye(2),
        a=[0.0, 0.2],
        S=0.3 * np.eye(2),
    )
    return _game("deterministic-coordinate", lq, [1.0, -0.5],
                 [[0.25, 0.0], [0.0, 0.0]])
