"""
Defining, validating, and solving your own model
================================================

A model is a GameSpec: populations with drift/diffusion/cost callables,
an action set, an initial law, plus game-level constants and structural
flags. The quickest route for linear-quadratic data is population_from_lq,
which derives every callable and gradient from the coefficient matrices.
This script builds a one-population model where agents are pulled toward
their own crowd's mean, validates it, and solves it.
"""

import numpy as np

from mfglab.fbsde import SolverConfig
from mfglab.fixedpoint import FixedPointConfig, solve_matching
from mfglab.model import (
    COMPETITIVE,
    GameSpec,
    ModelConstants,
    PopulationLq,
    StructuralFlags,
    gaussian_initial_law,
    population_from_lq,
)
from mfglab.validation import validate_game

# state drift dx = (A x + B a) dt + sigma dW, running cost
# 0.5 a R a + 0.5 (x - S xbar) W (x - S xbar), terminal likewise with Wg
lq = PopulationLq(
    A=np.array([[-0.3]]),
    B=np.array([[1.0]]),
    sigma=np.array([[0.8]]),
    R=np.array([[1.2]]),
    W=np.array([[1.0]]),
    Wg=np.array([[0.6]]),
    S=np.array([[0.4]]),
)
pop = population_from_lq(
    lq, COMPETITIVE, gaussian_initial_law([0.8], 0.5),
    initial_mean=[0.8], initial_cov=[[0.25]], label="herders",
)
game = GameSpec(
    populations=(pop,),
    horizon=1.0,
    constants=ModelConstants(lipschitz_L=1.0, convexity_lambda=0.5,
                             growth_K=1.0),
    structural_flags=StructuralFlags(True, True, True, True),
    name="herding-demo",
)

# validation samples the callables and checks shapes, gradients by finite
# differences, convexity, growth, flags, and initial moments
report = validate_game(game, n_samples=100, seed=0)
for check in report.checks:
    print("%-28s %s" % (check.name, "PASS" if check.passed else
                        "FAIL " + check.detail))
assert report.passed

cfg = FixedPointConfig(solver=SolverConfig(n_steps=50, n_paths=2048))
eq = solve_matching(game, cfg, seed=0)
print("\nconverged:", eq.converged, "in", eq.iterations, "iterations")
means = [c.points.mean() for c in eq.flows[0].clouds]
print("mean trajectory: %.3f -> %.3f (crowd relaxes toward 0)"
      % (means[0], means[-1]))
print("equilibrium cost: %.4f +- %.4f" % eq.costs[0])

# the same file works as a CLI model: add a make_game() returning the
# GameSpec and point a config's model field at the .py path


def make_game():
    return game
