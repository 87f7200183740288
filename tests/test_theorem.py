"""The paper's main theorem, nominal half: a stabilized loop of plant,
optimality model and proxy-error integrators rests at the program's
optimizer.  On seeded random QPs, with and without an equality constraint,
for each model variant, the loop's equilibrium (``equilibrium_solve``) gives
the output the oracle computes from the program (``oracle_optimal_output``)."""

import numpy as np
import pytest

from osscontrol.omodels import OptimalityModel
from osscontrol.optprob import ConvexProgram, oracle_optimal_output
from osscontrol.plant import PlantMatrices, build_augmented_qp, fixed_plant
from osscontrol.simulate import assemble, equilibrium_solve
from osscontrol.stabilize import synthesize_lqr
from osscontrol.subspaces import equilibrium_geometry

from helpers import (
    feasible_direction_matrix,
    output_subspace_matrix,
    random_plant,
    random_qp_instance,
)

DRAWS = 6


def model_basis(variant, geom, n_ec, rng):
    """The variant's subspace matrix: g0 spanning range G for ``ros``, t0
    spanning the feasible directions for ``rfs``, and for ``rerfs`` t0 mixed
    to one column per equality constraint."""
    if variant == "ros":
        return output_subspace_matrix(geom)
    if variant == "rfs":
        return feasible_direction_matrix(geom)
    return feasible_direction_matrix(geom, rng, columns=n_ec)


def unsteerable_instance(rng):
    """(plant, program, geometry) of an unconstrained QP whose plant has
    range G = {0}: the input drives only states the outputs do not see."""
    seen = random_plant(rng, 2, 1, 2, stable=True)
    a = np.block([[seen.a, np.zeros((2, 2))], [np.zeros((2, 2)), rng.standard_normal((2, 2))]])
    b = np.vstack([np.zeros((2, 1)), rng.standard_normal((2, 1))])
    pm = PlantMatrices(a=a, b=b, bw=rng.standard_normal((4, 1)),
                       c=np.hstack([seen.c, np.zeros((2, 2))]), d=np.zeros((2, 1)), q=seen.q)
    root = rng.standard_normal((2, 2))
    prog = ConvexProgram.from_qp(root.T @ root + 0.1 * np.eye(2), rng.standard_normal((2, 1)),
                                 n_w=1)
    return pm, prog, equilibrium_geometry(pm)


@pytest.mark.parametrize("variant", ["rfs", "ros", "rerfs"])
@pytest.mark.parametrize("n_ec", [0, 1])
def test_equilibrium_output_is_the_optimum(variant, n_ec):
    rng = np.random.default_rng(100 + 10 * n_ec + ["rfs", "ros", "rerfs"].index(variant))
    for _ in range(DRAWS):
        # a reduced-error model integrates one error per equality constraint;
        # it pins the optimum where no feasible direction is left: one input
        # held by one constraint, or without a constraint no input that moves
        # the equilibrium output
        if variant == "rerfs":
            pm, prog, geom = (random_qp_instance(rng, n_ec, m=1) if n_ec
                              else unsteerable_instance(rng))
            assert geom.t_basis.shape[1] == 0
        else:
            pm, prog, geom = random_qp_instance(rng, n_ec)
        om = OptimalityModel(variant, model_basis(variant, geom, n_ec, rng), prog)
        aug = build_augmented_qp(pm, om)
        stab = synthesize_lqr(aug, np.eye(aug.n_state), np.eye(pm.m))
        w = rng.standard_normal(pm.n_w)
        loop = assemble(fixed_plant(pm), np.zeros(0), w, om, stab)
        z, _ = equilibrium_solve(loop, np.zeros(loop.n_state))
        y = loop.outputs(z[None])[0][0]
        y_star = oracle_optimal_output(prog, pm, w)["y_star"]
        assert np.abs(y - y_star).max() <= 1e-10 * (1.0 + np.abs(y_star).max()), (variant, n_ec)
