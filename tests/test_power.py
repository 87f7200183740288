"""Power-network builders on their own: the closed-form dispatch against the
generic oracle, the network data checks, the dispatch map, and the two
distributed controllers as optimality models."""

import dataclasses

import numpy as np
import pytest

from osscontrol import scenarios
from osscontrol.matlib import numerical_rank
from osscontrol.omodels import OptimalityModel, om_dynamics
from osscontrol.optprob import oracle_optimal_output
from osscontrol.plant import eval_plant
from osscontrol.power import (
    PowerNetwork,
    build_swing_plant,
    default_network,
    dispatch_oracle,
    frequency_program,
    gather_broadcast_input,
)

from helpers import (
    assert_bits_equal,
    dapi_basis_by_formula,
    swing_matrices_by_formula,
    two_integrator_basis_by_formula,
)


def random_tree_network(rng, n: int) -> PowerNetwork:
    """Random tree on n buses (bus i joins an earlier bus), with the tree's
    own Laplacian as the communication graph."""
    edges = tuple((i, int(rng.integers(0, i))) for i in range(1, n))
    inc = np.zeros((n, n - 1))
    for k, (i, j) in enumerate(edges):
        inc[i, k], inc[j, k] = 1.0, -1.0
    return PowerNetwork(
        n=n, edges=edges,
        inertia=rng.uniform(0.5, 2.0, n), damping=rng.uniform(0.5, 2.0, n),
        susceptance=rng.uniform(0.5, 2.0, n - 1), p_star=rng.standard_normal(n),
        cost_a=rng.uniform(0.5, 4.0, n), cost_b=rng.standard_normal(n),
        laplacian=inc @ inc.T,
    )


def test_dispatch_matches_the_generic_oracle_on_random_trees():
    rng = np.random.default_rng(51)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 7)))
        pm = eval_plant(build_swing_plant(net), [0.0])
        got = oracle_optimal_output(frequency_program(net), pm, net.p_star)
        want = dispatch_oracle(net)
        assert np.abs(got["y_star"] - want["y_star"]).max() <= 1e-9
        assert got["cost"] == pytest.approx(want["cost"], rel=1e-9, abs=1e-12)
        # equal marginal costs, and the reserves balance the injections
        assert np.allclose(net.marginal_cost(want["u_star"]), want["marginal"])
        assert want["u_star"].sum() == pytest.approx(-net.p_star.sum())


@pytest.mark.parametrize("change, message", [
    ({"edges": ((0, 1), (1, 2), (2, 0))}, "connected acyclic graph"),
    ({"edges": ((0, 1), (1, 2)), "susceptance": [1.0, 1.0]}, "expected 3 lines"),
    ({"laplacian": np.eye(4) - np.ones((4, 4)) / 8}, "rows must sum to zero"),
    ({"laplacian": np.zeros((4, 4))}, "globally reachable node"),
    ({"inertia": [1.0, 0.0, 1.0, 1.0]}, "inertia and damping must be positive"),
    ({"damping": [1.0, 1.0, -1.0, 1.0]}, "inertia and damping must be positive"),
    ({"susceptance": [1.0, 0.0, 1.0]}, "susceptances must be positive"),
    ({"cost_a": [1.0, 2.0, 0.0, 4.0]}, "cost curvatures must be positive"),
], ids=["cycle", "too-few-lines", "laplacian-row-sum", "laplacian-unreachable",
        "inertia-zero", "damping-negative", "susceptance-zero", "cost-zero"])
def test_network_rejects_bad_data(change, message):
    fields = {f.name: getattr(default_network(), f.name)
              for f in dataclasses.fields(PowerNetwork)}
    with pytest.raises(ValueError, match=message):
        PowerNetwork(**{**fields, **change})


def test_dispatch_map_on_a_row_stack_of_levels():
    net = default_network()
    levels = np.array([-1.0, 0.0, 0.25, 3.0])
    rows = gather_broadcast_input(net.cost_a, net.cost_b, levels)
    assert rows.shape == (levels.size, net.n)
    for level, row in zip(levels, rows):
        assert np.array_equal(row, gather_broadcast_input(net.cost_a, net.cost_b, level))
        assert np.allclose(net.marginal_cost(row), level)


def test_swing_plant_matrices_equal_the_block_formula():
    # the delta-independent blocks are built once and shared read-only; every
    # matrix keeps the bits of rebuilding all blocks at each delta
    rng = np.random.default_rng(52)
    for net in (default_network(), *(random_tree_network(rng, n) for n in (2, 3, 6))):
        up = build_swing_plant(net)
        for delta in rng.uniform(-0.5, 0.5, (5, 1)):
            pm = eval_plant(up, delta)
            for key, want in swing_matrices_by_formula(net, delta).items():
                assert_bits_equal(getattr(pm, key), want, key)
            assert not any(getattr(pm, k).flags.writeable for k in ("b", "bw", "c", "d", "q"))
            assert pm.a.flags.writeable


# (variant, basis formula, frequency rows F of the program) of each bundled
# distributed controller: DAPI constrains every bus frequency, the
# two-integrator controller the uniformly weighted one
POWER_MODELS = {
    "power-dapi": ("rerfs", dapi_basis_by_formula, lambda n: np.eye(n)),
    "power-novel": ("rfs", two_integrator_basis_by_formula, lambda n: np.full((1, n), 1.0 / n)),
}


@pytest.mark.parametrize("name", list(POWER_MODELS))
def test_bundled_power_models_equal_their_formulas(name):
    # the document's om.basis, program.f and integrator gain are the formulas
    # applied to its own network block, bit for bit
    sc = scenarios.load_scenario(name)
    plan, net = sc.variants[0], sc.network
    variant, basis_of, rows_of = POWER_MODELS[name]
    assert plan.om.variant == variant
    assert_bits_equal(plan.om.basis, basis_of(net), "om.basis")
    assert_bits_equal(plan.program.h_eq, frequency_program(net, rows_of(net.n)).h_eq, "program.f")
    if name == "power-dapi":  # keta = I / k with k = 1; power-novel's gains come from LQR
        assert_bits_equal(plan.stabilizer.keta, np.eye(net.n) / 1.0, "keta")


def test_reduced_laplacian_keeps_rank_on_random_trees():
    # deleting the first Laplacian row of a connected graph keeps rank n - 1,
    # so the two-integrator basis has independent columns
    rng = np.random.default_rng(53)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 8)))
        assert numerical_rank(net.laplacian[1:, :]) == net.n - 1
        assert numerical_rank(two_integrator_basis_by_formula(net)) == net.n - 1


def test_power_models_give_the_distributed_error_signals():
    # the generic models' proxy errors are the published controllers' signals:
    # DAPI integrates omega + L grad J(u), the two-integrator controller
    # (c' omega, L[1:, :] grad J(u))
    rng = np.random.default_rng(54)
    for _ in range(10):
        net = random_tree_network(rng, int(rng.integers(2, 7)))
        c = rng.dirichlet(np.ones(net.n))
        y = rng.standard_normal((5, 2 * net.n))
        u, omega = y[:, :net.n], y[:, net.n:]
        grad = net.marginal_cost(u)
        dapi = OptimalityModel("rerfs", dapi_basis_by_formula(net), frequency_program(net))
        two = OptimalityModel("rfs", two_integrator_basis_by_formula(net),
                              frequency_program(net, c.reshape(1, -1)))
        for om, want in ((dapi, omega + grad @ net.laplacian.T),
                         (two, np.hstack([omega @ c[:, None], grad @ net.laplacian[1:, :].T]))):
            _, eps = om_dynamics(om, y, net.p_star, np.zeros((5, 0)))
            np.testing.assert_allclose(eps, want, rtol=0, atol=1e-12)
