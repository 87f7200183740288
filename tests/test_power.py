"""Power-network builders on their own: the closed-form dispatch against the
generic oracle, the network data checks, and the dispatch map."""

import dataclasses

import numpy as np
import pytest

from osscontrol.omodels import gather_broadcast_input
from osscontrol.optprob import oracle_optimal_output
from osscontrol.plant import eval_plant
from osscontrol.power import (
    PowerNetwork,
    build_swing_plant,
    default_network,
    dispatch_oracle,
    frequency_program,
)

from helpers import assert_bits_equal, swing_matrices_by_formula


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
