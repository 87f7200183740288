import numpy as np
import pytest

from osscontrol import matlib
from osscontrol.plant import PlantMatrices, UncertainPlant, fixed_plant, per_delta


@pytest.fixture
def two_state_plant() -> PlantMatrices:
    """Stable two-state plant with y = (x1, u); its equilibrium outputs span (1, 1)."""
    return PlantMatrices(
        a=[[-1.0, 0.0], [1.0, -1.0]], b=[[1.0], [-1.0]], bw=[[1.0], [1.0]],
        c=[[1.0, 0.0], [0.0, 0.0]], d=[[0.0], [1.0]], q=np.zeros((2, 1)),
    )


@pytest.fixture
def two_state_family() -> UncertainPlant:
    """Perturbed two-state family: the equilibrium-output direction rotates with delta."""

    def evaluate(delta: np.ndarray) -> PlantMatrices:
        d = float(delta[0])
        return PlantMatrices(
            a=[[-1.0 - d, 0.0], [1.0 + d, -1.0]], b=[[1.0], [-1.0]], bw=[[1.0], [1.0]],
            c=[[1.0, 0.0], [0.0, 0.0]], d=[[0.0], [1.0]], q=np.zeros((2, 1)),
        )

    return UncertainPlant(evaluate=per_delta(evaluate), delta_dim=1,
                          delta_samples=[[0.0], [0.5], [-0.5]],
                          delta_box=[(-0.5, 0.5)])


@pytest.fixture
def singular_unstable_plant() -> PlantMatrices:
    """Three-state plant with eigenvalues {0, 0, 1}: neither invertible nor stable."""
    return PlantMatrices(
        a=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        b=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], bw=[[0.0], [1.0], [0.0]],
        c=np.eye(3), d=np.zeros((3, 2)), q=np.zeros((3, 1)),
    )


@pytest.fixture
def nominal_two_state(two_state_plant) -> UncertainPlant:
    return fixed_plant(two_state_plant)


@pytest.fixture
def delta_block(monkeypatch) -> int:
    """The delta-sample block size, patched to 8: a test that sizes its
    samples by it spans several blocks at a fraction of the package's block
    size (every result is bit-identical in any block)."""
    monkeypatch.setattr(matlib, "DELTA_BLOCK", 8)
    return matlib.DELTA_BLOCK
