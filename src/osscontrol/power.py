"""Power-network frequency control: swing dynamics, cost dispatch, controllers.

The generator/frequency model over an acyclic n-bus network is

    M omega_dot = p_star - D omega - Ainc p + u
    p_dot       = Bsus Ainc' omega

with x = (omega, p), input u the controllable reserve power, and disturbance
w = p_star the uncontrolled injections.  The optimization output is
y = (u, omega); the steady-state program minimizes total quadratic
production cost subject to zero steady-state frequency deviation.

Three controllers are provided: distributed-averaging PI over a
communication Laplacian, a two-integrator scheme (one agent integrates the
weighted frequency while the others average marginal costs), and a
centralized gather-and-broadcast scheme with inverse-marginal-cost dispatch.
All use the package-wide negative-feedback convention u = -(gains . states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlib import _mv, _vdot, as_matrix, numerical_rank
from .omodels import OptimalityModel, gather_broadcast_input
from .optprob import ConvexProgram
from .plant import PlantStack, UncertainPlant, eval_plant
from .simulate import ClosedLoopSystem, _affine_maps
from .stabilize import Stabilizer


@dataclass(frozen=True)
class PowerNetwork:
    """Bus/line data for the swing model plus control-layer parameters.

    edges must form a tree (acyclic connected graph); inertia, damping, and
    susceptance are the diagonal entries of the respective matrices; cost_a
    and cost_b define per-node production costs 0.5 a_i u_i^2 + b_i u_i;
    laplacian is the communication-graph Laplacian (rows sum to zero, one
    globally reachable node).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    inertia: np.ndarray
    damping: np.ndarray
    susceptance: np.ndarray
    p_star: np.ndarray
    cost_a: np.ndarray
    cost_b: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self):
        n = self.n
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        for name, size in (("inertia", n), ("damping", n), ("p_star", n),
                           ("cost_a", n), ("cost_b", n),
                           ("susceptance", len(edges))):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(size)
            object.__setattr__(self, name, arr)
        if self.inertia.min() <= 0 or self.damping.min() <= 0:
            raise ValueError("inertia and damping must be positive")
        if len(edges) and self.susceptance.min() <= 0:
            raise ValueError("line susceptances must be positive")
        if self.cost_a.min() <= 0:
            raise ValueError("cost curvatures must be positive")
        if len(edges) != n - 1:
            raise ValueError(
                f"network must be acyclic and connected: expected {n - 1} lines, got {len(edges)}"
            )
        inc = self.incidence()
        if numerical_rank(inc) != n - 1:
            raise ValueError("edge list does not form a connected acyclic graph")
        lap = as_matrix(self.laplacian).reshape(n, n)
        if np.abs(lap @ np.ones(n)).max() > 1e-10 * max(1.0, np.abs(lap).max()):
            raise ValueError("communication Laplacian rows must sum to zero")
        if numerical_rank(lap) != n - 1:
            raise ValueError("communication graph needs a globally reachable node")
        object.__setattr__(self, "laplacian", lap)

    @property
    def n_lines(self) -> int:
        return len(self.edges)

    def incidence(self) -> np.ndarray:
        """Signed node-edge incidence matrix, one column per line."""
        inc = np.zeros((self.n, self.n_lines))
        for k, (i, j) in enumerate(self.edges):
            inc[i, k] = 1.0
            inc[j, k] = -1.0
        return inc

    def marginal_cost(self, u: np.ndarray) -> np.ndarray:
        return self.cost_a * np.asarray(u, dtype=float) + self.cost_b


def default_network() -> PowerNetwork:
    """4-bus line network used by the bundled scenarios.

    All numeric values here are toolkit defaults, not published data.
    """
    return PowerNetwork(
        n=4,
        edges=((0, 1), (1, 2), (2, 3)),
        inertia=[1.0, 1.2, 0.8, 1.0],
        damping=[1.0, 1.0, 1.0, 1.0],
        susceptance=[1.0, 1.0, 1.0],
        p_star=[0.2, -0.4, 0.1, -0.3],
        cost_a=[1.0, 2.0, 3.0, 4.0],
        cost_b=[0.0, 0.0, 0.0, 0.0],
        laplacian=[[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]],
    )


# The swing plant's delta box: the damping scale 1 + delta stays within half of 1.
SWING_DELTA_BOX = ((-0.5, 0.5),)


def build_swing_plant(net: PowerNetwork, delta_samples=((0.0,), (0.3,), (-0.3,))) -> UncertainPlant:
    """Swing dynamics as an uncertain LTI plant; delta scales the damping.

    State (omega, p), disturbance w = p_star, optimization output (u, omega).
    Every matrix but the damping block of A is the same at every delta: it
    is built once, read-only, and a block's realizations share it as
    broadcast views.  The damping block is computed over the whole block.
    """
    n, nt = net.n, net.n_lines
    inc = net.incidence()
    neg_m_inv = -np.diag(1.0 / net.inertia)
    # A with its damping block left zero
    a_fixed = np.block([[np.zeros((n, n)), neg_m_inv @ inc],
                        [np.diag(net.susceptance) @ inc.T, np.zeros((nt, nt))]])
    b = np.vstack([-neg_m_inv, np.zeros((nt, n))])
    c = np.vstack([np.zeros((n, n + nt)), np.hstack([np.eye(n), np.zeros((n, nt))])])
    d = np.vstack([np.eye(n), np.zeros((n, n))])
    fixed = {"b": b, "bw": b.copy(), "c": c, "d": d, "q": np.zeros((2 * n, n)),
             "cm": np.eye(n + nt)}
    for mat in (a_fixed, *fixed.values()):
        mat.flags.writeable = False
    diag = np.arange(n)

    def evaluate(block: np.ndarray) -> PlantStack:
        scale = 1.0 + block[:, 0]
        if (scale <= 0).any():
            raise ValueError("damping scale must remain positive")
        damping = np.zeros((len(block), n, n))
        damping[:, diag, diag] = scale[:, None] * net.damping
        a = np.repeat(a_fixed[None], len(block), axis=0)
        a[:, :n, :n] = neg_m_inv @ damping
        return PlantStack(a=a, **{k: np.broadcast_to(m, (len(block),) + m.shape)
                                  for k, m in fixed.items()})

    return UncertainPlant(evaluate=evaluate, delta_dim=1,
                          delta_samples=[np.asarray(s, dtype=float) for s in delta_samples],
                          delta_box=SWING_DELTA_BOX)


def frequency_program(net: PowerNetwork, f_freq=None) -> ConvexProgram:
    """Optimal frequency regulation program over y = (u, omega).

    Objective sum_i (0.5 a_i u_i^2 + b_i u_i); equality constraint
    F omega = 0 with F defaulting to the identity.
    """
    n = net.n
    f = np.eye(n) if f_freq is None else as_matrix(f_freq).reshape(-1, n)
    m_cost = np.zeros((2 * n, 2 * n))
    m_cost[:n, :n] = np.diag(net.cost_a)
    c = np.concatenate([net.cost_b, np.zeros(n)])
    h = np.hstack([np.zeros((f.shape[0], n)), f])
    l = np.zeros((f.shape[0], n))
    return ConvexProgram.from_qp(m_cost, np.zeros((2 * n, n)), n_w=n, h_eq=h, l_eq=l, c=c)


def dapi_feasible_basis(net: PowerNetwork) -> np.ndarray:
    """Fixed feasible-direction matrix [laplacian'; 0] for the full-frequency constraint."""
    n = net.n
    return np.vstack([net.laplacian.T, np.zeros((n, n))])


def build_dapi(net: PowerNetwork, k: float = 1.0) -> tuple[OptimalityModel, Stabilizer]:
    """Distributed-averaging PI: eta_dot = omega + laplacian grad J(u), u = -(1/k) eta."""
    if k <= 0:
        raise ValueError("integral gain parameter k must be positive")
    prog = frequency_program(net)
    om = OptimalityModel(variant="rerfs", basis=dapi_feasible_basis(net), program=prog)
    stab = Stabilizer(keta=np.eye(net.n) / k)
    return om, stab


def novel_feasible_basis(net: PowerNetwork) -> np.ndarray:
    """Reduced feasible-direction matrix [reduced-laplacian'; 0] (first row deleted).

    Requires the reduced Laplacian to keep rank n-1, which holds whenever the
    deleted row lies in the span of the others (always for undirected
    connected graphs).
    """
    n = net.n
    if n < 2:
        raise ValueError("two-integrator controller needs at least two buses")
    reduced = net.laplacian[1:, :]
    if numerical_rank(reduced) != n - 1:
        raise ValueError("deleting the first Laplacian row drops rank; pick another row order")
    return np.vstack([reduced.T, np.zeros((n, n - 1))])


def build_novel_freq_controller(net: PowerNetwork, c_weights, gains=None) -> tuple[OptimalityModel, Stabilizer | None]:
    """Two-integrator frequency controller from the feasible-subspace model.

    eps = (c' omega, reduced-laplacian grad J(u)); one agent integrates the
    convex-weighted frequency, the others average marginal costs.  ``gains``
    may supply (k1, k2, k3) blocks for u = -(k1 eta1 + k2 eta2 + k3 omega);
    when None the caller is expected to synthesize a stabilizer (e.g. LQR).
    """
    c = _validate_weights(net, c_weights)
    prog = frequency_program(net, f_freq=c.reshape(1, -1))
    om = OptimalityModel(variant="rfs", basis=novel_feasible_basis(net), program=prog)
    stab = None
    if gains is not None:
        k1 = as_matrix(gains["k1"]).reshape(net.n, 1)
        k2 = as_matrix(gains["k2"]).reshape(net.n, net.n - 1)
        k3 = as_matrix(gains["k3"]).reshape(net.n, net.n)
        kx = np.hstack([k3, np.zeros((net.n, net.n_lines))])
        stab = Stabilizer(kx=kx, keta=np.hstack([k1, k2]))
    return om, stab


def _validate_weights(net: PowerNetwork, c_weights) -> np.ndarray:
    c = np.asarray(c_weights, dtype=float).reshape(net.n)
    if c.min() < 0 or abs(c.sum() - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative convex-combination coefficients")
    return c


def build_gather_broadcast(net: PowerNetwork, c_weights, w=None) -> ClosedLoopSystem:
    """Centralized gather-and-broadcast loop: a scalar integrator on the
    convex-weighted frequency drives the inverse-marginal-cost dispatch.

        eta_dot = c' omega,   u = (grad J)^-1(-eta)

    The integrator state enters negated, matching the package sign
    convention: positive accumulated frequency must reduce production.
    """
    c = _validate_weights(net, c_weights)
    n, nt = net.n, net.n_lines
    swing = eval_plant(build_swing_plant(net), np.zeros(1))
    a_mat, b_mat = swing.a, swing.b
    w = net.p_star if w is None else np.asarray(w, dtype=float).reshape(n)
    n_state = n + nt + 1

    def input_of(eta):
        return gather_broadcast_input(net.cost_a, net.cost_b, -eta) + 0.0

    def rhs(_t, z):
        u = input_of(z[..., -1])
        x_dot = _mv(a_mat, z[..., : n + nt]) + _mv(b_mat, u) + b_mat @ w
        return np.concatenate([x_dot, _vdot(c, z[..., :n])[..., None]], axis=-1)

    def outputs(zs):
        # elementwise over rows; matmul makes the same dot call per row as c @ omega
        u = input_of(zs[:, -1])
        omega = zs[:, :n]
        y = np.hstack([u, omega])
        eps = np.matmul(c, omega[:, :, None])
        cost = np.sum(0.5 * net.cost_a * u ** 2 + net.cost_b * u, axis=1)
        return y, u, eps, cost

    return ClosedLoopSystem(n_state=n_state, rhs=rhs, outputs=outputs,
                            m=n, p=2 * n, eps_dim=1, affine=_affine_maps(rhs, n_state))


def dispatch_oracle(net: PowerNetwork, w=None) -> dict:
    """Equal-marginal-cost dispatch: minimize total cost subject to balancing
    the net injections, solved in closed form.  Ground truth for the power
    scenarios (steady-state frequency deviations are zero)."""
    w = net.p_star if w is None else np.asarray(w, dtype=float).reshape(net.n)
    inv_a = 1.0 / net.cost_a
    tau = (-w.sum() + (net.cost_b * inv_a).sum()) / inv_a.sum()
    u_star = (tau - net.cost_b) * inv_a
    return {
        "u_star": u_star,
        "marginal": tau,
        "y_star": np.concatenate([u_star, np.zeros(net.n)]),
        "cost": float(np.sum(0.5 * net.cost_a * u_star ** 2 + net.cost_b * u_star)),
    }
