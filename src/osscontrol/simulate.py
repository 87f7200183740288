"""Closed-loop assembly, fixed-step integration, and convergence metrics.

The closed loop stacks plant state x, inequality-multiplier state nu,
equality-multiplier state mu (output-subspace variant only), and the
proxy-error integrators eta, in that order.  The control input is the
static feedback u = -(Kx x + Knu nu + Kmu mu + Keta eta) - Keps eps; when
Keps is nonzero the input appears on both sides through the plant
feedthrough, and the loop is solved exactly, which restricts proportional
proxy-error feedback to quadratic objectives (affine loop).  That solve
reads the eps rows of the model's linear maps (``OptimalityModel.linear_maps``).

Integration is classical fixed-step RK4: deterministic, bit-stable for fixed
inputs, so golden traces are byte-reproducible.  For fully affine loops the
four stages collapse to a precomputed linear step map, which is the same
update in exact arithmetic.  Both the step map and the four-stage step run in
one loop that checks divergence once per block of ROW_BLOCK steps; a block
that may hold a diverged state is rescanned step by step, so the truncation
step is the one a per-step check would find.

``assemble`` writes the loop's input and output map once, as ``evaluate``:
one state (n_state,) or a row stack (..., n_state) to (x, u, y, state_dot,
eps), through ``om_dynamics``.  ``rhs`` adds the plant derivative, at one
state or a row stack; ``outputs`` maps a (k, ..., n_state) array of states to
(y, u, eps, cost), about ROW_BLOCK states at a time, affine or not.  Matrix-vector
products over a row stack (``matlib._mv``) make the same BLAS call per row as
for one state, and every other operation is elementwise or per row, so row i
of a stacked result is bit-identical to evaluating state i alone.  An affine
loop's (A_cl, b_cl) is probed from one ``rhs`` call on the rows [0; I]; it is
the one closed-loop matrix of the package: the RK4 step map, the equilibrium
Newton solve and the spectrum checks all read it.

``assemble`` builds a loop of S rows, row i the loop at delta_i with
stabilizer i; a scenario integrates its variants and sweep samples this way,
and the spectrum checks probe the A_cl of a block of delta samples.  Each
row takes its own products, and an affine loop of S rows steps with each
row's own step map.  ``integrate_rk4`` advances such a stack (or S states of
a one-row loop) with the same block loop as one state.  Each row is
truncated at its own first diverged step, found as for one state; the stack
steps on until every row has diverged or the horizon ends, and a row past
its end repeats its last state, so the discarded steps of a diverged row
never reach ``outputs``.  Row i of the stacked trajectory is bit-identical
to integrating row i alone.

``Trajectory.to_csv`` writes each value as ``"%.15g" % value``, the bytes of
``np.savetxt(fmt="%.15g")``, formatting a chunk of values at once.  For a
finite value with 1e-22 <= |v| < 1e15, E = floor(log10 |v|) and k = 14 - E
(0 <= k <= 36), the scaled s = |v| 10^k is formed as p + err + |v| lo:
p + err is Dekker's two-product of |v| and hi, exact, and 10^k = hi + lo with
lo = 0 for k <= 22, where 10^k is a double, and otherwise the remainder of
the Python int 10^k, rounded, so hi + lo is within 2^-106 of 10^k.  Then p
is within 1/16 + 1/9 < 1/4 of s (half an ulp of p below 2^50, and |v lo| <=
2^-53 s), and the computed fraction f = (p - n) + (err + |v| lo), with
n = floor(p), is within 1e-15 of s - n.  When 1e14 + 1/4 < p < 1e15 - 1/4,
s lies in (1e14, 1e15), so E is the exponent of the 15-digit significand,
and s - n in (-1/4, 5/4); so when f is more than 1e-6 from 1/2,
n + (f > 1/2) is s correctly rounded to an integer, the 15 significant
digits, exact in int64 (below 2^53); a carry to 10^15 raises the exponent by
one.  Sign, "0.000" prefix, digits, point, exponent and separator go to fixed
byte slots, and dropping the zero bytes leaves the text.  Zeros are written
"0" and "-0".  Every other value goes through ``%``: non-finite values,
magnitudes outside the range, p within 1/4 of 1e14 or 1e15 (a log10 exponent
off by one among them), and fractions within 1e-6 of a rounding tie, exact
ties included.  No value is approximated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OssError
from .matlib import ROW_BLOCK, _mv
from .omodels import OptimalityModel, om_dynamics
from .plant import UncertainPlant, eval_plant
from .stabilize import Stabilizer

DIVERGENCE_LIMIT = 1e12
# Values per formatting chunk of ``Trajectory.to_csv``; its temporaries stay
# below a megabyte.
_CSV_CHUNK = 4096
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for float64
_X_MIN, _X_MAX = -22, 15  # decimal exponents that _format_g15 lays out itself


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Assembled autonomous closed loop z_dot = rhs(t, z) with output maps.

    ``rhs`` takes one state (n_state,) or a row stack (..., n_state).
    ``outputs`` takes an array (k, ..., n_state) of states and returns
    ``(y, u, eps, cost)`` of shapes (k, ..., p), (k, ..., m), (k, ..., eps_dim)
    and (k, ...); every entry is bit-identical to evaluating the output
    formulas at its state alone.  ``affine`` holds (A_cl, b_cl) with
    rhs(z) = A_cl z + b_cl when the loop is affine.  A loop of S rows (see
    ``assemble``) takes states with a row axis of length S before the state
    axis, and its ``affine`` holds one (A_cl, b_cl) per row, (S, n_state,
    n_state) and (S, n_state).
    """

    n_state: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    outputs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    m: int
    p: int
    eps_dim: int
    affine: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class Trajectory:
    """Uniform-grid closed-loop trace with per-time outputs.

    One row: ``states`` (k, n_state), ``y``, ``u``, ``eps`` (k, .) and
    ``cost`` (k,).  A row stack of S rows puts a row axis after the time
    axis, (k, S, .), and holds each row's ``diverged`` flag and its number of
    samples, ``ends``, as (S,) arrays; past its end a row repeats its last
    state and outputs.  ``rows`` splits a stack into one-row trajectories.
    """

    times: np.ndarray
    states: np.ndarray
    y: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    cost: np.ndarray
    diverged: bool | np.ndarray = False
    ends: np.ndarray | None = None

    def rows(self) -> list[Trajectory]:
        """The one-row trajectories of a row stack, each up to its own end."""
        return [Trajectory(times=self.times[:e], states=self.states[:e, i], y=self.y[:e, i],
                           u=self.u[:e, i], eps=self.eps[:e, i], cost=self.cost[:e, i],
                           diverged=bool(d))
                for i, (e, d) in enumerate(zip(self.ends, self.diverged))]

    def to_csv(self, path) -> None:
        """Write the trace as CSV: t, state, input, output, proxy error, cost.

        A header line of column names, then one line per time: every value as
        ``"%.15g" % value`` (15 significant digits), comma separated, LF line
        endings.
        """
        cols = [c for c in (self.times.reshape(-1, 1), self.states, self.u, self.y,
                            self.eps, self.cost.reshape(-1, 1)) if c.shape[1] > 0]
        names = (
            ["t"]
            + [f"x{i+1}" for i in range(self.states.shape[1])]
            + [f"u{i+1}" for i in range(self.u.shape[1])]
            + [f"y{i+1}" for i in range(self.y.shape[1])]
            + [f"eps{i+1}" for i in range(self.eps.shape[1])]
            + ["cost"]
        )
        rows = max(1, _CSV_CHUNK // len(names))
        # the separator of each value, in byte 4 of its last slot word
        seps = np.full(len(names), ord(","), np.uint64)
        seps[-1] = ord("\n")
        seps = np.tile(seps << np.uint64(32), rows)
        with open(path, "wb") as f:
            f.write((",".join(names) + "\n").encode())
            for lo in range(0, len(self.times), rows):
                block = np.hstack([c[lo: lo + rows] for c in cols]).ravel()
                f.write(_format_g15(block, seps[: block.size]))


@functools.cache
def _powers_of_ten():
    """``(hi, lo, hi_h, hi_l)`` for k = 0..36: 10^k = hi + lo, and Dekker's
    split hi_h + hi_l of hi; built on first use."""
    p10 = [10 ** k for k in range(37)]
    hi = np.array([float(t) for t in p10])
    lo = np.array([float(t - int(float(t))) for t in p10])
    t = _SPLIT * hi
    hi_h = t - (t - hi)
    return hi, lo, hi_h, hi - hi_h


@functools.cache
def _layout_tables():
    """Lookup tables of ``_format_g15``, built on first use.

    - ``quad``: the four ASCII digits of 0..9999, first digit in the low byte;
    - ``zeros``: the trailing decimal zeros of 0..9999 (4 for 0);
    - per (exponent x, significant digits): the masks of the 16-byte mantissa
      slot taking the digits in place, the digits one byte up (after the
      point) and the point, as (low, high) words;
    - per exponent x: the "0.000" prefix word and the "e+XX" exponent word.
    """
    n = np.arange(10000, dtype=np.uint64)
    quad = sum((n // 10 ** (3 - i) % 10 + ord("0")) << np.uint64(8 * i) for i in range(4))
    zeros = sum((n % 10 ** j == 0).astype(np.intp) for j in range(1, 5))
    # %g writes x = -4..14 as fixed point, the others with an exponent; in the
    # mantissa field the point goes after the integer digits of a fixed-point
    # value >= 1, after the first digit with an exponent, and not at all
    # below 1 (16); fixed point keeps its integer digits, then the field
    # ends after the last significant digit
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    fixed = (x >= -4) & (x < 15)
    point = np.where(fixed & (x >= 0), x + 1, np.where(fixed, 16, 1))
    digits = np.where(fixed & (x >= 0), np.maximum(np.arange(16), x + 1), np.arange(16))
    end = (digits + (digits > point))[..., None]
    j = np.arange(16)
    point = point[..., None]

    def words(mask, byte):
        return np.where(mask, byte, 0).astype(np.uint8).view("<u8").reshape(-1, 2).T.copy()

    in_place = words((j < end) & (j < point), 255)
    shifted = words((j < end) & (j > point), 255)
    dot = words((j < end) & (j == point), ord("."))
    prefix, exponent = [], []
    for xv in range(_X_MIN, _X_MAX + 1):
        small = -4 <= xv < 0
        prefix.append(int.from_bytes(b"\0" + (b"0." + b"0" * (-xv - 1) if small else b""), "little"))
        exponent.append(0 if -4 <= xv < 15 else int.from_bytes(b"e%+03d" % xv, "little"))
    return (quad, zeros, in_place, shifted, dot,
            np.array(prefix, np.uint64), np.array(exponent, np.uint64))


def _significands(a: np.ndarray):
    """``(n, x, exact)`` for magnitudes ``a``: the 15-digit significand n
    (int64, 10^14 <= n < 10^15) and decimal exponent x of ``"%.15g" % a``,
    and where they are certain (see the module docstring)."""
    hi_t, lo_t, hi_h, hi_l = _powers_of_ten()
    exact = (a >= 1e-22) & (a < 1e15)
    e = np.floor(np.log10(np.where(exact, a, 1.0))).astype(np.intp)
    np.clip(e, _X_MIN, 14, out=e)
    k = 14 - e
    hi = hi_t[k]
    p = a * hi
    t = _SPLIT * a
    a_h = t - (t - a)
    a_l = a - a_h
    bh, bl = hi_h[k], hi_l[k]
    err = a_l * bl - (((p - a_h * bh) - a_l * bh) - a_h * bl)
    n = np.floor(p)
    f = (p - n) + (err + a * lo_t[k])
    exact &= (p > 1e14 + 0.25) & (p < 1e15 - 0.25) & (np.abs(f - 0.5) >= 1e-6)
    n += f > 0.5
    carry = n == 1e15
    n[carry] = 1e14
    n = n.astype(np.int64)
    n[~exact] = 10 ** 14
    return n, e + carry, exact


def _format_g15(v: np.ndarray, seps: np.ndarray) -> bytes:
    """``"%.15g" % v[i]`` followed by its separator byte (``seps[i] >> 32``),
    for every i, concatenated.

    Each value is laid out in a 32-byte slot of four little-endian words:
    the sign and the "0.000" prefix (bytes 0-5), the mantissa field of up to
    15 digits and the point (bytes 8-23), the exponent "e+XX" (bytes 24-27)
    and the separator (byte 28); unused bytes are zero.
    """
    quad, zeros, in_place, shifted, dot, prefix, exponent = _layout_tables()
    a = np.abs(v)
    with np.errstate(invalid="ignore", over="ignore"):
        n, x, exact = _significands(a)
    # the significand in groups of 3, 4, 4 and 4 digits
    g0 = n // 10 ** 12
    n -= g0 * 10 ** 12
    g1 = n // 10 ** 8
    n -= g1 * 10 ** 8
    g2 = n // 10 ** 4
    g3 = n - g2 * 10 ** 4
    # the 15 digits as bytes 0-14 of the words (da, db)
    q2 = quad[g2]
    da = quad[g0] >> np.uint64(8) | quad[g1] << np.uint64(24) | q2 << np.uint64(56)
    db = q2 >> np.uint64(8) | quad[g3] << np.uint64(24)
    # significant digits: 15 less the trailing zeros
    digits = 15 - zeros[g3]
    few = np.flatnonzero(g3 == 0)
    digits[few] = np.where(g2[few] > 0, 11 - zeros[g2[few]],
                           np.where(g1[few] > 0, 7 - zeros[g1[few]], 3 - zeros[g0[few]]))
    xi = x - _X_MIN
    code = xi * 16 + digits
    # slot words: sign and prefix, mantissa low and high, exponent and separator
    slots = np.empty((v.size, 4), np.dtype("<u8"))
    slots[:, 0] = prefix[xi] | np.signbit(v) * np.uint64(ord("-"))
    slots[:, 1] = ((da & in_place[0][code]) | ((da << np.uint64(8)) & shifted[0][code])
                   | dot[0][code])
    slots[:, 2] = ((db & in_place[1][code])
                   | ((db << np.uint64(8) | da >> np.uint64(56)) & shifted[1][code])
                   | dot[1][code])
    slots[:, 3] = exponent[xi] | seps
    zero = np.flatnonzero(a == 0)
    slots[zero, 0] = np.signbit(v[zero]) * np.uint64(ord("-"))
    slots[zero, 1] = ord("0")
    slots[zero, 2] = 0
    slots[zero, 3] = seps[zero]
    text = slots.view(np.uint8)
    for i in np.flatnonzero(~exact & (a != 0)):
        s = ("%.15g" % v[i]).encode()
        text[i, :28] = 0
        text[i, :len(s)] = np.frombuffer(s, np.uint8)
    text = text.ravel()
    return np.compress(text != 0, text).tobytes()


def assemble(up: UncertainPlant, delta, w, om: OptimalityModel, stab) -> ClosedLoopSystem:
    """Wire plant, optimality model, proxy-error integrators, and stabilizer.

    One delta and one Stabilizer give one loop.  A stack (S, delta_dim) of
    deltas, a sequence of S stabilizers, or both give a loop of S rows, row
    i the loop at delta_i with stabilizer i; a single delta or stabilizer is
    shared by every row.  The rows' plant matrices (one ``plant.eval_plant``
    call on the delta stack) and gains are stacked (S, ., .), and the loop's
    states carry a row axis of length S.  The objective of ``om.program``
    then sees row stacks of outputs, (..., S, p), and may hold per-row
    parameters as (S, 1) columns.  An error at any delta is raised for the
    whole stack.  A delta stack and a stabilizer sequence of different
    lengths are a ValueError.
    """
    delta = np.asarray(delta, dtype=float)
    per_delta = delta.ndim == 2
    rows = len(delta) if per_delta else None
    if not isinstance(stab, Stabilizer):
        if per_delta and len(stab) != rows:
            raise ValueError(f"a row stack needs one stabilizer per delta, got {len(stab)} "
                             f"stabilizers for {rows} deltas")
        rows = len(stab)
    pm = eval_plant(up, delta)
    prog = om.program
    if prog.p != pm.p:
        raise ValueError(
            f"program output dimension {prog.p} does not match plant output block ({pm.p})"
        )
    if prog.n_w != pm.n_w:
        raise ValueError(
            f"program disturbance dimension {prog.n_w} does not match plant ({pm.n_w})"
        )
    w = np.asarray(w, dtype=float).reshape(pm.n_w)
    n, m = pm.n, pm.m
    n_nu, n_mu, n_eta = om.n_ic, om.n_mu, om.eps_dim
    n_om = n_nu + n_mu
    n_state = n + n_om + n_eta
    affine_loop = prog.is_qp and n_nu == 0
    qw, bw_w = _mv(pm.q, w), _mv(pm.bw, w)

    def input_map(stab: Stabilizer, i=...) -> tuple[np.ndarray, np.ndarray]:
        """``(u_gain, u_offset)`` with u = -u_gain z - u_offset, on the plant
        of row ``i`` of a delta stack, or on the whole plant (``...``)."""
        k_full = np.hstack([
            stab.block("kx", m, n),
            stab.block("knu", m, n_nu),
            stab.block("kmu", m, n_mu),
            stab.block("keta", m, n_eta),
        ])
        keps = stab.block("keps", m, n_eta)
        if not np.any(keps):
            return k_full, np.zeros(m)
        if not affine_loop:
            raise ValueError(
                "proportional proxy-error feedback (Keps != 0) needs a quadratic "
                "objective without inequalities so the input loop is affine"
            )
        # eps = e_y y + e_s (nu, mu) + e_w: the eps rows of the model's linear maps
        m_y, m_s, m_0 = om.linear_maps(w)
        e_y, e_s, e_w = m_y[n_om:], m_s[n_om:], m_0[n_om:]
        loop = np.eye(m) + keps @ e_y @ pm.d[i]
        try:
            loop_inv = np.linalg.inv(loop)
        except np.linalg.LinAlgError as exc:
            raise ValueError("proxy-error feedthrough loop is singular") from exc
        c_z = np.zeros(pm.c[i].shape[:-1] + (n_state,))
        c_z[..., :n] = pm.c[i]
        s_z = np.zeros((n_om, n_state))
        s_z[:, n: n + n_om] = np.eye(n_om)
        return (loop_inv @ (k_full + keps @ (e_y @ c_z + e_s @ s_z)),
                _mv(loop_inv, _mv(keps, _mv(e_y, qw[i]) + e_w)))

    if isinstance(stab, Stabilizer):
        u_gain, u_offset = input_map(stab)
    else:
        u_gain, u_offset = (np.stack(parts) for parts in zip(*(
            input_map(s, i if per_delta else ...) for i, s in enumerate(stab))))
    # (-K) z is -(K z) up to the sign of a zero, which the + 0.0 below
    # normalizes; subtracting a zero offset would leave every value as it is
    neg_gain, offset = -u_gain, u_offset.any()

    def evaluate(z: np.ndarray):
        """(x, u, y, state_dot, eps) at one state (n_state,) or a row stack
        (..., n_state); x is the plant block of z."""
        x = z[..., :n]
        u = _mv(neg_gain, z)
        if offset:
            u -= u_offset
        # + 0.0 normalizes negative zero so traces of resting loops read cleanly
        u += 0.0
        y = _mv(pm.c, x)
        y += _mv(pm.d, u)
        y += qw
        state_dot, eps = om_dynamics(om, y, w, z[..., n: n + n_om])
        return x, u, y, state_dot, eps

    def rhs(_t: float, z: np.ndarray) -> np.ndarray:
        x, u, _, state_dot, eps = evaluate(z)
        x_dot = _mv(pm.a, x)
        x_dot += _mv(pm.b, u)
        x_dot += bw_w
        # an empty piece costs a third of the concatenation
        return np.concatenate((x_dot, state_dot, eps) if n_om else (x_dot, eps), axis=-1)

    def outputs(zs: np.ndarray):
        lead = zs.shape[:-1]
        out = (np.empty(lead + (pm.p,)), np.empty(lead + (m,)), np.empty(lead + (n_eta,)),
               np.empty(lead))
        block = max(1, ROW_BLOCK // math.prod(lead[1:]))  # about ROW_BLOCK states
        for lo in range(0, lead[0], block):
            _, u, y, _, eps = evaluate(zs[lo: lo + block])
            for arr, part in zip(out, (y, u, eps, prog.objective_value(y, w))):
                arr[lo: lo + block] = part
        return out

    return ClosedLoopSystem(
        n_state=n_state, rhs=rhs, outputs=outputs, m=m, p=pm.p, eps_dim=n_eta,
        affine=_affine_maps(rhs, n_state, rows) if affine_loop else None,
    )


def _affine_maps(rhs, n_state: int, rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(A_cl, b_cl)`` of an affine ``rhs(z) = A_cl z + b_cl``, from one call
    on the row stack [0; I], given to each row of a loop of ``rows`` rows;
    A_cl is C-ordered."""
    probe = np.vstack([np.zeros(n_state), np.eye(n_state)])
    if rows is not None:
        probe = np.repeat(probe[:, None], rows, axis=1)
    out = rhs(0.0, probe)
    d = out[1:] - out[0]  # d[j, ..., i] = A_cl[..., i, j]
    return (d.T if rows is None else d.transpose(1, 2, 0)).copy(), out[0]


def _rk4_step_map(a_cl: np.ndarray, b_cl: np.ndarray, h: float):
    """Exact RK4 update matrices for an affine system: z+ = phi z + psi; for
    stacks (S, n, n) and (S, n), one map per row, stacked."""
    if a_cl.ndim == 3:
        maps = [_rk4_step_map(a, b, h) for a, b in zip(a_cl, b_cl)]
        return np.stack([phi for phi, _ in maps]), np.stack([psi for _, psi in maps])
    n = a_cl.shape[0]
    phi = np.eye(n)
    term = np.eye(n)
    for k in range(1, 5):
        term = term @ (h * a_cl) / k
        phi = phi + term
    # psi = (h I + h^2 A / 2 + h^3 A^2 / 6 + h^4 A^3 / 24) b
    term = h * np.eye(n)
    psi_mat = term.copy()
    for k in range(2, 5):
        term = term @ (h * a_cl) / k
        psi_mat = psi_mat + term
    return phi, psi_mat @ b_cl


def _diverged(z: np.ndarray) -> bool:
    return not np.isfinite(z).all() or np.linalg.norm(z) > DIVERGENCE_LIMIT


def integrate_rk4(sys: ClosedLoopSystem, z0, t_end: float, h: float) -> Trajectory:
    """Classical 4th-order fixed-step integration from z0 to t_end.

    ``z0`` is one state (n_state,), or a row stack (S, n_state) of initial
    states: one per row of a loop of S rows, or S states of one loop.  A row
    stack gives a stacked Trajectory.  Each row truncates with
    ``diverged=True`` at its first state that is not finite or whose norm
    passes 1e12; integration stops once every row has.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if not 1 <= t_end / h < math.inf:
        raise ValueError("t_end must be a finite number of steps, at least one")
    steps = int(round(t_end / h))
    z = np.array(z0, dtype=float)
    z = z.reshape((-1, sys.n_state) if z.ndim == 2 else sys.n_state)
    states = np.empty((steps + 1,) + z.shape)
    states[0] = z
    by_row = states.reshape(steps + 1, -1, sys.n_state)  # a view; one row for one state
    if sys.affine is not None:
        phi, psi = _rk4_step_map(*sys.affine, h)

        def step(z):
            return _mv(phi, z) + psi
    else:
        rhs, half, sixth = sys.rhs, 0.5 * h, h / 6.0

        def step(z):
            k1 = rhs(0.0, z)
            k2 = rhs(0.0, z + half * k1)
            k3 = rhs(0.0, z + half * k2)
            k4 = rhs(0.0, z + h * k3)
            return z + sixth * (k1 + 2 * k2 + 2 * k3 + k4)

    diverged = np.zeros(by_row.shape[1], dtype=bool)
    ends = np.full(by_row.shape[1], steps + 1)
    # A block may run past the divergence step into overflow; those states
    # are discarded, so their floating-point warnings are too.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, steps)
            for k in range(lo, hi):
                z = step(z)
                states[k + 1] = z
            block = by_row[lo + 1: hi + 1]
            # A state _diverged flags has a nan or inf sum of squares, or one
            # above LIMIT**2, four times this bound; a row passing the bound
            # over the block therefore holds none and needs no exact scan.
            calm = (np.einsum("kij,kij->ki", block, block) <= (0.5 * DIVERGENCE_LIMIT) ** 2)
            for r in np.flatnonzero(~calm.all(axis=0) & ~diverged):
                hit = next((k for k in range(lo + 1, hi + 1) if _diverged(by_row[k, r])), None)
                if hit is not None:
                    diverged[r], ends[r] = True, hit + 1
            if diverged.all():
                break
    end = ends.max()
    for r in np.flatnonzero(ends < end):
        by_row[ends[r]: end, r] = by_row[ends[r] - 1, r]
    states = states[:end]
    ys, us, epss, costs = sys.outputs(states)
    if z.ndim == 1:
        diverged, ends = bool(diverged[0]), None
    return Trajectory(times=np.arange(end) * h, states=states, y=ys, u=us, eps=epss,
                      cost=costs, diverged=diverged, ends=ends)


def equilibrium_solve(sys: ClosedLoopSystem, z_guess, tol: float = 1e-10,
                      max_iter: int = 100) -> tuple[np.ndarray, float]:
    """Damped Newton solve of rhs(z) = 0 near the guess.

    Uses the exact closed-loop matrix as the Jacobian for affine loops and a
    finite-difference Jacobian otherwise.  Raises OssError on a singular
    Jacobian or when 100 iterations do not reach the residual tolerance.
    """
    z = np.asarray(z_guess, dtype=float).reshape(sys.n_state).copy()
    r = sys.rhs(0.0, z)
    for _ in range(max_iter):
        nr = np.linalg.norm(r)
        if nr <= tol:
            return z, float(nr)
        if sys.affine is not None:
            jac = sys.affine[0]
        else:
            jac = np.zeros((sys.n_state, sys.n_state))
            for j in range(sys.n_state):
                step = 1e-7 * (1.0 + abs(z[j]))
                e = np.zeros(sys.n_state)
                e[j] = step
                jac[:, j] = (sys.rhs(0.0, z + e) - sys.rhs(0.0, z - e)) / (2 * step)
        s = np.linalg.svd(jac, compute_uv=False)
        if s[-1] <= 1e-12 * max(1.0, s[0]):
            raise OssError("equilibrium Jacobian is singular at tolerance")
        dz = np.linalg.solve(jac, -r)
        t = 1.0
        for _ in range(40):
            zn = z + t * dz
            rn = sys.rhs(0.0, zn)
            if np.linalg.norm(rn) < nr or np.linalg.norm(rn) <= tol:
                z, r = zn, rn
                break
            t *= 0.5
        else:
            raise OssError("equilibrium Newton line search stalled")
    nr = float(np.linalg.norm(sys.rhs(0.0, z)))
    if nr <= tol:
        return z, nr
    raise OssError(f"equilibrium Newton did not converge in {max_iter} iterations")


def convergence_metrics(traj: Trajectory, y_star, settle_tol: float = 1e-3) -> dict:
    """Quantify convergence of the optimization output to a target.

    extrema_count counts strict local extrema of the cost after a transient
    guard of 5% of the horizon; comparisons use a prominence floor of 1e-9
    of the cost range so floating-point wiggle at a plateau is not counted.
    """
    ys = np.asarray(y_star, dtype=float).ravel()
    err = np.linalg.norm(traj.y - ys, axis=1)
    final_err = float(err[-1])
    # settled from one past the last sample that is not below tolerance
    above = np.flatnonzero(~(err < settle_tol))
    first = above[-1] + 1 if above.size else 0
    settling = float(traj.times[first]) if first < len(err) else np.inf
    t_end = traj.times[-1] if len(traj.times) else 0.0
    guard = traj.times > 0.05 * t_end
    c = traj.cost[guard]
    extrema = 0
    if c.size >= 3:
        floor = 1e-9 * max(float(c.max() - c.min()), 1e-300)
        rising = c[1:-1] - c[:-2]
        falling = c[1:-1] - c[2:]
        extrema = int(np.count_nonzero(
            ((rising > floor) & (falling > floor)) | ((rising < -floor) & (falling < -floor))
        ))
    return {
        "final_err": final_err,
        "settling_time": settling,
        "extrema_count": extrema,
    }
