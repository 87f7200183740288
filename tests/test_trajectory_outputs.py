"""A trajectory holds its states; its outputs are evaluated where they are read.

``integrate_rk4`` stores the states alone.  A one-row trajectory of a stack
reads its outputs from its own request's loop, ``to_csv`` evaluates them one
chunk of lines at a time and the convergence metrics a block at a time.
These tests pin what that must keep: the memory of a run, the CSV bytes in
any chunking, and each row's outputs against the stacked loop's.
"""

import hashlib
import tracemalloc
from dataclasses import fields
from functools import cache

import numpy as np
import pytest

from osscontrol import scenarios, simulate
from osscontrol.simulate import Trajectory

from helpers import assert_bits_equal

STEPS = 40
OUTPUTS = ("y", "u", "eps", "cost")


@cache
def short_runs():
    """``{scenario: (trajectories, [(stack, rows)])}`` of every bundled run
    with ``--sweep`` over STEPS steps: the returned trajectories, and each
    stacked trajectory with the one-row trajectories ``_integrate`` split it
    into."""
    runs = {}
    split = []
    original = Trajectory.rows

    def recording(stack, outputs=None):
        rows = original(stack, outputs)
        split.append((stack, rows))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trajectory, "rows", recording)
        for name in scenarios.BUNDLED_NAMES:
            sc = scenarios.load_scenario(name)
            h = float(sc.variants[0].sim["h"])
            _, trajectories = scenarios.run_scenario(sc, t_end=STEPS * h, sweep=True)
            runs[name] = (trajectories, split[:])
            split.clear()
    return runs


def csv_sha256(traj, path) -> str:
    traj.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", scenarios.BUNDLED_NAMES)
def test_csv_bytes_do_not_depend_on_the_chunk(name, tmp_path, monkeypatch):
    # one line per chunk, seven lines (STEPS + 1 = 41 is not a multiple of
    # seven, so the last chunk is short) and the default: the outputs of a
    # chunk are evaluated on that chunk's states alone
    for key, traj in short_runs()[name][0].items():
        columns = 2 + traj.states.shape[1] + sum(part.size for part in traj.final()[:3])
        want = csv_sha256(traj, tmp_path / "default.csv")
        for values in (1, 7 * columns):
            monkeypatch.setattr(simulate, "_CSV_CHUNK", values)
            assert csv_sha256(traj, tmp_path / f"{values}.csv") == want, (key, values)
        monkeypatch.undo()


@pytest.mark.parametrize("name", scenarios.BUNDLED_NAMES)
def test_each_rows_outputs_map_gives_the_stacked_bits(name):
    # every stack of the run, a loop of several rows (variants, sweep samples)
    # or of one: the outputs that row i reads from its own map against row i
    # of the stacked map's outputs at every state of the stack
    trajectories, split = short_runs()[name]
    # power-gb's gather-and-broadcast loop is integrated alone, unstacked
    assert (len(split) == 0) == (name == "power-gb")
    for stack, rows in split:
        stacked = stack.outputs(stack.states)
        assert len(rows) == stack.states.shape[1]
        for i, row in enumerate(rows):
            end = stack.ends[i]
            assert_bits_equal(row.states, stack.states[:end, i], f"{name} row {i} states")
            for g, s, what in zip(row.outputs(row.states), stacked, OUTPUTS):
                assert_bits_equal(g, s[:end, i], f"{name} row {i} {what}")
    # every returned trajectory of a stacked loop is one of the rows
    if split:
        rows = {id(row) for _, made in split for row in made}
        assert {id(t) for t in trajectories.values()} <= rows


# pd-vs-oss over a quarter of its horizon (15001 steps of a (2, 3) row
# stack): under tracemalloc the full horizon takes about a second, and a
# quarter shows the same split.  Stored next to the states, y, u, eps and
# cost made the run peak at 4.2 MB and leave 2.8 MB live (14.9 and 11.0 MB
# over the full horizon); the states alone are 0.72 MB.
PD_T_END = 15.0
PEAK_BOUND_MB = 3.2


def test_a_run_holds_its_states_not_its_outputs(tmp_path):
    sc = scenarios.load_scenario("pd-vs-oss")
    scenarios.run_scenario(sc, out_dir=tmp_path, t_end=0.1)  # first-use tables
    tracemalloc.start()
    try:
        _, trajectories = scenarios.run_scenario(sc, out_dir=tmp_path, t_end=PD_T_END)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND_MB * 1e6
    # what stays alive is the stack's states and the times, not the outputs
    stacks = {id(t.states.base): t.states.base.nbytes for t in trajectories.values()}
    assert len(trajectories) == 2 and len(stacks) == 1
    held = sum(stacks.values()) + sum(t.times.nbytes for t in trajectories.values())
    assert live <= held + 0.5e6
    assert {f.name for f in fields(Trajectory)} == {"times", "states", "outputs", "diverged",
                                                   "ends"}
    for t in trajectories.values():
        assert not [v for v in vars(t).values() if isinstance(v, np.ndarray)
                    and v is not t.states and v is not t.times]
