"""Table-driven fuzzing of the command line: every command, every setting.

For each entry of `cli.COMMANDS` a valid command line is taken apart: each
setting keeps its value, takes one from a pool chosen by its parser in
`cli.SETTINGS` or is left out, and is given as a flag or in a config file.
Whatever the values, `main` must end in an exit code of 0 to 3: no exception
escapes it, numpy warns about nothing, and a successful run prints no NaN
or infinity (an eval CSV holds y = +-inf only at a pole, where its formula
divides by zero).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgwaves import oracles
from sgwaves.cli import COMMANDS, SETTINGS, _boolean, _branch, _parse_grid, main
from sgwaves.closed_form import WaveBranch

FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "5e-324", "0", "-1", str(2**63),
          "0.5", "1", "1.5"]
INTS = ["0", "-1", str(2**63), str(10**400), "1", "2"]
# value pools by parser, or by name for the plain-string settings
POOLS = {
    float: FLOATS,
    int: INTS,
    _boolean: ["true", "off", "maybe"],
    _branch: [b.value for b in WaveBranch] + ["kink"],
    _parse_grid: ["0:1:5", "-3:3:7", "0:1", "1:0:5", "0:inf:4", "nan:0:3", "0:1:x", "0:1e308:3",
                  "-1e308:0:3"],
    "domain": ["circle", "segment", "torus"],
    "out": ["file", "directory"],
    "snapshot_out": ["file", "directory"],
}
# a valid command line per command; each setting keeps its value here, takes one from its pool
# or is left out.  simulate always keeps its t_end: a drawn 2**63 would run for 1e20 steps
BASE = {
    "eval": {"alpha": "1", "gamma": "1.5", "branch": "kink_array", "grid": "-3:3:7", "out": "file"},
    "period": {"alpha": "1", "gamma": "1.5"},
    "limits": {"alpha": "1", "gamma": "0.5", "branch": "decreasing1"},
    "verify": {},
    "simulate": {"alpha": "1", "gamma": "1.5", "branch": "kink_array", "n": "64", "t_end": "1",
                 "out": "file"},
}
KEEP = {"simulate": {"t_end"}}


@st.composite
def command_lines(draw):
    """(command, {setting: (value, where)}), where is "flag" or "config"."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {}
    for name in COMMANDS[command][2]:
        value = BASE[command].get(name)
        redraw = value is None or draw(st.sampled_from([False, False, True]))
        if redraw and name not in KEEP.get(command, ()):
            value = draw(st.sampled_from([None, *(POOLS.get(name) or POOLS[SETTINGS[name][0]])]))
        if value is not None:
            values[name] = (value, draw(st.sampled_from(["flag", "config"])))
    return command, values


def argv_of(command, values, directory):
    """The command line for drawn values; "file"/"directory" become paths in `directory`."""
    argv, config = [command], []
    for name, (value, where) in values.items():
        if value in ("file", "directory"):
            value = str(directory / f"{name}.csv") if value == "file" else str(directory)
        if where == "flag":
            argv.append(f"--{name.replace('_', '-')}={value}")
        elif where == "config":
            config.append(f"{name} = {value}\n")
    if config:
        (directory / "run.cfg").write_text("".join(config))
        argv.append(f"--config={directory / 'run.cfg'}")
    return argv


def flags(**values):
    return {name: (value, "flag") for name, value in values.items()}


@pytest.fixture
def cheap_oracles(monkeypatch):
    """verify runs one cheap check, and a quadrature gives up after 64 panels."""
    monkeypatch.setattr(oracles, "CHECKS", {"identity_max_residual": oracles.CHECKS["identity_max_residual"]})
    monkeypatch.setattr(oracles, "MAX_QUAD_EVALS", 15 * 64)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=command_lines())
# each of these printed inf or nan with exit 0, or ended in a traceback under -W error::RuntimeWarning
@example(line=("period", flags(alpha="1e308", gamma="1.5")))
@example(line=("eval", flags(alpha="1", gamma="1.5", branch="kink_array", xi0="-1e308",
                             grid="0:1e308:3", out="file")))
@example(line=("eval", flags(alpha="1", gamma="0", branch="pure_sg_increasing", xi0="-1e308",
                             grid="0:1e308:4", out="file")))
@example(line=("simulate", flags(alpha="1e308", gamma="1.5", branch="kink_array", n="64", t_end="1",
                                 out="file")))
# a count past a double ended in an OverflowError
@example(line=("simulate", flags(alpha="1", gamma="1.5", branch="kink_array", n="64", t_end="1", m=str(10**400),
                                 out="file")))
@example(line=("simulate", flags(alpha="1", gamma="1.5", branch="kink_array", n="64", t_end="1", eps="1e-3",
                                 mode=str(10**400), out="file")))
def test_every_command_line_ends_in_an_exit_code(tmp_path, capsys, cheap_oracles, line):
    command, values = line
    for path in tmp_path.glob("*.csv"):
        path.unlink()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv_of(command, values, tmp_path))
    assert code in (0, 1, 2, 3)
    out = capsys.readouterr().out
    if code == 0:
        for line_out in out.splitlines():
            value = line_out.partition(" = ")[2]
            assert value in ("none", "pass") or math.isfinite(float(value)), line_out
        if command == "eval":
            table = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1, ndmin=2)
            assert not np.isnan(table).any() and np.isfinite(table[:, [0, 3, 4]]).all()
