"""Check that a change keeps sgwaves' outputs byte-identical to a base revision.

    python tools/fidelity.py --base REV

exports REV with `git archive` into a temporary directory, then runs this
script's digest mode once against REV's `src/` and once against the working
tree's, each in its own process, and compares the two sets of sha256
digests.

It is also CI's determinism gate.  On a clean checkout, `--base HEAD`
compares the tree with itself: the same code digested in two processes,
each with its own hash seed, so any clean output that a rerun does not
reproduce byte for byte fails the check.  CI runs it under
PYTHONWARNINGS=error::RuntimeWarning, where a numpy warning in a CLI run
raises and fails the digest run, as a RuntimeWarning fails pytest.

It covers:

* `cli/...`: stdout and every file written by `eval` on all eight branches
  (the README grid, and grids through the poles), by four `simulate` runs
  (README's, a pinned segment, a diverging probe and a record every step),
  by `verify` with and without `--corrupt-gamma-sign`, and by `period`
  and `limits` (a run whose exit code is not EXIT_OK, or EXIT_VERIFY_FAILED
  for the corrupted `verify`, fails the digest run);
* `closed_form/...`: g_eval, y_eval and phi_eval tables, extreme arguments
  included (a refusal is recorded by its exception type);
* `sweep/...`: SWEEP seeded `ode_solve_g`/`ode_solve_y` solves (xs, ys,
  step_used, pole_events, rk4_steps, or the exception type), at a cap of
  SWEEP_CAP RK4 steps per pass;
* `tier1/...`: every RK4 solve the tier-1 suite makes, by test id (a
  failing tier-1 test fails the digest run);
* `oracle_sweep/...`: the error dicts of 100 seeded tasks of the
  benchmark's oracle_sweep workload.

A clean output of the base (a converging solve, or a closed-form table
that is finite and raised no numpy warning) that differs, or that the
change refuses, fails the check (exit 1).  A base refusal or unclean output
whose outcome changed is listed, and keys only one side has are counted;
neither fails it.  Under a `cli/...` key that differs, each numeric column
of its CSV files and each `name = number` line of its stdout is listed with
the largest absolute difference between base and change, so a change at
the rounding level reads as a number.

Only the sweep lowers the cap: a solve that converges under SWEEP_CAP gives
the same solution under the shipped MAX_RK4_STEPS, and the refusal rule
(|rate|*span/MAX_RK4_STEPS > 1) refuses no more there, so the sweep checks
a subset of what the shipped cap runs, where the rule bites hardest.  A
solve that converges only between the two caps is a base refusal in the
sweep and is covered by the tier-1 and oracle_sweep groups alone, which run
at the shipped cap.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFUSALS = ("DomainError", "NoConvergence")
UNCLEAN = "unclean "  # marks an output that warned, or holds a NaN (for g and phi, an infinity)
GROUPS = ("cli", "closed_form", "sweep", "tier1", "oracle_sweep")
SWEEP = 1200  # seeded RK4 solves in the sweep
SWEEP_CAP = 2**16  # RK4 steps per pass in the sweep, which bounds the work of a solve that does not converge


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
        h.update(data)
    return h.hexdigest()


def outcome(call, finite=lambda parts: True):
    """digest(*call()), or the name of the sgwaves error it raised.

    The digest is marked UNCLEAN when numpy warned during the call or when
    finite(parts) is false."""
    from sgwaves.errors import SGWaveError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = call()
        except SGWaveError as exc:
            return type(exc).__name__
    return ("" if finite(parts) and not caught else UNCLEAN) + digest(*parts)


def numeric_columns(stdout: str, files) -> dict:
    """{name: values} of every `name = number` stdout line and every numeric CSV column."""
    columns = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        with contextlib.suppress(ValueError):
            if sep:
                columns[f"stdout {name}"] = [float(value)]
    for name, data in files:
        header, *rows = data.decode().splitlines()
        cells = [row.split(",") for row in rows]
        for i, column in enumerate(header.split(",")):
            with contextlib.suppress(ValueError, IndexError):
                columns[f"{name} {column}"] = [float(row[i]) for row in cells]
    return columns


def column_differences(base: dict, change: dict) -> list[str]:
    """The largest |base - change| of each column both sides have (NaN against NaN counts as equal)."""
    lines = []
    for name in sorted(base.keys() & change.keys()):
        a, b = np.array(base[name]), np.array(change[name])
        if a.shape != b.shape:
            lines.append(f"{name}: {a.size} -> {b.size} values")
            continue
        with np.errstate(invalid="ignore"):
            diff = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
        lines.append(f"{name}: max abs difference {np.max(diff, initial=0.0):.3g}"
                     f" (max |base| {np.max(np.abs(a), initial=0.0):.3g})")
    return lines


def cli_digests(out: dict, columns: dict, work: Path) -> list[str]:
    """Digest every CLI run; return a line for each run whose exit code is not the one it should give."""
    from sgwaves import cli
    pi = repr(math.pi)
    evals = {  # branch: (alpha, gamma, grids through its poles)
        "constant_s": ("1", "0.5", []), "constant_u": ("1", "0.5", []),
        "decreasing1": ("0.5", "0.5", []), "pure_sg_decreasing": ("1", "0", []),
        "pure_sg_increasing": ("1", "0", []),
        "increasing2": ("1", "0.5", ["-1:1:3", "-20:20:4001"]),
        "critical_kink": ("2", "1", ["-1:1:3", "-20:20:4001"]),
        "kink_array": ("1", "1.4142135623730951", [f"-{3 * math.pi!r}:{3 * math.pi!r}:7", "-20:20:4001"]),
    }
    runs = {}
    for branch, (alpha, gamma, grids) in evals.items():
        for grid in ["0:6.283185307179586:101", *grids]:
            runs[f"eval {branch} {grid}"] = ["eval", "--alpha", alpha, "--gamma", gamma, "--branch", branch,
                                             f"--grid={grid}", "--out", str(work / "table.csv")]
    files = f"--out {work / 'dev.csv'} --snapshot-out {work / 'snap.csv'}"
    runs["simulate readme"] = ("simulate --alpha 0.5 --gamma 1.5 --branch kink_array --domain circle --m 1 "
                               f"--n 256 --t-end 50 --eps 1e-3 --mode 1 {files}")
    runs["simulate pinned"] = ("simulate --alpha 0.5 --gamma 0.5 --branch increasing2 --domain segment "
                               "--x-lo=-23.1 --x-hi 23.1 --n 256 --t-end 25 --record-every 20 --eps 1e-3 "
                               f"--mode 1 --probe true {files}")
    runs["simulate diverged"] = ("simulate --alpha 1 --gamma 1.5 --branch kink_array --domain circle --m 1 "
                                 f"--n 256 --t-end 5 --eps 1e7 --probe true {files}")
    runs["simulate one-level"] = ("simulate --alpha 1 --gamma 1.5 --branch kink_array --domain circle --m 1 "
                                  f"--n 256 --t-end 2 --record-every 1 --eps 1e-3 --mode 1 {files}")
    runs["verify"] = "verify"
    runs["verify corrupt"] = "verify --corrupt-gamma-sign"
    runs["period"] = "period --alpha 1 --gamma 1.25"
    runs["limits"] = f"limits --alpha 1 --gamma 0.5 --branch decreasing1 --xi0 {pi}"
    faults = {"verify corrupt": cli.EXIT_VERIFY_FAILED}  # every other run exits EXIT_OK
    wrong = []
    for name, argv in runs.items():
        for path in work.iterdir():
            path.unlink()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv.split() if isinstance(argv, str) else argv)
        files = [(path.name, path.read_bytes()) for path in sorted(work.iterdir())]
        out[f"cli/{name}"] = digest(code, stdout.getvalue(), files)
        columns[f"cli/{name}"] = numeric_columns(stdout.getvalue(), files)
        if code != faults.get(name, cli.EXIT_OK):
            wrong.append(f"cli/{name} exited {code}, not {faults.get(name, cli.EXIT_OK)}")
    return wrong


def closed_form_digests(out: dict) -> None:
    from sgwaves.closed_form import TravellingWave, WaveBranch, g_eval, phi_eval, y_eval
    from sgwaves.model import ModelParams

    def finite(parts):
        return np.isfinite(parts[0]).all()

    def no_nan(parts):  # y is +-inf at a pole
        return not np.isnan(parts[0]).any()

    rng = np.random.default_rng(2718)
    points = np.concatenate([rng.uniform(-30.0, 30.0, 2000), [0.0, -0.0, 1e300, -1e300, 5e-324, math.pi]])
    cases = [("decreasing1", 0.5, 0.5), ("increasing2", 1.0, 0.5), ("increasing2", 0.5, 0.9),
             ("critical_kink", 1.0, 1.0), ("critical_kink", 0.3, 1.0), ("kink_array", 0.7, 1.5),
             ("kink_array", 3.0, 1.01), ("pure_sg_decreasing", 1.0, 0.0), ("pure_sg_increasing", 0.2, 0.0),
             ("kink_array", 1e-300, 1.5), ("decreasing1", 1e-300, 0.5)]
    extremes = [np.array([1e308, -1e308, math.inf, -math.inf]), np.array([math.nan]), np.array(1e10)]
    for branch, alpha, gamma in cases:
        for xi0 in (0.0, 0.3, -1e308):
            wave = TravellingWave(ModelParams(alpha, gamma), WaveBranch(branch), xi0)
            for k, xs in enumerate([points, np.linspace(0.0, 1e-10, 7), *extremes]):
                key = f"closed_form/{branch} {alpha} {gamma} {xi0} #{k}"
                out[key + " g"] = outcome(lambda: [g_eval(wave, xs)], finite)
                out[key + " phi"] = outcome(lambda: [phi_eval(wave, xs, 0.25)], finite)
                out[key + " y"] = outcome(lambda: [y_eval(wave, xs)], no_nan)


def solution(sol):
    return [sol.xs, sol.ys, sol.step_used, sol.pole_events, sol.rk4_steps]


def sweep_digests(out: dict) -> None:
    """SWEEP seeded solves at a cap of SWEEP_CAP RK4 steps per pass; the shipped cap is restored after."""
    from sgwaves import oracles
    from sgwaves.model import ModelParams
    rng = np.random.default_rng(1729)
    with mock.patch.object(oracles, "MAX_RK4_STEPS", SWEEP_CAP):
        for i in range(SWEEP):
            alpha = float(rng.choice([rng.uniform(0.05, 3.0), 10.0 ** rng.uniform(-4.0, 2.0)]))
            gamma = float(rng.choice([rng.uniform(0.0, 1.0), rng.uniform(1.0, 4.0), 1.0, 0.0]))
            start = float(rng.uniform(-8.0, 8.0))
            lo = float(rng.uniform(-10.0, 10.0))
            hi = lo + float(rng.choice([rng.uniform(0.01, 12.0), 10.0 ** rng.uniform(-3.0, 3.0)]))
            tol = float(rng.choice([1e-9, 1e-6, 1e-11, 1e-3]))
            solve = oracles.ode_solve_g if i % 2 else oracles.ode_solve_y
            params = ModelParams(alpha, gamma)
            out[f"sweep/{i:05d}"] = outcome(lambda: solution(solve(params, start, (lo, hi), tol)))


class Tier1Recorder:
    """A pytest plugin that digests what every RK4 loop of the suite returns, by test id."""

    def __init__(self, out: dict):
        self.out, self.test, self.calls = out, "", defaultdict(int)

    def pytest_sessionstart(self, session):
        from sgwaves import oracles
        loop = oracles._halve_until_agree

        def recorded(*args, **kwargs):
            try:
                xs, samples, extra, h, steps = result = loop(*args, **kwargs)
            except (oracles.DomainError, oracles.NoConvergence) as exc:
                self.record(type(exc).__name__)
                raise
            self.record(digest(xs, samples, *(extra or ()), h, steps))
            return result

        oracles._halve_until_agree = recorded

    def pytest_runtest_setup(self, item):
        self.test = item.nodeid

    def record(self, value):
        self.calls[self.test] += 1
        self.out[f"tier1/{self.test} #{self.calls[self.test]}"] = value


def oracle_sweep_digests(out: dict, tree: Path) -> None:
    sys.path.insert(0, str(tree))
    from bench.workloads import OracleSweep
    workload = OracleSweep()
    for i, task in enumerate(workload.make_tasks(seed=7, count=100)):
        out[f"oracle_sweep/{i:03d}"] = digest(sorted(workload.run(task).items()))


def digest_tree(tree: Path, json_out: Path) -> int:
    """Write tree's digests to json_out; 1 when a CLI run exits with the wrong code or a tier-1 test fails."""
    import pytest
    out: dict[str, str] = {}
    columns: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as work:
        wrong = cli_digests(out, columns, Path(work))
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    closed_form_digests(out)
    sweep_digests(out)
    oracle_sweep_digests(out, tree)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = pytest.main([str(tree / "tests"), "-q", "-p", "no:cacheprovider"], plugins=[Tier1Recorder(out)])
    if code != 0:
        print(report.getvalue(), file=sys.stderr)
        return 1
    json_out.write_text(json.dumps({"digests": out, "columns": columns}, indent=0, sort_keys=True))
    return 0


def compare(base: dict, change: dict, base_columns: dict, change_columns: dict) -> int:
    differ, changed = [], []
    for group in GROUPS:
        keys = sorted(key for key in base.keys() & change.keys() if key.startswith(group + "/"))
        kept = [key for key in keys if base[key] not in REFUSALS and not base[key].startswith(UNCLEAN)]
        print(f"{group}: {len(keys)} on both sides, {sum(base[k] == change[k] for k in kept)} of the base's "
              f"{len(kept)} clean outputs identical")
        for key in keys:
            if base[key] != change[key]:
                line = f"{key}: {base[key][:22]} -> {change[key][:22]}"
                line += "".join(f"\n    {column}" for column in column_differences(
                    base_columns.get(key, {}), change_columns.get(key, {})))
                (differ if key in kept else changed).append(line)
    print(f"{len(base.keys() ^ change.keys())} keys on one side only (a test or a refusal only one side has)")
    for line in differ:
        print(f"DIFFER: {line}")
    for line in changed:
        print(f"base refusal or unclean output changed: {line}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--digest", type=Path, help=argparse.SUPPRESS)  # child mode: a tree to digest
    parser.add_argument("--json-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.digest:
        return digest_tree(args.digest, args.json_out)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                 capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "base")
        results = []
        for name, tree in (("base", tmp / "base"), ("change", ROOT)):
            json_out = tmp / f"{name}.json"
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "SGW_LOG": "quiet"}
            subprocess.run([sys.executable, __file__, "--digest", str(tree), "--json-out", str(json_out)],
                           env=env, cwd=tmp, check=True)
            results.append(json.loads(json_out.read_text()))
    base, change = results
    return compare(base["digests"], change["digests"], base["columns"], change["columns"])


if __name__ == "__main__":
    sys.exit(main())
