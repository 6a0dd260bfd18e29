"""The benchmark's three seeded workloads: inputs, one task, and its check.

A workload turns a seed into a fixed list of tasks.  `run` is the
program's work and the only part the latency covers; `check` compares its
output against the acceptance suite's tolerances and raises TaskFailed.
The program is always called through its module attributes
(``pde_sim.evolve``, ``closed_form.g_eval``), so the tracer sees each call.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from sgwaves import cli, closed_form, oracles, pde_sim
from sgwaves.closed_form import TravellingWave, WaveBranch
from sgwaves.errors import PoleProximity
from sgwaves.model import ModelParams
from sgwaves.pde_sim import Perturbation, Segment, SimConfig

TWO_PI = 2.0 * math.pi
TASKS_PER_SEED = 2048
OUT_DIR = Path(__file__).resolve().parent / "out"


class TaskFailed(Exception):
    """A task's output misses its acceptance tolerance."""


def require(ok, message: str) -> None:
    if not ok:
        raise TaskFailed(message)


def run_cli(argv: list[str]) -> str:
    """Run one `sgwaves` command in-process; returns its stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a command line it rejects
        code = exc.code
    require(code == 0, f"sgwaves {argv[0]} exited with code {code}")
    return buf.getvalue()


def _wrap(angle):
    return angle - TWO_PI * np.floor((angle + math.pi) / TWO_PI)


class KinkEnsemble:
    """Perturbed kink arrays through `sgwaves simulate` on Circle(1), n = 256.

    Criterion 08's case, as a stability-map user runs it over and over.
    t_end = 6*Xi is 1707 steps at every (alpha, gamma); deviation is
    recorded only at the start and the end, so the stepper's per-call
    overhead does most of the work.
    """

    name = "kink_ensemble"
    traced_tasks = 64
    n = 256
    m = 1
    periods = 6.0

    def __init__(self, out_dir: Path = OUT_DIR):
        self.deviation_csv = out_dir / "kink_deviation.csv"
        self.snapshot_csv = out_dir / "kink_snapshot.csv"

    def make_tasks(self, seed: int, count: int = TASKS_PER_SEED) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        alpha = rng.uniform(0.3, 2.0, count)
        gamma = rng.uniform(1.05, 3.0, count)
        eps = rng.uniform(1e-4, 1e-3, count)
        mode = rng.integers(1, 5, count)
        chirality = rng.choice([-1, 1], count)
        xi0 = rng.uniform(-5.0, 5.0, count)
        return [
            {"alpha": float(alpha[i]), "gamma": float(gamma[i]), "eps": float(eps[i]),
             "mode": int(mode[i]), "chirality": int(chirality[i]), "xi0": float(xi0[i])}
            for i in range(count)
        ]

    def t_end(self, task: dict) -> float:
        a, g = task["alpha"], task["gamma"]
        return self.periods * TWO_PI * a / math.sqrt((g - 1.0) * (g + 1.0))

    def run(self, task: dict) -> str:
        # --flag=value: argparse takes "--xi0 -6.8e-05" for a missing value
        return run_cli([
            "simulate", f"--alpha={task['alpha']!r}", f"--gamma={task['gamma']!r}",
            "--branch=kink_array", f"--xi0={task['xi0']!r}",
            f"--chirality={task['chirality']}", "--domain=circle", f"--m={self.m}",
            f"--n={self.n}", f"--t-end={self.t_end(task)!r}",
            "--record-every=1000000000", f"--eps={task['eps']!r}", f"--mode={task['mode']}",
            f"--out={self.deviation_csv}", f"--snapshot-out={self.snapshot_csv}",
        ])

    def check(self, task: dict, stdout: str, winding: float | None = None) -> None:
        """Criterion 08's deviation bound and criterion 07's winding, from the CSVs.

        `winding` is the expected winding number, chirality*m unless given.
        """
        if winding is None:
            winding = task["chirality"] * self.m
        final_t = [float(line.split("=")[1]) for line in stdout.splitlines()
                   if line.startswith("final_t =")]
        require(final_t and final_t[0] >= self.t_end(task) - 1e-9, "run ended early")
        dev = np.loadtxt(self.deviation_csv, delimiter=",", skiprows=1, ndmin=2)
        require(dev.shape[0] == 2 and np.all(np.isfinite(dev)), "expected two finite records")
        require(np.max(dev[:, 1]) < 1e-2, f"kink deviation {np.max(dev[:, 1]):.3g} >= 1e-2")
        phi = np.loadtxt(self.snapshot_csv, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        require(phi.size == self.n and np.all(np.isfinite(phi)), "bad snapshot")
        twist = task["chirality"] * TWO_PI * self.m
        turns = (np.sum(_wrap(np.diff(phi))) + _wrap(phi[0] + twist - phi[-1])) / TWO_PI
        require(abs(turns - winding) <= 1e-6, f"winding {turns:.9g} != {winding}")


class FrontScan:
    """Perturbed subcritical fronts on a pinned Segment(+-40/A), n = 512.

    The front half of criterion 08.  Nine deviation records per run make
    the O(n^2) shift scan the dominant cost; each segment step also
    evaluates the wave at both pinned ends.  alpha >= 0.5 keeps 40/A above
    t_end ~ 20, so the unit-speed front stays on the segment for the run.
    """

    name = "front_scan"
    traced_tasks = 32
    # increasing2 (criterion 08's branch) runs ~1.5x longer than decreasing1;
    # a fixed 2:1 cycle puts p50 and p90 inside its latency cluster, not
    # between the two clusters
    branches = ("increasing2", "increasing2", "decreasing1")
    n = 512
    t_end = 20.0
    records = 8
    eps = 1e-3

    def make_tasks(self, seed: int, count: int = TASKS_PER_SEED) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        alpha = rng.uniform(0.5, 1.0, count)
        gamma = rng.uniform(0.2, 0.8, count)
        chirality = rng.choice([-1, 1], count)
        return [
            {"branch": self.branches[i % len(self.branches)], "alpha": float(alpha[i]),
             "gamma": float(gamma[i]), "chirality": int(chirality[i])}
            for i in range(count)
        ]

    def run(self, task: dict, t_end: float | None = None) -> pde_sim.DeviationReport:
        t_end = self.t_end if t_end is None else t_end
        params = ModelParams(task["alpha"], task["gamma"])
        wave = TravellingWave(params, WaveBranch(task["branch"]), 0.0, task["chirality"])
        half = 40.0 * task["alpha"] / math.sqrt((1.0 - task["gamma"]) * (1.0 + task["gamma"]))
        dt = 0.9 * (2.0 * half / (self.n - 1))  # 0.9*dx, rounded as evolve's CFL guard
        # t_end is rounded to a whole number of record intervals, so that every
        # task makes the same number of records, one at t = 0 and `records` more
        every = max(1, round(t_end / (dt * self.records)))
        state = pde_sim.init_from_wave(wave, self.n, Segment(-half, half), dt=dt)
        config = SimConfig(dt=dt, t_end=self.records * every * dt, record_every=every,
                           perturbation=Perturbation(self.eps, 1))
        return pde_sim.evolve(state, params, config, reference=wave)

    def check(self, task: dict, report: pde_sim.DeviationReport) -> None:
        """Starts within eps of the wave and departs past 1e-1, as in criterion 08."""
        require(report.diverged_at is None, f"diverged at t={report.diverged_at}")
        require(report.times and report.times[0] == 0.0, "no record at t=0")
        require(report.deviation[0] <= self.eps,
                f"initial deviation {report.deviation[0]:.3g} > eps")
        require(any(d > 1e-1 for d in report.deviation),
                f"front never departed (max deviation {max(report.deviation):.3g})")


class OracleSweep:
    """Independent oracles against the closed form, as `verify`'s tables do.

    Per case: RK4 for g and for the Riccati y over [xi0+0.1, xi0+10], the
    quadrature period on kink arrays, 20 field-equation residuals and one
    2e5-point g_eval tabulation.  No simulation runs here.
    """

    name = "oracle_sweep"
    traced_tasks = 128
    branches = ("decreasing1", "increasing2", "critical_kink", "kink_array")
    residual_points = 20
    table_points = 200_000
    table_h = 1e-4
    bounds = {"period": 1e-9, "pde_residual": 1e-6, "ode_g": 1e-8, "riccati_g": 1e-7,
              "ode_residual": 1e-8}

    def make_tasks(self, seed: int, count: int = TASKS_PER_SEED) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        alpha = rng.uniform(0.3, 2.0, count)
        gamma_sub = rng.uniform(0.2, 0.8, count)
        gamma_sup = rng.uniform(1.05, 3.0, count)
        xi0 = rng.uniform(-5.0, 5.0, count)
        points = rng.uniform(-10.0, 10.0, (count, 2 * self.residual_points, 2))
        tasks = []
        for i in range(count):
            name = self.branches[i % len(self.branches)]  # a fixed mix of branches
            gamma = {"critical_kink": 1.0, "kink_array": gamma_sup[i]}.get(name, gamma_sub[i])
            tasks.append({"branch": name, "alpha": float(alpha[i]), "gamma": float(gamma),
                          "xi0": float(xi0[i]), "points": points[i].tolist()})
        return tasks

    @staticmethod
    def wave(task: dict, shift: float = 0.0) -> TravellingWave:
        return TravellingWave(ModelParams(task["alpha"], task["gamma"]),
                              WaveBranch(task["branch"]), task["xi0"] + shift)

    def run(self, task: dict) -> dict[str, float]:
        wave = self.wave(task)
        return self.errors(wave, wave, task["points"])

    def errors(self, wave: TravellingWave, reference: TravellingWave, points) -> dict[str, float]:
        """Worst discrepancy per oracle; `reference` is the closed form compared against."""
        params = wave.params
        lo, hi = wave.xi0 + 0.1, wave.xi0 + 10.0
        out: dict[str, float] = {}

        g_lo = closed_form.g_eval(wave, lo)
        sol = oracles.ode_solve_g(params, g_lo, (lo, hi), 1e-9)
        keep = self._pole_free(reference, sol.xs)
        out["ode_g"] = float(np.max(np.abs(
            sol.ys[keep] - closed_form.g_eval(reference, sol.xs[keep]))))

        # g = 4*atan(F(y)) plus 2*pi per pole of y, as in the Riccati chain test
        y_lo = closed_form.y_eval(wave, lo)
        sol = oracles.ode_solve_y(params, y_lo, (lo, hi), 1e-9)
        turns = round((g_lo - 4.0 * math.atan(closed_form.F_map(y_lo))) / TWO_PI)
        poles = np.searchsorted(np.asarray(sol.pole_events, dtype=float), sol.xs)
        g_from_y = 4.0 * np.arctan(closed_form.F_map(sol.ys)) + TWO_PI * (turns + poles)
        keep = self._pole_free(reference, sol.xs)
        out["riccati_g"] = float(np.max(np.abs(
            g_from_y[keep] - closed_form.g_eval(reference, sol.xs[keep]))))

        if wave.branch is WaveBranch.KINK_ARRAY:
            quad = oracles.quad_period(params, 1e-10)
            out["period"] = abs(quad - closed_form.xi_period(params))

        worst, accepted = 0.0, 0
        for x, t in points:
            try:
                residual = oracles.pde_residual(wave, x, t, 1e-3)
            except PoleProximity:
                continue
            worst = max(worst, abs(residual))
            accepted += 1
            if accepted == self.residual_points:
                break
        require(accepted == self.residual_points, "too few residual points away from poles")
        out["pde_residual"] = worst

        # criterion 02 on the tabulation: |alpha*g' - gamma + sin g| by a 5-point stencil
        h = self.table_h
        xs = wave.xi0 - 0.5 * h * self.table_points + h * np.arange(self.table_points)
        g = closed_form.g_eval(wave, xs)
        slope = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
        residual = np.abs(params.alpha * slope - params.gamma + np.sin(g[2:-2]))
        out["ode_residual"] = float(np.max(residual[self._pole_free(wave, xs[2:-2])]))
        return out

    @staticmethod
    def _pole_free(wave: TravellingWave, xs: np.ndarray, margin: float = 1.5e-3) -> np.ndarray:
        """Points farther than criterion 02's margin from every pole of y.

        g_eval serves the pole's limit value within 1e-8*max(1, Xi) of a
        pole, which is off by up to g' times that width: 6.3e-8 at alpha =
        0.7576, gamma = 1.1179, beyond criterion 04's 1e-8.  So no check
        compares g_eval there.
        """
        d = xs - wave.xi0
        if wave.branch is WaveBranch.KINK_ARRAY:
            period = closed_form.xi_period(wave.params)
            d = d - period * (np.round(d / period - 0.5) + 0.5)
        elif wave.branch is WaveBranch.DECREASING1:
            return np.ones(xs.shape, dtype=bool)
        return np.abs(d) > margin

    def check(self, task: dict, errors: dict[str, float]) -> None:
        for key, value in errors.items():
            require(value < self.bounds[key], f"{key} = {value:.3g} >= {self.bounds[key]:g}")


WORKLOADS = {w.name: w for w in (KinkEnsemble, FrontScan, OracleSweep)}
