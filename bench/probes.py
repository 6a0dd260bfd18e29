"""Layer probes: the single-layer figures of ROADMAP's baseline, in one command.

    python3 bench/probes.py

Each probe calls one public function directly under the tracer, so the
figure covers that function alone.  `step` runs without a reference wave,
so no shift scan runs.  The last stdout line is a JSON object; a copy with
the machine record goes to bench/out/probes.json.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run  # pins threads before sgwaves loads numpy's libraries

sys.path.insert(0, str(run.SRC))

from sgwaves import closed_form, pde_sim  # noqa: E402
from sgwaves.closed_form import TravellingWave, WaveBranch  # noqa: E402
from sgwaves.model import ModelParams  # noqa: E402

import tracing  # noqa: E402

KINK = TravellingWave(ModelParams(0.5, 1.5), WaveBranch.KINK_ARRAY)
# branch -> (alpha, gamma, workloads that evaluate it in bulk)
BRANCHES = {
    WaveBranch.DECREASING1: (0.5, 0.5, ["oracle_sweep", "front_scan"]),
    WaveBranch.INCREASING2: (0.5, 0.5, ["oracle_sweep", "front_scan"]),
    WaveBranch.CRITICAL_KINK: (1.0, 1.0, ["oracle_sweep"]),
    WaveBranch.KINK_ARRAY: (0.5, 1.5, ["oracle_sweep", "kink_ensemble"]),
    WaveBranch.PURE_SG_DECREASING: (1.0, 0.0, []),
    WaveBranch.PURE_SG_INCREASING: (1.0, 0.0, []),
}


def traced(work) -> dict:
    tracer = tracing.Tracer()
    with tracer:
        work()
    return {key: value for key, (value, _) in tracing.layer_metrics(tracer, 0.0, 0.0).items()}


def probe_step(n: int, steps: int) -> float:
    state = pde_sim.init_from_wave(KINK, n, pde_sim.Circle(1))

    def work():
        s = state
        for _ in range(steps):
            s = pde_sim.step(s, KINK.params, s.dt)

    return traced(work)["pde_sim.step.mpts_per_s"]


def probe_scan(n: int, calls: int) -> float:
    state = pde_sim.init_from_wave(KINK, n, pde_sim.Circle(1))
    return traced(lambda: [pde_sim.comoving_deviation(state, KINK) for _ in range(calls)])[
        "pde_sim.comoving_deviation.ms_per_call"]


def probe_g_eval(branch: WaveBranch, points: int, repeats: int) -> float:
    wave = TravellingWave(ModelParams(*BRANCHES[branch][:2]), branch)
    xs = np.linspace(-50.0, 50.0, points)
    return traced(lambda: [closed_form.g_eval(wave, xs) for _ in range(repeats)])[
        "closed_form.g_eval.mpts_per_s"]


def probe_scalar_phi(calls: int) -> float:
    wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.INCREASING2)
    metrics = traced(lambda: [closed_form.phi_eval(wave, 1.0, 0.25) for _ in range(calls)])
    return 1e6 * metrics["closed_form.phi_eval.busy_s"] / metrics["closed_form.phi_eval.calls"]


def main() -> int:
    # name -> (value, unit, workloads whose dominant layer it isolates)
    probes = {
        "pde_sim.step.n256.mpts_per_s": (probe_step(256, 4000), "Mpts/s", ["kink_ensemble"]),
        "pde_sim.step.n4096.mpts_per_s": (probe_step(4096, 1000), "Mpts/s", []),
        "pde_sim.step.n65536.mpts_per_s": (probe_step(65536, 100), "Mpts/s", []),
        "pde_sim.comoving_deviation.n1024.ms": (probe_scan(1024, 5), "ms", ["front_scan"]),
    }
    for branch, (_, _, maps) in BRANCHES.items():
        probes[f"closed_form.g_eval.{branch.value}.mpts_per_s"] = (
            probe_g_eval(branch, 10**6, 3), "Mpts/s", maps)
    probes["closed_form.phi_eval.scalar_us"] = (probe_scalar_phi(5000), "us", ["front_scan"])

    result = {name: {"value": value, "unit": unit, "workloads": maps}
              for name, (value, unit, maps) in probes.items()}
    for name, item in result.items():
        print(f"{name} = {item['value']:.6g} {item['unit']}  "
              f"({', '.join(item['workloads']) or 'no workload yet'})")
    run.OUT_DIR.mkdir(exist_ok=True)
    record = {"probes": result, "environment": run.environment(seed=None)}
    (run.OUT_DIR / "probes.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"probes": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
