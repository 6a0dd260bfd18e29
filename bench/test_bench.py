"""Self-test of the benchmark: each workload's check rejects a wrong answer,
traced work counts repeat exactly, and the metrics match BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins threads and puts src on the path first)

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TaskFailed  # noqa: E402

SEED = 7


def make(name, out_dir):
    cls = workloads.WORKLOADS[name]
    return cls(out_dir) if cls is workloads.KinkEnsemble else cls()


def test_cli_check_rejects_corrupted_verify():
    with pytest.raises(TaskFailed, match="exited with code 1"):
        workloads.run_cli(["verify", "--corrupt-gamma-sign"])


def test_rejected_command_line_fails_the_task_not_the_run():
    with pytest.raises(TaskFailed, match="exited with code 2"):
        workloads.run_cli(["simulate", "--xi0", "-6.8e-05"])


def test_kink_task_passes_exponent_notation(tmp_path):
    kink = workloads.KinkEnsemble(tmp_path)
    task = kink.make_tasks(206)[684]
    assert "e-05" in repr(task["xi0"])
    kink.check(task, kink.run(task))


def test_kink_check_rejects_wrong_winding(tmp_path):
    kink = workloads.KinkEnsemble(tmp_path)
    task = kink.make_tasks(SEED, count=1)[0]
    stdout = kink.run(task)
    kink.check(task, stdout)
    with pytest.raises(TaskFailed, match="winding"):
        kink.check(task, stdout, winding=-task["chirality"] * kink.m)


def test_front_check_rejects_a_run_that_never_departs():
    front = workloads.FrontScan()
    task = front.make_tasks(SEED, count=1)[0]
    front.check(task, front.run(task))
    with pytest.raises(TaskFailed, match="never departed"):
        front.check(task, front.run(task, t_end=2.0))


def test_oracle_check_rejects_shifted_xi0():
    sweep = workloads.OracleSweep()
    task = sweep.make_tasks(SEED, count=1)[0]
    wave = sweep.wave(task)
    sweep.check(task, sweep.errors(wave, wave, task["points"]))
    with pytest.raises(TaskFailed, match="ode_g"):
        sweep.check(task, sweep.errors(wave, sweep.wave(task, shift=0.5), task["points"]))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    seen = []
    for _ in range(2):
        workload = make(name, tmp_path)
        tracer = tracing.Tracer()
        with tracer:
            _, failed = run.one_pass(workload, workload.make_tasks(SEED, count=3), tracer)
        assert failed == 0
        calls, _, _ = tracer.totals()
        seen.append((dict(calls), dict(tracer.counts)))
    assert seen[0] == seen[1]
    assert seen[0][1]


def test_trace_restores_the_program():
    from sgwaves import closed_form, pde_sim

    original = closed_form.phi_eval
    with tracing.Tracer():
        assert pde_sim.phi_eval is closed_form.phi_eval is not original
    assert pde_sim.phi_eval is closed_form.phi_eval is original


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        key: unit for key, (_, unit) in per_layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
