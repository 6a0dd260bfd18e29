import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgwaves
from sgwaves import DomainError, F_map, ModelParams, TravellingWave, WaveBranch, pde_sim
from sgwaves.cli import (
    EXIT_DIVERGED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_CONFIG_BYTES,
    _fmt,
    _parse_grid,
    load_config,
    main,
)
from sgwaves.oracles import CHECKS
from sgwaves.pde_sim import MAX_GRID_POINTS

SQRT2 = math.sqrt(2.0)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConfigFile:
    def test_parse_key_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\n"
            "alpha = 1.0\n"
            "gamma = 0.5   # trailing comment\n"
            "\n"
            "branch = constant_s\n"
        )
        settings = load_config(str(cfg))
        assert settings == {"alpha": "1.0", "gamma": "0.5", "branch": "constant_s"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 1.0\n")
        with pytest.raises(DomainError):
            load_config(str(cfg))

    def test_not_utf8_exits_2(self, tmp_path):
        # a binary file used to end in a UnicodeDecodeError traceback and exit 1
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"alpha = \xff\n")
        with pytest.raises(DomainError, match="binary.cfg"):
            load_config(str(cfg))
        assert main(["period", "--config", str(cfg), "--gamma", "2"]) == EXIT_INVALID

    def test_unknown_key_exits_2(self, tmp_path, caplog):
        # a misspelt key used to be ignored, and the run went ahead on the default
        out = tmp_path / "dev.csv"
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("record_evry = 1\n")
        assert main(["simulate", "--config", str(cfg), *TestSimulate.KINK, "--n", "128",
                     "--t-end", "3", "--out", str(out)]) == EXIT_INVALID
        assert "typo.cfg" in caplog.text and "record_evry" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("size, code", [
        (MAX_CONFIG_BYTES, EXIT_OK), (MAX_CONFIG_BYTES + 1, EXIT_INVALID)])
    def test_size_cap(self, tmp_path, size, code):
        cfg = tmp_path / "big.cfg"
        line = "#" * 63 + "\n"
        cfg.write_text(line * (size // 64) + "#" * (size % 64))
        assert cfg.stat().st_size == size
        assert main(["period", "--config", str(cfg), "--alpha", "1", "--gamma", "2"]) == code

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file_exits_2(self):
        # reading it whole used to grow until a MemoryError, exit 1
        assert main(["period", "--config", "/dev/zero", "--alpha", "1", "--gamma", "2"]) == EXIT_INVALID

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\ngamma = 1.25\n")
        code = main(["period", "--config", str(cfg), "--gamma", str(SQRT2)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(2 * math.pi, abs=1e-12)


class TestEval:
    def test_kink_array_grid(self, tmp_path):
        out = tmp_path / "eval.csv"
        code = main([
            "eval", "--alpha", "1", "--gamma", repr(SQRT2), "--branch", "kink_array",
            "--grid", f"0:{2 * math.pi!r}:101", "--out", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["xi", "y", "F", "g", "phi"]
        assert len(rows) == 101
        g = np.array([float(r[3]) for r in rows])
        assert g[-1] - g[0] == pytest.approx(2 * math.pi, abs=1e-9)
        # the pole at xi = pi lands inside the grid: y and F are huge, and finite
        pole_row = rows[50]
        assert math.inf > abs(float(pole_row[1])) > 1e15
        assert float(pole_row[2]) == F_map(float(pole_row[1]))
        assert float(pole_row[3]) == pytest.approx(2 * math.pi, abs=1e-9)
        assert math.isfinite(float(pole_row[4]))

    def test_constant_branch_rows(self, tmp_path):
        out = tmp_path / "const.csv"
        code = main([
            "eval", "--alpha", "1", "--gamma", "0.5", "--branch", "constant_s",
            "--grid", "0:1:11", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 11
        for row in rows:
            assert float(row[4]) == pytest.approx(-math.pi / 6, abs=1e-15)

    def test_branch_forcing_mismatch_exits_2(self, tmp_path):
        code = main([
            "eval", "--alpha", "1", "--gamma", "0.5", "--branch", "kink_array",
            "--grid", "0:1:11", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_INVALID

    def test_huge_grid_exits_2(self, tmp_path):
        # used to reach np.linspace and end in a traceback with exit 1
        code = main([
            "eval", "--alpha", "1", "--gamma", "0.5", "--branch", "decreasing1",
            "--grid", f"0:1:{2**62}", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_INVALID
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["0:inf:4", "-1e308:1e308:4"])
    def test_unbounded_grid_exits_2(self, tmp_path, grid):
        # an infinite hi - lo used to write a first row of NaN and exit 0
        out = tmp_path / "x.csv"
        assert main(["eval", "--alpha", "1", "--gamma", "0.5", "--branch", "decreasing1",
                     f"--grid={grid}", "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()

    def test_grid_without_count_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["eval", "--alpha", "1", "--gamma", "0.5", "--branch", "decreasing1",
                     "--grid", "0:1", "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()

    def test_unstable_state_at_zero_forcing(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["eval", "--alpha", "1", "--gamma", "0", "--branch", "constant_u",
                     "--grid", "0:1:3", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [row[1:3] for row in rows] == [["-inf", "0"]] * 3  # y = -inf, F(-inf) = 0
        assert {row[4] for row in rows} == {_fmt(math.pi)}

    # xi - xi0 (or g) overflowed: a NaN row with exit 0, or an overflow warning
    @pytest.mark.parametrize("argv", [
        "--alpha 1 --gamma 1.5 --branch kink_array --xi0=-1e308 --grid=0:1e308:3",
        "--alpha 1 --gamma 0 --branch pure_sg_increasing --xi0=-1e308 --grid=0:1e308:4",
        "--alpha 1e-300 --gamma 1.5 --branch kink_array --grid=0:1e300:3",  # d/Xi overflows
        "--alpha 1e-300 --gamma 1.5 --branch kink_array --grid=0:1e-10:3",  # y = inf at 1e289 periods
    ])
    def test_overflowing_grid_exits_2(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert main(["eval", *argv.split(), "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()

    def test_grid_cap(self):
        with pytest.raises(DomainError):
            _parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")

    def test_unknown_branch_rejected_before_compute(self, tmp_path):
        code = main([
            "eval", "--alpha", "1", "--gamma", "0.5", "--branch", "nonsense",
            "--grid", "0:1:11", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_INVALID


class TestPeriod:
    def test_agreement(self, capsys):
        code = main(["period", "--alpha", "1", "--gamma", repr(SQRT2)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        values = {k.strip(): float(v) for k, v in (line.split("=") for line in lines)}
        assert values["closed_form_period"] == pytest.approx(2 * math.pi, abs=1e-12)
        assert values["abs_difference"] < 1e-10

    def test_near_critical_answers(self, capsys):
        # exited 2: the period integrand cancelled at its peak as gamma -> 1+
        code = main(["period", "--alpha", "1", "--gamma", "1.000001"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        values = {k.strip(): float(v) for k, v in (line.split("=") for line in lines)}
        assert values["abs_difference"] < 1e-10

    def test_quarter_value(self, capsys):
        code = main(["period", "--alpha", "1", "--gamma", "1.25"])
        assert code == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert float(first.split("=")[1]) == pytest.approx(8.377580409572783, abs=1e-9)

    def test_subcritical_exits_2(self):
        assert main(["period", "--alpha", "1", "--gamma", "1"]) == EXIT_INVALID

    def test_infinite_period_exits_2(self, capsys):
        # printed inf, inf and nan with exit 0
        assert main(["period", "--alpha", "1e308", "--gamma", "1.5"]) == EXIT_INVALID
        assert capsys.readouterr().out == ""


class TestLimits:
    def test_decreasing1(self, capsys):
        code = main(["limits", "--alpha", "1", "--gamma", "0.5", "--branch", "decreasing1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        values = {k.strip(): float(v) for k, v in (line.split("=") for line in lines)}
        assert values["g_xi_minus_inf"] == pytest.approx(5 * math.pi / 6, abs=1e-12)
        assert values["g_xi_plus_inf"] == pytest.approx(math.pi / 6, abs=1e-12)
        assert values["phi_x_minus_inf"] == pytest.approx(-math.pi / 6, abs=1e-12)

    def test_kink_array_exits_2(self):
        assert main(["limits", "--alpha", "1", "--gamma", "2", "--branch", "kink_array"]) == EXIT_INVALID


class TestVerify:
    def test_defaults_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        code = main(["verify", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "status = pass" in text
        values = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        assert float(values["identity_max_residual"]) < 1e-12
        assert float(values["period_max_abs_diff"]) < 1e-9

    def test_values_are_the_table_entries(self, capsys):
        # 17 significant digits round-trip a double, so each value is exact
        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            key for name in CHECKS for key in (name, f"{name}_threshold")] + ["status"]
        values = dict(line.split(" = ") for line in lines)
        for name, (threshold, worst) in CHECKS.items():
            assert float(values[name]) == worst()
            assert float(values[f"{name}_threshold"]) == threshold

    def test_fault_injection_fails(self, capsys):
        code = main(["verify", "--corrupt-gamma-sign"])
        assert code == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "status = fail" in out
        assert "worst_offender = identity_max_residual" in out


class TestSimulate:
    KINK = ["--alpha", "0.5", "--gamma", "1.5", "--branch", "kink_array"]

    def args(self, out, extra=()):
        return [
            "simulate", "--alpha", "0.5", "--gamma", "1.5", "--branch", "kink_array",
            "--domain", "circle", "--m", "1", "--n", "128", "--t-end", "3",
            "--record-every", "20", "--out", str(out), *extra,
        ]

    def test_exact_wave_run(self, tmp_path, capsys):
        out = tmp_path / "dev.csv"
        snap = tmp_path / "snap.csv"
        code = main(self.args(out, ["--snapshot-out", str(snap)]))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "deviation", "shift"]
        assert float(rows[-1][1]) < 1e-3
        sheader, srows = read_csv(snap)
        assert sheader == ["x", "phi", "phi_t"]
        assert len(srows) == 128

    def test_missing_out_exits_2(self):
        code = main([
            "simulate", "--alpha", "0.5", "--gamma", "1.5", "--branch", "kink_array",
            "--n", "128", "--t-end", "1",
        ])
        assert code == EXIT_INVALID

    def test_probe_mode_reports(self, tmp_path, capsys):
        out = tmp_path / "dev.csv"
        code = main(self.args(out, ["--eps", "1e-3", "--mode", "1", "--probe", "true"]))
        assert code == EXIT_OK
        assert "diverged_at = none" in capsys.readouterr().out

    def test_segment_instability_probe(self, tmp_path, capsys):
        out = tmp_path / "dev.csv"
        code = main([
            "simulate", "--alpha", "0.5", "--gamma", "0.5", "--branch", "increasing2",
            "--domain", "segment", "--x-lo=-23.1", "--x-hi", "23.1", "--n", "256",
            "--t-end", "25", "--record-every", "20", "--eps", "1e-3", "--mode", "1",
            "--probe", "true", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert max(float(r[1]) for r in rows) > 0.1

    def test_exponent_negatives_space_separated(self, tmp_path):
        # argparse alone takes "-6.8e-05" for an option and exits 2
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        common = ["--alpha", "0.5", "--gamma", "5e-1", "--branch", "increasing2",
                  "--domain", "segment", "--n", "128", "--t-end", "2"]
        assert main(["simulate", *common, "--xi0", "-6.8e-05", "--x-lo", "-2.31e1",
                     "--x-hi", "2.31e1", "--out", str(spaced)]) == EXIT_OK
        assert main(["simulate", *common, "--xi0=-6.8e-05", "--x-lo=-23.1",
                     "--x-hi=23.1", "--out", str(joined)]) == EXIT_OK
        assert spaced.read_bytes() == joined.read_bytes()
        assert main(["simulate", *common, "--gamma", "-1.5E+00", "--branch", "kink_array",
                     "--domain", "circle", "--out", str(spaced)]) == EXIT_OK

    def test_tiny_t_end_takes_one_step(self, tmp_path, capsys):
        # printed final_t = 0: t_end below 1e-12*dt rounded to zero steps
        args = self.args(tmp_path / "dev.csv")
        args[args.index("--t-end") + 1] = "1e-300"
        assert main(args) == EXIT_OK
        final_t = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("final_t"))
        assert float(final_t.split("=")[1]) > 0.0

    @pytest.mark.parametrize("value", ["inf", "Infinity"])
    def test_infinite_t_end_exits_2(self, tmp_path, value):
        # an unbounded run used to reach math.ceil(inf) and end in a traceback
        args = self.args(tmp_path / "dev.csv")
        args[args.index("--t-end") + 1] = value
        assert main(args) == EXIT_INVALID
        assert not (tmp_path / "dev.csv").exists()

    @pytest.mark.parametrize("run", [
        ["--gamma", "1.5", "--branch", "kink_array", "--domain", "circle", "--n", "0"],
        ["--gamma", "0.5", "--branch", "decreasing1", "--domain", "segment",
         "--x-lo", "0", "--x-hi", "10", "--n", "1"],
    ])
    def test_tiny_grid_exits_2(self, tmp_path, run):
        # the default dt used to come from cli's own dx formula, which divided by zero
        out = tmp_path / "dev.csv"
        assert main(["simulate", "--alpha", "0.5", "--t-end", "1", "--out", str(out), *run]) == EXIT_INVALID
        assert not out.exists()

    @pytest.mark.parametrize("run", [
        ["--gamma", "0.5", "--branch", "increasing2", "--domain", "segment",
         "--x-lo", "-20", "--x-hi", "20", "--m", "1.5"],
        ["--gamma", "1.5", "--branch", "kink_array", "--x-lo", "5", "--x-hi", "1"],
    ])
    def test_other_domain_setting_exits_2(self, tmp_path, run):
        # a setting of the other domain used to be ignored, and the run went ahead
        out = tmp_path / "dev.csv"
        assert main(["simulate", "--alpha", "0.5", "--n", "64", "--t-end", "1",
                     "--out", str(out), *run]) == EXIT_INVALID
        assert not out.exists()

    def test_huge_grid_exits_2(self, tmp_path):
        # used to reach np.arange and end in a traceback with exit 1
        out = tmp_path / "dev.csv"
        args = self.args(out)
        args[args.index("--n") + 1] = str(2**62)
        assert main(args) == EXIT_INVALID
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["-1e-3", "nan", "inf"])
    def test_bad_eps_exits_2(self, tmp_path, eps):
        # a bad amplitude used to be dropped silently and the run went unperturbed
        assert main(self.args(tmp_path / "dev.csv", ["--eps", eps, "--mode", "2"])) == EXIT_INVALID
        assert not (tmp_path / "dev.csv").exists()

    def test_config_file_driven(self, tmp_path):
        out = tmp_path / "dev.csv"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "alpha = 0.5\ngamma = 1.5\nbranch = kink_array\ndomain = circle\n"
            f"m = 1\nn = 128\nt_end = 2\nrecord_every = 25\nout = {out}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) >= 2

    @pytest.mark.parametrize("run", [
        {"alpha": "0.5", "gamma": "1.5", "branch": "kink_array", "xi0": "-0.25",
         "chirality": "-1", "domain": "circle", "m": "2", "n": "128", "dt": "0.02",
         "t_end": "2", "record_every": "30", "eps": "1e-3",
         "mode": "2", "probe": "true"},
        {"alpha": "0.5", "gamma": "0.5", "branch": "increasing2", "xi0": "0.5",
         "chirality": "1", "domain": "segment", "x_lo": "-20", "x_hi": "20", "n": "128",
         "dt": "0.2", "t_end": "4", "record_every": "7",
         "eps": "2e-3", "mode": "1", "probe": "false"},
    ])
    def test_config_file_matches_flags(self, tmp_path, capsys, run):
        # every setting of simulate, from one config file and then as flags
        outputs = []
        for name in ("cfg", "flags"):
            paths = {"out": tmp_path / f"{name}.csv", "snapshot_out": tmp_path / f"{name}_snap.csv"}
            settings = {**run, **paths}
            if name == "cfg":
                cfg = tmp_path / "run.cfg"
                cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
                argv = ["--config", str(cfg)]
            else:
                argv = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
            assert main(["simulate", *argv]) == EXIT_OK
            outputs.append([capsys.readouterr().out] + [p.read_bytes() for p in paths.values()])
        assert outputs[0] == outputs[1]

    def test_spelled_out_defaults_match_omitted(self, tmp_path, capsys):
        outputs = []
        for name, extra in [("omitted", []), ("spelled", [
                "--xi0", "0", "--chirality", "1", "--m", "1", "--n", "256",
                "--record-every", "50", "--probe", "false", "--eps", "0"])]:
            out, snap = tmp_path / f"{name}.csv", tmp_path / f"{name}_snap.csv"
            assert main(["simulate", *self.KINK, "--t-end", "3", "--out", str(out),
                         "--snapshot-out", str(snap), *extra]) == EXIT_OK
            outputs.append([capsys.readouterr().out, out.read_bytes(), snap.read_bytes()])
        assert outputs[0] == outputs[1]

    def test_unused_setting_still_parsed(self, tmp_path):
        # with eps 0 the mode was never read, and a bad one went unnoticed
        assert main(self.args(tmp_path / "dev.csv", ["--eps", "0", "--mode", "two"])) == EXIT_INVALID

    def test_diverged_probe_with_snapshot(self, tmp_path, capsys):
        # the snapshot used to step the diverged state once more and exit 3
        run = ["simulate", "--alpha", "1", "--gamma", "1.5", "--branch", "kink_array",
               "--domain", "circle", "--m", "1", "--n", "256", "--t-end", "5", "--eps", "1e7",
               "--probe", "true", "--out", str(tmp_path / "d.csv")]
        snap = tmp_path / "s.csv"
        assert main(run) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(run + ["--snapshot-out", str(snap)]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert "diverged_at = 0.019757291431052041" in plain
        wave = TravellingWave(ModelParams(1.0, 1.5), WaveBranch.KINK_ARRAY)
        state = pde_sim.init_from_wave(wave, 256, pde_sim.Circle(1))
        config = pde_sim.SimConfig(dt=state.dt, t_end=5.0, perturbation=pde_sim.Perturbation(1e7, 1),
                                   probe=True)
        last_good = pde_sim.evolve(state, wave.params, config).final_state
        header, rows = read_csv(snap)
        assert header == ["x", "phi", "phi_t"]
        assert [float(row[1]) for row in rows] == last_good.phi.tolist()

    def test_divergence_without_probe_exits_3(self, tmp_path, caplog):
        out = tmp_path / "d.csv"
        assert main(["simulate", *self.KINK, "--n", "64", "--t-end", "5", "--eps", "1e7",
                     "--out", str(out)]) == EXIT_DIVERGED
        assert "simulation diverged" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--domain", "torus"], ["--probe", "maybe"], ["--m", "0"]])
    def test_bad_domain_or_probe_exits_2(self, tmp_path, extra):
        assert main(self.args(tmp_path / "d.csv", extra)) == EXIT_INVALID
        assert not (tmp_path / "d.csv").exists()

    def test_step_count_overflow_exits_2(self, tmp_path):
        # t_end/dt = inf used to reach math.ceil and end in an OverflowError traceback
        args = self.args(tmp_path / "dev.csv")
        args[args.index("--t-end") + 1] = "1e308"
        assert main(args) == EXIT_INVALID
        assert not (tmp_path / "dev.csv").exists()

    @pytest.mark.parametrize("argv", [
        "--alpha 1e-300 --gamma 1.5 --branch kink_array",  # dx*dx = 0: divide-by-zero, then exit 3
        "--alpha 1 --gamma 0.5 --branch increasing2 --domain segment --x-lo 0 --x-hi 1e300 "
        "--t-end 1e299",  # dx*dx = inf: "diverged" at the first step
        "--alpha 1 --gamma 1.5 --branch kink_array --dt 1e-300",  # dt*dt = 0: 1e300 steps
        "--alpha 1 --gamma 1.5 --branch kink_array --xi0 1e7",  # |phi| ~ 1.1e7: "diverged"
        "--alpha 1 --gamma 1.5 --branch kink_array --m 1000000000",  # |phi| ~ 6e9: "diverged"
        "--alpha 1 --gamma 1.5 --branch kink_array --xi0 1e300",  # the guard's dot overflowed
    ])
    def test_degenerate_grid_or_field_exits_2(self, tmp_path, argv):
        argv = ["simulate", "--n", "64", "--t-end", "1", *argv.split(), "--out", str(tmp_path / "d.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(sgwaves.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sgwaves.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("how", ["dt_above_limit", "cfl_guard_flag", "cfl_guard_key"])
    def test_time_step_rule_has_no_override(self, tmp_path, how):
        # dt <= 0.9*dx is the one rule: a dt one ulp above it, and the removed cfl_guard
        # setting as a flag or a config key, each exit 2
        wave = TravellingWave(ModelParams(0.5, 1.5), WaveBranch.KINK_ARRAY)
        above = math.nextafter(0.9 * (sgwaves.xi_period(wave.params) / 64), math.inf)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cfl_guard = 0.5\n")
        extra = {"dt_above_limit": ["--dt", repr(above)], "cfl_guard_flag": ["--cfl-guard", "0.5"],
                 "cfl_guard_key": ["--config", str(cfg)]}[how]
        argv = ["simulate", *self.KINK, "--n", "64", "--t-end", "1", *extra, "--out", str(tmp_path / "d.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(sgwaves.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sgwaves.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "d.csv").exists()
        if how == "dt_above_limit":
            assert "dt <= 0.9*dx" in proc.stderr
            argv[argv.index(repr(above))] = repr(math.nextafter(above, 0.0))
            assert main(argv[:-1] + [str(tmp_path / "ok.csv")]) == EXIT_OK

    def test_cached_parser_reruns_match_a_fresh_process(self, tmp_path, capsys):
        # the parser is built once per process; A, B, A must give A's bytes twice
        def run(tag, extra, out_dir=tmp_path):
            out, snap = out_dir / f"{tag}.csv", out_dir / f"{tag}_snap.csv"
            assert main(self.args(out, [*extra, "--snapshot-out", str(snap)])) == EXIT_OK
            return [capsys.readouterr().out, out.read_bytes(), snap.read_bytes()]

        a_args = ["--eps", "1e-3", "--mode", "2", "--xi0", "-6.8e-05"]
        first = run("a1", a_args)
        run("b", ["--chirality", "-1", "--probe", "true", "--record-every", "7"])
        assert run("a2", a_args) == first
        with pytest.raises(SystemExit):
            main(["simulate", "--no-such-flag", "1"])
        capsys.readouterr()
        assert run("a3", a_args) == first

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(sgwaves.__file__).resolve().parents[1])}
        argv = self.args(fresh / "a1.csv", [*a_args, "--snapshot-out", str(fresh / "a1_snap.csv")])
        proc = subprocess.run([sys.executable, "-m", "sgwaves.cli", *argv], env=env,
                              capture_output=True, text=True, check=True)
        assert [proc.stdout, (fresh / "a1.csv").read_bytes(),
                (fresh / "a1_snap.csv").read_bytes()] == first

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "dev.csv"
        assert main(self.args(out)) == EXIT_OK
        _, rows = read_csv(out)
        for row in rows:
            for cell in row:
                value = float(cell)
                assert format(value, ".17g") == cell
