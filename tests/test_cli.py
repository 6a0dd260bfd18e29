import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import sgwaves
from sgwaves import DomainError, F_map, ModelParams, TravellingWave, WaveBranch, closed_form, pde_sim
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
KINK = "--alpha 0.5 --gamma 1.5 --branch kink_array"
SIM = f"simulate {KINK} --domain circle --m 1 --n 128 --t-end 3 --record-every 20 --out OUT"
# one ulp above dt <= 0.9*dx for KINK on a 64-point circle
DT_ABOVE_LIMIT = math.nextafter(0.9 * (sgwaves.xi_period(ModelParams(0.5, 1.5)) / 64), math.inf)
MAIN_SECONDS = 5.0  # an in-process refusal takes milliseconds


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def printed(text):
    """The `name = value` lines a command prints, as a dict of strings in print order."""
    return dict(line.split(" = ") for line in text.splitlines())


def comment_lines(size):
    """A config file of `size` bytes that holds only comments."""
    return (b"#" * 63 + b"\n") * (size // 64) + b"#" * (size % 64)


def run_cli(argv, *python_options):
    """`python -m sgwaves.cli argv` in a fresh process that imports this checkout's sgwaves."""
    env = {**os.environ, "PYTHONPATH": str(Path(sgwaves.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *python_options, "-m", "sgwaves.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


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

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # a UTF-8 file saved with a BOM read its first key as "\ufeffalpha", not a setting of period
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 1\ngamma = 1.25\n")
        assert main(["period", "--config", str(cfg)]) == EXIT_OK
        assert float(printed(capsys.readouterr().out)["closed_form_period"]) == pytest.approx(8.377580409572783)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 1.0\n")
        with pytest.raises(DomainError):
            load_config(str(cfg))

    def test_size_cap_admits_its_own_size(self, tmp_path):
        # one byte more is refused: REFUSALS' config-over-size-cap
        cfg = tmp_path / "big.cfg"
        cfg.write_bytes(comment_lines(MAX_CONFIG_BYTES))
        assert main(["period", "--config", str(cfg), "--alpha", "1", "--gamma", "2"]) == EXIT_OK

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\ngamma = 1.25\n")
        code = main(["period", "--config", str(cfg), "--gamma", str(SQRT2)])
        assert code == EXIT_OK
        value = float(printed(capsys.readouterr().out)["closed_form_period"])
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

    def test_unstable_state_at_zero_forcing(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["eval", "--alpha", "1", "--gamma", "0", "--branch", "constant_u",
                     "--grid", "0:1:3", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [row[1:3] for row in rows] == [["-inf", "0"]] * 3  # y = -inf, F(-inf) = 0
        assert {row[4] for row in rows} == {_fmt(math.pi)}

    def test_grid_cap(self):
        with pytest.raises(DomainError):
            _parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")


class TestPeriod:
    def test_agreement(self, capsys):
        code = main(["period", "--alpha", "1", "--gamma", repr(SQRT2)])
        assert code == EXIT_OK
        values = printed(capsys.readouterr().out)
        assert float(values["closed_form_period"]) == pytest.approx(2 * math.pi, abs=1e-12)
        assert float(values["abs_difference"]) < 1e-10

    def test_near_critical_answers(self, capsys):
        # exited 2: the period integrand cancelled at its peak as gamma -> 1+
        code = main(["period", "--alpha", "1", "--gamma", "1.000001"])
        assert code == EXIT_OK
        assert float(printed(capsys.readouterr().out)["abs_difference"]) < 1e-10

    def test_quarter_value(self, capsys):
        code = main(["period", "--alpha", "1", "--gamma", "1.25"])
        assert code == EXIT_OK
        value = float(printed(capsys.readouterr().out)["closed_form_period"])
        assert value == pytest.approx(8.377580409572783, abs=1e-9)


class TestLimits:
    def test_decreasing1(self, capsys):
        code = main(["limits", "--alpha", "1", "--gamma", "0.5", "--branch", "decreasing1"])
        assert code == EXIT_OK
        values = printed(capsys.readouterr().out)
        assert float(values["g_xi_minus_inf"]) == pytest.approx(5 * math.pi / 6, abs=1e-12)
        assert float(values["g_xi_plus_inf"]) == pytest.approx(math.pi / 6, abs=1e-12)
        assert float(values["phi_x_minus_inf"]) == pytest.approx(-math.pi / 6, abs=1e-12)

    @pytest.mark.parametrize("levels", [("quiet", "info"), ("info", "quiet"), ("quiet", None), ("quiet", "loud")],
                             ids=["quiet then info", "info then quiet", "quiet then unset", "quiet then unknown"])
    def test_sgw_log_is_read_on_every_call(self, monkeypatch, caplog, levels):
        # logging.basicConfig set the level on the first call in a process only, and not at all under pytest;
        # an unset or unknown SGW_LOG means info
        handlers = list(logging.getLogger().handlers)
        for level in levels:
            caplog.clear()
            if level is None:
                monkeypatch.delenv("SGW_LOG", raising=False)
            else:
                monkeypatch.setenv("SGW_LOG", level)
            logged = level != "quiet"
            assert main(["limits", "--alpha", "1", "--gamma", "-0.5", "--branch", "decreasing1"]) == EXIT_OK
            assert ("negative gamma normalized" in caplog.text) is logged
            assert logging.getLogger().handlers == handlers


class TestVerify:
    def test_defaults_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        code = main(["verify", "--out", str(out)])
        assert code == EXIT_OK
        values = printed(out.read_text())
        assert values["status"] == "pass"
        assert float(values["identity_max_residual"]) < 1e-12
        assert float(values["period_max_abs_diff"]) < 1e-9

    def test_values_are_the_table_entries(self, capsys):
        # 17 significant digits round-trip a double, so each value is exact
        assert main(["verify"]) == EXIT_OK
        values = printed(capsys.readouterr().out)
        assert list(values) == [key for name in CHECKS for key in (name, f"{name}_threshold")] + ["status"]
        for name, (threshold, worst) in CHECKS.items():
            assert float(values[name]) == worst()
            assert float(values[f"{name}_threshold"]) == threshold

    def test_fault_injection_fails(self, capsys):
        code = main(["verify", "--corrupt-gamma-sign"])
        assert code == EXIT_VERIFY_FAILED
        values = printed(capsys.readouterr().out)
        assert (values["status"], values["worst_offender"]) == ("fail", "identity_max_residual")

    def test_fails_on_a_flipped_fixed_point(self, monkeypatch, capsys):
        # a forcing sign flipped in the fixed-point formula (y_- at -gamma is -y_-), reached only
        # through the library's own calls: identities_check reads constant_y_value, which calls it
        fixed_points = closed_form.y_fixed_points

        def flipped(params):
            fp = fixed_points(params)
            return closed_form.FixedPoints(fp.y_plus, -fp.y_minus)

        monkeypatch.setattr(closed_form, "y_fixed_points", flipped)
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        values = printed(capsys.readouterr().out)
        assert (values["status"], values["worst_offender"]) == ("fail", "identity_max_residual")
        failed = {name: float(values[name]) for name in CHECKS
                  if not float(values[name]) < float(values[f"{name}_threshold"])}
        assert failed == pytest.approx({"identity_max_residual": 400.0, "ode_oracle_sup_diff": math.pi / 3,
                                        "pde_max_residual": 1.0, "ode_max_residual": 1.0}, rel=1e-3)


class TestSimulate:
    def args(self, out, extra=()):
        return [str(out) if token == "OUT" else token for token in SIM.split()] + [*extra]

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

    def test_one_kernel_per_run(self, tmp_path, kernels):
        # the snapshot's phi_t comes from the look-ahead of evolve's own kernel
        assert main(self.args(tmp_path / "dev.csv", ["--snapshot-out", str(tmp_path / "snap.csv")])) == EXIT_OK
        assert len(kernels) == 1

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
        assert float(printed(capsys.readouterr().out)["final_t"]) > 0.0

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
            assert main(["simulate", *KINK.split(), "--t-end", "3", "--out", str(out),
                         "--snapshot-out", str(snap), *extra]) == EXIT_OK
            outputs.append([capsys.readouterr().out, out.read_bytes(), snap.read_bytes()])
        assert outputs[0] == outputs[1]

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
        assert main(["simulate", *KINK.split(), "--n", "64", "--t-end", "5", "--eps", "1e7",
                     "--out", str(out)]) == EXIT_DIVERGED
        assert "simulation diverged" in caplog.text
        assert not out.exists()

    def test_dt_one_ulp_below_the_limit_runs(self, tmp_path):
        # one ulp above is refused: REFUSALS' simulate-dt-above-limit
        dt = math.nextafter(DT_ABOVE_LIMIT, 0.0)
        assert main(["simulate", *KINK.split(), "--n", "64", "--t-end", "1", "--dt", repr(dt),
                     "--out", str(tmp_path / "ok.csv")]) == EXIT_OK

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
        proc = run_cli(self.args(fresh / "a1.csv", [*a_args, "--snapshot-out", str(fresh / "a1_snap.csv")]))
        assert proc.returncode == EXIT_OK, proc.stderr
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


class Refusal(NamedTuple):
    argv: str  # split on spaces; OUT and CFG stand for paths in tmp_path
    fragment: str  # a part of the one error logged, or of stderr where argparse refuses
    cfg: bytes | None = None  # the bytes of the config file CFG
    fresh: bool = False  # also run in a fresh `python -W error::RuntimeWarning` process


def refusal(name, *fields, marks=(), **named):
    return pytest.param(Refusal(*fields, **named), id=name, marks=marks)


# command lines to extend; a flag given twice takes its last value
EVAL = "eval --alpha 1 --gamma 0.5 --branch decreasing1 --out OUT"
SIM64 = f"simulate {KINK} --n 64 --t-end 1 --out OUT"
GRID = f"grid needs 0 < hi - lo < inf and 2 <= n <= {MAX_GRID_POINTS}, got "
N = f"grid size n must be in [64, {MAX_GRID_POINTS}], got "
M = f"circle winding m must be in [1, {MAX_GRID_POINTS}], got "
T_END = "t_end must be positive with t_end/dt finite, got "
EPS = "perturbation amplitude must be finite and >= 0: "
STEP = "grid needs 0 < dt <= 0.9*dx with dt^2, dx^2 normal"
PHI = "initial |phi| exceeds 1e+06"
NO_PHASE = "y has no phase left at some xi on branch kink_array"

# Every command line that exits 2, with a part of its error message that says why.
REFUSALS = [
    # a binary file used to end in a UnicodeDecodeError traceback and exit 1
    refusal("config-not-utf8", "period --config CFG --gamma 2", "run.cfg: not a UTF-8 text file", b"alpha = \xff\n"),
    # a misspelt key used to be ignored, and the run went ahead on the default
    refusal("config-unknown-key", f"simulate --config CFG {KINK} --n 128 --t-end 3 --out OUT",
            "run.cfg: not a setting of simulate: record_evry", b"record_evry = 1\n"),
    refusal("config-over-size-cap", "period --config CFG --alpha 1 --gamma 2",
            f"run.cfg: config file larger than {MAX_CONFIG_BYTES} bytes", comment_lines(MAX_CONFIG_BYTES + 1)),
    # reading it whole used to grow until a MemoryError, exit 1
    refusal("config-endless-file", "period --config /dev/zero --alpha 1 --gamma 2", "/dev/zero: config file larger",
            marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")),
    refusal("eval-branch-forcing-mismatch", f"{EVAL} --branch kink_array --grid 0:1:11",
            "branch kink_array does not exist at gamma=0.5"),
    # used to reach np.linspace and end in a traceback with exit 1
    refusal("eval-huge-grid", f"{EVAL} --grid 0:1:{2**62}", f"{GRID}'0:1:{2**62}'"),
    # an infinite hi - lo used to write a first row of NaN and exit 0
    refusal("eval-unbounded-grid-inf", f"{EVAL} --grid=0:inf:4", f"{GRID}'0:inf:4'"),
    refusal("eval-unbounded-grid-wide", f"{EVAL} --grid=-1e308:1e308:4", f"{GRID}'-1e308:1e308:4'"),
    refusal("eval-grid-without-count", f"{EVAL} --grid 0:1", "grid must be 'lo:hi:n', got '0:1'"),
    # xi - xi0 (or g) overflowed: a NaN row with exit 0, or an overflow warning
    refusal("eval-overflow-kink-array", f"{EVAL} --gamma 1.5 --branch kink_array --xi0=-1e308 --grid=0:1e308:3",
            "xi - xi0 overflows"),
    refusal("eval-overflow-pure-sg", f"{EVAL} --gamma 0 --branch pure_sg_increasing --xi0=-1e308 --grid=0:1e308:4",
            "xi - xi0 overflows"),
    refusal("eval-overflow-d-over-period", f"{EVAL} --alpha 1e-300 --gamma 1.5 --branch kink_array "
            "--grid=0:1e300:3", NO_PHASE),  # d/Xi overflows
    refusal("eval-overflow-no-phase-left", f"{EVAL} --alpha 1e-300 --gamma 1.5 --branch kink_array "
            "--grid=0:1e-10:3", NO_PHASE),  # y = inf at 1e289 periods
    refusal("eval-unknown-branch", f"{EVAL} --branch nonsense --grid 0:1:11", "unknown branch 'nonsense'"),
    refusal("period-subcritical", "period --alpha 1 --gamma 1", "period needs gamma > 1"),
    # printed inf, inf and nan with exit 0
    refusal("period-infinite", "period --alpha 1e308 --gamma 1.5", "positive value; got ModelParams(alpha=1e+308"),
    refusal("limits-kink-array", "limits --alpha 1 --gamma 2 --branch kink_array", "g has no finite limits"),
    refusal("simulate-missing-out", f"simulate {KINK} --n 128 --t-end 1", "missing required setting 'out'"),
    # an unbounded run used to reach math.ceil(inf) and end in a traceback
    refusal("simulate-t-end-inf", f"{SIM} --t-end inf", f"{T_END}inf/"),
    refusal("simulate-t-end-Infinity", f"{SIM} --t-end Infinity", f"{T_END}inf/"),
    # the default dt used to come from cli's own dx formula, which divided by zero
    refusal("simulate-circle-n-0", f"{SIM64} --domain circle --n 0", f"{N}0"),
    refusal("simulate-segment-n-1", f"{SIM64} --gamma 0.5 --branch decreasing1 --domain segment --x-lo 0 --x-hi 10 "
            "--n 1", f"{N}1"),
    # a setting of the other domain used to be ignored, and the run went ahead
    refusal("simulate-m-on-segment", f"{SIM64} --gamma 0.5 --branch increasing2 --domain segment --x-lo -20 "
            "--x-hi 20 --m 1", "setting 'm' does not apply to a segment domain"),
    refusal("simulate-x-lo-on-circle", f"{SIM64} --x-lo 5 --x-hi 1", "setting 'x_lo' does not apply to a circle"),
    # used to reach np.arange and end in a traceback with exit 1
    refusal("simulate-huge-grid", f"{SIM} --n {2**62}", f"{N}{2**62}"),
    # a bad amplitude used to be dropped silently and the run went unperturbed
    refusal("simulate-eps-negative", f"{SIM} --eps -1e-3 --mode 2", f"{EPS}-0.001"),
    refusal("simulate-eps-nan", f"{SIM} --eps nan --mode 2", f"{EPS}nan"),
    refusal("simulate-eps-inf", f"{SIM} --eps inf --mode 2", f"{EPS}inf"),
    # with eps 0 the mode was never read, and a bad one went unnoticed
    refusal("simulate-unused-mode-parsed", f"{SIM} --eps 0 --mode two", "setting 'mode': invalid literal for int()"),
    refusal("simulate-unused-mode-range", f"{SIM} --eps 0 --mode 0", "perturbation mode number must be in [1, "),
    refusal("simulate-domain-torus", f"{SIM} --domain torus", "domain must be 'circle' or 'segment', got 'torus'"),
    refusal("simulate-probe-maybe", f"{SIM} --probe maybe", "setting 'probe': expected a boolean, got 'maybe'"),
    refusal("simulate-m-0", f"{SIM} --m 0", f"{M}0"),
    # a winding past a double ended in an OverflowError traceback with exit 1
    refusal("simulate-m-1e400", f"{SIM} --m 1{'0' * 400}", f"{M}1{'0' * 400}", fresh=True),
    # t_end/dt = inf used to reach math.ceil and end in an OverflowError traceback
    refusal("simulate-step-count-overflow", f"{SIM} --t-end 1e308", f"{T_END}1e+308/"),
    refusal("simulate-dx-squared-zero", f"{SIM64} --alpha 1e-300", STEP, fresh=True),  # divide-by-zero, then exit 3
    refusal("simulate-dx-squared-inf", f"{SIM64} --alpha 1 --gamma 0.5 --branch increasing2 --domain segment "
            "--x-lo 0 --x-hi 1e300 --t-end 1e299", STEP, fresh=True),  # "diverged" at the first step
    refusal("simulate-dt-squared-zero", f"{SIM64} --alpha 1 --dt 1e-300", STEP, fresh=True),  # 1e300 steps
    refusal("simulate-phi-xi0-1e7", f"{SIM64} --alpha 1 --xi0 1e7", PHI, fresh=True),  # |phi| ~ 1.1e7: "diverged"
    refusal("simulate-phi-m-1e6", f"{SIM64} --alpha 1 --m 1000000", PHI, fresh=True),  # |phi| ~ 6.3e6: "diverged"
    refusal("simulate-phi-xi0-1e300", f"{SIM64} --alpha 1 --xi0 1e300", PHI, fresh=True),  # the guard's dot overflowed
    # dt <= 0.9*dx is the one rule: a dt one ulp above it, and the removed cfl_guard
    # setting as a flag or a config key, each exit 2
    refusal("simulate-dt-above-limit", f"{SIM64} --dt {DT_ABOVE_LIMIT!r}", STEP, fresh=True),
    refusal("simulate-cfl-guard-flag", f"{SIM64} --cfl-guard 0.5", "unrecognized arguments: --cfl-guard", fresh=True),
    refusal("simulate-cfl-guard-key", f"{SIM64} --config CFG", "run.cfg: not a setting of simulate: cfl_guard",
            b"cfl_guard = 0.5\n", fresh=True),
]


def refused_argv(row, tmp_path):
    """The row's command line with OUT and CFG filled in; CFG is written when the row has one."""
    if row.cfg is not None:
        (tmp_path / "run.cfg").write_bytes(row.cfg)
    paths = {"OUT": str(tmp_path / "out.csv"), "CFG": str(tmp_path / "run.cfg")}
    return [paths.get(token, token) for token in row.argv.split()]


@pytest.mark.parametrize("row", REFUSALS)
def test_refused_with_exit_2(tmp_path, capsys, caplog, time_bound, row):
    try:
        with time_bound(MAIN_SECONDS):  # a refusal that loops fails its row, not the whole run
            code = main(refused_argv(row, tmp_path))
    except SystemExit as exc:  # argparse refuses an unknown flag itself, on stderr
        code = exc.code
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID and out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == (["run.cfg"] if row.cfg is not None else [])
    errors = [record.getMessage() for record in caplog.records if record.levelno >= logging.ERROR] or [err]
    assert len(errors) == 1 and row.fragment in errors[0], errors


@pytest.mark.parametrize("row", [param for param in REFUSALS if param.values[0].fresh])
def test_refused_in_a_fresh_process(tmp_path, row):
    proc = run_cli(refused_argv(row, tmp_path), "-W", "error::RuntimeWarning")
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert "Traceback" not in proc.stderr and row.fragment in proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == (["run.cfg"] if row.cfg is not None else [])
