import math

import numpy as np
import pytest

from sgwaves import DomainError
from sgwaves.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    load_config,
    main,
)

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
        # the pole at xi = pi lands inside the grid: y and F become infinities
        pole_row = rows[50]
        assert pole_row[1] in ("inf", "-inf")
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

    def test_quarter_value(self, capsys):
        code = main(["period", "--alpha", "1", "--gamma", "1.25"])
        assert code == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert float(first.split("=")[1]) == pytest.approx(8.377580409572783, abs=1e-9)

    def test_subcritical_exits_2(self):
        assert main(["period", "--alpha", "1", "--gamma", "1"]) == EXIT_INVALID


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

    def test_fault_injection_fails(self, capsys):
        code = main(["verify", "--corrupt-gamma-sign"])
        assert code == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "status = fail" in out
        assert "worst_offender = identity_max_residual" in out


class TestSimulate:
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

    def test_deterministic_reruns_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        snap1, snap2 = tmp_path / "sa.csv", tmp_path / "sb.csv"
        extra1 = ["--eps", "1e-3", "--mode", "1", "--snapshot-out", str(snap1)]
        extra2 = ["--eps", "1e-3", "--mode", "1", "--snapshot-out", str(snap2)]
        assert main(self.args(out1, extra1)) == EXIT_OK
        assert main(self.args(out2, extra2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert snap1.read_bytes() == snap2.read_bytes()

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

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "dev.csv"
        assert main(self.args(out)) == EXIT_OK
        _, rows = read_csv(out)
        for row in rows:
            for cell in row:
                value = float(cell)
                assert format(value, ".17g") == cell
