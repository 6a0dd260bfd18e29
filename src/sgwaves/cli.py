"""Command-line front end: eval, period, limits, verify, simulate.

Configuration comes from an optional flat key = value file plus flags
(flags win).  All numbers are written with 17 significant digits so CSV
outputs round-trip doubles exactly, and every command is deterministic
given its configuration: random sampling uses fixed seeds and perturbations
are deterministic sinusoids.

Exit codes: 0 success, 1 verification failure, 2 invalid config or domain
error, 3 runtime divergence.  Set SGW_LOG to quiet/info/debug to control
logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys

import numpy as np

from . import closed_form, oracles, pde_sim
from .closed_form import TravellingWave, WaveBranch
from .errors import BlowUp, DomainError, SGWaveError
from .model import ModelParams
from .pde_sim import Circle, Perturbation, Segment, SimConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_DIVERGED = 3

log = logging.getLogger("sgwaves")

_BRANCH_NAMES = {b.value: b for b in WaveBranch}
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SGW_LOG", "info"), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str) -> dict[str, str]:
    """Parse a flat `key = value` file; `#` starts a comment."""
    settings: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = line.split("=", 1)
                settings[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file ({exc})") from exc
    return settings


def _merge_settings(args: argparse.Namespace, keys: list[str]) -> dict[str, str]:
    settings: dict[str, str] = {}
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = str(value)
    return settings


def _need(settings: dict[str, str], key: str) -> str:
    if key not in settings:
        raise DomainError(f"missing required setting '{key}'")
    return settings[key]


def _as_number(settings: dict[str, str], key: str, default=None, kind=float):
    """settings[key] parsed by kind (float or int); default when the key is absent."""
    if key not in settings and default is not None:
        return default
    value = _need(settings, key)
    try:
        return kind(value)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise DomainError(f"setting '{key}' must be {noun}, got {value!r}") from exc


def _as_bool(settings: dict[str, str], key: str, default: bool = False) -> bool:
    if key not in settings:
        return default
    value = settings[key].lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise DomainError(f"setting '{key}' must be a boolean, got {settings[key]!r}")


def _parse_branch(settings: dict[str, str]) -> WaveBranch:
    name = _need(settings, "branch")
    if name not in _BRANCH_NAMES:
        raise DomainError(
            f"unknown branch '{name}'; valid names: {', '.join(sorted(_BRANCH_NAMES))}"
        )
    return _BRANCH_NAMES[name]


def _parse_wave(settings: dict[str, str]) -> TravellingWave:
    params = ModelParams(_as_number(settings, "alpha"), _as_number(settings, "gamma"))
    if params.flipped:
        log.info("negative gamma normalized to %g; interpret phi as -phi", params.gamma)
    chirality = _as_number(settings, "chirality", 1, int)
    return TravellingWave(params, _parse_branch(settings), _as_number(settings, "xi0", 0.0), chirality)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise DomainError(f"grid must be 'lo:hi:n', got {spec!r}") from exc
    if not 2 <= n <= pde_sim.MAX_GRID_POINTS or not hi > lo:
        raise DomainError(f"grid needs hi > lo and 2 <= n <= {pde_sim.MAX_GRID_POINTS}, got {spec!r}")
    return np.linspace(lo, hi, n)


def cmd_eval(args: argparse.Namespace) -> int:
    """Tabulate xi,y,F,g,phi along a xi grid into a CSV file."""
    settings = _merge_settings(args, ["alpha", "gamma", "branch", "xi0", "chirality", "grid", "out"])
    wave = _parse_wave(settings)
    xs = _parse_grid(_need(settings, "grid"))
    out = _need(settings, "out")
    if wave.branch.is_constant:
        y = np.full_like(xs, closed_form.constant_y_value(wave.params, wave.branch))
        phi = np.asarray(closed_form.phi_eval(wave, xs, 0.0))
        g = phi + math.pi
    else:
        y = np.asarray(closed_form.y_eval(wave, xs))
        g = np.asarray(closed_form.g_eval(wave, xs))
        phi = g - math.pi
    F = np.asarray(closed_form.F_map(y))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("xi,y,F,g,phi\n")
        for row in zip(xs, y, F, g, phi):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    log.info("wrote %d rows to %s", len(xs), out)
    return EXIT_OK


def cmd_period(args: argparse.Namespace) -> int:
    """Print the closed-form period, the quadrature period and their difference."""
    settings = _merge_settings(args, ["alpha", "gamma", "tol"])
    params = ModelParams(_as_number(settings, "alpha"), _as_number(settings, "gamma"))
    tol = _as_number(settings, "tol", oracles.DEFAULT_QUAD_TOL)
    closed = closed_form.xi_period(params)
    quad = oracles.quad_period(params, tol)
    print(f"closed_form_period = {_fmt(closed)}")
    print(f"quadrature_period = {_fmt(quad)}")
    print(f"abs_difference = {_fmt(abs(closed - quad))}")
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    """Print the asymptotic g and phi values of a non-periodic branch."""
    settings = _merge_settings(args, ["alpha", "gamma", "branch", "xi0", "chirality"])
    wave = _parse_wave(settings)
    g_lo, g_hi = closed_form.g_limits(wave)
    phi_lo, phi_hi = closed_form.phi_limits(wave)
    print(f"g_xi_minus_inf = {_fmt(g_lo)}")
    print(f"g_xi_plus_inf = {_fmt(g_hi)}")
    print(f"phi_x_minus_inf = {_fmt(phi_lo)}")
    print(f"phi_x_plus_inf = {_fmt(phi_hi)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the oracle check table `oracles.CHECKS` and report pass/fail per check."""
    settings = _merge_settings(args, ["out"])
    lines = []
    failures = []
    for name, (threshold, worst) in oracles.CHECKS.items():
        value = worst()
        if name == "identity_max_residual" and args.corrupt_gamma_sign:
            # fault-injection hook: flip the forcing sign inside the fixed-point
            # formula and fold the (large) residual into the identity check
            gamma = 0.5
            y_bad = (1.0 + math.sqrt(1.0 - gamma * gamma)) / gamma
            value = max(value, abs(closed_form.F_map(y_bad) - math.tan(closed_form.theta(gamma))))
        lines.append(f"{name} = {_fmt(value)}")
        lines.append(f"{name}_threshold = {_fmt(threshold)}")
        if not value < threshold:
            failures.append((name, value, threshold))
    lines.append(f"status = {'pass' if not failures else 'fail'}")
    if failures:
        worst = max(failures, key=lambda item: item[1] / item[2])
        lines.append(f"worst_offender = {worst[0]}")
    text = "\n".join(lines) + "\n"
    if "out" in settings:
        with open(settings["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    """Initialize a wave on a domain, evolve it and write the CSV outputs."""
    settings = _merge_settings(
        args,
        ["alpha", "gamma", "branch", "xi0", "chirality", "domain", "m", "x_lo", "x_hi",
         "n", "dt", "t_end", "cfl_guard", "record_every", "eps", "mode", "probe",
         "out", "snapshot_out"],
    )
    wave = _parse_wave(settings)
    out = _need(settings, "out")

    domain_kind = settings.get("domain", "circle")
    # a setting of the other domain is a mistyped run, not one to ignore
    for key in {"circle": ("x_lo", "x_hi"), "segment": ("m",)}.get(domain_kind, ()):
        if key in settings:
            raise DomainError(f"setting '{key}' does not apply to a {domain_kind} domain")
    if domain_kind == "circle":
        domain = Circle(_as_number(settings, "m", 1, int))
    elif domain_kind == "segment":
        domain = Segment(_as_number(settings, "x_lo"), _as_number(settings, "x_hi"))
    else:
        raise DomainError(f"domain must be 'circle' or 'segment', got {domain_kind!r}")

    n = _as_number(settings, "n", 256, int)
    cfl_guard = _as_number(settings, "cfl_guard", 0.9)
    dx = pde_sim.domain_grid(wave, n, domain)[1]
    dt = _as_number(settings, "dt", cfl_guard * dx)
    state = pde_sim.init_from_wave(wave, n, domain, dt=dt)

    eps = _as_number(settings, "eps", 0.0)
    pert = Perturbation(eps, _as_number(settings, "mode", 1, int)) if eps != 0.0 else None
    config = SimConfig(
        dt=dt,
        t_end=_as_number(settings, "t_end"),
        cfl_guard=cfl_guard,
        record_every=_as_number(settings, "record_every", 50, int),
        perturbation=pert,
        probe=_as_bool(settings, "probe", False),
    )
    report = pde_sim.evolve(state, wave.params, config, reference=wave)
    pde_sim.write_deviation_csv(report, out)
    if "snapshot_out" in settings:
        pde_sim.write_snapshot_csv(report.final_state, wave.params, settings["snapshot_out"])
    print(f"final_t = {_fmt(report.final_state.t)}")
    if report.deviation:
        print(f"final_deviation = {_fmt(report.deviation[-1])}")
    if config.probe:
        diverged = "none" if report.diverged_at is None else _fmt(report.diverged_at)
        print(f"diverged_at = {diverged}")
    log.info("wrote deviation records to %s", out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgwaves",
        description="Closed-form travelling waves of the damped, driven sine-Gordon "
                    "equation, their numerical verification and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, wave_flags: bool = True) -> None:
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--alpha", help="damping coefficient (> 0)")
        p.add_argument("--gamma", help="constant forcing (normalized to >= 0)")
        if wave_flags:
            p.add_argument("--branch", help="wave branch name")
            p.add_argument("--xi0", help="phase offset of the wave")
            p.add_argument("--chirality", help="+1 for xi = x - t, -1 for xi = -x - t")

    p_eval = sub.add_parser("eval", help="tabulate xi,y,F,g,phi over a xi grid")
    add_common(p_eval)
    p_eval.add_argument("--grid", help="xi grid as lo:hi:n (n points inclusive)")
    p_eval.add_argument("--out", help="output CSV path")
    p_eval.set_defaults(handler=cmd_eval)

    p_period = sub.add_parser("period", help="closed-form vs quadrature period")
    add_common(p_period, wave_flags=False)
    p_period.add_argument("--tol", help="quadrature tolerance")
    p_period.set_defaults(handler=cmd_period)

    p_limits = sub.add_parser("limits", help="asymptotic g and phi values")
    add_common(p_limits)
    p_limits.set_defaults(handler=cmd_limits)

    p_verify = sub.add_parser("verify", help="run the oracle verification suite")
    p_verify.add_argument("--config", help="flat key = value configuration file")
    p_verify.add_argument("--out", help="write the key = value summary here too")
    p_verify.add_argument("--corrupt-gamma-sign", action="store_true",
                          help="fault-injection hook: corrupt the forcing sign")
    p_verify.set_defaults(handler=cmd_verify)

    p_sim = sub.add_parser("simulate", help="finite-difference evolution of a wave")
    add_common(p_sim)
    p_sim.add_argument("--domain", help="'circle' or 'segment'")
    p_sim.add_argument("--m", help="winding number for circle domains")
    p_sim.add_argument("--x-lo", dest="x_lo", help="segment left end")
    p_sim.add_argument("--x-hi", dest="x_hi", help="segment right end")
    p_sim.add_argument("--n", help="grid points")
    p_sim.add_argument("--dt", help="time step (default cfl_guard*dx)")
    p_sim.add_argument("--t-end", dest="t_end", help="final time")
    p_sim.add_argument("--cfl-guard", dest="cfl_guard", help="CFL safety factor")
    p_sim.add_argument("--record-every", dest="record_every", help="steps between records")
    p_sim.add_argument("--eps", help="perturbation amplitude (0 disables)")
    p_sim.add_argument("--mode", help="perturbation mode number")
    p_sim.add_argument("--probe", help="true/false: record divergence instead of failing")
    p_sim.add_argument("--out", help="deviation CSV path")
    p_sim.add_argument("--snapshot-out", dest="snapshot_out", help="final snapshot CSV path")
    p_sim.set_defaults(handler=cmd_simulate)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """`--xi0 -6.8e-05` -> `--xi0=-6.8e-05`; argparse takes -6.8e-05 for a flag."""
    joined: list[str] = []
    for token in argv:
        if _NEGATIVE.match(token) and joined and re.match(r"--[^=]+$", joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except BlowUp as exc:
        log.error("simulation diverged: %s", exc)
        return EXIT_DIVERGED
    except (SGWaveError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
