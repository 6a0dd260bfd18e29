"""Command-line front end: eval, period, limits, verify, simulate.

Each setting is declared once, in `SETTINGS`; its config key is its name and
its flag the name with dashes (`t_end`, `--t-end`).  Settings come from an
optional flat key = value file plus flags (flags win).  All numbers are
written with 17 significant digits so CSV outputs round-trip doubles
exactly, and every command is deterministic given its configuration.

Exit codes: 0 success, 1 verification failure, 2 invalid config or domain
error, 3 runtime divergence.  Set SGW_LOG to quiet/info/debug to control
logging verbosity.
"""

from __future__ import annotations

import argparse
import functools
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
from .pde_sim import MAX_GRID_POINTS, Circle, Perturbation, Segment, SimConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_DIVERGED = 3

MAX_CONFIG_BYTES = 2**20  # a config file is a few lines; anything larger is a mistake

log = logging.getLogger("sgwaves")

_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


_fmt = pde_sim.NUMBER_FORMAT.format  # one number as every output writes it


def _setup_logging() -> None:
    """Set the sgwaves logger's level from SGW_LOG on every call; basicConfig adds a handler only once."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel({"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SGW_LOG", "info"), logging.INFO))


def load_config(path: str) -> dict[str, str]:
    """Parse a flat `key = value` file of at most MAX_CONFIG_BYTES; `#` starts a comment."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise DomainError(f"{path}: config file larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")  # a byte-order mark is not part of the first key
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file ({exc})") from exc
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return text.lower() in ("true", "1", "yes", "on")


def _branch(name: str) -> WaveBranch:
    valid = sorted(b.value for b in WaveBranch)
    if name not in valid:
        raise ValueError(f"unknown branch '{name}'; valid names: {', '.join(valid)}")
    return WaveBranch(name)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise DomainError(f"grid must be 'lo:hi:n', got {spec!r}") from exc
    if not 2 <= n <= MAX_GRID_POINTS or not 0.0 < hi - lo < math.inf:
        raise DomainError(f"grid needs 0 < hi - lo < inf and 2 <= n <= {MAX_GRID_POINTS}, got {spec!r}")
    return np.linspace(lo, hi, n)


REQUIRED = object()  # the default of a setting that has none

# name: (parser, default, help).  A parser raises ValueError on a bad value.
SETTINGS = {
    "alpha": (float, REQUIRED, "damping coefficient (> 0)"),
    "gamma": (float, REQUIRED, "constant forcing (normalized to >= 0)"),
    "branch": (_branch, REQUIRED, "wave branch name"),
    "xi0": (float, TravellingWave.xi0, "phase offset of the wave"),
    "chirality": (int, TravellingWave.chirality, "+1 for xi = x - t, -1 for xi = -x - t"),
    "grid": (_parse_grid, REQUIRED, "xi grid as lo:hi:n (n points inclusive)"),
    "tol": (float, oracles.DEFAULT_QUAD_TOL, "quadrature tolerance"),
    "domain": (str, "circle", "'circle' or 'segment'"),
    "m": (int, 1, "winding number for circle domains"),
    "x_lo": (float, REQUIRED, "segment left end"),
    "x_hi": (float, REQUIRED, "segment right end"),
    "n": (int, 256, "grid points"),
    "dt": (float, None, f"time step, 0 < dt <= {pde_sim.CFL}*dx (default {pde_sim.CFL}*dx)"),
    "t_end": (float, REQUIRED, "final time"),
    "record_every": (int, SimConfig.record_every, "steps between records"),
    "eps": (float, 0.0, "perturbation amplitude (0 disables)"),
    "mode": (int, 1, "perturbation mode number"),
    "probe": (_boolean, SimConfig.probe, "true/false: record divergence instead of failing"),
    "out": (str, REQUIRED, "output path (optional for verify: a copy of the summary)"),
    "snapshot_out": (str, None, "final snapshot CSV path"),
}


class _Settings(dict):
    """Parsed settings; an absent one reads as its SETTINGS default."""

    def __missing__(self, key: str):
        default = SETTINGS[key][1]
        if default is REQUIRED:
            raise DomainError(f"missing required setting '{key}'")
        return default


def _settings(args: argparse.Namespace) -> _Settings:
    """The command's config-file settings overridden by its flags, each parsed by SETTINGS."""
    names = COMMANDS[args.command][2]
    given = load_config(args.config) if args.config else {}
    unknown = sorted(set(given) - set(names))
    if unknown:
        raise DomainError(f"{args.config}: not a setting of {args.command}: {', '.join(unknown)}")
    given.update((key, getattr(args, key)) for key in names if getattr(args, key) is not None)
    settings = _Settings()
    for key, value in given.items():
        try:
            settings[key] = SETTINGS[key][0](value)
        except ValueError as exc:
            raise DomainError(f"setting '{key}': {exc}") from exc
    return settings


def _wave(settings: _Settings) -> TravellingWave:
    params = ModelParams(settings["alpha"], settings["gamma"])
    if params.flipped:
        log.info("negative gamma normalized to %g; interpret phi as -phi", params.gamma)
    return TravellingWave(params, settings["branch"], settings["xi0"], settings["chirality"])


def cmd_eval(settings: _Settings, args: argparse.Namespace) -> int:
    """Tabulate xi,y,F,g,phi along a xi grid into a CSV file."""
    wave = _wave(settings)
    xs = settings["grid"]
    if wave.branch.is_constant:
        y = np.full_like(xs, closed_form.constant_y_value(wave.params, wave.branch))
        phi = np.asarray(closed_form.phi_eval(wave, xs, 0.0))
        g = phi + math.pi
    else:
        y = np.asarray(closed_form.y_eval(wave, xs))
        g = np.asarray(closed_form.g_eval(wave, xs))
        phi = g - math.pi
    pde_sim.write_csv(settings["out"], "xi,y,F,g,phi", xs, y, closed_form.F_map(y), g, phi)
    log.info("wrote %d rows to %s", len(xs), settings["out"])
    return EXIT_OK


def cmd_period(settings: _Settings, args: argparse.Namespace) -> int:
    """Print the closed-form period, the quadrature period and their difference."""
    params = ModelParams(settings["alpha"], settings["gamma"])
    closed = closed_form.xi_period(params)
    quad = oracles.quad_period(params, settings["tol"])
    print(f"closed_form_period = {_fmt(closed)}")
    print(f"quadrature_period = {_fmt(quad)}")
    print(f"abs_difference = {_fmt(abs(closed - quad))}")
    return EXIT_OK


def cmd_limits(settings: _Settings, args: argparse.Namespace) -> int:
    """Print the asymptotic g and phi values of a non-periodic branch."""
    wave = _wave(settings)
    g_lo, g_hi = closed_form.g_limits(wave)
    phi_lo, phi_hi = closed_form.phi_limits(wave)
    print(f"g_xi_minus_inf = {_fmt(g_lo)}")
    print(f"g_xi_plus_inf = {_fmt(g_hi)}")
    print(f"phi_x_minus_inf = {_fmt(phi_lo)}")
    print(f"phi_x_plus_inf = {_fmt(phi_hi)}")
    return EXIT_OK


def cmd_verify(settings: _Settings, args: argparse.Namespace) -> int:
    """Run the oracle check table `oracles.CHECKS` and report pass/fail per check."""
    lines = []
    failures = []
    for name, (threshold, worst) in oracles.CHECKS.items():
        value = worst()
        if name == "identity_max_residual" and args.corrupt_gamma_sign:
            # fault-injection hook: flip the forcing sign inside the fixed-point
            # formula (y_- at -gamma is -y_-) and fold the (large) residual into the identity check
            y_bad = -closed_form.y_fixed_points(ModelParams(1.0, 0.5)).y_minus
            value = max(value, abs(closed_form.F_map(y_bad) - math.tan(closed_form.theta(0.5))))
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


def cmd_simulate(settings: _Settings, args: argparse.Namespace) -> int:
    """Initialize a wave on a domain, evolve it and write the CSV outputs."""
    wave = _wave(settings)
    out = settings["out"]

    kind = settings["domain"]
    if kind not in ("circle", "segment"):
        raise DomainError(f"domain must be 'circle' or 'segment', got {kind!r}")
    # a setting of the other domain is a mistyped run, not one to ignore
    for key in ("x_lo", "x_hi") if kind == "circle" else ("m",):
        if key in settings:
            raise DomainError(f"setting '{key}' does not apply to a {kind} domain")
    domain = Circle(settings["m"]) if kind == "circle" else Segment(settings["x_lo"], settings["x_hi"])

    state = pde_sim.init_from_wave(wave, settings["n"], domain, dt=settings["dt"])
    kick = Perturbation(settings["eps"], settings["mode"]) if settings["eps"] != 0.0 else None
    config = SimConfig(dt=state.dt, t_end=settings["t_end"], record_every=settings["record_every"],
                       perturbation=kick, probe=settings["probe"])
    report = pde_sim.evolve(state, wave.params, config, reference=wave)
    pde_sim.write_deviation_csv(report, out)
    if settings["snapshot_out"] is not None:
        pde_sim.write_snapshot_csv(report, settings["snapshot_out"])
    print(f"final_t = {_fmt(report.final_state.t)}")
    if report.deviation:
        print(f"final_deviation = {_fmt(report.deviation[-1])}")
    if config.probe:
        diverged = "none" if report.diverged_at is None else _fmt(report.diverged_at)
        print(f"diverged_at = {diverged}")
    log.info("wrote deviation records to %s", out)
    return EXIT_OK


_WAVE = ("alpha", "gamma", "branch", "xi0", "chirality")

# command: (handler(settings, args), help, names of its settings)
COMMANDS = {
    "eval": (cmd_eval, "tabulate xi,y,F,g,phi over a xi grid", _WAVE + ("grid", "out")),
    "period": (cmd_period, "closed-form vs quadrature period", ("alpha", "gamma", "tol")),
    "limits": (cmd_limits, "asymptotic g and phi values", _WAVE),
    "verify": (cmd_verify, "run the oracle verification suite", ("out",)),
    "simulate": (cmd_simulate, "finite-difference evolution of a wave", _WAVE + (
        "domain", "m", "x_lo", "x_hi", "n", "dt", "t_end", "record_every",
        "eps", "mode", "probe", "out", "snapshot_out")),
}


@functools.cache  # built once per process; each parse_args still returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgwaves",
        description="Closed-form travelling waves of the damped, driven sine-Gordon "
                    "equation, their numerical verification and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for name in names:
            # values stay strings: config values need the same parsing, in _settings
            p.add_argument("--" + name.replace("_", "-"), help=SETTINGS[name][2])
        if command == "verify":
            p.add_argument("--corrupt-gamma-sign", action="store_true",
                           help="fault-injection hook: corrupt the forcing sign")
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
        return COMMANDS[args.command][0](_settings(args), args)
    except BlowUp as exc:
        log.error("simulation diverged: %s", exc)
        return EXIT_DIVERGED
    except (SGWaveError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
