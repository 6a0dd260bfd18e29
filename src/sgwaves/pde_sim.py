"""Finite-difference evolution of the damped, driven sine-Gordon equation.

The scheme is a second-order leapfrog on phi_tt - phi_xx + sin(phi)
+ alpha*phi_t + gamma = 0 with the damping term time-centered and solved
implicitly (one scalar division per point), so the CFL restriction comes
from the wave part alone.  Domains are either a circle of length m*Xi with
twisted periodic boundaries phi(x + L) = phi(x) + chirality*2*pi*m, or a
segment whose end points are pinned to the exact travelling wave at the
current time; `domain_grid` is the one place that turns either into a
grid.  `step` and `evolve` share one in-place leapfrog kernel.  Its
speed-ups must keep every result bit-identical to the update written out
whole; `_Leapfrog` states how, and why its blow-up pre-check is exact.

The stability observable is the co-moving deviation: the RMS distance
between the field and the reference wave minimized over spatial shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import TravellingWave, phi_eval, xi_period
from .errors import BlowUp, DomainError
from .model import TWO_PI, ModelParams, energy_density, wrap_to

BLOWUP_THRESHOLD = 1e6  # radians; far beyond any physical excursion
_BLOWUP_SQUARED = BLOWUP_THRESHOLD * BLOWUP_THRESHOLD  # 1e12, exact in float64
_SCAN_BLOCK_POINTS = 1 << 18  # shift-scan squared distances formed per block
MAX_GRID_POINTS = 2**22  # grid size cap: 32 MB per float64 array of the run


@dataclass(frozen=True)
class Circle:
    """Periodic domain of length m * Xi; requires gamma > 1."""

    m: int


@dataclass(frozen=True)
class Segment:
    x_lo: float
    x_hi: float


@dataclass(frozen=True)
class FieldState:
    """phi and phi at t - dt on the grid x0 + i*dx, with the boundary rule.

    With pinned None the grid is a circle of n*dx and the field jumps by
    twist across the seam: phi(x + n*dx) = phi(x) + twist.  With a pinned
    wave the grid is a segment whose two end points follow that wave
    exactly; a pinned state has twist 0.
    """

    dx: float
    phi: np.ndarray
    phi_prev: np.ndarray
    t: float
    dt: float
    x0: float = 0.0
    twist: float = 0.0
    pinned: TravellingWave | None = None

    @property
    def n(self) -> int:
        return self.phi.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def length(self) -> float:
        """Domain extent: n*dx on a circle, (n-1)*dx on a segment."""
        return (self.n - 1) * self.dx if self.pinned is not None else self.n * self.dx


@dataclass(frozen=True)
class Perturbation:
    """One-off sinusoidal kick applied to phi (and phi_prev, so phi_t is untouched)."""

    amplitude: float
    mode: int

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise DomainError(f"perturbation amplitude must be finite and >= 0: {self.amplitude}")
        if self.mode < 1:
            raise DomainError("perturbation mode number must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    cfl_guard: float = 0.9
    record_every: int = 50
    perturbation: Perturbation | None = None
    probe: bool = False  # record divergence instead of raising BlowUp

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be finite and positive, got {self.t_end}")
        if not 0.0 < self.cfl_guard <= 1.0:
            raise DomainError("cfl_guard must lie in (0, 1]")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")


@dataclass
class DeviationReport:
    """Co-moving distance to the reference wave sampled over the run."""

    times: list[float] = field(default_factory=list)
    deviation: list[float] = field(default_factory=list)
    best_shift: list[float] = field(default_factory=list)
    diverged_at: float | None = None
    final_state: FieldState | None = None


def domain_grid(wave: TravellingWave, n: int, domain) -> tuple:
    """(x0, dx, twist, pinned) of an n-point grid for the wave on the domain.

    Circle(m): x0 = 0, dx = m*Xi/n and twist chirality*2*pi*m.  Segment:
    x0 = x_lo, dx = (x_hi - x_lo)/(n - 1) and the ends pinned to the wave.
    """
    if not 64 <= n <= MAX_GRID_POINTS:
        raise DomainError(f"grid must have 64 <= n <= {MAX_GRID_POINTS} points, got {n}")
    if isinstance(domain, Circle):
        if domain.m < 1:
            raise DomainError("circle winding m must be >= 1")
        if wave.params.gamma <= 1.0:
            raise DomainError("circle domains need gamma > 1 (period undefined otherwise)")
        return 0.0, domain.m * xi_period(wave.params) / n, wave.chirality * TWO_PI * domain.m, None
    if isinstance(domain, Segment):
        if not (domain.x_hi > domain.x_lo and math.isfinite(domain.x_hi - domain.x_lo)):
            raise DomainError(f"segment needs finite x_lo < x_hi, got {domain}")
        return domain.x_lo, (domain.x_hi - domain.x_lo) / (n - 1), 0.0, wave
    raise DomainError(f"unknown domain type {type(domain).__name__}")


def init_from_wave(wave: TravellingWave, n: int, domain, dt: float | None = None) -> FieldState:
    """Sample a wave at t = 0 (and t = -dt into phi_prev) on the given domain.

    dt defaults to SimConfig.cfl_guard*dx.  phi_prev is sampled from the
    exact wave, so the initial data carry no start-up error.
    """
    x0, dx, twist, pinned = domain_grid(wave, n, domain)
    if dt is None:
        dt = SimConfig.cfl_guard * dx
    if not 0.0 < dt <= dx:
        raise DomainError(f"dt must satisfy 0 < dt <= dx, got dt={dt}, dx={dx}")
    x = x0 + dx * np.arange(n)
    phi = np.asarray(phi_eval(wave, x, 0.0), dtype=float)
    phi_prev = np.asarray(phi_eval(wave, x, -dt), dtype=float)
    return FieldState(dx=dx, phi=phi, phi_prev=phi_prev, t=0.0, dt=dt,
                      x0=x0, twist=twist, pinned=pinned)


class _Leapfrog:
    """The leapfrog kernel: phi at t - dt, t and t + dt in three ghost-padded buffers.

    Ghost cells 0 and n+1 hold phi[-1] - twist and phi[0] + twist, so one
    stencil covers every point.  On a segment (twist 0) they feed only the
    end values, which are then pinned to the exact wave.  The buffers swap
    roles each step; each rotation's stencil views are sliced on first use.

    Every result is bit-identical to the update written out whole: the same
    operations in the same order, on coefficients held as 0-d float64 arrays
    of the same values, with both pinned ends from one phi_eval call on the
    pair.  The blow-up guard first tests sum(phi**2) < threshold**2.  Its
    terms are non-negative and rounding is monotone, so the computed sum is
    at least every rounded phi_i**2: a pass proves every |phi_i| <= threshold,
    and NaN or +-inf never pass.  Only a fail runs the exact max|phi| test.
    """

    def __init__(self, state: FieldState, params: ModelParams):
        if state.dt > state.dx:
            raise DomainError(f"CFL violation: dt={state.dt} > dx={state.dx}")
        # rows rotation, rotation + 1 and rotation + 2 (mod 3) hold t - dt, t and t + dt
        self.buffers, self.rotation, self.views = np.empty((3, state.n + 2)), 0, [None] * 3
        self.two_phi, self.tmp = np.empty((2, state.n))
        self.twist = state.twist
        self.buffers[0, 1:-1], self.buffers[1, 1:-1] = state.phi_prev, state.phi
        self.buffers[1, 0], self.buffers[1, -1] = state.phi[-1] - self.twist, state.phi[0] + self.twist
        half = 0.5 * params.alpha * state.dt
        self.two, self.dx2, self.dt2, self.keep, self.gain, self.gamma = map(np.array, (
            2.0, state.dx * state.dx, state.dt * state.dt, 1.0 - half, 1.0 + half, params.gamma))
        self.pinned = None
        if state.pinned is not None:
            self.pinned = (state.pinned, np.array([state.x0, state.x0 + (state.n - 1) * state.dx]))

    prev = property(lambda self: self.buffers[self.rotation])
    cur = property(lambda self: self.buffers[(self.rotation + 1) % 3])
    nxt = property(lambda self: self.buffers[(self.rotation + 2) % 3])

    def _bind(self, r: int) -> tuple:
        prev, cur, nxt = (self.buffers[(r + k) % 3] for k in range(3))
        self.views[r] = nxt, cur[1:-1], cur[2:], cur[:-2], prev[1:-1], nxt[1:-1]
        return self.views[r]

    def advance(self, t_next: float) -> None:
        """Write phi(t_next) into the spare buffer, check it, rotate; BlowUp keeps the last levels."""
        nxt, phi, right, left, prev, out = self.views[self.rotation] or self._bind(self.rotation)
        two_phi, tmp = self.two_phi, self.tmp
        # (dt*dt*(phi_xx - sin(phi) - gamma) + 2*phi - keep*phi_prev) / gain, in this order
        np.multiply(self.two, phi, two_phi)
        np.subtract(right, two_phi, out)
        np.add(out, left, out)
        np.divide(out, self.dx2, out)
        np.subtract(out, np.sin(phi, tmp), out)
        np.subtract(out, self.gamma, out)
        np.multiply(self.dt2, out, out)
        np.add(out, two_phi, out)
        np.subtract(out, np.multiply(self.keep, prev, tmp), out)
        np.divide(out, self.gain, out)
        if self.pinned is not None:
            out[0], out[-1] = phi_eval(*self.pinned, t_next)
        if not np.dot(out, out) < _BLOWUP_SQUARED and not np.abs(out, tmp).max() <= BLOWUP_THRESHOLD:
            raise BlowUp(f"|phi| exceeded {BLOWUP_THRESHOLD:g} or is NaN at t={t_next:g}", t=t_next)
        nxt[0], nxt[-1] = out[-1] - self.twist, out[0] + self.twist
        self.rotation = (self.rotation + 1) % 3

    def state(self, like: FieldState, t: float) -> FieldState:
        """The current levels as a FieldState that owns copies of the arrays."""
        return replace(like, phi=self.cur[1:-1].copy(), phi_prev=self.prev[1:-1].copy(), t=t)


def step(state: FieldState, params: ModelParams, dt: float) -> FieldState:
    """Advance one leapfrog step; raises BlowUp past the divergence threshold or on NaN."""
    if dt != state.dt:
        raise DomainError("dt must match the state's leapfrog spacing")
    kernel = _Leapfrog(state, params)
    kernel.advance(state.t + dt)
    return replace(state, phi=kernel.cur[1:-1].copy(), phi_prev=state.phi, t=state.t + dt)


def _perturbation_profile(state: FieldState, pert: Perturbation) -> np.ndarray:
    u = (state.x - state.x0) / state.length
    wave = np.sin(TWO_PI * pert.mode * u)
    if state.pinned is not None:
        wave *= 0.5 * (1.0 - np.cos(TWO_PI * u))  # Hann window keeps the ends pinned
    return pert.amplitude * wave


def evolve(
    state: FieldState,
    params: ModelParams,
    config: SimConfig,
    reference: TravellingWave | None = None,
) -> DeviationReport:
    """Advance to t_end, recording co-moving deviation against the reference.

    The optional perturbation is applied once, to phi and phi_prev alike so
    that the initial phi_t is untouched.  In probe mode a BlowUp ends the
    run and is recorded in diverged_at instead of raising.
    """
    if config.dt != state.dt:
        raise DomainError("config.dt must match the state's leapfrog spacing")
    if config.dt > config.cfl_guard * state.dx:
        raise DomainError(
            f"dt={config.dt} violates the CFL guard {config.cfl_guard}*dx={config.cfl_guard * state.dx}"
        )
    if config.perturbation is not None:
        kick = _perturbation_profile(state, config.perturbation)
        state = replace(state, phi=state.phi + kick, phi_prev=state.phi_prev + kick)

    report = DeviationReport()
    kernel = _Leapfrog(state, params)
    t = state.t

    def record() -> None:
        if reference is None:
            return
        dev, shift = comoving_deviation(kernel.state(state, t), reference)
        report.times.append(t)
        report.deviation.append(dev)
        report.best_shift.append(shift)

    record()
    n_steps = int(math.ceil(config.t_end / config.dt - 1e-12))
    for i in range(1, n_steps + 1):
        try:
            kernel.advance(t + config.dt)
        except BlowUp as exc:
            if config.probe:
                report.diverged_at = exc.t
                break
            raise
        t += config.dt
        if i % config.record_every == 0 or i == n_steps:
            record()
    report.final_state = kernel.state(state, t)
    return report


def comoving_deviation(state: FieldState, reference: TravellingWave) -> tuple[float, float]:
    """(RMS distance, shift) to the reference wave, minimized over translation.

    Scans n candidate shifts one grid spacing apart, then refines the
    minimum with a 3-point parabola through the squared distances.  The
    points x_i - s_j take only 2n - 1 values, so the scan makes O(n)
    closed-form evaluations and O(n*block) memory.  On a twisted circle a
    shift wrapped by k*L meets the reference plus k*twist, so every
    candidate is compared modulo the twist.
    """
    n, twist = state.n, state.twist
    points = state.x0 + state.dx * np.arange(n // 2 - n + 1, n // 2 + n)
    # row j holds the reference at x_i - s_j, with shift s_j = (j - n//2)*dx
    rows = sliding_window_view(np.asarray(phi_eval(reference, points, state.t)), n)[::-1]
    block = max(1, _SCAN_BLOCK_POINTS // n)
    d2 = np.concatenate([_mean_square_mod_twist(state.phi, rows[j:j + block], twist)
                         for j in range(0, n, block)])
    j = int(np.argmin(d2))
    s_best = (j - n // 2) * state.dx
    if state.pinned is not None and j in (0, n - 1):
        return float(math.sqrt(d2[j])), s_best
    jm, jp = (j - 1) % n, (j + 1) % n
    denom = d2[jm] - 2.0 * d2[j] + d2[jp]
    if denom > 0.0 and math.isfinite(denom):
        offset = 0.5 * state.dx * float(d2[jm] - d2[jp]) / float(denom)
        s_ref = s_best + max(-state.dx, min(state.dx, offset))
        ref = phi_eval(reference, state.x - s_ref, state.t)
        d2_ref = float(_mean_square_mod_twist(state.phi, ref, twist))
        if d2_ref <= d2[j]:
            return math.sqrt(d2_ref), s_ref
    return float(math.sqrt(d2[j])), s_best


def _mean_square_mod_twist(phi: np.ndarray, ref: np.ndarray, twist: float) -> np.ndarray:
    """Mean of (phi - ref - k*twist)**2 along the last axis, k = round(mean(phi - ref)/twist)."""
    diff = phi - ref
    if twist:
        diff -= twist * np.rint(np.mean(diff, axis=-1, keepdims=True) / twist)
    return np.mean(np.square(diff, out=diff), axis=-1)


def _phi_t_centered(state: FieldState, params: ModelParams) -> np.ndarray:
    """Second-order phi_t at the current time via one internal step forward."""
    nxt = step(state, params, state.dt)
    return (nxt.phi - state.phi_prev) / (2.0 * state.dt)


def _phi_x_centered(state: FieldState) -> np.ndarray:
    phi = state.phi
    ghosts = np.concatenate(([phi[-1] - state.twist], phi, [phi[0] + state.twist]))
    px = (ghosts[2:] - ghosts[:-2]) / (2.0 * state.dx)
    if state.pinned is not None:
        px[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * state.dx)
        px[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * state.dx)
    return px


def total_energy(state: FieldState, params: ModelParams) -> float:
    """Trapezoidal integral of the energy density over the grid.

    Diagnostic only: the damping and forcing terms make the true dynamics
    non-conservative.
    """
    phi_t = _phi_t_centered(state, params)
    phi_x = _phi_x_centered(state)
    h = energy_density(state.phi, phi_t, phi_x, params.gamma)
    if state.pinned is None:
        return float(state.dx * np.sum(h))
    return float(state.dx * (0.5 * h[0] + np.sum(h[1:-1]) + 0.5 * h[-1]))


def winding_number(state: FieldState) -> float:
    """Accumulated phase turns around a twisted periodic domain, in units of 2*pi.

    Equals chirality * m while the field stays in its topological sector;
    a 2*pi slip anywhere on the grid changes it by a whole unit.
    """
    if state.pinned is not None:
        raise DomainError("winding is defined on twisted periodic domains only")
    inc = wrap_to(np.diff(state.phi), 0.0)
    closing = wrap_to(state.phi[0] + state.twist - state.phi[-1], 0.0)
    return float((np.sum(inc) + closing) / TWO_PI)


def write_snapshot_csv(state: FieldState, params: ModelParams, path) -> None:
    """Write the grid as CSV rows x,phi,phi_t (phi_t by centered difference)."""
    phi_t = _phi_t_centered(state, params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,phi,phi_t\n")
        for x, p, pt in zip(state.x, state.phi, phi_t):
            fh.write(f"{x:.17g},{p:.17g},{pt:.17g}\n")


def write_deviation_csv(report: DeviationReport, path) -> None:
    """Write the recorded co-moving deviations as CSV rows t,deviation,shift."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,deviation,shift\n")
        for t, dev, s in zip(report.times, report.deviation, report.best_shift):
            fh.write(f"{t:.17g},{dev:.17g},{s:.17g}\n")
