"""Finite-difference evolution of the damped, driven sine-Gordon equation.

The scheme is a second-order leapfrog on phi_tt - phi_xx + sin(phi) +
alpha*phi_t + gamma = 0 with the damping term time-centered and solved
implicitly (its gain divided into the update's coefficients), so the CFL
restriction comes from the wave part alone.  Domains are either a circle of
length m*Xi with twisted periodic boundaries phi(x + L) = phi(x) +
chirality*2*pi*m, or a segment whose end points are pinned to the exact
travelling wave at the current time; `domain_grid` is the one place that
turns either into a grid.  `step`, `evolve` and `total_energy` each run one
in-place leapfrog kernel, and the snapshot takes phi_t from its run's.  The
kernel's constructor is the one gate for a step's time step:
`_check_spacing`, the one time-step rule 0 < dt <= CFL*dx, then the dt's
match with the state's.  The kernel takes the update in a folded form,
(a*(left + right) + b*phi - k*prev) - (c*sin(phi) + e), whose coefficients
leave a constant field fixed exactly; its speed-ups must keep every result
bit-identical to that form written out whole.  `_Leapfrog` states how, why
the fold adds no drift, and why its blow-up guard, tested once per block of
levels, is exact.

The stability observable is the co-moving deviation: the RMS distance
between the field and the reference wave minimized over spatial shifts.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import TravellingWave, phi_eval, xi_period
from .errors import BlowUp, DomainError
from .model import TWO_PI, ModelParams, energy_density, wrap_to

BLOWUP_THRESHOLD = 1e6  # radians; far beyond any physical excursion
_BLOWUP_SQUARED = BLOWUP_THRESHOLD * BLOWUP_THRESHOLD  # 1e12, exact in float64
_BLOCK_STEPS = 16  # most leapfrog levels one blow-up guard test covers
_BLOCK_POINTS = 1 << 16  # most grid points in one block's levels
_SCAN_BLOCK_POINTS = 1 << 18  # shift-scan squared distances formed per block
MAX_GRID_POINTS = 2**22  # grid size cap: 32 MB per float64 array of the run
CFL = 0.9  # largest dt/dx; the wave part alone needs dt <= dx
NUMBER_FORMAT = "{:.17g}"  # every number sgwaves writes: 17 significant digits read back as the same double


def _check_count(name: str, value, lo: int, hi: float = math.inf) -> None:
    """A count is a whole number from lo to hi: an int or a numpy integer, never a float (NaN and inf too)."""
    try:
        bits = operator.index(value).bit_length()
    except TypeError:
        raise DomainError(f"{name} must be a whole number, got {value!r}") from None
    if not lo <= value <= hi:
        got = value if bits <= 2048 else f"a {bits}-bit integer"  # at most 617 digits: any int-to-str limit prints it
        raise DomainError(f"{name} must be in [{lo}, {hi}], got {got}")


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

    def __post_init__(self):
        shape = np.shape(self.phi)  # shapes only: a NaN phi is the blow-up guard's to catch
        if not (len(shape) == 1 and np.shape(self.phi_prev) == shape
                and shape[0] >= (3 if self.pinned is not None else 1)):
            raise DomainError(f"phi and phi_prev need one 1-d shape of at least 1 point (3 on a pinned "
                              f"segment), got {shape} and {np.shape(self.phi_prev)}")

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
        _check_count("perturbation mode number", self.mode, 1, MAX_GRID_POINTS)  # no grid resolves more modes


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    record_every: int = 50
    perturbation: Perturbation | None = None
    probe: bool = False  # record divergence instead of raising BlowUp

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end / self.dt) and self.t_end > 0.0):  # dt is finite and > 0
            raise DomainError(f"t_end must be positive with t_end/dt finite, got {self.t_end}/{self.dt}")
        _check_count("record_every", self.record_every, 1)


@dataclass
class DeviationReport:
    """Co-moving distance to the reference wave sampled over the run; the run's kernel for its snapshot."""

    times: list[float] = field(default_factory=list)
    deviation: list[float] = field(default_factory=list)
    best_shift: list[float] = field(default_factory=list)
    diverged_at: float | None = None
    final_state: FieldState | None = None
    kernel: _Leapfrog | None = field(default=None, repr=False, compare=False)


def domain_grid(wave: TravellingWave, n: int, domain) -> tuple:
    """(x0, dx, twist, pinned) of an n-point grid for the wave on the domain.

    Circle(m): x0 = 0, dx = m*Xi/n and twist chirality*2*pi*m.  Segment:
    x0 = x_lo, dx = (x_hi - x_lo)/(n - 1) and the ends pinned to the wave.
    """
    _check_count("grid size n", n, 64, MAX_GRID_POINTS)
    if isinstance(domain, Circle):
        _check_count("circle winding m", domain.m, 1, MAX_GRID_POINTS)  # no grid resolves more windings
        return 0.0, domain.m * xi_period(wave.params) / n, wave.chirality * TWO_PI * domain.m, None
    if isinstance(domain, Segment):
        if not (domain.x_hi > domain.x_lo and math.isfinite(domain.x_hi - domain.x_lo)):
            raise DomainError(f"segment needs finite x_lo < x_hi, got {domain}")
        return domain.x_lo, (domain.x_hi - domain.x_lo) / (n - 1), 0.0, wave
    raise DomainError(f"unknown domain type {type(domain).__name__}")


def _check_spacing(dx: float, dt: float) -> None:
    """The one time-step rule of init_from_wave and every kernel, NaN-safe: 0 < dt <= CFL*dx and
    dt^2, dx^2 normal doubles."""
    if not (0.0 < dt <= CFL * dx and dt * dt >= sys.float_info.min and dx * dx <= sys.float_info.max):
        raise DomainError(f"grid needs 0 < dt <= {CFL}*dx with dt^2, dx^2 normal; got dt={dt}, dx={dx}")


def init_from_wave(wave: TravellingWave, n: int, domain, dt: float | None = None) -> FieldState:
    """Sample a wave at t = 0 (and t = -dt into phi_prev) on the given domain.

    dt defaults to the largest step _check_spacing allows, CFL*dx.  phi_prev
    is sampled from the exact wave, so the initial data carry no start-up error.
    """
    x0, dx, twist, pinned = domain_grid(wave, n, domain)
    dt = CFL * dx if dt is None else dt
    _check_spacing(dx, dt)
    phi, phi_prev = levels = phi_eval(wave, x0 + dx * np.arange(n), np.array([[0.0], [-dt]]))
    if not np.all(np.abs(levels) <= BLOWUP_THRESHOLD):  # the kernel's blow-up guard, NaN too
        raise DomainError(f"initial |phi| exceeds {BLOWUP_THRESHOLD:g}: shift xi0 by whole periods "
                          "towards 0, or use fewer windings m")
    return FieldState(dx=dx, phi=phi, phi_prev=phi_prev, t=0.0, dt=dt,
                      x0=x0, twist=twist, pinned=pinned)


class _Leapfrog:
    """The leapfrog kernel: levels prev, cur and nxt at t - dt, t and t + dt.

    The levels live in a ring of ghost-padded rows, each held as a tuple
    (row, interior, right, left) of the row and its stencil views, sliced
    once.  prev and cur are rows p and p + 1 and nxt the row after them,
    counted round the ring, so no level is ever copied: a block of steps
    fills the rows after cur in turn.  A block is at most _BLOCK_STEPS
    steps, at most _BLOCK_POINTS // n and at most the kernel's `steps`, so a
    one-step kernel, or a grid of 65536 points or more, holds three levels
    whose roles rotate each step.  Ghost cells 0 and n+1 hold phi[-1] - twist
    and phi[0] + twist, so one stencil covers every point.  On a segment
    (twist 0) they feed only the end values, which are then pinned to the
    exact wave.
    The constructor is the one gate for a step's time step: `_check_spacing` on the
    given dt, then that dt's match with state.dt, so a NaN dt meets the time-step rule.
    `run(steps)` steps t_next = t + dt from the kernel's own `t` and `dt`; on BlowUp,
    `t`, `prev` and `cur` hold the last good levels and `nxt` the rejected one.
    `derivatives()` looks one step ahead: it writes the level at t + dt into `nxt`, a
    rejected one included, then puts `t` and the roles back, so the run goes on unmoved.

    A step takes (a*(left + right) + b*phi - k*prev) - (c*sin(phi) + e), with
    r = dt^2/dx^2, half = alpha*dt/2, gain = 1 + half, a = r/gain,
    k = (1 - half)/gain, b = 1 + k - 2a, c = dt^2/gain and e = dt^2*gamma/gain.
    a and k are rounded to multiples of 2**-52; as 0 <= 2a < 2 and |k| <= 1,
    1 - 2a and b then lie on that grid, at most 2 in size, so b is exact and
    2a + b - k = 1 with no rounding: a constant field is a fixed point of the
    linear part, and a kink array, whose phi grows by 2*pi per period, gains
    no drift in proportion to phi.  e joins c*sin(phi) before either meets
    phi's scale: subtracting one constant from phi at every point and step
    would round the same way each time.

    Every result is bit-identical to that update written out whole: the same
    operations in the same order, on coefficients held as 0-d float64 arrays
    of the same values.  A block's pinned ends come from one phi_eval call on
    its times, added in sequence as a step-by-step clock adds them; a DomainError
    there comes before the block writes a level.  The blow-up guard runs once per
    block and first tests the sum of squares of the block's rows, ghost cells
    included, < threshold**2 (of the whole ring for a block that wraps round its
    end).  Its terms are non-negative and rounding is monotone, so the sum, in any
    order, is at least every rounded phi_i**2: a pass proves every |phi_i| <= threshold,
    and NaN or +-inf never pass.  Only a fail runs the exact max|phi| test on
    the block's levels in order; the first that fails it is the rejected
    level.  One rule holds for every ring size: a level past a blow-up, or
    one computed from a non-finite field, is the guard's to report, so every
    block runs under np.errstate(all="ignore") and ends in BlowUp, not a warning.
    """

    def __init__(self, state: FieldState, params: ModelParams, dt: float, steps: int = 1):
        _check_spacing(state.dx, dt)
        if dt != state.dt:
            raise DomainError("dt must match the state's leapfrog spacing")
        size = min(_BLOCK_STEPS, max(1, _BLOCK_POINTS // state.n), steps)
        self.ring = np.empty((size + 2, state.n + 2))
        levels = [(row, row[1:-1], row[2:], row[:-2]) for row in self.ring] * 2
        # roles[p]: prev, cur and nxt of the step whose prev is row p; twice round the ring, so the
        # steps of any block are one slice
        self.roles = list(zip(levels, levels[1:], levels[2:]))
        self._rotate(0, state.t)
        self.tmp = np.empty(state.n)
        self.twist, self.dt, self.dx = state.twist, state.dt, state.dx
        self.prev[1][:], self.cur[1][:] = state.phi_prev, state.phi
        self.cur[0][0], self.cur[0][-1] = state.phi[-1] - self.twist, state.phi[0] + self.twist
        dt2, half = state.dt * state.dt, 0.5 * params.alpha * state.dt
        r, gain = dt2 / (state.dx * state.dx), 1.0 + half
        a, k = round(r / gain * 2.0**52) / 2.0**52, round((1.0 - half) / gain * 2.0**52) / 2.0**52
        self.a, self.b, self.c, self.k, self.e = map(np.array, (
            a, (1.0 - 2.0 * a) + k, dt2 / gain, k, dt2 * params.gamma / gain))
        self.pinned = None if state.pinned is None else (
            state.pinned, np.array([state.x0, state.x0 + (state.n - 1) * state.dx]))

    def _rotate(self, p: int, t: float) -> None:
        """Rows p and p + 1 of the ring become prev and cur at time t, and the row after them nxt."""
        self.t, self.p, (self.prev, self.cur, self.nxt) = t, p, self.roles[p]

    def run(self, steps: int) -> None:
        """Take `steps` steps from the kernel's time `t` (see the class docstring)."""
        a, b, c, k, e, tmp = self.a, self.b, self.c, self.k, self.e, self.tmp
        twist, pinned, dt, ring, roles = self.twist, self.pinned, self.dt, self.ring, self.roles
        multiply, subtract, add, sin = np.multiply, np.subtract, np.add, np.sin
        count, p = len(ring), self.p
        with np.errstate(all="ignore"):
            for done in range(0, steps, count - 2):
                block = min(count - 2, steps - done)
                ts = list(accumulate(repeat(dt, block), initial=self.t))
                ends = None if pinned is None else iter(phi_eval(*pinned, np.array(ts[1:])[:, None]).tolist())
                for (_, prev, _, _), (_, phi, right, left), (row, out, _, _) in roles[p:p + block]:
                    # (a*(left + right) + b*phi - k*prev) - (c*sin(phi) + e), in this order
                    add(left, right, out)
                    multiply(a, out, out)
                    add(out, multiply(b, phi, tmp), out)
                    subtract(out, multiply(k, prev, tmp), out)
                    add(multiply(c, sin(phi, tmp), tmp), e, tmp)
                    subtract(out, tmp, out)
                    if ends is not None:
                        out[0], out[-1] = next(ends)
                    row[0], row[-1] = out[-1] - twist, out[0] + twist
                first = (p + 2) % count
                # the block's rows, or the whole ring if they wrap round its end
                flat = (ring[first:first + block] if first + block <= count else ring).ravel()
                if not flat.dot(flat) < _BLOWUP_SQUARED:
                    for j, (_, _, (_, out, _, _)) in enumerate(roles[p:p + block]):
                        if not np.abs(out, tmp).max() <= BLOWUP_THRESHOLD:
                            self._rotate((p + j) % count, ts[j])
                            raise BlowUp(f"|phi| exceeded {BLOWUP_THRESHOLD:g} or is NaN at t={ts[j + 1]:g}",
                                         t=ts[j + 1])
                p = (p + block) % count
                self._rotate(p, ts[-1])

    def derivatives(self) -> tuple:
        """Second-order (phi_t, phi_x) at `t`: phi_t by a centered difference in time over the
        look-ahead level, phi_x in space on cur's ghost-padded row, one-sided at pinned ends."""
        t, p = self.t, self.p
        with suppress(BlowUp):  # the rejected level (maybe inf or nan) is used as it is
            self.run(1)
        self._rotate(p, t)
        (_, prev, _, _), (_, phi, right, left), (_, level, _, _) = self.prev, self.cur, self.nxt
        phi_x = (right - left) / (2.0 * self.dx)
        if self.pinned is not None:
            phi_x[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * self.dx)
            phi_x[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * self.dx)
        return (level - prev) / (2.0 * self.dt), phi_x

    def state(self, like: FieldState) -> FieldState:
        """The current levels as a FieldState that owns copies of the arrays."""
        return replace(like, phi=self.cur[1].copy(), phi_prev=self.prev[1].copy(), t=self.t)


def step(state: FieldState, params: ModelParams, dt: float) -> FieldState:
    """Advance one leapfrog step; raises BlowUp past the divergence threshold or on NaN or +-inf.

    Each call builds a kernel, so a loop of steps belongs in `evolve`.
    """
    kernel = _Leapfrog(state, params, dt)
    kernel.run(1)
    return kernel.state(state)


def _perturbation_profile(state: FieldState, pert: Perturbation) -> np.ndarray:
    u = (state.x - state.x0) / state.length
    wave = np.sin(TWO_PI * pert.mode * u)
    if state.pinned is not None:
        wave *= 0.5 * (1.0 - np.cos(TWO_PI * u))  # Hann window keeps the ends pinned
    return pert.amplitude * wave


def evolve(state: FieldState, params: ModelParams, config: SimConfig,
           reference: TravellingWave | None = None) -> DeviationReport:
    """Advance to t_end, recording co-moving deviation against the reference.

    The optional perturbation is applied once, to phi and phi_prev alike so
    that the initial phi_t is untouched.  In probe mode a BlowUp ends the
    run and is recorded in diverged_at instead of raising.
    """
    if config.perturbation is not None:
        kick = _perturbation_profile(state, config.perturbation)
        state = replace(state, phi=state.phi + kick, phi_prev=state.phi_prev + kick)

    # whole steps, rounded up; a positive t_end below 1e-12*dt still takes one
    n_steps = max(1, int(math.ceil(config.t_end / config.dt - 1e-12)))
    kernel = _Leapfrog(state, params, config.dt, min(n_steps, config.record_every))
    report = DeviationReport(kernel=kernel)

    def record() -> None:
        if reference is None:
            return
        dev, shift = comoving_deviation(kernel.state(state), reference)
        report.times.append(kernel.t)
        report.deviation.append(dev)
        report.best_shift.append(shift)

    record()
    # one kernel call per record interval: records at multiples of record_every and at the end
    for done in range(0, n_steps, config.record_every):
        try:
            kernel.run(min(config.record_every, n_steps - done))
        except BlowUp as exc:
            if not config.probe:
                raise
            report.diverged_at = exc.t
            break
        record()
    report.final_state = kernel.state(state)
    return report


@np.errstate(invalid="ignore", over="ignore")  # a non-finite or huge field gives a nan or inf distance, no warning
def comoving_deviation(state: FieldState, reference: TravellingWave) -> tuple[float, float]:
    """(RMS distance, shift) to the reference wave, minimized over translation.

    Scans n candidate shifts one grid spacing apart, then refines the minimum with a 3-point
    parabola through the squared distances.  The points x_i - s_j take only 2n - 1 values, so the
    scan makes O(n) closed-form evaluations.  On a twisted circle a shift wrapped by k*L meets the
    reference plus k*twist, so every candidate is compared modulo the twist.  Two passes give the
    doubles of the full n x n scan by `_mean_square_mod_twist` in O(n) memory: `_shift_candidates`
    bounds every shift's squared distance from one np.correlate and keeps the rows that may hold
    the scan's first minimum, or neighbour it; the exact pass runs on those rows alone, in blocks
    of _SCAN_BLOCK_POINTS.
    """
    n, twist = state.n, state.twist
    ref = np.asarray(phi_eval(reference, state.x0 + state.dx * np.arange(n // 2 - n + 1, n // 2 + n), state.t))
    # row j holds the reference at x_i - s_j, with shift s_j = (j - n//2)*dx
    rows, d2 = sliding_window_view(ref, n)[::-1], np.full(n, np.inf)
    kept, block = np.flatnonzero(_shift_candidates(state.phi, ref, twist)), max(1, _SCAN_BLOCK_POINTS // n)
    for part in (kept[lo:lo + block] for lo in range(0, kept.size, block)):
        d2[part] = _mean_square_mod_twist(state.phi, rows[part], twist)
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


def _shift_candidates(phi: np.ndarray, ref: np.ndarray, twist: float) -> np.ndarray:
    """A mask of the scan rows that may hold its first minimum, and of their ring neighbours.

    Less the trend twist/n per grid step plus phi[0], phi and ref are phi_d and ref_d, at most amp in
    size; row j's difference is y + e_j, y = phi_d - ref_d[n-1-j:2n-1-j], e_j = (twist/n)*(j - n//2)
    - k_j*twist, |e_j| <= 2*amp + |twist|, within h per point of the exact pass's.  With gamma_k =
    k*u/(1 - k*u), u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), the coarse
    d2_j = mean(y**2) + e_j*(2*mean(y) + e_j) is within 12*gamma_{2n+1}*(amp + |e_j|)**2 of exact, the
    exact pass's mean of squares within gamma_{n+1}: so that pass's d2_j is within B_j of the coarse
    one, and a row whose d2_j - B_j exceeds some d2_i + B_i is not the minimum.  A row whose k_j is
    within its error of a half-integer is kept, and every row if a value is not finite or may overflow.
    """
    n, gamma = phi.size, (lambda k: k / (2.0**53 - k))  # gamma_k = k*u/(1 - k*u)
    sums = np.zeros(2 * n)  # sums[i]: the sum of a vector's first i points
    window_sums = (lambda v: (np.cumsum(v, out=sums[1:])[n - 1:] - sums[:n])[::-1])  # over v[n-1-j:2n-1-j]
    trend = np.arange(n // 2 - n + 1, n // 2 + n) * (twist / n) + phi[0]
    phi_d = phi - trend[n - 1 - n // 2:2 * n - 1 - n // 2]
    ref_d = np.subtract(ref, trend, out=trend)
    amp = max(np.abs(phi_d).max(), np.abs(ref_d).max())
    s, d2 = amp + abs(twist) + abs(phi[0]), -2.0 * np.correlate(ref_d, phi_d, "valid")[::-1]
    mean = np.subtract(phi_d.sum(), window_sums(ref_d)) / n
    d2 = (d2 + window_sums(np.square(ref_d, out=ref_d)) + np.dot(phi_d, phi_d)) / n
    h, ambiguous = 24.0 * gamma(2) * s, np.False_
    if twist:  # k_j as the exact pass takes it, rint(mean(diff)/twist), with its error delta
        delta, e = 16.0 * gamma(2 * n + 1) * s + h, np.arange(-(n // 2), n - n // 2) * (twist / n)
        k = mean + e  # row j's mean difference; k_j = rint(k/twist)
        ambiguous = np.rint((k - delta) / twist) != np.rint((k + delta) / twist)
        e -= np.rint(np.divide(k, twist, out=k), out=k) * twist
        d2 += e * (2.0 * mean + e)
    # B_j: the coarse error, the points' h against an rms of y + e_j up to r, and the exact pass's own
    coarse, r = 12.0 * gamma(2 * n + 1) * (3.0 * amp + abs(twist)) ** 2, 4.0 * amp + abs(twist) + h
    bound = 3.0 * gamma(n + 1) * np.abs(d2) + (coarse + h * (2.0 * r + h) + 2.0 * gamma(n + 1) * (coarse + h * h))
    finite = math.isfinite(d2.sum() + 100.0 * n * s * s)  # the exact pass's sum of squares is below n*(9*s)**2
    keep = ambiguous | (d2 - bound <= np.where(ambiguous, np.inf, d2 + bound).min()) | (not finite)
    keep = np.concatenate((keep[-1:], keep, keep[:1]))
    return keep[:-2] | keep[1:-1] | keep[2:]


def _mean_square_mod_twist(phi: np.ndarray, ref: np.ndarray, twist: float) -> np.ndarray:
    """Mean of (phi - ref - k*twist)**2 along the last axis, k = round(mean(phi - ref)/twist)."""
    diff = phi - ref
    if twist:
        diff -= twist * np.rint(np.mean(diff, axis=-1, keepdims=True) / twist)
    return np.mean(np.square(diff, out=diff), axis=-1)


@np.errstate(invalid="ignore", over="ignore")  # a non-finite or huge field gives nan or inf, not a warning
def total_energy(state: FieldState, params: ModelParams) -> float:
    """Trapezoidal integral of the energy density over the grid.

    Diagnostic only: the damping and forcing terms make the true dynamics
    non-conservative.
    """
    phi_t, phi_x = _Leapfrog(state, params, state.dt).derivatives()
    h = energy_density(state.phi, phi_t, phi_x, params.gamma)
    if state.pinned is None:
        return float(state.dx * np.sum(h))
    return float(state.dx * (0.5 * h[0] + np.sum(h[1:-1]) + 0.5 * h[-1]))


@np.errstate(invalid="ignore")  # a non-finite field (inf - inf) gives nan, not a warning
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


def write_csv(path, header: str, *columns) -> None:
    """Write a CSV table: the header line, then row i of the columns, each number as NUMBER_FORMAT."""
    row = ",".join([NUMBER_FORMAT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(row.format(*cells)
                      for cells in zip(*(np.asarray(column, dtype=float).tolist() for column in columns)))


def write_snapshot_csv(report: DeviationReport, path) -> None:
    """Write the run's final grid as CSV rows x,phi,phi_t, phi_t from the run's own kernel."""
    if report.kernel is None:
        raise DomainError("the snapshot needs the report of an evolve run, which holds its kernel")
    write_csv(path, "x,phi,phi_t", report.final_state.x, report.final_state.phi, report.kernel.derivatives()[0])


def write_deviation_csv(report: DeviationReport, path) -> None:
    """Write the recorded co-moving deviations as CSV rows t,deviation,shift."""
    write_csv(path, "t,deviation,shift", report.times, report.deviation, report.best_shift)
