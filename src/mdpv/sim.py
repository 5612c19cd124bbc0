"""Periodic-domain integrator for the cubic-convection b-family
equation, used to cross-check catalog profiles dynamically.

The equation u_t - u_xxt + (b+1)u^2 u_x = b u_x u_xx + u u_xxx is
advanced in Helmholtz-inverted flux form,

    u_t = (1 - dxx)^{-1} d/dx[ -(b+1)u^3/3 + u*u_xx + (b-1)u_x^2/2 ],

whose right-hand side has zero discrete mean on a periodic grid, so
the mean of u is conserved to roundoff by any Runge-Kutta step.  Two
interchangeable spatial discretizations sit behind a scheme tag:

  spectral  Fourier-collocation derivatives, symbols ik and -k^2;
  fd4       4th-order central differences, whose 5-point stencils are
            circulant and so act as their Fourier symbols at k*dx.

Both are applied as multipliers from one table of Fourier symbols, and
the Helmholtz inverse is exact division by the symbol of (1 - dxx).

Time stepping is classical RK4 whose stages run on rfft coefficients:
each stage makes one batched inverse call that returns u, u_x and u_xx
together, builds the flux from products, and makes one forward call
followed by a multiply by the symbol of d/dx and the Helmholtz inverse,
so two transform calls per stage.  Only the step's increment returns
to the grid.
A run's time axis is checked when its SimConfig is made, the snapshot
budget by `snapshot_steps`, a step-size guard at run start, and a
blow-up sentinel, which also catches a stage that overflows, every step.
A run integrates a catalog instance as a manufactured solution: it
reports the final sup-norm error against the exact translated profile,
the relative drift of the conserved mean, and the wave speed measured
by tracking the profile extremum with sub-grid quadratic interpolation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .catalog import FamilyInstance
from .expr import compile_fn

__all__ = [
    "Grid", "SimState", "SimConfig", "Snapshot", "SimReport",
    "BlowUpError", "InadmissibleFamilyError", "SCHEMES",
    "helmholtz_solve", "flux_divergence", "rhs", "step_rk4", "run",
    "snapshot_steps", "cfl_limit", "write_snapshots_csv", "MAX_STEPS", "MAX_N",
    "MAX_SNAPSHOT_POINTS", "TAIL_TOL",
]

SCHEMES = ("spectral", "fd4")

# step budget of one run, checked before any work: the longest run of
# the examples and tests takes 8 000 steps, the CLI defaults 4 000
MAX_STEPS = 1_000_000

# grid-size budget, checked when a Grid is made: the largest grid of the
# examples, tests and benchmark has 2 048 points, and 65 536 points cost
# half a megabyte per array
MAX_N = 65_536

# snapshot budget of one run, in stored grid points (snapshots times N),
# checked by snapshot_steps before any work: each point keeps two
# floats, so the budget is 16 MB; the largest request of the examples,
# tests and benchmark is 5 snapshots at 2 048 points
MAX_SNAPSHOT_POINTS = 1 << 20

# the admissibility guard refuses a run whose profile, within 3 of
# either domain edge, deviates more than this from its far-field constant
TAIL_TOL = 1e-6


class BlowUpError(RuntimeError):
    """The numerical solution left the trusted range."""

    def __init__(self, t: float, peak: float):
        super().__init__(f"blow-up at t = {t:.6g}: max|u| = {peak:.3e}")
        self.t = t
        self.peak = peak


class InadmissibleFamilyError(ValueError):
    """The requested run cannot be simulated as set up: the instance's
    profile is singular on the swept interval, its tails have not
    flattened at the domain edge, or dt exceeds the step-size guard for
    its initial state."""


# ---------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: nodes x_j = -length/2 + j*dx."""
    n: int
    length: float

    def __post_init__(self):
        if self.n < 64 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two >= 64")
        if self.n > MAX_N:
            raise ValueError(f"grid size must be at most {MAX_N}")
        if not self.length > 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        return -0.5 * self.length + self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Real-transform wavenumbers 2*pi*j/length, j = 0..n/2."""
        return (2.0 * np.pi / self.length) * np.arange(self.n // 2 + 1)


@dataclass(frozen=True)
class SimState:
    t: float
    u: np.ndarray
    mass: float

    @classmethod
    def of(cls, t: float, u: np.ndarray, grid: Grid) -> "SimState":
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.n,):
            raise ValueError(f"state length {u.shape} does not match "
                             f"grid size {grid.n}")
        if not np.all(np.isfinite(u)):
            raise ValueError("state contains non-finite entries")
        return cls(t, u, grid.dx * float(u.sum()))


@dataclass(frozen=True)
class SimConfig:
    b: float
    dt: float
    t_final: float
    scheme: str = "spectral"
    snapshots: int = 5
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        # bounded before it is rounded: past float range it has no integer
        if not (0.5 < self.t_final / self.dt <= MAX_STEPS and abs(
                self.n_steps * self.dt - self.t_final) <= 1e-9 * self.dt):
            raise ValueError(f"t_final must be 1 to {MAX_STEPS} whole"
                             f" steps of dt")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}' "
                             f"(expected one of {SCHEMES})")
        if self.snapshots < 2:
            raise ValueError("need at least two snapshots (first, last)")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def snapshot_steps(cfg: SimConfig, grid: Grid) -> set[int]:
    """The steps a run keeps a snapshot at, 0 and the last among them;
    ValueError past MAX_SNAPSHOT_POINTS stored grid points."""
    # a spacing of at most one step already hits every step, so more
    # points than steps add nothing but memory
    n_snaps = min(cfg.snapshots, cfg.n_steps + 1)
    if n_snaps * grid.n > MAX_SNAPSHOT_POINTS:
        raise ValueError(f"{n_snaps} snapshots of {grid.n} points exceed "
                         f"the budget of {MAX_SNAPSHOT_POINTS} stored "
                         f"points")
    return {int(round(s)) for s in np.linspace(0, cfg.n_steps, n_snaps)}


def cfl_limit(u0: np.ndarray, grid: Grid) -> float:
    """Largest dt the step-size guard admits for this initial state."""
    return 0.5 * grid.dx / (1.0 + float(np.max(np.abs(u0)))) ** 2


# ---------------------------------------------------------------------
# spatial operators

@functools.lru_cache(maxsize=16)
def _operators(grid: Grid, scheme: str):
    """Fourier symbols (d1, d2, 1 - d2, d1 / (1 - d2)) of the scheme's
    first and second derivatives, of its Helmholtz operator and of one
    right-hand-side stage (Helmholtz inverse after d/dx), on the
    real-transform modes of the grid.

    Both schemes are circulant on the periodic grid, so the DFT
    diagonalizes them exactly and every operator is a multiplier: ik
    and -k^2 for spectral, the symbols of the 5-point stencils at
    theta = k*dx for fd4.  d1 drops the unpaired Nyquist mode, and so
    does the stage symbol.  The arrays are shared by every caller and
    therefore read-only.
    """
    k = grid.wavenumbers()
    if scheme == "spectral":
        d1 = 1j * k
        d2 = -(k * k)
    elif scheme == "fd4":
        dx = grid.dx
        theta = k * dx
        d1 = 1j * (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * dx)
        d2 = -(30.0 - 32.0 * np.cos(theta)
               + 2.0 * np.cos(2.0 * theta)) / (12.0 * dx * dx)
    else:
        raise ValueError(f"unknown scheme '{scheme}'")
    d1[-1] = 0.0
    helmholtz = 1.0 - d2
    ops = (d1, d2, helmholtz, d1 / helmholtz)
    for a in ops:
        a.flags.writeable = False
    return ops


def _flux_hat(u_hat: np.ndarray, d1: np.ndarray, d2: np.ndarray,
              n: int, b: float) -> np.ndarray:
    """rfft coefficients of the flux -(b+1)u^3/3 + u u_xx + (b-1)u_x^2/2
    from those of u, for the symbols d1, d2 of an n-point grid: times
    d1 they give the flux divergence, times the stage symbol
    d1 / (1 - d2) they give u_t.

    The rows u_hat, d1*u_hat and d2*u_hat of one (3, n//2+1) array go
    through a single irfft call, bitwise the same as three calls
    without their per-call overhead, and one rfft call brings the flux
    back.  The flux is built from products only: u ** 3 calls the C
    library's pow on every element, which costs as much as the rest of
    a stage.
    """
    spec = np.empty((3, u_hat.size), dtype=complex)
    spec[0] = u_hat
    np.multiply(d1, u_hat, out=spec[1])
    np.multiply(d2, u_hat, out=spec[2])
    u, ux, uxx = np.fft.irfft(spec, n, axis=-1)
    f = (-(b + 1.0) / 3.0 * u) * (u * u) + u * uxx \
        + 0.5 * (b - 1.0) * ux * ux
    return np.fft.rfft(f)


def helmholtz_solve(f: np.ndarray, grid: Grid,
                    scheme: str = "spectral") -> np.ndarray:
    """w with (1 - dxx) w = f, exactly for the scheme's discrete dxx."""
    helmholtz = _operators(grid, scheme)[2]
    f = np.asarray(f, dtype=float)
    return np.fft.irfft(np.fft.rfft(f) / helmholtz, grid.n)


def flux_divergence(u: np.ndarray, cfg: SimConfig,
                    grid: Grid) -> np.ndarray:
    """d/dx of the flux whose Helmholtz inverse is u_t.

    The three right-hand terms combine as a perfect derivative,
    -(b+1)u^2 u_x + b u_x u_xx + u u_xxx
        = d/dx[ -(b+1)u^3/3 + u u_xx + (b-1)u_x^2/2 ],
    so the discrete mean of this field vanishes and the mean of u is
    a conserved quantity of the semidiscretization.
    """
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite input state")
    d1, d2 = _operators(grid, cfg.scheme)[:2]
    return np.fft.irfft(
        d1 * _flux_hat(np.fft.rfft(u), d1, d2, grid.n, cfg.b), grid.n)


def rhs(u: np.ndarray, cfg: SimConfig, grid: Grid) -> np.ndarray:
    """u_t evaluated on u: Helmholtz inverse of the flux divergence."""
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite input state")
    d1, d2, _helmholtz, stage = _operators(grid, cfg.scheme)
    return np.fft.irfft(
        stage * _flux_hat(np.fft.rfft(u), d1, d2, grid.n, cfg.b), grid.n)


# ---------------------------------------------------------------------
# time stepping

def _rk4(u: np.ndarray, dt: float, cfg: SimConfig,
         grid: Grid) -> np.ndarray:
    """One classical Runge-Kutta step; dt may be negative (used by the
    time-reversal sanity check).

    The stages run on rfft coefficients, each one batched inverse call
    and one forward call, with the symbols looked up once per step;
    only the increment returns to the grid, so dt = 0 gives back u
    exactly.
    """
    d1, d2, _helmholtz, stage = _operators(grid, cfg.scheme)
    n, b = grid.n, cfg.b
    u_hat = np.fft.rfft(u)
    k1 = stage * _flux_hat(u_hat, d1, d2, n, b)
    k2 = stage * _flux_hat(u_hat + 0.5 * dt * k1, d1, d2, n, b)
    k3 = stage * _flux_hat(u_hat + 0.5 * dt * k2, d1, d2, n, b)
    k4 = stage * _flux_hat(u_hat + dt * k3, d1, d2, n, b)
    return u + np.fft.irfft((dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                            n)


def step_rk4(state: SimState, cfg: SimConfig, grid: Grid) -> SimState:
    """Advance one step of cfg.dt; raises BlowUpError past the guard or
    when a stage overflows."""
    # a non-finite stage leaves NaN or inf in every later transform and
    # so in u2, and np.max carries a NaN or inf into the peak: the one
    # comparison below covers all four stages, and it is the only check
    # the new state needs, since _rk4 returns a float array of the
    # grid's length
    with np.errstate(all="ignore"):
        u2 = _rk4(state.u, cfg.dt, cfg, grid)
        peak = float(np.max(np.abs(u2)))
    t2 = state.t + cfg.dt
    if not peak <= cfg.blowup_threshold:
        raise BlowUpError(t2, peak)
    return SimState(t2, u2, grid.dx * float(u2.sum()))


# ---------------------------------------------------------------------
# extremum tracking

class _PeakTracker:
    """Sub-grid extremum location by 3-point quadratic interpolation,
    unwrapped across the periodic seam."""

    def __init__(self, grid: Grid, reference: float):
        self._x = grid.nodes()
        self._dx = grid.dx
        self._length = grid.length
        self._ref = reference
        self._offset = 0.0
        self._prev: float | None = None
        self.times: list[float] = []
        self.locations: list[float] = []

    def record(self, state: SimState) -> None:
        u = state.u
        j = int(np.argmax(np.abs(u - self._ref)))
        n = u.size
        um, u0, up = u[(j - 1) % n], u[j], u[(j + 1) % n]
        curv = um - 2.0 * u0 + up
        delta = 0.5 * (um - up) / curv if abs(curv) > 1e-300 else 0.0
        raw = self._x[j] + delta * self._dx
        if self._prev is not None:
            while raw + self._offset - self._prev > 0.5 * self._length:
                self._offset -= self._length
            while raw + self._offset - self._prev < -0.5 * self._length:
                self._offset += self._length
        self._prev = raw + self._offset
        self.times.append(state.t)
        self.locations.append(self._prev)

    def fitted_slope(self) -> float:
        if len(self.times) < 2:
            return float("nan")
        return float(np.polyfit(self.times, self.locations, 1)[0])


# ---------------------------------------------------------------------
# manufactured-solution runs

@dataclass(frozen=True)
class Snapshot:
    t: float
    u_numeric: np.ndarray
    u_exact: np.ndarray


@dataclass(frozen=True)
class SimReport:
    family_id: str
    b: float
    n: int
    length: float
    dt: float
    t_final: float
    scheme: str
    linf_error: float
    mass_drift: float
    measured_speed: float
    expected_speed: float
    snapshots: tuple[Snapshot, ...] = field(repr=False)

    def summary(self) -> dict:
        """Summary in the external report key order."""
        return {
            "family": self.family_id,
            "b": self.b,
            "N": self.n,
            "L": self.length,
            "dt": self.dt,
            "T": self.t_final,
            "linf_error": self.linf_error,
            "mass_drift": self.mass_drift,
            "measured_speed": self.measured_speed,
            "expected_speed": self.expected_speed,
        }


def _admissibility_check(inst: FamilyInstance, grid: Grid, lam: float,
                         t_end: float, profile_fn) -> float:
    """Reject singular or non-decayed instances; returns the estimated
    far-field constant."""
    pad = 1.0
    xi_lo = -0.5 * grid.length + min(0.0, lam * t_end) - pad
    xi_hi = 0.5 * grid.length + max(0.0, lam * t_end) + pad
    sing = inst.singularities((xi_lo, xi_hi))
    if sing:
        raise InadmissibleFamilyError(
            f"{inst.family_id} profile is singular at xi = "
            f"{', '.join(f'{s:.4g}' for s in sing[:4])} inside the swept "
            f"window [{xi_lo:.3g}, {xi_hi:.3g}]")
    edge = 0.5 * grid.length
    band_l = np.asarray(profile_fn(np.linspace(-edge, -edge + 3.0, 31)),
                        dtype=float)
    band_r = np.asarray(profile_fn(np.linspace(edge - 3.0, edge, 31)),
                        dtype=float)
    if not (np.all(np.isfinite(band_l)) and np.all(np.isfinite(band_r))):
        raise InadmissibleFamilyError(
            f"{inst.family_id} profile is non-finite near the domain edge")
    u_inf = 0.5 * (band_l[0] + band_r[-1])
    dev = max(float(np.max(np.abs(band_l - u_inf))),
              float(np.max(np.abs(band_r - u_inf))))
    if dev > TAIL_TOL:
        raise InadmissibleFamilyError(
            f"{inst.family_id} tails deviate {dev:.2e} from the far-field "
            f"constant at the domain edge (tolerance {TAIL_TOL:.1e}); "
            f"enlarge the domain")
    return float(u_inf)


def run(inst: FamilyInstance, cfg: SimConfig, grid: Grid) -> SimReport:
    """Integrate a catalog instance to cfg.t_final and compare against
    its exact translate."""
    if inst.b != cfg.b:
        raise ValueError(f"instance b = {inst.b:g} is not cfg.b = {cfg.b:g}")
    snap_steps = snapshot_steps(cfg, grid)
    n_steps = cfg.n_steps
    t_end = n_steps * cfg.dt

    lam = inst.speed()
    profile_fn = compile_fn(inst.profile(), ["xi"])
    u_inf = _admissibility_check(inst, grid, lam, t_end, profile_fn)

    x = grid.nodes()
    u0 = np.asarray(profile_fn(x), dtype=float)
    guard = cfl_limit(u0, grid)
    if cfg.dt > guard:
        raise InadmissibleFamilyError(
            f"dt = {cfg.dt:.3e} exceeds the step-size guard {guard:.3e} "
            f"for this initial state")

    state = SimState.of(0.0, u0, grid)
    mass0 = state.mass
    mass_scale = max(abs(mass0), grid.dx * float(np.abs(u0).sum()),
                     1e-300)

    tracker = _PeakTracker(grid, u_inf)
    tracker.record(state)
    snaps: list[Snapshot] = []

    def capture(s: SimState) -> None:
        exact = np.asarray(profile_fn(x + lam * s.t), dtype=float)
        snaps.append(Snapshot(s.t, s.u.copy(), exact))

    capture(state)  # the snapshot steps start at 0
    for step in range(1, n_steps + 1):
        state = step_rk4(state, cfg, grid)
        tracker.record(state)
        if step in snap_steps:
            capture(state)

    u_exact = np.asarray(profile_fn(x + lam * t_end), dtype=float)
    linf = float(np.max(np.abs(state.u - u_exact)))
    drift = abs(state.mass - mass0) / mass_scale
    measured = -tracker.fitted_slope()
    return SimReport(inst.family_id, inst.b, grid.n, grid.length,
                     cfg.dt, t_end, cfg.scheme, linf, drift, measured,
                     lam, tuple(snaps))


def write_snapshots_csv(report: SimReport, path: str) -> None:
    """CSV blocks `t,x,u_numeric,u_exact,error`, one row per node per
    snapshot time, floats in shortest round-trip form."""
    xs = Grid(report.n, report.length).nodes().tolist()
    lines = ["t,x,u_numeric,u_exact,error"]
    for snap in report.snapshots:
        for xj, un, ue in zip(xs, snap.u_numeric.tolist(),
                              snap.u_exact.tolist(), strict=True):
            lines.append(f"{snap.t!r},{xj!r},{un!r},{ue!r},{un - ue!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
