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
A step allocates its stage spectrum and the flux's work row once, and
runs every product and sum of its stages in place, with the operands
in the order of the expressions they replace: numpy's SIMD loops for
complex products may use fused multiply-adds, which can round a*d + b*c
differently once the operands swap, so keeping the order keeps every
state bitwise the same whichever factors happen to have a zero part.
What it writes into is its own: the state it is given is never
changed.
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


def _workspace(u_hat: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays `_flux_hat` writes into on an n-point grid: a
    (3, n//2+1) complex spectrum whose row 0 holds a copy of the stage
    input u_hat, and a row of n floats for the flux."""
    spec = np.empty((3, u_hat.size), dtype=complex)
    spec[0] = u_hat
    return spec, np.empty(n)


def _flux_hat(spec: np.ndarray, work: np.ndarray, d1: np.ndarray,
              d2: np.ndarray, b: float) -> np.ndarray:
    """rfft coefficients of the flux -(b+1)u^3/3 + u u_xx + (b-1)u_x^2/2
    of the field whose coefficients the caller wrote into row 0 of spec,
    for the symbols d1, d2 of an n-point grid, n = work.size: times d1
    they give the flux divergence, times the stage symbol d1 / (1 - d2)
    they give u_t.

    Rows 1 and 2 of spec are overwritten with d1*u_hat and d2*u_hat, and
    the three rows go through a single irfft call, bitwise the same as
    three calls without their per-call overhead.  The flux is built from
    products only, since u ** 3 calls the C library's pow on every
    element, which costs as much as the rest of a stage, and in place:
    ((c3*v)*(v*v) + v*v_xx) + (cx*v_x)*v_x, c3 = -(b+1)/3 and
    cx = (b-1)/2, goes into the irfft's rows and the work row, each
    product and sum with the operands, in the order, of the expression
    it replaces (the complex products round differently if swapped; see
    the module docstring).  So the arrays the two transforms return are
    all a stage allocates; spec and work are the caller's, made once
    per step.
    """
    n = work.size
    np.multiply(d1, spec[0], out=spec[1])
    np.multiply(d2, spec[0], out=spec[2])
    v, vx, vxx = np.fft.irfft(spec, n, axis=-1)
    np.multiply(-(b + 1.0) / 3.0, v, out=work)
    np.multiply(v, vxx, out=vxx)
    np.multiply(v, v, out=v)
    np.multiply(work, v, out=work)
    np.add(work, vxx, out=work)
    np.multiply(0.5 * (b - 1.0), vx, out=v)
    np.multiply(v, vx, out=v)
    np.add(work, v, out=work)
    return np.fft.rfft(work)


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
    spec, work = _workspace(np.fft.rfft(u), grid.n)
    return np.fft.irfft(d1 * _flux_hat(spec, work, d1, d2, cfg.b), grid.n)


def rhs(u: np.ndarray, cfg: SimConfig, grid: Grid) -> np.ndarray:
    """u_t evaluated on u: Helmholtz inverse of the flux divergence."""
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite input state")
    d1, d2, _helmholtz, stage = _operators(grid, cfg.scheme)
    spec, work = _workspace(np.fft.rfft(u), grid.n)
    return np.fft.irfft(stage * _flux_hat(spec, work, d1, d2, cfg.b),
                        grid.n)


# ---------------------------------------------------------------------
# time stepping

def _rk4(u: np.ndarray, dt: float, cfg: SimConfig,
         grid: Grid) -> np.ndarray:
    """One classical Runge-Kutta step; dt may be negative (used by the
    time-reversal sanity check).

    The stages run on rfft coefficients, each one batched inverse call
    and one forward call, with the symbols looked up once per step;
    only the increment returns to the grid, so dt = 0 gives back u
    exactly, as a new array: nothing passed in is written.

    The stage spectrum and the flux's work row are allocated once per
    step, and each stage writes its input u_hat + h*k straight into
    row 0 of the spectrum; the stage products and the sum
    ((k1 + 2 k2) + 2 k3) + k4, scaled by dt/6, are taken in place in
    the arrays the rffts return.  Each in-place op keeps the operands,
    and their order, of the expression it replaces, so every state is
    bitwise what the expression gives.
    """
    d1, d2, _helmholtz, stage = _operators(grid, cfg.scheme)
    u_hat = np.fft.rfft(u)
    spec, work = _workspace(u_hat, grid.n)
    ks = []
    for h in (0.5 * dt, 0.5 * dt, dt, None):
        k = _flux_hat(spec, work, d1, d2, cfg.b)
        np.multiply(stage, k, out=k)
        ks.append(k)
        if h is not None:
            np.multiply(h, k, out=spec[0])
            np.add(u_hat, spec[0], out=spec[0])
    k1, k2, k3, k4 = ks
    np.multiply(2.0, k2, out=k2)
    np.add(k1, k2, out=k1)
    np.multiply(2.0, k3, out=k3)
    np.add(k1, k3, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    step = np.fft.irfft(k1, grid.n)
    return np.add(u, step, out=step)


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
        peak = float(np.abs(u2).max())
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
        self._x = grid.nodes().tolist()
        self._dx = grid.dx
        self._length = grid.length
        self._ref = reference
        self._offset = 0.0
        self._prev: float | None = None
        self.times: list[float] = []
        self.locations: list[float] = []

    def record(self, state: SimState) -> None:
        u = state.u
        dev = np.subtract(u, self._ref)
        j = int(np.abs(dev, out=dev).argmax())
        n = u.size
        um, u0, up = u.item((j - 1) % n), u.item(j), u.item((j + 1) % n)
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
