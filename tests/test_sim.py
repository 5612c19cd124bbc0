"""Integrator tests: discrete operator identities, manufactured-
solution oracles from the catalog, conservation, convergence order,
and admissibility rejections."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from mdpv.catalog import FamilyInstance
from mdpv.expr import compile_fn
from mdpv.sim import (
    MAX_N, MAX_SNAPSHOT_POINTS, BlowUpError, Grid, InadmissibleFamilyError,
    SimConfig, SimState, _flux_hat, _operators, _PeakTracker, _rk4,
    _workspace, flux_divergence, helmholtz_solve, rhs, run, snapshot_steps,
    step_rk4, write_snapshots_csv,
)

SCHEMES = ("spectral", "fd4")


def _u6(b=3.0):
    return FamilyInstance("u6", b, {})


def _profile_fn(inst):
    return compile_fn(inst.profile(), ["xi"])


def _d1(u, g, scheme):
    return np.fft.irfft(_operators(g, scheme)[0] * np.fft.rfft(u), g.n)


def _d2(u, g, scheme):
    return np.fft.irfft(_operators(g, scheme)[1] * np.fft.rfft(u), g.n)


def _roll_d1(u, dx):
    # explicit 5-point stencils: the oracle for the fd4 Fourier symbols
    return (np.roll(u, 2) - 8.0 * np.roll(u, 1) + 8.0 * np.roll(u, -1)
            - np.roll(u, -2)) / (12.0 * dx)


def _roll_d2(u, dx):
    return (-np.roll(u, 2) + 16.0 * np.roll(u, 1) - 30.0 * u
            + 16.0 * np.roll(u, -1) - np.roll(u, -2)) / (12.0 * dx * dx)


# ---------------------------------------------------------------------
# domain types

def test_grid_geometry():
    g = Grid(128, 32.0)
    assert g.dx == 0.25
    x = g.nodes()
    assert x[0] == -16.0 and x[-1] == pytest.approx(16.0 - 0.25)
    assert g.wavenumbers().shape == (65,)
    assert g.wavenumbers()[1] == pytest.approx(2 * np.pi / 32.0)


@pytest.mark.parametrize("n,length", [(100, 40.0), (32, 40.0),
                                      (256, 0.0), (256, -1.0),
                                      (2 * MAX_N, 40.0), (2 ** 30, 40.0)])
def test_grid_rejects_bad_geometry(n, length):
    with pytest.raises(ValueError):
        Grid(n, length)


def test_grid_budget_admits_its_bound():
    assert Grid(MAX_N, 40.0).n == MAX_N


def test_state_mass_and_checks():
    g = Grid(64, 8.0)
    s = SimState.of(0.0, np.ones(64), g)
    assert s.mass == pytest.approx(8.0)
    with pytest.raises(ValueError):
        SimState.of(0.0, np.ones(32), g)
    bad = np.ones(64)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SimState.of(0.0, bad, g)


# b is left to the instance, which refuses an excluded one; the ids
# keep the numbers they had when kw0 and kw1 were b = -1 and b = -2
_BAD_FIELDS = [
    dict(dt=-1e-3), dict(t_final=-1.0),
    dict(scheme="fd2"), dict(snapshots=1), dict(blowup_threshold=0),
    dict(blowup_threshold=-1.0),
    # the time axis: a positive dt, a whole number of steps, the budget
    dict(dt=0.0), dict(t_final=0.0015), dict(dt=1e-9),
]


@pytest.mark.parametrize("kw", _BAD_FIELDS, ids=[
    f"kw{i}" for i in range(2, 2 + len(_BAD_FIELDS))])
def test_config_rejects_bad_fields(kw):
    base = dict(b=3.0, dt=1e-3, t_final=1.0)
    base.update(kw)
    with pytest.raises(ValueError):
        SimConfig(**base)


# ---------------------------------------------------------------------
# Helmholtz inverse

@pytest.mark.parametrize("scheme", SCHEMES)
def test_helmholtz_constant_and_zero(scheme):
    g = Grid(128, 20.0)
    w = helmholtz_solve(np.full(128, 3.7), g, scheme)
    assert np.max(np.abs(w - 3.7)) <= 1e-12
    assert np.max(np.abs(helmholtz_solve(np.zeros(128), g, scheme))) == 0.0


def test_helmholtz_eigenfunction_spectral():
    g = Grid(256, 40.0)
    k = 2 * np.pi / g.length
    f = (1 + k * k) * np.sin(k * g.nodes())
    w = helmholtz_solve(f, g, "spectral")
    assert np.max(np.abs(w - np.sin(k * g.nodes()))) <= 1e-10


def test_helmholtz_eigenfunction_fd4_fourth_order():
    errs = {}
    for n in (128, 256):
        g = Grid(n, 40.0)
        k = 2 * np.pi * 8 / g.length
        f = (1 + k * k) * np.sin(k * g.nodes())
        w = helmholtz_solve(f, g, "fd4")
        errs[n] = np.max(np.abs(w - np.sin(k * g.nodes())))
    assert errs[128] / errs[256] >= 8.0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_helmholtz_inverts_its_own_operator(scheme):
    # the solve is exact for the scheme's discrete second derivative
    g = Grid(256, 25.0)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(256)
    w = helmholtz_solve(f, g, scheme)
    back = w - _d2(w, g, scheme)
    assert np.max(np.abs(back - f)) <= 1e-10 * (1 + np.max(np.abs(f)))


def test_helmholtz_unknown_scheme():
    with pytest.raises(ValueError):
        helmholtz_solve(np.zeros(128), Grid(128, 10.0), "fd2")


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fd4_symbols_match_roll_stencils(n):
    g = Grid(n, 25.0)
    u = np.random.default_rng(n).standard_normal(n)
    for ours, oracle in ((_d1(u, g, "fd4"), _roll_d1(u, g.dx)),
                         (_d2(u, g, "fd4"), _roll_d2(u, g.dx))):
        assert np.max(np.abs(ours - oracle)) \
            <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fd4_helmholtz_matches_dense_solve(n):
    # I - D2 with D2 the cyclic pentadiagonal 4th-order matrix
    g = Grid(n, 25.0)
    d2 = np.zeros((n, n))
    j = np.arange(n)
    for off, c in ((0, -30.0), (1, 16.0), (-1, 16.0), (2, -1.0),
                   (-2, -1.0)):
        d2[j, (j + off) % n] = c / (12.0 * g.dx * g.dx)
    f = np.random.default_rng(n + 1).standard_normal(n)
    dense = np.linalg.solve(np.eye(n) - d2, f)
    w = helmholtz_solve(f, g, "fd4")
    assert np.max(np.abs(w - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_fd_derivatives_fourth_order():
    errs1, errs2 = {}, {}
    for n in (128, 256):
        g = Grid(n, 20.0)
        k = 2 * np.pi * 3 / g.length
        u = np.sin(k * g.nodes())
        errs1[n] = np.max(np.abs(_d1(u, g, "fd4")
                                 - k * np.cos(k * g.nodes())))
        errs2[n] = np.max(np.abs(_d2(u, g, "fd4")
                                 + k * k * np.sin(k * g.nodes())))
    assert errs1[128] / errs1[256] >= 8.0
    assert errs2[128] / errs2[256] >= 8.0


# ---------------------------------------------------------------------
# right-hand side

@pytest.mark.parametrize("scheme", SCHEMES)
def test_rhs_constant_state_is_exactly_zero(scheme):
    g = Grid(128, 20.0)
    cfg = SimConfig(b=1.0, dt=1e-3, t_final=1.0, scheme=scheme)
    r = rhs(np.full(128, -0.75), cfg, g)
    assert np.max(np.abs(r)) <= 1e-13


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flux_divergence_has_zero_mean(scheme):
    g = Grid(256, 30.0)
    cfg = SimConfig(b=2.0, dt=1e-3, t_final=1.0, scheme=scheme)
    rng = np.random.default_rng(9)
    x = g.nodes()
    u = sum(float(rng.uniform(-1, 1))
            * np.sin(2 * np.pi * m / g.length * x
                     + float(rng.uniform(0, 7)))
            for m in range(1, 6))
    gdiv = flux_divergence(u, cfg, g)
    scale = float(np.max(np.abs(gdiv)))
    assert abs(float(gdiv.sum()) * g.dx) <= 1e-12 * (1 + scale)


def test_flux_divergence_rejects_non_finite():
    g = Grid(128, 20.0)
    cfg = SimConfig(b=1.0, dt=1e-3, t_final=1.0)
    bad = np.zeros(128)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        flux_divergence(bad, cfg, g)


def test_rhs_traveling_identity_spectral():
    # on an exact profile, u_t = lam * u_x with lam the catalog speed
    inst = _u6()
    g = Grid(512, 40.0)
    u0 = _profile_fn(inst)(g.nodes())
    cfg = SimConfig(b=3.0, dt=5e-4, t_final=2.0)
    r = rhs(u0, cfg, g)
    ux = _d1(u0, g, "spectral")
    assert np.max(np.abs(r - inst.speed() * ux)) <= 1e-6


def test_rhs_traveling_identity_fd4_converges():
    inst = _u6()
    devs = {}
    for n in (256, 512):
        g = Grid(n, 40.0)
        u0 = _profile_fn(inst)(g.nodes())
        cfg = SimConfig(b=3.0, dt=5e-4, t_final=2.0, scheme="fd4")
        ux = _d1(u0, g, "fd4")
        devs[n] = np.max(np.abs(rhs(u0, cfg, g) - inst.speed() * ux))
    assert devs[256] <= 2e-4
    assert devs[256] / devs[512] >= 8.0


def _rhs_reference(u, cfg, g):
    # the seven-transform composition the coefficient stages replace:
    # flux with u ** 3, its derivative back on the grid, then the
    # Helmholtz inverse from the grid
    d1, d2, helmholtz = _operators(g, cfg.scheme)[:3]
    b = cfg.b
    u_hat = np.fft.rfft(u)
    ux = np.fft.irfft(d1 * u_hat, g.n)
    uxx = np.fft.irfft(d2 * u_hat, g.n)
    f = -(b + 1.0) / 3.0 * u ** 3 + u * uxx + 0.5 * (b - 1.0) * ux * ux
    div = np.fft.irfft(d1 * np.fft.rfft(f), g.n)
    return np.fft.irfft(np.fft.rfft(div) / helmholtz, g.n)


def _rk4_reference(u, dt, cfg, g):
    k1 = _rhs_reference(u, cfg, g)
    k2 = _rhs_reference(u + 0.5 * dt * k1, cfg, g)
    k3 = _rhs_reference(u + 0.5 * dt * k2, cfg, g)
    k4 = _rhs_reference(u + dt * k3, cfg, g)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _oracle_states(g):
    x = g.nodes()
    rng = np.random.default_rng(g.n)
    smooth = sum(float(rng.uniform(-1, 1))
                 * np.cos(2 * np.pi * m / g.length * x
                          + float(rng.uniform(0, 7)))
                 for m in range(1, 8))
    return [(3.0, _profile_fn(_u6())(x)), (1.5, smooth)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [64, 512, 2048])
def test_stages_match_the_seven_transform_reference(scheme, n):
    g = Grid(n, 40.0)
    for b, u in _oracle_states(g):
        cfg = SimConfig(b=b, dt=1e-3, t_final=1.0, scheme=scheme)
        ref = _rhs_reference(u, cfg, g)
        tol = 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(rhs(u, cfg, g) - ref)) <= tol
        # the stage itself, coefficient by coefficient: irfft drops the
        # imaginary part of the Nyquist coefficient, so a nonzero one
        # shows only here
        ref_hat = np.fft.rfft(ref)
        d1, d2, _helmholtz, stage_symbol = _operators(g, scheme)
        spec, work = _workspace(np.fft.rfft(u), g.n)
        stage = stage_symbol * _flux_hat(spec, work, d1, d2, b)
        assert np.max(np.abs(stage - ref_hat)) \
            <= 1e-13 * np.max(np.abs(ref_hat))
        ref_step = _rk4_reference(u, cfg.dt, cfg, g)
        step = step_rk4(SimState.of(0.0, u, g), cfg, g).u
        assert np.max(np.abs(step - ref_step)) \
            <= 1e-13 * np.max(np.abs(ref_step))


def _rk4_unbatched(u, dt, cfg, g):
    # the coefficient stages with one irfft call per field: u, u_x and
    # u_xx, the product flux, one rfft, times the stage symbol
    d1, d2, _helmholtz, stage_symbol = _operators(g, cfg.scheme)
    b = cfg.b

    def stage(u_hat):
        v = np.fft.irfft(u_hat, g.n)
        vx = np.fft.irfft(d1 * u_hat, g.n)
        vxx = np.fft.irfft(d2 * u_hat, g.n)
        f = (-(b + 1.0) / 3.0 * v) * (v * v) + v * vxx \
            + 0.5 * (b - 1.0) * vx * vx
        return stage_symbol * np.fft.rfft(f)

    u_hat = np.fft.rfft(u)
    k1 = stage(u_hat)
    k2 = stage(u_hat + 0.5 * dt * k1)
    k3 = stage(u_hat + 0.5 * dt * k2)
    k4 = stage(u_hat + dt * k3)
    return u + np.fft.irfft((dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                            g.n)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [64, 512, 2048])
def test_batched_steps_equal_the_unbatched_reference(scheme, n):
    # the batched inverse transform does the same arithmetic in the same
    # order, so the states must agree bit for bit, not to a tolerance
    g = Grid(n, 40.0)
    for b, u0 in _oracle_states(g):
        cfg = SimConfig(b=b, dt=1e-3, t_final=1.0, scheme=scheme)
        state, u = SimState.of(0.0, u0, g), u0
        for _ in range(50):
            state = step_rk4(state, cfg, g)
            u = _rk4_unbatched(u, cfg.dt, cfg, g)
            assert np.array_equal(state.u, u)
            assert state.mass == g.dx * float(u.sum())


# ---------------------------------------------------------------------
# time stepping

def test_step_identity_at_zero_dt():
    # only the increment returns to the grid, so a zero step gives back
    # u bitwise; a run's configuration has dt > 0, so _rk4 takes it here
    g = Grid(128, 20.0)
    u0 = _profile_fn(_u6())(g.nodes())
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0)
    assert np.array_equal(_rk4(u0, 0.0, cfg, g), u0)


def test_step_constant_state_unchanged():
    g = Grid(128, 20.0)
    s = SimState.of(0.0, np.full(128, 0.4), g)
    cfg = SimConfig(b=1.5, dt=1e-2, t_final=1.0)
    s2 = step_rk4(s, cfg, g)
    assert np.max(np.abs(s2.u - 0.4)) <= 1e-14
    assert s2.t == pytest.approx(1e-2)


def test_step_single_step_oracle():
    inst = _u6()
    g = Grid(512, 40.0)
    fn = _profile_fn(inst)
    s = SimState.of(0.0, fn(g.nodes()), g)
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0)
    s2 = step_rk4(s, cfg, g)
    exact = fn(g.nodes() + inst.speed() * cfg.dt)
    assert np.max(np.abs(s2.u - exact)) <= 1e-6


def test_step_mass_drift_per_step():
    inst = _u6()
    g = Grid(256, 40.0)
    s = SimState.of(0.0, _profile_fn(inst)(g.nodes()), g)
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0)
    s2 = step_rk4(s, cfg, g)
    assert abs(s2.mass - s.mass) <= 1e-12 * max(1.0, abs(s.mass))


def test_step_blow_up_raises():
    g = Grid(128, 20.0)
    s = SimState.of(0.0, 500.0 * np.exp(-g.nodes() ** 2), g)
    cfg = SimConfig(b=3.0, dt=1e-2, t_final=1.0, blowup_threshold=1e3)
    with pytest.raises(BlowUpError) as err:
        for _ in range(10):
            s = step_rk4(s, cfg, g)
    assert err.value.peak > 1e3


def test_step_stage_overflow_is_a_blow_up():
    # the flux's cube overflows inside the first stage, below the
    # sentinel: a blow-up, reported without numpy warnings
    g = Grid(128, 20.0)
    s = SimState.of(0.0, 1e120 * np.exp(-g.nodes() ** 2), g)
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0, blowup_threshold=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as err:
            step_rk4(s, cfg, g)
    assert err.value.t == pytest.approx(1e-3)


def test_step_nan_stage_is_a_blow_up():
    # a NaN entry reaches every node through the transforms, and np.max
    # carries it into the peak, so the one comparison reports it
    g = Grid(128, 20.0)
    u = np.full(128, 0.4)
    u[5] = np.nan
    s = SimState(0.0, u, 0.0)
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as err:
            step_rk4(s, cfg, g)
    assert err.value.t == pytest.approx(1e-3)
    assert math.isnan(err.value.peak)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_writes_into_no_array_it_was_given(scheme):
    # the stages run in place, but only in arrays of their own: the
    # state and the field passed in come back bitwise unchanged, and
    # each step is a new array, at either sign of dt and at dt = 0
    g = Grid(128, 20.0)
    u0 = _profile_fn(_u6())(g.nodes())
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0, scheme=scheme)
    s = SimState.of(0.0, u0.copy(), g)
    s2 = step_rk4(s, cfg, g)
    assert np.array_equal(s.u, u0)
    assert not np.shares_memory(s2.u, s.u)
    for dt in (cfg.dt, -cfg.dt, 0.0):
        u = u0.copy()
        assert not np.shares_memory(_rk4(u, dt, cfg, g), u)
        assert np.array_equal(u, u0)
    for field_of in (rhs, flux_divergence):
        u = u0.copy()
        field_of(u, cfg, g)
        assert np.array_equal(u, u0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_keeps_the_initial_profile_as_its_first_snapshot(scheme):
    inst = _u6()
    g = Grid(128, 40.0)
    rep = run(inst, SimConfig(b=3.0, dt=1e-3, t_final=0.05, scheme=scheme),
              g)
    assert np.array_equal(rep.snapshots[0].u_numeric,
                          _profile_fn(inst)(g.nodes()))


def test_time_reversal_returns_initial_data():
    inst = _u6()
    g = Grid(256, 40.0)
    fn = _profile_fn(inst)
    u0 = fn(g.nodes())
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=0.1)
    u = u0.copy()
    for _ in range(100):
        u = _rk4(u, cfg.dt, cfg, g)
    fwd = np.max(np.abs(u - fn(g.nodes() + inst.speed() * 0.1)))
    for _ in range(100):
        u = _rk4(u, -cfg.dt, cfg, g)
    assert np.max(np.abs(u - u0)) <= 10 * fwd


# ---------------------------------------------------------------------
# extremum tracking

def test_peak_tracker_crosses_the_seam():
    g = Grid(256, 20.0)
    x = g.nodes()
    c = 3.0
    ts = np.arange(0.0, 4.0, 0.05)
    tracker = _PeakTracker(g, 0.0)
    for t in ts:
        # gaussian bump advected right at speed c, wrapped periodically
        centered = np.mod(x - c * t + g.length / 2,
                          g.length) - g.length / 2
        tracker.record(SimState.of(float(t),
                                   np.exp(-2.0 * centered ** 2), g))
    assert tracker.fitted_slope() == pytest.approx(c, rel=1e-3)


# ---------------------------------------------------------------------
# manufactured-solution runs

def test_run_canonical_depression_wave():
    rep = run(_u6(), SimConfig(b=3.0, dt=5e-4, t_final=2.0),
              Grid(512, 40.0))
    assert rep.linf_error <= 1e-3
    assert rep.mass_drift <= 1e-8
    assert abs(rep.measured_speed - (-2.5)) <= 0.01 * 2.5
    assert rep.expected_speed == pytest.approx(-2.5)
    assert len(rep.snapshots) == 5
    assert rep.snapshots[0].t == 0.0
    assert rep.snapshots[-1].t == pytest.approx(2.0)


def test_run_summary_key_order():
    rep = run(_u6(), SimConfig(b=3.0, dt=1e-3, t_final=0.05),
              Grid(256, 40.0))
    assert list(rep.summary()) == [
        "family", "b", "N", "L", "dt", "T", "linf_error", "mass_drift",
        "measured_speed", "expected_speed"]
    assert rep.summary()["family"] == "u6"
    assert rep.summary()["N"] == 256


def test_run_nonzero_background_family():
    inst = FamilyInstance("u20", 1.0,
                          {"alpha": 1.0, "beta": 1.5, "gamma": 0.3125})
    rep = run(inst, SimConfig(b=1.0, dt=1e-3, t_final=0.5),
              Grid(256, 40.0))
    assert rep.linf_error <= 1e-5
    assert rep.mass_drift <= 1e-8
    assert rep.expected_speed == pytest.approx(-1.5)
    assert abs(rep.measured_speed - rep.expected_speed) <= 0.015


def test_run_mass_conservation_other_family():
    rep = run(FamilyInstance("u3", 0.5, {}),
              SimConfig(b=0.5, dt=1e-3, t_final=0.3), Grid(256, 40.0))
    assert rep.mass_drift <= 1e-8
    assert rep.linf_error <= 1e-6


def test_snapshot_steps_keep_both_ends_within_the_budget():
    grid = Grid(256, 40.0)
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=1.0)
    assert snapshot_steps(cfg, grid) == {0, 250, 500, 750, 1000}
    # 10 001 steps: the budget, not the step count, caps the request
    fits = MAX_SNAPSHOT_POINTS // grid.n
    cfg = SimConfig(b=3.0, dt=1e-3, t_final=10.0, snapshots=fits)
    assert len(snapshot_steps(cfg, grid)) == fits
    with pytest.raises(ValueError, match="budget"):
        snapshot_steps(dataclasses.replace(cfg, snapshots=fits + 1), grid)


def test_run_refuses_an_instance_of_another_b():
    # SimConfig leaves b to the instance, so this is what keeps an
    # excluded b out of every run
    with pytest.raises(ValueError, match="cfg.b"):
        run(_u6(), SimConfig(b=-1.0, dt=1e-3, t_final=2e-3),
            Grid(256, 40.0))


def test_run_snapshots_are_capped_by_the_steps():
    # two steps: every request of three or more points hits each step
    reps = [run(_u6(), SimConfig(b=3.0, dt=1e-3, t_final=2e-3,
                                 snapshots=k), Grid(256, 40.0))
            for k in (3, 10 ** 6)]
    assert reps[0].summary() == reps[1].summary()
    times = [[snap.t for snap in rep.snapshots] for rep in reps]
    assert times[0] == times[1] and len(times[0]) == 3


def test_run_rejects_singular_profile():
    with pytest.raises(InadmissibleFamilyError):
        run(FamilyInstance("u5", 3.0, {}),
            SimConfig(b=3.0, dt=5e-4, t_final=1.0), Grid(256, 40.0))


def test_run_rejects_fat_tails():
    with pytest.raises(InadmissibleFamilyError):
        run(_u6(), SimConfig(b=3.0, dt=5e-4, t_final=1.0),
            Grid(128, 10.0))


def test_run_rejects_cfl_violation():
    # an inadmissible setup (exit 2 in the CLI), not a flag error
    with pytest.raises(InadmissibleFamilyError, match="guard"):
        run(_u6(), SimConfig(b=3.0, dt=0.5, t_final=1.0),
            Grid(512, 40.0))


def test_run_rejects_mismatched_horizon():
    with pytest.raises(ValueError):
        run(_u6(), SimConfig(b=3.0, dt=1e-3, t_final=0.0015),
            Grid(256, 40.0))
    with pytest.raises(ValueError):
        run(_u6(), SimConfig(b=3.0, dt=0.0, t_final=1.0),
            Grid(256, 40.0))


def test_run_rejects_instance_at_another_b():
    # the run would integrate at the configuration's b and score against
    # the wave at the instance's b
    with pytest.raises(ValueError, match="b = 3"):
        run(_u6(), SimConfig(b=2.0, dt=1e-3, t_final=0.2),
            Grid(256, 40.0))


def test_run_blow_up_surfaces():
    # drop the sentinel low enough that a legitimate run trips it
    with pytest.raises(BlowUpError):
        run(_u6(), SimConfig(b=3.0, dt=1e-3, t_final=0.5,
                             blowup_threshold=1.0), Grid(256, 40.0))


# ---------------------------------------------------------------------
# snapshot export

def test_snapshot_csv_round_trip(tmp_path):
    rep = run(_u6(), SimConfig(b=3.0, dt=1e-3, t_final=0.05,
                               snapshots=3), Grid(256, 40.0))
    path = tmp_path / "snaps.csv"
    write_snapshots_csv(rep, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,u_numeric,u_exact,error"
    assert len(lines) == 1 + 3 * 256
    t, x, un, ue, err = (float(v) for v in lines[1].split(","))
    assert t == 0.0 and x == -20.0
    assert err == un - ue
    # shortest round-trip floats: re-parsing reproduces the value
    assert repr(un) in lines[1]
