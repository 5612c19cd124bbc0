"""Traveling-wave family registry.

Primary oracle: direct residual scans of every family at sampled
admissible parameters.  Secondary oracles: cross-family identities that
hold exactly (parameter specializations collapsing one family onto
another) and hand-computed speeds.  Negative controls prove the scans
have teeth: the circulated u10 rendering, a sign-flipped composite, and
the wrong convection power must all fail.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdpv import ansatz
from mdpv.catalog import (
    catalog_manifest, draw_params, family, family_ids, is_valid,
    method_tag, printed_u10, profile_with_values, singular_points,
    speed_value, verify_family,
)
from mdpv.expr import evaluate, free_symbols, parse, simplify, substitute_map
from mdpv.residual import classic_eq, modified_eq, ode_residual, scan

B_GRID = (0.0, 0.5, 1.0, 3.0)


def test_registry_complete_and_well_formed():
    assert family_ids() == [f"u{i}" for i in range(1, 24)]
    for fid in family_ids():
        fam = family(fid)
        assert free_symbols(fam.profile) <= {"xi"} | set(fam.parameters) \
            | {"b"}
        assert free_symbols(fam.speed) <= set(fam.parameters) | {"b"}
        for d in fam.singular_denoms:
            assert free_symbols(d) <= {"xi"} | set(fam.parameters) | {"b"}


def test_families_mapping_contract():
    # `family` and `family_ids` are the one way to the catalog by id
    assert len(family_ids()) == 23
    for fid in family_ids():
        assert family(fid) is family(fid)
        assert family(fid).family_id == fid


def test_unknown_family_rejected():
    with pytest.raises(KeyError, match="u1..u23"):
        family("u99")


def test_unknown_id_is_one_catalog_error():
    texts = set()
    for lookup in (family, method_tag, ansatz.system_for_family,
                   lambda fid: ansatz.family_system_env(fid, 3.0, {})):
        with pytest.raises(KeyError) as info:
            lookup("u99")
        texts.add(str(info.value))
    assert texts == {str(KeyError("unknown family 'u99'; known: u1..u23"))}
    # the route of an id is read without building its family
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("from mdpv.catalog import family, method_tag;"
             " print(method_tag('u5'), family.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["hyperbolic", "0"]


@pytest.mark.parametrize("fid", family_ids())
def test_family_scans_clean_at_sampled_parameters(fid):
    rng = np.random.default_rng(hash(fid) % 2 ** 31)
    for b in (0.0, 3.0):
        for _ in range(2):
            params = draw_params(fid, rng, b)
            ok, bad = is_valid(fid, b, params)
            assert ok, (fid, b, params, bad)
            rep = verify_family(fid, b, params)
            assert rep.passed, (fid, b, params, rep)


# ---------------------------------------------------------------------
# exact identities between families

def _profiles_agree(e1, e2, n=100, lo=-6.0, hi=6.0, tol=1e-12,
                    seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = float(rng.uniform(lo, hi))
        v1 = evaluate(e1, {"xi": x})
        v2 = evaluate(e2, {"xi": x})
        assert abs(v1 - v2) <= tol * (1 + max(abs(v1), abs(v2))), \
            (x, v1, v2)


@pytest.mark.parametrize("b", B_GRID)
def test_bell_at_unit_width_collapses_to_cosh_ratio(b):
    # slow bell branch at mu = 1 is exactly the smooth cosh ratio
    u1 = profile_with_values("u1", b, {"mu": 1.0})
    u3 = profile_with_values("u3", b, {})
    _profiles_agree(u1, u3)
    assert speed_value("u1", b, {"mu": 1.0}) == pytest.approx(
        speed_value("u3", b, {}), abs=1e-14)


@pytest.mark.parametrize("b", B_GRID)
def test_fast_bell_at_unit_width_collapses_to_pure_bell(b):
    # fast branch at mu = 1: the additive head vanishes entirely
    u2 = profile_with_values("u2", b, {"mu": 1.0})
    u6 = profile_with_values("u6", b, {})
    _profiles_agree(u2, u6)
    assert speed_value("u2", b, {"mu": 1.0}) == pytest.approx(
        -b / 2 - 1, abs=1e-14)


@pytest.mark.parametrize("b", (0.0, 1.0, 3.0))
def test_mixed_hyperbolic_degenerates_to_cosh_ratios(b):
    # at a2 = 1/(b+1) the root term vanishes: u7 becomes u3
    a2 = 1.0 / (b + 1.0)
    u7 = profile_with_values("u7", b, {"a2": a2})
    _profiles_agree(u7, profile_with_values("u3", b, {}))
    # at a2 = -1/(b+1) it becomes the singular ratio u4
    u7m = profile_with_values("u7", b, {"a2": -a2})
    u4 = profile_with_values("u4", b, {})
    _profiles_agree(u7m, u4, lo=0.5, hi=6.0)  # stay off the pole


@pytest.mark.parametrize("b", B_GRID)
def test_tanh_square_degenerates_to_pure_bell(b):
    # alpha = gamma = 0, beta = 1: discriminant 1, background aligns
    params = {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}
    ok, _ = is_valid("u20", b, params)
    assert ok
    u20 = profile_with_values("u20", b, params)
    u6 = profile_with_values("u6", b, {})
    _profiles_agree(u20, u6)
    assert speed_value("u20", b, params) == pytest.approx(-b / 2 - 1,
                                                          abs=1e-14)


# ---------------------------------------------------------------------
# speeds

def test_known_speeds():
    assert speed_value("u3", 3.0, {}) == pytest.approx(-1.5)
    assert speed_value("u6", 3.0, {}) == pytest.approx(-2.5)
    assert speed_value("u11", 2.0, {"beta": 0.7}) == pytest.approx(-3.0)
    # zero speed is admissible: slow bell at b = 0 has lam = 0
    assert speed_value("u1", 0.0, {"mu": 0.7}) == pytest.approx(0.0,
                                                                abs=1e-15)
    rep = verify_family("u1", 0.0, {"mu": 0.7})
    assert rep.passed


# ---------------------------------------------------------------------
# validity gating

def test_validity_checks():
    ok, bad = is_valid("u1", 3.0, {"mu": 0.0})
    assert not ok and any("mu" in s for s in bad)
    # quartic radical turns negative for wide mu at large b
    ok, bad = is_valid("u1", 3.0, {"mu": 1.4})
    assert not ok
    ok, bad = is_valid("u1", 3.0, {"mu": 0.9})
    assert ok
    # family degenerates at b = -1 and -2 regardless of parameters
    for b in (-1.0, -2.0):
        ok, bad = is_valid("u3", b, {})
        assert not ok and bad
    ok, _ = is_valid("u7", 1.0, {"a2": 0.1})   # (b+1)^2 a2^2 < 1
    assert not ok
    ok, _ = is_valid("u14", 1.0, {"alpha": 1.0, "gamma": -1.0})
    assert not ok
    ok, _ = is_valid("u22", 1.0, {"alpha": 1.0, "beta": 1.0,
                                  "gamma": 0.25})  # discriminant 0
    assert not ok


def test_parameter_names_enforced():
    with pytest.raises(ValueError, match="needs parameters"):
        is_valid("u1", 3.0, {})
    with pytest.raises(ValueError, match="does not take"):
        is_valid("u3", 3.0, {"mu": 1.0})


def test_admissibility_is_exact_and_refuses_nonfinite_values():
    # the radicand (b+1)^2 a2^2 - 1 is -2e-14 here, and exactly 0 at 1
    ok, bad = is_valid("u7", 0.0, {"a2": 0.99999999999999})
    assert not ok and bad == ["(b+1)^2 a2^2 - 1 >= 0"]
    assert is_valid("u7", 0.0, {"a2": 1.0}) == (True, [])
    # b(b+2) is past float range: the quartic radicand has no float value
    ok, bad = is_valid("u1", 1e200, {"mu": 0.5})
    assert not ok and bad == ["1 - b(b+2)(mu^4-1) >= 0"]
    with pytest.raises(ValueError, match=r"u1 .* b = 1e\+200"):
        draw_params("u1", np.random.default_rng(0), 1e200)


def test_draws_always_valid():
    # every admitted draw also has a finite coefficient-system map
    rng = np.random.default_rng(77)
    for fid in family_ids():
        for b in (-3.0, -2.5, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 10.0,
                  100.0, 1e4, 1e6):
            for _ in range(10):
                params = draw_params(fid, rng, b)
                ok, bad = is_valid(fid, b, params)
                assert ok, (fid, b, params, bad)
                env = ansatz.family_system_env(fid, b, params)
                assert all(math.isfinite(v) for v in env.values()), \
                    (fid, b, params)


# ---------------------------------------------------------------------
# singular points

def test_singular_points_examples():
    # sin-denominator family with unit product: zeros of sin(xi) in (0,4)
    pts = singular_points("u16", 0.0, {"alpha": 1.0, "gamma": 1.0},
                          (0.0, 4.0))
    assert len(pts) == 1
    assert pts[0] == pytest.approx(math.pi, abs=1e-8)

    # tangential pole of 1 - cosh at the origin
    pts = singular_points("u5", 3.0, {}, (-5.0, 5.0))
    assert len(pts) == 1 and abs(pts[0]) < 1e-7

    assert singular_points("u6", 3.0, {}, (-5.0, 5.0)) == []
    assert singular_points("u3", 3.0, {}, (-8.0, 8.0)) == []


def test_singular_points_shifted_bell_denominators():
    # negative c2 turns the denominator into 1 - cosh(xi - psi):
    # one tangential zero at the shift
    pts = singular_points("u9", 1.0, {"c2": -1.25}, (-8.0, 8.0))
    assert len(pts) == 1
    # positive c2 keeps it at 1 + cosh(xi - psi) >= 2
    assert singular_points("u9", 1.0, {"c2": 1.25}, (-8.0, 8.0)) == []


def test_singular_points_moving_pole_of_composite():
    # pole exists iff the tanh range crosses -beta/sqrt(D): alpha*gamma<0
    p_neg = {"alpha": 1.0, "beta": 0.5, "gamma": -0.2}   # a*g < 0
    assert len(singular_points("u22", 1.0, p_neg, (-8.0, 8.0))) == 1
    p_pos = {"alpha": 1.0, "beta": 1.2, "gamma": 0.11}   # a*g > 0
    assert singular_points("u22", 1.0, p_pos, (-8.0, 8.0)) == []


# ---------------------------------------------------------------------
# negative controls: the scan must reject wrong formulas

def test_circulated_u10_rendering_fails_equation():
    U_bad, lam = printed_u10()
    for b in (0.0, 3.0):
        env = {"b": b, "c2": 1.6}
        R = ode_residual(U_bad, modified_eq(b), lam)
        # exclude poles of the bad rendering's own denominator
        from mdpv.residual import find_zeros
        from mdpv.expr import Call
        # denominator zeros: scan the rendering's reciprocal structure
        excl = find_zeros(simplify(1 / U_bad), "xi", (-8, 8),
                          env={"c2": 1.6, "b": b})
        rep = scan(R, {"c2": 1.6, "b": b}, exclusions=excl)
        assert not rep.passed, (b, rep)
    # while the registry's rebuilt u10 passes at the same parameters
    rep_good = verify_family("u10", 3.0, {"c2": 1.6})
    assert rep_good.passed


COMPOSITE_PARAMS = {"alpha": 1.0, "beta": 0.8, "gamma": -0.1, "b": 1.0}


def _scan_composite(U, denoms):
    from mdpv.residual import find_zeros
    fam = family("u22")
    R = ode_residual(U, modified_eq(parse("b")), fam.speed)
    excl = []
    for d in denoms:
        excl.extend(find_zeros(d, "xi", (-8, 8), env=COMPOSITE_PARAMS))
    return scan(R, COMPOSITE_PARAMS, exclusions=excl)


def test_reflected_composite_also_solves():
    # the wave ODE is invariant under xi -> -xi
    fam = family("u22")
    reflect = {"xi": -parse("xi")}
    U = substitute_map(fam.profile, reflect)
    denoms = [substitute_map(d, reflect) for d in fam.singular_denoms]
    assert _scan_composite(U, denoms).passed


def test_corrupted_composite_fails_equation():
    # flipping the sign of the 1/phi term alone is a genuine corruption
    fam = family("u22")
    inv1 = parse("-12*(b+2)*alpha*beta*gamma / ((b+1)*(beta"
                 " + sqrt(beta^2 - 4*alpha*gamma)"
                 " * tanh(sqrt(beta^2 - 4*alpha*gamma)*xi/2)))")
    rep = _scan_composite(fam.profile - 2 * inv1, fam.singular_denoms)
    assert not rep.passed, rep
    # the true composite passes at identical parameters
    assert _scan_composite(fam.profile, fam.singular_denoms).passed
    rep_good = verify_family(
        "u22", 1.0, {"alpha": 1.0, "beta": 0.8, "gamma": -0.1})
    assert rep_good.passed


def test_families_fail_under_quadratic_convection():
    rep = verify_family("u3", 3.0, {}, variant="dp")
    assert not rep.passed
    rep = verify_family("u6", 3.0, {}, variant="dp")
    assert not rep.passed


def test_unknown_variant_raises():
    # a tag outside residual.VARIANTS names no equation to scan against
    with pytest.raises(KeyError):
        verify_family("u3", 3.0, {}, variant="xyz")


# ---------------------------------------------------------------------
# manifest

def test_manifest_round_trips():
    man = catalog_manifest()
    assert len(man) == 23
    for entry in man:
        assert set(entry) == {"family_id", "method", "description",
                              "parameters", "profile", "wave_speed",
                              "constraints", "singular_denominators"}
        assert entry["method"] in {"colehopf", "hyperbolic", "tanhcoth"}
        prof = parse(entry["profile"])
        allowed = {"xi", "b"} | set(entry["parameters"])
        assert free_symbols(prof) <= allowed
        parse(entry["wave_speed"])
        for d in entry["singular_denominators"]:
            parse(d)


def test_profile_with_values_binds_everything_but_xi():
    e = profile_with_values("u12", 1.0, {"beta": 0.5, "gamma": 1.0})
    assert free_symbols(e) == {"xi"}
