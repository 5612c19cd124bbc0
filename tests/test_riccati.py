"""Branch classification and verification for the quadratic ODE
phi' = alpha + beta phi + gamma phi^2.

Two oracles: (1) direct substitution -- every branch returned by
solution() must annihilate the ODE at sampled points away from poles;
(2) hand-computed closed forms for a few triples where the solution is
elementary.  The audit's pass/fail pattern over the circulated table is
itself frozen here: repairs are deliberate and must stay visible.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdpv import riccati
from mdpv.expr import evaluate, parse, pointwise_equal, simplify, sym
from mdpv.riccati import (
    AUDIT_SPECS, RiccatiSpec, audit_printed_forms, classify,
    ode_residual_of, printed_solution, solution, verify_branch,
)

XI = sym("xi")


# ---------------------------------------------------------------------
# classification

@pytest.mark.parametrize("triple,case", [
    ((0, 2, -1), "1"),
    ((0, 1, 0), "1"),      # gamma = 0 still matches the alpha = 0 branch
    ((0, 0, 5), "2"),
    ((1, 1, 0), "3"),
    ((2, 0, 0), "3"),      # linear-growth corner, no circulated entry
    ((1, 0, 1), "4a"),
    ((1, 0, -1), "4b"),
    ((-1, 0, 1), "4c"),
    ((-1, 0, -1), "4d"),
    ((1, 2, 1), "5"),      # discriminant zero beats the 6/7 split
    ((1, 1, 1), "6"),
    ((1, 3, 1), "7"),
    ((Fraction(1, 2), 0, Fraction(1, 2)), "4a"),
])
def test_classification_table(triple, case):
    assert classify(RiccatiSpec(*triple)) == case


def test_classification_rejects_zero_triple():
    with pytest.raises(ValueError):
        classify(RiccatiSpec(0, 0, 0))


def test_classification_priority_over_discriminant():
    # alpha = 0 with positive discriminant goes to case 1, not 7
    assert classify(RiccatiSpec(0, 2, -1)) == "1"
    # beta = 0 with negative discriminant goes to 4a, not 6
    assert classify(RiccatiSpec(1, 0, 1)) == "4a"


def test_discriminant_exact_for_fractions():
    s = RiccatiSpec(Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))
    assert s.discriminant == Fraction(4, 9) - Fraction(4, 9)
    assert classify(s) == "5"


# ---------------------------------------------------------------------
# hand-checked closed forms

def test_case2_explicit_value():
    br = solution(0, 0, 5)
    assert evaluate(br.phi, {"xi": 0.4}) == pytest.approx(-0.5, abs=1e-14)


def test_case1_reduces_to_pure_exponential_when_gamma_zero():
    br = solution(0, 2, 0)
    assert br.case_id == "1"
    assert pointwise_equal(br.phi, parse("exp(2*xi)"), {"xi": (-2, 2)})


def test_case3_gap_extension_is_linear():
    br = solution(3, 0, 0)
    assert br.case_id == "3" and not br.as_printed
    assert printed_solution(br.spec) is None
    assert pointwise_equal(br.phi, parse("3*xi"), {"xi": (-2, 2)})


def test_case4_collapse_of_general_tan_tanh_forms():
    # the beta = 0 corners must agree with the beta != 0 cases' formulas
    # evaluated at beta = 0 (the repaired signs make this consistent)
    br6 = solution(1, 0, 1)      # 4a; case-6 formula at beta=0
    general6 = parse("(sqrt(4*1*1)*tan(sqrt(4*1*1)*xi/2))/(2*1)")
    assert pointwise_equal(br6.phi, general6, {"xi": (-0.7, 0.7)})

    br7 = solution(1, 0, -1)     # 4b; repaired case-7 formula at beta=0
    # discriminant 0 - 4*1*(-1) = 4: -(0 + 2 tanh(xi)) / (2*(-1))
    general7 = parse("0 - (sqrt(4)*tanh(sqrt(4)*xi/2))/(2*(0-1))")
    assert pointwise_equal(br7.phi, general7, {"xi": (-2, 2)})


def test_case5_equals_partial_fraction_form():
    br = solution(1, 2, 1)
    alt = parse("-2/(2*1) - 1/(1*xi)")  # -beta/(2 gamma) - 1/(gamma xi)
    assert pointwise_equal(br.phi, alt, {"xi": (0.1, 3)})


# ---------------------------------------------------------------------
# verification oracle

@pytest.mark.parametrize("case,spec", sorted(AUDIT_SPECS.items()))
def test_every_representative_branch_verifies(case, spec):
    br = solution(spec)
    assert br.case_id == case
    rep = verify_branch(br)
    assert rep.passed, (case, rep)


def test_full_rational_grid_classifies_and_verifies():
    vals = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
            Fraction(1, 2), Fraction(1), Fraction(2)]
    specs = [t for t in product(vals, repeat=3) if any(t)]
    assert len(specs) == 342
    seen = set()
    for t in specs:
        br = solution(RiccatiSpec(*t))
        seen.add(br.case_id)
        rep = verify_branch(br, n=12, seed=11)
        assert rep.passed, (t, br.case_id, rep.max_abs_residual)
        # the table is transcribed once: an as-printed branch is the
        # circulated entry itself, except case 1's rewritten denominator
        if br.as_printed and br.case_id != "1":
            assert br.phi is simplify(printed_solution(br.spec)), t
    assert seen == {"1", "2", "3", "4a", "4b", "4c", "4d", "5", "6", "7"}


@given(st.fractions(min_value=-3, max_value=3),
       st.fractions(min_value=-3, max_value=3),
       st.fractions(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
# case 1 near a = 0, b = g: exp(-b*xi) rounds to 1 across the window
@example(0, 2**-57, 2**-57)
def test_random_rational_triples_verify(a, b, g):
    if not (a or b or g):
        return
    br = solution(RiccatiSpec(a, b, g))
    rep = verify_branch(br, n=10, seed=5)
    assert rep.passed, (a, b, g, br.case_id, rep.max_abs_residual)


def test_float_coefficients_supported():
    br = solution(0.3, 0.0, 0.7)
    assert br.case_id == "4a"
    assert verify_branch(br).passed


# ---------------------------------------------------------------------
# the audit of circulated forms: the pass/fail pattern is frozen

def test_audit_pattern():
    rows = {r["case"]: r for r in audit_printed_forms()}
    assert set(rows) == set(AUDIT_SPECS)

    good = {"1", "2", "3", "4a", "4c", "5", "6"}
    bad = {"4b", "4d", "7"}
    for case in good:
        r = rows[case]
        assert r["printed_passes"], case
        assert r["corrected_passes"], case
        if case != "3":  # the representative for 3 has beta != 0
            assert r["matches_printed"], case
    for case in bad:
        r = rows[case]
        assert not r["printed_passes"], case
        assert r["corrected_passes"], case
        assert not r["matches_printed"], case

    # 4b's circulated entry is complex-valued: no real residual exists
    assert rows["4b"]["max_residual_printed"] is None
    # 4d and 7 evaluate fine but do not solve the ODE
    assert rows["4d"]["max_residual_printed"] > 1.0
    assert rows["7"]["max_residual_printed"] > 0.1
    for case in good:
        assert rows[case]["max_residual_printed"] <= 1e-9 * 100
    # one measurement: where the branch is the printed entry, both forms
    # read the same residual
    for case in ("2", "3", "4a", "4c", "5", "6"):
        r = rows[case]
        assert r["max_residual_printed"] == r["max_residual_corrected"], case


def test_audit_draws_each_rows_points_once(monkeypatch):
    calls = []
    real = riccati._admissible_points

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(riccati, "_admissible_points", counted)
    audit_printed_forms()
    assert len(calls) == len(AUDIT_SPECS) == 10


def test_printed_and_corrected_differ_exactly_where_flagged():
    for case, spec in AUDIT_SPECS.items():
        br = solution(spec)
        printed = printed_solution(spec)
        if br.as_printed:
            assert printed is not None


def test_residual_expression_is_zero_for_known_solution():
    br = solution(0, 0, 5)
    R = ode_residual_of(br.phi, br.spec)
    vals = [evaluate(R, {"xi": x}) for x in np.linspace(0.2, 3, 7)]
    assert max(abs(v) for v in vals) < 1e-12
