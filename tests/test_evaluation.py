"""Tests for the evaluation images and their relation checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflection_workbench.evaluation import (
    DoubleEval,
    build_twisted_s,
    check_double_relations,
    coaction_image,
    eval_double,
    eval_t,
    pairing_series,
)
from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    embed_legs,
    extract_entry,
    identity_op,
    matrix_on_leg,
    op_scale,
    op_substitute,
    orthogonal_transposition,
    symplectic_transposition,
)
from reflection_workbench.rmatrix import flip_p, yang_r, zeta_factor
from reflection_workbench.verify import check_quasi_inverse, check_re, check_rtt

SKEW = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
IDENTITY2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

QUANTUM_ROLES = ("auxiliary", "quantum")


def u_minus_z():
    return LaurentPoly.var("u") - LaurentPoly.var("z")


# -- eval_t ------------------------------------------------------------------


def test_eval_t_shape_and_rtt():
    t_op = eval_t(2)
    assert t_op.legs == (LegSpace(2, "u", "auxiliary"), LegSpace(2, "z", "quantum"))
    assert check_rtt(yang_r(2), t_op).passed


def test_eval_t_diagonal_entry():
    t_op = eval_t(2)
    expected = u_minus_z() - 1
    assert extract_entry(t_op, (1, 1), (1, 1)) == expected
    assert str(extract_entry(t_op, (1, 1), (1, 1))) == "u - z - 1"


def test_eval_t_cross_multiplies_to_cleared_form():
    t_op = eval_t(3)
    cleared = op_scale(identity_op(t_op.legs), u_minus_z()) - flip_p(
        3, "u", "z", QUANTUM_ROLES
    )
    assert t_op == cleared


def test_eval_t_rejects_variable_clash():
    with pytest.raises(ValueError, match="differ"):
        eval_t(2, "z", "z")


def test_eval_t_at_zero_point_still_passes_rtt():
    pinned = op_substitute(eval_t(2), {"z": 0})
    assert pinned.legs[1].spectral_var is None
    assert check_rtt(yang_r(2), pinned).passed


def test_check_rtt_fails_for_non_rtt_operator():
    # the identity is reported by check_rtt, with a witness
    bad = eval_t(2) - flip_p(2, "u", "z", QUANTUM_ROLES)
    report = check_rtt(yang_r(2), bad)
    assert not report.passed
    assert report.witness == {
        "row": [1, 1, 2],
        "col": [1, 2, 1],
        "lhs": "-2*u^2 + 2*u*v + 2*u*z + 2*u - 2*v*z - 2*z",
        "rhs": "-2*u^2 + 2*u*v + 2*u*z + 4*u - 2*v*z - 2*v - 2*z",
    }


# -- build_twisted_s ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,kind",
    [(2, "orthogonal"), (3, "orthogonal"), (2, "symplectic")],
)
def test_build_twisted_s_passes_re(n, kind):
    t = (
        orthogonal_transposition(n)
        if kind == "orthogonal"
        else symplectic_transposition(n)
    )
    from reflection_workbench.rmatrix import RFamily

    s1 = build_twisted_s(eval_t(n), t)
    s2 = op_substitute(s1, {"u": "v"})
    assert check_re(RFamily.build(n, t), s1, s2).passed


def test_build_twisted_s_degenerate_scalar():
    # dropping the flip part leaves a scalar operator, and scalars
    # trivially satisfy the reflection equation
    from reflection_workbench.rmatrix import RFamily

    legs = (LegSpace(2, "u"), LegSpace(2, "z", "quantum"))
    t = orthogonal_transposition(2)
    twisted = build_twisted_s(op_scale(identity_op(legs), u_minus_z()), t)
    scalar = (LaurentPoly.const(-1) * LaurentPoly.var("u") - LaurentPoly.var("z")) * (
        u_minus_z()
    )
    assert twisted == op_scale(identity_op(legs), scalar)
    s2 = op_substitute(twisted, {"u": "v"})
    assert check_re(RFamily.build(2, t), twisted, s2).passed


def test_build_twisted_s_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        build_twisted_s(eval_t(2), orthogonal_transposition(3))


# -- eval_double -------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_eval_double_quasi_inverse(n):
    d = eval_double(n)
    assert check_quasi_inverse(d.l_plus, d.l_minus, zeta_factor("u", "z")).passed


def test_eval_double_relabel_commutes():
    relabelled = op_substitute(eval_double(2).l_plus, {"z": "w"})
    assert relabelled == eval_double(2, "u", "w").l_plus


def test_l_plus_series_matches_truncated_expansion():
    # (u - z) * [Id + sum_{k<=K} u^k z^(-k-1) P] telescopes to l_plus
    # plus the single boundary term u^(K+1) z^(-K-1) P
    K = 5
    d = eval_double(2)
    p = flip_p(2, "u", "z", QUANTUM_ROLES)
    series = identity_op(d.l_plus.legs)
    for k in range(K + 1):
        series = series + op_scale(p, LaurentPoly(("u", "z"), {(k, -k - 1): 1}))
    residue = op_scale(series, u_minus_z()) - d.l_plus
    assert residue == op_scale(p, LaurentPoly(("u", "z"), {(K + 1, -K - 1): 1}))


@pytest.mark.parametrize("n", [2, 3])
def test_double_relations_pass(n):
    report = check_double_relations(eval_double(n))
    assert report.passed
    assert report.params["verdicts"] == {
        "minus_minus": True,
        "plus_plus": True,
        "cross": True,
    }
    assert report.witness is None


def test_double_relations_fail_for_perturbed_minus():
    # doubling the flip part of l_minus breaks both relations that
    # involve it; the relation among the two l_plus copies never sees
    # l_minus and must keep passing
    d = eval_double(2)
    bad_minus = d.l_minus + flip_p(2, "u", "z", QUANTUM_ROLES)
    broken = DoubleEval(d.l_plus, bad_minus, d.denom_plus, d.denom_minus)
    report = check_double_relations(broken)
    assert not report.passed
    assert report.params["verdicts"] == {
        "minus_minus": False,
        "plus_plus": True,
        "cross": False,
    }
    assert report.witness is not None
    assert report.witness["side"] == "minus_minus"
    assert report.witness["lhs"] != report.witness["rhs"]


def test_check_quasi_inverse_on_the_double_pair():
    # the constructor validates legs and labels only; the quasi-inverse
    # law is reported by check_quasi_inverse, with a witness
    d = eval_double(2)
    zeta = zeta_factor("u", "z")
    assert check_quasi_inverse(d.l_plus, d.l_minus, zeta).passed
    bad_minus = d.l_minus + flip_p(2, "u", "z", QUANTUM_ROLES)
    broken = DoubleEval(d.l_plus, bad_minus, d.denom_plus, d.denom_minus)
    report = check_quasi_inverse(broken.l_plus, broken.l_minus, zeta)
    assert not report.passed
    assert report.witness == {
        "row": [1, 1],
        "col": [1, 1],
        "lhs": "u^2 - 2*u*z + u + z^2 - z - 2",
        "rhs": "u^2 - 2*u*z + z^2 - 1",
        "side": "r*r_bar",
    }


# -- pairing_series ----------------------------------------------------------


def test_pairing_leading_term():
    expected = identity_op((LegSpace(2, "z"), LegSpace(2, "w"))) - op_scale(
        flip_p(2, "z", "w"), LaurentPoly.var("z", -1)
    )
    assert pairing_series(2, 0) == expected


def test_pairing_coefficients_are_minus_flip_at_every_order():
    K = 5
    series = pairing_series(2, K)
    geometric = LaurentPoly.zero(("w", "z"))
    for k in range(K + 1):
        geometric = geometric + LaurentPoly(("z", "w"), {(-k - 1, k): 1})
    assert extract_entry(series, (1, 2), (2, 1)) == -geometric
    assert extract_entry(series, (1, 1), (1, 1)) == LaurentPoly.const(1) - geometric
    assert extract_entry(series, (1, 2), (1, 2)) == LaurentPoly.const(1)


def test_pairing_cross_multiplied_oracle():
    K = 3
    series = pairing_series(2, K)
    z_minus_w = LaurentPoly.var("z") - LaurentPoly.var("w")
    p = flip_p(2, "z", "w")
    target = op_scale(identity_op(series.legs), z_minus_w) - p
    residue = op_scale(series, z_minus_w) - target
    assert residue == op_scale(p, LaurentPoly(("z", "w"), {(-K - 1, K + 1): 1}))


@settings(max_examples=20, deadline=None)
@given(K=st.integers(min_value=0, max_value=6))
def test_pairing_truncation_is_stable(K):
    longer = pairing_series(2, K + 1)
    shorter = pairing_series(2, K)
    step = op_scale(flip_p(2, "z", "w"), LaurentPoly(("z", "w"), {(-K - 2, K + 1): 1}))
    assert longer == shorter - step


def test_pairing_rejects_negative_order():
    with pytest.raises(ValueError, match=">= 0"):
        pairing_series(2, -1)


# -- coaction_image ----------------------------------------------------------


def test_coaction_on_trivial_solution_reproduces_twisted_s():
    t_op = eval_t(2)
    t = orthogonal_transposition(2)
    coeff = LegSpace(2, None, "quantum")
    trivial = identity_op((LegSpace(2, "u"), coeff))
    image = coaction_image(trivial, t_op, t)
    ambient = (LegSpace(2, "u"), coeff, t_op.legs[1])
    assert image == embed_legs(build_twisted_s(t_op, t), (1, 3), ambient)


@pytest.mark.parametrize(
    "x,kind",
    [(IDENTITY2, "orthogonal"), (SKEW, "orthogonal"), (SKEW, "symplectic")],
)
def test_coaction_image_passes_re(x, kind):
    from reflection_workbench.rmatrix import RFamily

    t = (
        orthogonal_transposition(2)
        if kind == "orthogonal"
        else symplectic_transposition(2)
    )
    image = coaction_image(matrix_on_leg(x, LegSpace(2, "u")), eval_t(2), t)
    second = op_substitute(image, {"u": "v"})
    assert check_re(RFamily.build(2, t), image, second).passed


def test_coaction_with_degenerate_rep_is_scalar_multiple():
    legs = (LegSpace(2, "u"), LegSpace(2, "z", "quantum"))
    t_op = op_scale(identity_op(legs), u_minus_z())
    t = orthogonal_transposition(2)
    s = matrix_on_leg(SKEW, LegSpace(2, "u"))
    image = coaction_image(s, t_op, t)
    scalar = (LaurentPoly.const(-1) * LaurentPoly.var("u") - LaurentPoly.var("z")) * (
        u_minus_z()
    )
    ambient = s.legs + (t_op.legs[1],)
    assert image == op_scale(embed_legs(s, (1,), ambient), scalar)


def test_coaction_rejects_label_collision():
    t = orthogonal_transposition(2)
    clashing = identity_op((LegSpace(2, "u"), LegSpace(2, "z")))
    with pytest.raises(ValueError, match="collides"):
        coaction_image(clashing, eval_t(2), t)


def test_coaction_rejects_mismatched_auxiliary_label():
    t = orthogonal_transposition(2)
    with pytest.raises(ValueError, match="does not match"):
        coaction_image(matrix_on_leg(IDENTITY2, LegSpace(2, "x")), eval_t(2), t)
