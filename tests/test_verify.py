from __future__ import annotations

from fractions import Fraction

import pytest

from reflection_workbench.evaluation import pairing_series
from reflection_workbench.fusion import (
    GradedFamily,
    SeedSolution,
    fused_r,
)
from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    Transposition,
    embed_legs,
    identity_op,
    matrix_on_leg,
    op_chain,
    op_scale,
    orthogonal_transposition,
    symplectic_transposition,
    tensor_compose,
)
from reflection_workbench.rmatrix import RFamily, flip_p, yang_r, yang_r_bar
from reflection_workbench.verify import (
    check_characteristic,
    check_conjugate_re,
    check_fused_re,
    check_intertwiner,
    check_membership,
    check_pairing,
    check_quasi_inverse,
    check_re,
    check_rtt,
    check_tau_symmetry,
    check_ybe,
    first_witness,
)

SKEW = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
IDENTITY2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
SYMMETRIC_GENERIC = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(-3)))


def constant_solution(x, label):
    return matrix_on_leg(x, LegSpace(len(x), label))


@pytest.mark.parametrize("n", [2, 3])
def test_ybe_passes_for_yang_r(n):
    report = check_ybe(yang_r(n))
    assert report.passed
    assert report.witness is None


def test_ybe_fails_for_perturbed_r():
    # shifting the scalar part breaks the equation; witness is reproducible
    n = 2
    r = yang_r(n)
    report = check_ybe(r + identity_op(r.legs))
    assert not report.passed
    assert report.witness is not None
    assert report.witness["row"] == [1, 1, 2]
    assert report.witness["col"] == [1, 2, 1]
    assert report.witness["lhs"] != report.witness["rhs"]


def test_ybe_is_invariant_under_scaling():
    # c*R(u,v) = R(u/c, v/c) up to the overall factor, so a scaled flip
    # term still satisfies the equation; kept as a regression against
    # treating it as a negative control.
    r = yang_r(2)
    assert check_ybe(op_scale(r, 3)).passed
    doubled_p = op_scale(identity_op(r.legs), LaurentPoly.var("u") - LaurentPoly.var("v")) - op_scale(
        flip_p(2, "u", "v"), 2
    )
    assert check_ybe(doubled_p).passed


def test_ybe_passes_for_identity():
    ident = identity_op((LegSpace(2, "u"), LegSpace(2, "v")))
    assert check_ybe(ident).passed


def test_ybe_validates_labels():
    with pytest.raises(ValueError):
        check_ybe(identity_op((LegSpace(2), LegSpace(2))))


def test_quasi_inverse_check():
    n = 3
    r = yang_r(n)
    r_bar, zeta = yang_r_bar(n)
    assert check_quasi_inverse(r, r_bar, zeta).passed
    wrong = check_quasi_inverse(r, r_bar, zeta + 1)
    assert not wrong.passed
    assert wrong.witness["side"] == "r*r_bar"
    p = flip_p(2, "u", "v")
    assert check_quasi_inverse(p, p, LaurentPoly.const(1)).passed


@pytest.mark.parametrize(
    "t, row, col, lhs, rhs",
    [
        (orthogonal_transposition(2), [2, 1], [2, 2], "0", "v"),
        (symplectic_transposition(2), [1, 1], [2, 1], "u", "0"),
    ],
)
def test_tau_symmetry_fails_for_perturbed_r(t, row, col, lhs, rhs):
    r = yang_r(2)
    assert check_tau_symmetry(r, t).passed
    entries = dict(r.entries)
    entries[((1, 2), (2, 2))] = LaurentPoly.var("u")
    report = check_tau_symmetry(TensorOp(r.legs, entries), t)
    assert not report.passed
    assert report.witness == {"row": row, "col": col, "lhs": lhs, "rhs": rhs}


def test_tau_symmetry_fails_when_r_double_prime_differs(monkeypatch):
    # a site flip that doubles R' breaks R'' = R': the primes side fails
    # with a witness, both for the check and for the command line
    from reflection_workbench import cli, rmatrix

    monkeypatch.setattr(rmatrix, "site_permute", lambda op, sigma: op * 2)
    report = check_tau_symmetry(yang_r(2), orthogonal_transposition(2))
    assert not report.passed
    assert report.params["primes_coincide"] is False
    assert report.witness == {
        "row": [1, 1],
        "col": [1, 1],
        "lhs": "-2*u - 2*v - 2",
        "rhs": "-u - v - 1",
        "side": "primes",
    }
    assert cli.main(["check", "tau_symmetry", "--n", "2"]) == 1


def test_pairing_fails_past_the_series_order():
    series = pairing_series(2, 3)
    assert check_pairing(series, 3).passed
    report = check_pairing(series, 4)
    assert not report.passed
    assert report.witness == {
        "row": [1, 1],
        "col": [1, 1],
        "lhs": "w^4*z^-4",
        "rhs": "w^5*z^-5",
        "side": "cross_multiplied",
    }


def test_rtt_evaluation_representative():
    n = 2
    r = yang_r(n)
    t_op = yang_r(n, "u", "z", roles=("auxiliary", "quantum"))
    assert check_rtt(r, t_op).passed
    perturbed = t_op - flip_p(n, "u", "z", roles=("auxiliary", "quantum"))
    report = check_rtt(r, perturbed)
    assert not report.passed
    assert report.witness is not None


def test_rtt_identity_t():
    n = 2
    ident = identity_op((LegSpace(n, "u"),))
    assert check_rtt(yang_r(n), ident).passed


def test_rtt_rejects_label_clash():
    n = 2
    bad = yang_r(n, "u", "v")  # depends on v already
    with pytest.raises(ValueError):
        check_rtt(yang_r(n), bad)


@pytest.mark.parametrize(
    "x,kind",
    [
        (IDENTITY2, "orthogonal"),
        (SKEW, "orthogonal"),
        (SKEW, "symplectic"),
        (SYMMETRIC_GENERIC, "orthogonal"),
    ],
)
def test_re_constant_solutions_pass(x, kind):
    n = 2
    t = orthogonal_transposition(n) if kind == "orthogonal" else symplectic_transposition(n)
    fam = RFamily.build(n, t)
    report = check_re(fam, constant_solution(x, "u"), constant_solution(x, "v"))
    assert report.passed, report.witness


def test_re_fails_for_non_admissible_constant():
    n = 2
    fam = RFamily.build(n)
    bad = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    report = check_re(fam, constant_solution(bad, "u"), constant_solution(bad, "v"))
    assert not report.passed
    assert report.witness is not None


def test_re_swapped_labels_transport():
    # a family built at (v, u) accepts the same solution instances swapped
    n = 2
    fam_vu = RFamily.build(n, uvar="v", vvar="u")
    report = check_re(fam_vu, constant_solution(SKEW, "v"), constant_solution(SKEW, "u"))
    assert report.passed


def test_re_rejects_mismatched_layout():
    fam = RFamily.build(2)
    s1 = constant_solution(IDENTITY2, "u")
    s2 = constant_solution(IDENTITY2, "w")
    with pytest.raises(ValueError):
        check_re(fam, s1, s2)


def test_conjugate_re_identity_passes():
    fam = RFamily.build(2)
    report = check_conjugate_re(
        fam, constant_solution(IDENTITY2, "u"), constant_solution(IDENTITY2, "v")
    )
    assert report.passed


@pytest.mark.parametrize("x", [SYMMETRIC_GENERIC, SKEW])
def test_conjugate_re_recorded_verdicts(x):
    # not asserted by the source theory for R-bar; the verdict is frozen
    # from the expanded computation: constant (skew-)symmetric X passes.
    fam = RFamily.build(2)
    report = check_conjugate_re(fam, constant_solution(x, "u"), constant_solution(x, "v"))
    assert report.passed


def test_membership_of_fused_character():
    t = orthogonal_transposition(2)
    chi2 = GradedFamily.from_character(IDENTITY2, t, k_max=2).component(2)
    assert check_membership(chi2).passed
    chi3 = GradedFamily.from_character(SKEW, t, k_max=3).component(3)
    assert check_membership(chi3).passed


def test_membership_fails_for_plain_r_factor():
    # two bare sites holding R(u1,u2) itself do NOT satisfy the exchange
    # condition; the fused (2,1)-block below is the object that does.
    h = yang_r(2, "u1", "u2")
    report = check_membership(h)
    assert not report.passed


def test_membership_of_fused_block_is_ybe_in_disguise():
    h = fused_r(2, 1, 2)  # legs u1, u2, v1
    report = check_membership(h)
    assert report.passed


def test_membership_fails_for_asymmetric_diagonal():
    from reflection_workbench.kernel import tensor_product

    d1 = matrix_on_leg(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))), LegSpace(2, "u1")
    )
    d2 = matrix_on_leg(
        ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(5))), LegSpace(2, "u2")
    )
    report = check_membership(tensor_product(d1, d2))
    assert not report.passed


def test_membership_requires_two_aux_legs():
    with pytest.raises(ValueError):
        check_membership(matrix_on_leg(IDENTITY2, LegSpace(2, "u1")))


@pytest.mark.parametrize("x,kind", [(IDENTITY2, "orthogonal"), (SKEW, "symplectic")])
def test_characteristic_partitions(x, kind):
    n = 2
    t = orthogonal_transposition(n) if kind == "orthogonal" else symplectic_transposition(n)
    fam = RFamily.build(n, t)
    family = GradedFamily.from_character(x, t, k_max=3)
    for k in range(0, 4):
        for i in range(0, k + 1):
            report = check_characteristic(family, fam, k, i)
            assert report.passed, (k, i, report.witness)


def test_characteristic_unprimed_middle_fails():
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    report = check_characteristic(family, fam, 2, 1, primed_middle=False)
    assert not report.passed
    assert report.witness is not None


@pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_fused_re_for_characters(k, m):
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    report = check_fused_re(family, fam, k, m)
    assert report.passed, report.witness


def test_fused_re_symplectic_character():
    t = symplectic_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(SKEW, t, k_max=2)
    report = check_fused_re(family, fam, 2, 2)
    assert report.passed, report.witness


@pytest.mark.parametrize("x", [IDENTITY2, SKEW])
def test_intertwiner_passes(x):
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(x, t, k_max=1)
    report = check_intertwiner(family, fam, 4, 1, 1)
    assert report.passed, report.witness
    assert report.params["order_checked"] == 4


def test_intertwiner_order_zero_vacuous():
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=1)
    report = check_intertwiner(family, fam, 0, 1, 1)
    assert report.passed
    assert report.params["order_checked"] == 0


def test_intertwiner_fails_for_non_character():
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    bad = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    seed = SeedSolution(matrix_on_leg(bad, LegSpace(2, "u")), t)
    family = GradedFamily.from_seed(seed, k_max=1)
    report = check_intertwiner(family, fam, 2, 1, 1)
    assert not report.passed
    assert report.witness is not None


MISMATCHED_CHECKS = {
    "fused_re": lambda chi, fam: check_fused_re(chi, fam, 1, 1),
    "intertwiner": lambda chi, fam: check_intertwiner(chi, fam, 2, 1, 1),
    "characteristic": lambda chi, fam: check_characteristic(chi, fam, 2, 1),
}
MISMATCHED_FORMS = {
    # the reported case: orthogonal R-matrices, symplectic components
    "sign": (orthogonal_transposition(2), symplectic_transposition(2), IDENTITY2),
    "g": (orthogonal_transposition(2), Transposition(SYMMETRIC_GENERIC), IDENTITY2),
    "n": (orthogonal_transposition(3), orthogonal_transposition(2), IDENTITY2),
}


@pytest.mark.parametrize("form", sorted(MISMATCHED_FORMS))
@pytest.mark.parametrize("check", sorted(MISMATCHED_CHECKS))
def test_fused_checks_refuse_two_forms(check, form):
    fam_t, chi_t, x = MISMATCHED_FORMS[form]
    fam = RFamily.build(fam_t.n, fam_t)
    chi = GradedFamily.from_character(x, chi_t, k_max=2)
    with pytest.raises(ValueError, match="is not the R-matrix family's"):
        MISMATCHED_CHECKS[check](chi, fam)


def test_report_json_shape():
    report = check_ybe(yang_r(2))
    data = report.to_json()
    assert set(data) == {"name", "params", "passed", "witness"}
    assert data["witness"] is None
    assert data["passed"] is True


def test_first_witness_counts_an_entry_stored_on_one_side():
    legs = (LegSpace(2, "u"),)
    whole = identity_op(legs)
    missing = TensorOp(legs, {((1,), (1,)): LaurentPoly.const(1)})
    assert first_witness(whole, whole) is None
    assert first_witness(whole, missing) == {
        "row": [2], "col": [2], "lhs": "1", "rhs": "0"
    }
    assert first_witness(missing, whole)["lhs"] == "0"


def test_first_witness_is_the_least_differing_row_then_col():
    legs = (LegSpace(2, "u"), LegSpace(2, "v"))
    one = LaurentPoly.const(1)
    # differs at ((2,1),(1,1)), ((1,2),(2,1)) and ((1,2),(1,1)); agrees at ((1,2),(2,2))
    lhs = TensorOp(legs, {((2, 1), (1, 1)): one, ((1, 2), (2, 1)): one, ((1, 2), (2, 2)): one})
    rhs = TensorOp(legs, {((1, 2), (1, 1)): one, ((1, 2), (2, 2)): one})
    found = first_witness(lhs, rhs)
    assert (found["row"], found["col"]) == ([1, 2], [1, 1])
    assert (found["lhs"], found["rhs"]) == ("0", "1")


def test_first_witness_rejects_a_leg_mismatch():
    with pytest.raises(ValueError, match="leg layout"):
        first_witness(identity_op((LegSpace(2, "u"),)), identity_op((LegSpace(2, "v"),)))


def test_op_chain_of_no_factors_is_the_identity():
    legs = (LegSpace(2, "u"), LegSpace(3, "v"))
    assert op_chain(legs, []) == identity_op(legs)


def test_op_chain_composes_in_the_listed_order():
    ambient = (LegSpace(2, "u"), LegSpace(2, "v"), LegSpace(2, "w"))
    r = (yang_r(2, "u", "v"), (1, 2))
    p = (flip_p(2, "v", "w"), (2, 3))
    rp = op_chain(ambient, [r, p])
    assert rp == tensor_compose(embed_legs(*r, ambient), embed_legs(*p, ambient))
    assert rp != op_chain(ambient, [p, r])
