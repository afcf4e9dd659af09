from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packed_oracle import packed_row
from reflection_workbench import evaluation, kernel, verify
from reflection_workbench.evaluation import (
    DoubleEval,
    check_double_relations,
    eval_double,
    pairing_series,
)
from reflection_workbench.fusion import (
    GradedFamily,
    SeedSolution,
    fused_r,
    fused_r_prime_flipped,
)
from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    Transposition,
    column_product,
    embed_legs,
    extract_entry,
    identity_op,
    matrix_on_leg,
    op_chain,
    op_scale,
    op_substitute,
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
    compare_sides,
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


def diagonal_product(diagonals, labels):
    """diag(d1) on a leg labelled labels[0] times diag(d2) on one labelled
    labels[1] ..., each leg two-dimensional, built by op_chain on disjoint
    targets."""
    factors = [
        matrix_on_leg(((Fraction(a), Fraction(0)), (Fraction(0), Fraction(b))), LegSpace(2, label))
        for (a, b), label in zip(diagonals, labels)
    ]
    ambient = tuple(op.legs[0] for op in factors)
    return op_chain(ambient, [(op, (i,)) for i, op in enumerate(factors, start=1)])


def test_tau_symmetry_fails_when_r_double_prime_differs(monkeypatch):
    # a site flip that doubles R' breaks R'' = R': the primes side fails
    # with a witness, both for the check and for the command line
    from reflection_workbench import cli, rmatrix

    monkeypatch.setattr(rmatrix, "site_flip", lambda op: op * 2)
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


@pytest.mark.parametrize("order", [True, 2.0, -1])
def test_pairing_refuses_a_bad_order(order):
    """A negative order would be reported as a FAIL with orders_checked 0,
    and True would be checked as order 1."""
    text = f"truncation order must be an integer >= 0, got {order!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_pairing(pairing_series(2, 1), order)


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


def coefficient_solution(label, coeff_label):
    """A solution with one coefficient leg: R(label, coeff_label) with the
    second leg quantum."""
    return yang_r(2, label, coeff_label, roles=("auxiliary", "quantum"))


IDENTITY3 = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))

# targets for the two legs of yang_r(2) that _transposed refuses
BAD_TARGETS = {"targets_repeated": (1, 1), "targets_zero": (0, 2), "targets_beyond": (2, 3)}

MISMATCHED_LAYOUTS = {
    "re_label": lambda: check_re(
        RFamily.build(2), constant_solution(IDENTITY2, "u"), constant_solution(IDENTITY2, "w")
    ),
    "re_dimension": lambda: check_re(
        RFamily.build(2), constant_solution(IDENTITY2, "u"), constant_solution(IDENTITY3, "v")
    ),
    "re_coefficient_block": lambda: check_re(
        RFamily.build(2), coefficient_solution("u", "z"), coefficient_solution("v", "y")
    ),
    "rtt_label": lambda: check_rtt(yang_r(2), coefficient_solution("w", "z")),
    "rtt_dimension": lambda: check_rtt(
        yang_r(2), yang_r(3, "u", "z", roles=("auxiliary", "quantum"))
    ),
    "rtt_no_legs": lambda: check_rtt(yang_r(2), TensorOp((), {((), ()): LaurentPoly.var("u")})),
    "quasi_inverse_dimension": lambda: check_quasi_inverse(yang_r(2), *yang_r_bar(3)),
    "quasi_inverse_label": lambda: check_quasi_inverse(yang_r(2), *yang_r_bar(2, "u", "w")),
    **{
        case: lambda targets=targets: compare_sides(
            yang_r(2).legs, [("", [(yang_r(2), targets)], [])]
        )
        for case, targets in BAD_TARGETS.items()
    },
}


# refusals whose text names both of the legs that disagree
MISMATCH_TEXTS = {
    "rtt_label": "t_op's auxiliary leg is labelled 'w', not 'u' as R's first leg",
    **{
        case: f"targets {targets} are not distinct positions 1..2"
        for case, targets in BAD_TARGETS.items()
    },
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_LAYOUTS))
def test_mismatched_layouts_are_refused_before_any_column(case, monkeypatch):
    """A solution, T or partner whose legs disagree with the R-matrix's, or
    a factor at repeated or out-of-range targets, is a ValueError while the
    sides are stated, before any column is built."""
    columns = []

    def counting(*args):
        columns.append(args)
        return column_product(*args)

    monkeypatch.setattr(verify, "column_product", counting)
    with pytest.raises(ValueError) as refused:
        MISMATCHED_LAYOUTS[case]()
    assert columns == []
    if case in MISMATCH_TEXTS:
        assert str(refused.value) == MISMATCH_TEXTS[case]


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


def test_tau_symmetry_places_an_unlabelled_r_as_it_is():
    # R_21 of the unlabelled diag(1,2) x diag(3,5) is diag(3,5) x diag(1,2)
    t = orthogonal_transposition(2)
    report = check_tau_symmetry(diagonal_product([(1, 2), (3, 5)], [None, None]), t)
    assert not report.passed
    assert report.params["primes_coincide"] is False
    assert report.witness == {"row": [1, 2], "col": [1, 2], "lhs": "5", "rhs": "6"}
    with pytest.raises(ValueError, match="labelled leg onto an unlabelled position"):
        check_tau_symmetry(flip_p(2, "u", None), t)


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
    report = check_membership(diagonal_product([(1, 2), (3, 5)], ["u1", "u2"]))
    assert not report.passed
    assert report.witness == {
        "row": [1, 2], "col": [1, 2], "lhs": "5*u1 - 5*u2", "rhs": "6*u1 - 6*u2", "side": "i=1"
    }


def test_membership_witness_at_exchanged_targets():
    # i=1 passes, so the witness comes from sigma_{2,3}(h) at targets (1, 3, 2)
    report = check_membership(diagonal_product([(1, 2), (1, 2), (3, 5)], ["u1", "u2", "u3"]))
    assert not report.passed
    assert report.witness == {
        "row": [1, 1, 2],
        "col": [1, 1, 2],
        "lhs": "5*u2 - 5*u3",
        "rhs": "6*u2 - 6*u3",
        "side": "i=2",
    }


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


@pytest.mark.parametrize(
    "k, i, text",
    [
        (2, True, "i must be an integer >= 0, got True"),
        (2, 1.0, "i must be an integer >= 0, got 1.0"),
        (2.0, 1, "k must be an integer >= 0, got 2.0"),
        (True, 0, "k must be an integer >= 0, got True"),
    ],
)
def test_characteristic_refuses_a_non_int_partition(k, i, text):
    """A bool or float k or i would pass the range test and be reported
    in params as it is."""
    t = orthogonal_transposition(2)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_characteristic(family, RFamily.build(2, t), k, i)


def test_characteristic_unprimed_middle_fails():
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    report = check_characteristic(family, fam, 2, 1, primed_middle=False)
    assert not report.passed
    assert report.witness is not None


@pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)])
def test_fused_re_for_characters(k, m):
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=3)
    report = check_fused_re(family, fam, k, m)
    assert report.passed, report.witness


def test_fused_re_symplectic_character():
    t = symplectic_transposition(2)
    fam = RFamily.build(2, t)
    family = GradedFamily.from_character(SKEW, t, k_max=3)
    for k, m in [(2, 2), (3, 1), (1, 3)]:
        report = check_fused_re(family, fam, k, m)
        assert report.passed, (k, m, report.witness)


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


@pytest.mark.parametrize("block", [(1, 1), (2, 1)])
@pytest.mark.parametrize("K", [True, 1.5, -1])
def test_intertwiner_refuses_a_bad_truncation_order(K, block):
    """K is refused before the slack k(k-1)/2 is added to it: at k = 2,
    K = -1 would otherwise reach breve_r_series as 0 and pass."""
    t = orthogonal_transposition(2)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    text = f"truncation order must be an integer >= 0, got {K!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_intertwiner(family, RFamily.build(2, t), K, *block)


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


# -- the column engine against the whole-operator path --------------------------


def first_witness(lhs, rhs):
    """The lexicographically first (row, col) where two whole operators
    differ, with both entries rendered, or None when every entry agrees.
    An entry stored on one side only counts as a difference; the leg
    layouts must match."""
    if lhs.legs != rhs.legs:
        raise ValueError("leg layout mismatch")
    differing = [
        key
        for key in lhs.entries.keys() | rhs.entries.keys()
        if lhs.entries.get(key) != rhs.entries.get(key)
    ]
    if not differing:
        return None
    row, col = min(differing)
    return {
        "row": list(row),
        "col": list(col),
        "lhs": str(extract_entry(lhs, row, col)),
        "rhs": str(extract_entry(rhs, row, col)),
    }


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


def whole_operator_compare(ambient, sides, keep=None):
    """compare_sides as it was stated before the column engine: each side is
    the op_chain of its factors, filtered by keep, and first_witness finds
    the least differing entry."""
    verdicts = {}
    witness = None
    for label, lhs, rhs in sides:
        lhs, rhs = op_chain(ambient, lhs), op_chain(ambient, rhs)
        if keep is not None:
            lhs, rhs = (
                TensorOp(op.legs, {key: poly.filtered(keep) for key, poly in op.entries.items()})
                for op in (lhs, rhs)
            )
        found = first_witness(lhs, rhs)
        verdicts[label] = found is None
        if found is not None and witness is None:
            witness = dict(found, side=label) if label else found
    return verdicts, witness


# +-1, so that products often cancel, or a Fraction of denominator 1..4 and
# numerator up to 5 of either sign, so that factors carry lcds > 1
COEFFICIENTS = st.one_of(
    st.sampled_from([-1, 1]),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
)


KEEPS = {
    "none": None,
    "total degree <= 0": lambda exps: sum(exps.values()) <= 0,
    "no inverse u": lambda exps: exps.get("u", 0) >= 0,
}


@st.composite
def factor_problems(draw):
    """An ambient of 1-3 labelled legs of dimension 2-3 and 1-2 sides of
    1-4 random factors each.  Entries have at most two terms with
    exponents in -3..3 and COEFFICIENTS, so products often cancel and
    reach the edge of the digit box, and factors scale by lcds > 1; a
    right half is sometimes the left half again, so sides also pass."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    ambient = tuple(LegSpace(d, label) for d, label in zip(dims, "uvw"))
    labels = tuple(leg.spectral_var for leg in ambient)
    polys = st.dictionaries(
        st.tuples(*(st.integers(-3, 3) for _ in labels)), COEFFICIENTS, max_size=2
    ).map(lambda terms: LaurentPoly(labels, terms))

    def factor():
        order = draw(st.permutations(range(1, len(ambient) + 1)))
        targets = tuple(order[: draw(st.integers(1, len(ambient)))])
        legs = tuple(ambient[p - 1] for p in targets)
        index = st.tuples(*(st.integers(1, leg.dim) for leg in legs))
        entries = draw(st.dictionaries(st.tuples(index, index), polys, max_size=6))
        return TensorOp(legs, entries), targets

    def half():
        return [factor() for _ in range(draw(st.integers(1, 4)))]

    sides = []
    for label in draw(st.sampled_from([[""], ["a", "b"]])):
        lhs = half()
        sides.append((label, lhs, lhs if draw(st.booleans()) else half()))
    return ambient, sides


@settings(max_examples=150, deadline=None)
@given(factor_problems(), st.sampled_from(sorted(KEEPS)))
def test_column_engine_matches_the_whole_operator_path(problem, keep_name):
    ambient, sides = problem
    keep = KEEPS[keep_name]
    assert compare_sides(ambient, sides, keep) == whole_operator_compare(ambient, sides, keep)


def test_column_engine_keeps_the_least_row_across_columns():
    # column 1 differs at row 2 and column 2 at row 1: the least (row, col)
    # is ((1,), (2,)), in a later column than the first difference
    ambient = (LegSpace(2, "u"),)
    u = LaurentPoly.var("u")
    lhs = TensorOp(ambient, {((2,), (1,)): u, ((1,), (2,)): u})
    sides = [("", [(lhs, (1,))], [(TensorOp(ambient, {}), (1,))])]
    verdicts, witness = compare_sides(ambient, sides)
    assert verdicts == {"": False}
    assert witness == {"row": [1], "col": [2], "lhs": "u", "rhs": "0"}
    assert (verdicts, witness) == whole_operator_compare(ambient, sides)


def row_ints(monkeypatch):
    """Record the row of ints that each column_product call returns."""
    rows = []

    def recording(*args):
        rows.append(column_product(*args))
        return rows[-1]

    monkeypatch.setattr(verify, "column_product", recording)
    return rows


def test_column_engine_keys_hold_exponents_on_the_edge_of_the_box(monkeypatch):
    # every factor reaches |e_u| = 2 and each side is two factors, so the
    # box runs over u^-4..u^4 (9 positions) and v^0..v^1; with digits of
    # cb = 4 bits (the bound is 4), x^e sits at bit 4 * (e_u + 4 + 9 e_v).
    # A v-stride of 8, one narrower, puts u^-4*v on u^4, and the two
    # sides would be the same int.
    ambient = (LegSpace(2, "u"),)
    u, v, inv_u = LaurentPoly.var("u"), LaurentPoly.var("v"), LaurentPoly.var("u", -1)
    f = TensorOp(ambient, {((1,), (1,)): u**2 + inv_u**2})
    g = TensorOp(ambient, {((1,), (1,)): inv_u**2})
    h = TensorOp(ambient, {((1,), (1,)): inv_u**2 * v + inv_u**2 + 2 * u**2})
    sides = [("", [(f, (1,)), (f, (1,))], [(g, (1,)), (h, (1,))])]
    rows = row_ints(monkeypatch)
    verdicts, witness = compare_sides(ambient, sides)
    assert verdicts == {"": False}
    assert witness == {
        "row": [1], "col": [1], "lhs": "u^4 + 2 + u^-4", "rhs": "2 + u^-4*v + u^-4"
    }
    assert (verdicts, witness) == whole_operator_compare(ambient, sides)

    def at(v_stride, *positions):
        return sum(c << 4 * (e_u + 4 + v_stride * e_v) for c, e_u, e_v in positions)

    # (coefficient, e_u, e_v) of each term; the two sides share two
    lhs = ((1, 4, 0), (2, 0, 0), (1, -4, 0))
    rhs = ((1, -4, 1), (2, 0, 0), (1, -4, 0))
    assert rows == [{(1,): at(9, *lhs)}, {(1,): at(9, *rhs)}]
    assert at(8, *lhs) == at(8, *rhs)


def test_column_engine_digits_hold_the_bound_exactly(monkeypatch):
    # the left half is diag(3, 1) diag(5, 1) and the right half
    # diag((u - 2)/2, 1), of lcd 2: the left row 1 starts at 2 and reaches
    # 2 * 3 * 5 = 30 with no cancellation, which is the bound B, so the
    # digits take cb = 6 bits (2^5 > 30 >= 2^4).  The right half's entry
    # is u - 2 at x = 2^6.  With 5-bit digits it would be 2^5 - 2 = 30,
    # the left int, though 15 is not u/2 - 1.
    leg = LegSpace(2, "u")
    u = LaurentPoly.var("u")
    three = matrix_on_leg(((3, 0), (0, 1)), leg)
    five = matrix_on_leg(((5, 0), (0, 1)), leg)
    half = TensorOp((leg,), {((1,), (1,)): (u - 2) * Fraction(1, 2), ((2,), (2,)): u**0})
    sides = [("", [(three, (1,)), (five, (1,))], [(half, (1,))])]
    rows = row_ints(monkeypatch)
    verdicts, witness = compare_sides((leg,), sides)
    assert verdicts == {"": False}
    assert witness == {"row": [1], "col": [1], "lhs": "15", "rhs": "1/2*u - 1"}
    assert (verdicts, witness) == whole_operator_compare((leg,), sides)
    assert rows == [{(1,): 30}, {(1,): (1 << 6) - 2}]
    assert (1 << 5) - 2 == rows[0][(1,)]


@settings(max_examples=100, deadline=None)
@given(factor_problems(), st.data())
def test_kronecker_rows_match_the_packed_oracle(problem, data):
    """Every entry of a row, decoded from its int, is the entry that the
    packed sparse row product (tests/packed_oracle.py) computes."""
    ambient, sides = problem
    context = tuple(sorted({v for _, lhs, rhs in sides for op, _ in lhs + rhs
                            for v in op.variables} | {leg.spectral_var for leg in ambient}))
    row = data.draw(st.tuples(*(st.integers(1, leg.dim) for leg in ambient)))
    for _label, lhs, rhs in sides:
        halves, box = verify._kronecker(lhs, rhs, ambient, context, None, {})
        for (factors, start), half in zip(halves, (lhs, rhs)):
            ints = column_product(factors, row, start, kernel.mul_shifted)
            expected = packed_row(half, row, context)
            assert {col: box.decoded(x) for col, x in ints.items()} == expected


def test_compare_sides_refuses_a_factor_off_the_ambient_legs():
    # both halves hold the same factor on legs (w, v): without the leg
    # check the two sides agree and the comparison passes vacuously
    ambient = (LegSpace(2, "u"), LegSpace(2, "v"))
    off = (yang_r(2, "w", "v"), (1, 2))
    with pytest.raises(ValueError, match="do not match the ambient legs"):
        compare_sides(ambient, [("", [off], [off])])
    with pytest.raises(ValueError, match="do not match the ambient legs"):
        compare_sides(ambient, [("", [(yang_r(3), (1, 2))], [])])


def coefficient_family(coeff_label):
    """A graded family whose seed R(u, coeff_label) has one quantum leg."""
    seed = SeedSolution(coefficient_solution("u", coeff_label), orthogonal_transposition(2))
    return GradedFamily.from_seed(seed, k_max=2)


def test_fused_re_accepts_a_coefficient_label_of_an_absent_block_leg():
    # at (k, m) = (1, 2) the ambient legs are u1, v1, v2 and the coefficient
    # leg u2: chi^(2) lives on v1, v2, so u2 collides with nothing
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    report = check_fused_re(coefficient_family("u2"), fam, 1, 2)
    # the oracle states chi^(2) whole on u1, u2, z and renames it
    chi_1 = coefficient_family("u2").component(1)
    chi_2 = op_substitute(coefficient_family("z").component(2), {"u1": "v1", "u2": "v2"})
    chi_2 = op_substitute(chi_2, {"z": "u2"})
    ambient = chi_1.legs[:1] + chi_2.legs
    plain = (fused_r(1, 2, 2), (1, 2, 3))
    primed = (fused_r(1, 2, 2, primed=True, t=t), (1, 2, 3))
    flipped = (fused_r_prime_flipped(1, 2, 2, t), (1, 2, 3))
    big_1, big_2 = (chi_1, (1, 4)), (chi_2, (2, 3, 4))
    sides = [("", [plain, big_1, primed, big_2], [big_2, flipped, big_1, plain])]
    verdicts, witness = whole_operator_compare(ambient, sides)
    # R(u, z) is no reflection solution, so the oracle's witness is compared too
    assert not verdicts[""]
    assert (report.passed, report.witness) == (verdicts[""], witness)


@pytest.mark.parametrize("coeff_label", ["u1", "v1"])
def test_fused_re_refuses_a_coefficient_label_of_its_own_block(coeff_label):
    fam = RFamily.build(2, orthogonal_transposition(2))
    with pytest.raises(ValueError) as refused:
        check_fused_re(coefficient_family(coeff_label), fam, 1, 1)
    assert str(refused.value) == f"coefficient label {coeff_label!r} collides with auxiliary labels"


# -- column orbits under proven signed-permutation symmetries -----------------


def compose_signed(a, b):
    """The signed permutation a after b, both written as the tuples of
    s_i * sigma(i) that signed_symmetries returns."""
    return tuple(a[abs(x) - 1] if x > 0 else -a[abs(x) - 1] for x in b)


def generated_group(generators, n):
    group = {tuple(range(1, n + 1))}
    frontier = list(group)
    while frontier:
        w = frontier.pop()
        for g in generators:
            product = compose_signed(g, w)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def conjugated(op, w):
    """W op W^-1 for W = w on every leg of op."""
    entries = {}
    for (row, col), poly in op.entries.items():
        sign = 1
        for i in row + col:
            sign = -sign if w[i - 1] < 0 else sign
        image = (tuple(abs(w[i - 1]) for i in row), tuple(abs(w[i - 1]) for i in col))
        entries[image] = poly * sign
    return TensorOp(op.legs, entries)


def group_average(op, group):
    """The exact average of W op W^-1 over the group: it commutes with every W."""
    total = TensorOp(op.legs, {})
    for w in group:
        total = total + conjugated(op, w)
    return op_scale(total, Fraction(1, len(group)))


@st.composite
def symmetric_problems(draw):
    """An ambient of 1-3 legs of one dimension n (at most 2 legs when n = 3),
    a group generated by one or two random signed permutations, and one
    side whose factors are random factors averaged over that group.  The
    right half is the left half, the left half's whole product as one
    factor, or other averaged factors.  With extra, one random factor that
    is not averaged is put first on the left half, or on both halves."""
    n = draw(st.sampled_from([2, 3]))
    ambient = tuple(LegSpace(n, label) for label in "uvw"[: draw(st.integers(1, 5 - n))])
    labels = tuple(leg.spectral_var for leg in ambient)
    signed = st.tuples(st.permutations(range(1, n + 1)), st.tuples(*[st.sampled_from([1, -1])] * n))
    generators = [
        tuple(s * i for s, i in zip(signs, sigma))
        for sigma, signs in draw(st.lists(signed, min_size=1, max_size=2))
    ]
    group = generated_group(generators, n)
    polys = st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in labels)), COEFFICIENTS, max_size=2
    ).map(lambda terms: LaurentPoly(labels, terms))

    def factor():
        order = draw(st.permutations(range(1, len(ambient) + 1)))
        targets = tuple(order[: draw(st.integers(1, len(ambient)))])
        legs = tuple(ambient[p - 1] for p in targets)
        index = st.tuples(*(st.integers(1, n) for _ in legs))
        entries = draw(st.dictionaries(st.tuples(index, index), polys, max_size=4))
        return TensorOp(legs, entries), targets

    def averaged_half():
        return [(group_average(op, group), targets) for op, targets in
                (factor() for _ in range(draw(st.integers(1, 3))))]

    lhs = averaged_half()
    rhs = draw(st.sampled_from(["same", "product", "other"]))
    if rhs == "same":
        rhs = list(lhs)
    elif rhs == "product":
        rhs = [(op_chain(ambient, lhs), tuple(range(1, len(ambient) + 1)))]
    else:
        rhs = averaged_half()
    extra = draw(st.sampled_from([None, "lhs", "both"]))
    if extra is not None:
        asymmetric = factor()
        lhs = [asymmetric] + lhs
        if extra == "both":
            rhs = [asymmetric] + rhs
    return ambient, group, extra, [("", lhs, rhs)]


@settings(max_examples=120, deadline=None)
@given(symmetric_problems())
def test_orbit_representatives_match_the_whole_operator_path(problem):
    ambient, group, extra, sides = problem
    ops = [op for _, lhs, rhs in sides for op, _ in lhs + rhs]
    if extra is None:
        # averaging imposed the group, and the search proves all of it
        assert group <= set(kernel.signed_symmetries(ambient, ops))
    assert compare_sides(ambient, sides) == whole_operator_compare(ambient, sides)


def test_every_factor_of_every_side_is_proven_invariant():
    # A commutes with the swap and B with the swap that negates e_1, so
    # either one alone would leave column (1,) to stand for (2,), where the
    # two sides differ; together they admit no swap, and every column is
    # compared
    ambient = (LegSpace(2, "u"),)
    a = matrix_on_leg(((1, 1), (1, 1)), ambient[0])
    b = matrix_on_leg(((1, -1), (1, 1)), ambient[0])
    assert (2, 1) in kernel.signed_symmetries(ambient, [a])
    assert (2, -1) in kernel.signed_symmetries(ambient, [b])
    assert all(abs(w[0]) == 1 for w in kernel.signed_symmetries(ambient, [a, b]))
    verdicts, witness = compare_sides(ambient, [("", [(a, (1,))], [(b, (1,))])])
    assert verdicts == {"": False}
    assert witness == {"row": [1], "col": [2], "lhs": "1", "rhs": "-1"}
    # the identity commutes with every swap, diag(1, 2) with none
    diagonal = matrix_on_leg(((1, 0), (0, 2)), ambient[0])
    identity = identity_op(ambient)
    verdicts, witness = compare_sides(ambient, [("", [(identity, (1,))], [(diagonal, (1,))])])
    assert verdicts == {"": False}
    assert witness == {"row": [2], "col": [2], "lhs": "1", "rhs": "2"}


def counted_search(monkeypatch):
    """Record, per compare_sides call, the group size found and the
    representatives kept, and count column_product calls."""
    seen = {"groups": [], "representatives": [], "columns": 0}

    def search(ambient, ops):
        group = kernel.signed_symmetries(ambient, ops)
        seen["groups"].append(len(group))
        return group

    def representatives(columns, group):
        kept = kernel.orbit_representatives(columns, group)
        seen["representatives"].append(len(kept))
        return kept

    def product(*args):
        seen["columns"] += 1
        return column_product(*args)

    monkeypatch.setattr(verify, "signed_symmetries", search)
    monkeypatch.setattr(verify, "orbit_representatives", representatives)
    monkeypatch.setattr(verify, "column_product", product)
    return seen


def skew4(a, b):
    return ((0, 0, a, 0), (0, 0, 0, b), (-a, 0, 0, 0), (0, -b, 0, 0))


@pytest.mark.parametrize("k,m,orbits", [(1, 1, 6), (1, 2, 20), (2, 1, 20), (2, 2, 72)])
def test_fused_re_compares_one_column_per_orbit(k, m, orbits, monkeypatch):
    # g = skew(1, 1) and x = skew(3, -2) keep the pairs {1, 3} and {2, 4}:
    # each pair is fixed or swapped with opposite signs, 4 x 4 = 16
    # elements, and sigma runs over the Klein group on 4^(k+m) rows
    t = Transposition(skew4(1, 1))
    family = GradedFamily.from_character(skew4(3, -2), t, 2)
    seen = counted_search(monkeypatch)
    assert check_fused_re(family, RFamily.build(4, t), k, m).passed
    assert seen == {"groups": [16], "representatives": [orbits], "columns": 2 * orbits}


def test_column_orbits_fall_back_to_every_column(monkeypatch):
    seen = counted_search(monkeypatch)
    # the () ambient: no leg, so no dimension to search
    scalar = TensorOp((), {((), ()): LaurentPoly.var("u")})
    assert compare_sides((), [("", [(scalar, ())], [(scalar, ())])]) == ({"": True}, None)
    assert seen == {"groups": [0], "representatives": [1], "columns": 2}
    # mixed dimensions: the identity would commute with any swap of either leg
    mixed = (LegSpace(2, "u"), LegSpace(3, "v"))
    identity = (identity_op(mixed), (1, 2))
    assert compare_sides(mixed, [("", [identity], [identity])]) == ({"": True}, None)
    assert seen == {"groups": [0, 0], "representatives": [1, 6], "columns": 2 + 12}


def test_a_group_that_moves_no_column_runs_the_plain_loop(monkeypatch):
    # the diagonals commute only with sign changes: four elements, no
    # row moves, so every row is its own representative; the sides first
    # differ in row 2, the last, so both rows are built once per side
    leg = LegSpace(2, "u")
    lhs = matrix_on_leg(((1, 0), (0, 2)), leg)
    rhs = matrix_on_leg(((1, 0), (0, 3)), leg)
    seen = counted_search(monkeypatch)
    verdicts, witness = compare_sides((leg,), [("", [(lhs, (1,))], [(rhs, (1,))])])
    assert (verdicts, witness["col"]) == ({"": False}, [2])
    assert seen == {"groups": [4], "representatives": [2], "columns": 4}


# -- rows in ascending order: a failing side stops at its first differing row --


def test_a_failing_side_stops_at_its_first_differing_row(monkeypatch):
    # the upper-triangular seed control of the witness benchmark: its group
    # holds sign changes only, so every row stands for itself, and the two
    # sides first differ in row (1,1,1,1), the first row built
    t = orthogonal_transposition(3)
    seed = SeedSolution(matrix_on_leg(((2, 3, 0), (0, 5, 0), (0, 0, 7)), LegSpace(3, "u")), t)
    family = GradedFamily.from_seed(seed, k_max=2)
    seen = counted_search(monkeypatch)
    report = check_fused_re(family, RFamily.build(3, t), 2, 2)
    assert not report.passed
    assert (report.witness["row"], report.witness["col"]) == ([1, 1, 1, 1], [1, 1, 1, 2])
    assert (seen["representatives"], seen["columns"]) == ([81], 2)


def test_a_failing_side_stops_at_a_later_orbit(monkeypatch):
    # M and D commute with the swap of e_1 and e_2 on every leg, so the
    # rows fall into 5 orbits with representatives (1,1), (1,2), (1,3),
    # (3,1) and (3,3).  D differs from the identity only in the orbit
    # {(3,1), (3,2)}, the fourth: 2 rows are built for each of the first 4
    legs = (LegSpace(3, "u"), LegSpace(3, "v"))
    u, v, one = LaurentPoly.var("u"), LaurentPoly.var("v"), LaurentPoly.const(1)
    m = TensorOp(legs[:1], {((1,), (1,)): u, ((1,), (2,)): one, ((2,), (1,)): one,
                            ((2,), (2,)): u, ((3,), (3,)): one})
    d = identity_op(legs) + TensorOp(legs, {((3, 1), (1, 1)): v, ((3, 2), (2, 2)): v})
    sides = [("", [(d, (1, 2)), (m, (1,))], [(identity_op(legs), (1, 2)), (m, (1,))])]
    seen = counted_search(monkeypatch)
    verdicts, witness = compare_sides(legs, sides)
    assert seen == {"groups": [4], "representatives": [5], "columns": 8}
    assert verdicts == {"": False}
    assert witness == {"row": [3, 1], "col": [1, 1], "lhs": "u*v", "rhs": "0"}
    assert (verdicts, witness) == whole_operator_compare(legs, sides)


def test_every_side_keeps_its_own_verdict_after_one_stops(monkeypatch):
    # "stops" differs first in row (1,1,1), at columns (1,1,1) and
    # (1,2,1); a set of the two holds (1,2,1) first, so the witness must
    # take the least column, not the first one found.  "passes" and
    # "later" still get their own verdicts, and "later" differs in its
    # last row only
    legs = tuple(LegSpace(2, label) for label in "uvw")
    u, v = LaurentPoly.var("u"), LaurentPoly.var("v")
    whole = (1, 2, 3)
    identity = identity_op(legs)
    stops = identity + TensorOp(legs, {((1, 1, 1), (1, 1, 1)): u, ((1, 1, 1), (1, 2, 1)): v})
    later = identity + TensorOp(legs, {((2, 2, 2), (1, 1, 1)): u})
    m = (matrix_on_leg(((1, 2), (0, 1)), legs[1]), (2,))
    sides = [
        ("stops", [(stops, whole), m], [m]),
        ("passes", [m], [(identity, whole), m]),
        ("later", [(later, whole)], [(identity, whole)]),
    ]
    assert next(iter({(1, 1, 1): 0}.keys() | {(1, 2, 1): 0}.keys())) == (1, 2, 1)
    seen = counted_search(monkeypatch)
    verdicts, witness = compare_sides(legs, sides)
    assert verdicts == {"stops": False, "passes": True, "later": False}
    assert witness == {"row": [1, 1, 1], "col": [1, 1, 1], "lhs": "u + 1", "rhs": "1",
                       "side": "stops"}
    assert (verdicts, witness) == whole_operator_compare(legs, sides)
    (rows,) = seen["representatives"]
    assert seen["columns"] == 2 + 2 * rows + 2 * rows


def test_double_relations_keep_exact_verdicts_after_one_side_stops(monkeypatch):
    # the perturbed pair of the witness benchmark: minus_minus stops at its
    # first differing row, and plus_plus and cross still get exact verdicts
    good = eval_double(3)
    kick = op_scale(flip_p(3, "u", "z", ("auxiliary", "quantum")), 3)
    broken = DoubleEval(good.l_plus, good.l_minus + kick, good.denom_plus, good.denom_minus)
    stated = []

    def recording(ambient, sides, keep=None):
        stated.append((ambient, sides))
        return compare_sides(ambient, sides, keep)

    monkeypatch.setattr(evaluation, "compare_sides", recording)
    report = check_double_relations(broken)
    assert report.params["verdicts"] == {"minus_minus": False, "plus_plus": True, "cross": False}
    assert report.witness["side"] == "minus_minus"
    ((ambient, sides),) = stated
    assert (report.params["verdicts"], report.witness) == whole_operator_compare(ambient, sides)
