from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    Transposition,
    embed_legs,
    extract_entry,
    identity_matrix,
    identity_op,
    leg_permute,
    mat_inverse,
    mat_mul,
    matrix_on_leg,
    op_substitute,
    orthogonal_transposition,
    parse_matrix_json,
    site_permute,
    symplectic_transposition,
    tau_on_leg,
    tensor_compose,
    tensor_product,
)

ONE = LaurentPoly.const(1)


def flip_op(n, u=None, v=None):
    """The permutation operator P on two n-dimensional legs."""
    legs = (LegSpace(n, u), LegSpace(n, v))
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[((i, j), (j, i))] = ONE
    return TensorOp(legs, entries)


def yang_op(n):
    """(u-v) Id - P on labelled legs, built from kernel primitives only."""
    legs = (LegSpace(n, "u"), LegSpace(n, "v"))
    scalar = LaurentPoly.var("u") - LaurentPoly.var("v")
    return op_substitute(identity_op(legs), {}) * scalar - flip_op(n, "u", "v")


def test_legspace_validation():
    with pytest.raises(ValueError):
        LegSpace(0)
    with pytest.raises(ValueError):
        LegSpace(2, role="spectator")


def test_identity_is_a_unit():
    p = flip_op(2)
    ident = identity_op(p.legs)
    assert tensor_compose(ident, p) == p
    assert tensor_compose(p, ident) == p


def test_flip_squares_to_identity():
    p = flip_op(2)
    assert tensor_compose(p, p) == identity_op(p.legs)


def test_quasi_inverse_product():
    n = 2
    r = yang_op(n)
    scalar = LaurentPoly.var("u") - LaurentPoly.var("v")
    r_bar = identity_op(r.legs) * scalar + flip_op(n, "u", "v")
    zeta = scalar * scalar - 1
    assert tensor_compose(r, r_bar) == identity_op(r.legs) * zeta
    assert tensor_compose(r_bar, r) == identity_op(r.legs) * zeta


def test_yang_entries():
    r = yang_op(2)
    u_minus_v = LaurentPoly.var("u") - LaurentPoly.var("v")
    assert extract_entry(r, (1, 1), (1, 1)) == u_minus_v - 1
    assert extract_entry(r, (1, 2), (2, 1)) == -ONE
    assert extract_entry(r, (1, 2), (1, 2)) == u_minus_v
    assert extract_entry(r, (1, 1), (2, 2)).is_zero()
    with pytest.raises(ValueError):
        extract_entry(r, (1, 3), (1, 1))


def test_tensor_product_of_flips():
    p = flip_op(2)
    pp = tensor_product(p, p)
    assert extract_entry(pp, (1, 2, 2, 1), (2, 1, 1, 2)) == ONE
    assert len(pp.entries) == 16


def test_tensor_product_with_trivial_leg():
    p = flip_op(2)
    one_leg = identity_op((LegSpace(1),))
    extended = tensor_product(p, one_leg)
    assert extended.dims == (2, 2, 1)
    assert extract_entry(extended, (1, 2, 1), (2, 1, 1)) == ONE


def test_embed_flip_into_outer_legs():
    n = 2
    ambient = (LegSpace(n), LegSpace(n), LegSpace(n))
    embedded = embed_legs(flip_op(n), (1, 3), ambient)
    for a, b, c in itertools.product(range(1, n + 1), repeat=3):
        assert extract_entry(embedded, (a, b, c), (c, b, a)) == ONE
    assert len(embedded.entries) == n**3


def test_embed_all_legs_in_order_is_identity():
    r = yang_op(2)
    assert embed_legs(r, (1, 2), r.legs) == r


def test_embed_swapped_targets_matches_leg_permute():
    r = yang_op(2)
    ambient = r.legs
    r21 = embed_legs(r, (2, 1), ambient)
    assert r21 == leg_permute(r, (2, 1))


def test_embed_validation():
    r = yang_op(2)
    ambient = (LegSpace(2), LegSpace(2), LegSpace(3))
    with pytest.raises(ValueError):
        embed_legs(r, (1, 1), ambient)
    with pytest.raises(ValueError):
        embed_legs(r, (1, 3), ambient)
    with pytest.raises(ValueError):
        embed_legs(r, (1,), ambient)


def test_leg_permute_moves_labels_but_not_scalars():
    r = yang_op(2)
    moved = leg_permute(r, (2, 1))
    assert tuple(leg.spectral_var for leg in moved.legs) == ("v", "u")
    # entries are transported, not rewritten: scalar part still u - v
    u_minus_v = LaurentPoly.var("u") - LaurentPoly.var("v")
    assert extract_entry(moved, (1, 2), (1, 2)) == u_minus_v
    assert leg_permute(moved, (2, 1)) == r


def test_leg_permute_composition_law():
    op = tensor_product(yang_op(2), identity_op((LegSpace(2, "w"),)))
    rho = (2, 3, 1)
    sigma = (3, 1, 2)
    composed = tuple(sigma[rho[i] - 1] for i in range(3))
    assert leg_permute(leg_permute(op, rho), sigma) == leg_permute(op, composed)


def test_leg_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        leg_permute(yang_op(2), (1, 1))


def test_site_permute_swaps_spectral_variables():
    r = yang_op(2)
    flipped = site_permute(r, (2, 1))
    assert tuple(leg.spectral_var for leg in flipped.legs) == ("u", "v")
    v_minus_u = LaurentPoly.var("v") - LaurentPoly.var("u")
    assert extract_entry(flipped, (1, 2), (1, 2)) == v_minus_u
    assert extract_entry(flipped, (1, 2), (2, 1)) == -ONE
    assert site_permute(flipped, (2, 1)) == r


def test_site_permute_identity_when_labels_match():
    p = flip_op(2)  # unlabelled legs
    assert site_permute(p, (2, 1)) == p


def test_tau_on_flip_gives_rank_one_projector_pattern():
    p = flip_op(2)
    q = tau_on_leg(p, 1, orthogonal_transposition(2))
    for j in range(1, 3):
        for a in range(1, 3):
            assert extract_entry(q, (j, j), (a, a)) == ONE
    assert len(q.entries) == 4


def test_tau_on_yang_r_gives_primed_form():
    r = yang_op(2)
    t = orthogonal_transposition(2)
    primed = tau_on_leg(r, 1, t)
    minus_u_minus_v = -LaurentPoly.var("u") - LaurentPoly.var("v")
    q = tau_on_leg(flip_op(2, "u", "v"), 1, t)
    expected = identity_op(r.legs) * minus_u_minus_v - q
    assert primed == expected


def test_tau_on_leg_is_an_involution():
    for t in (orthogonal_transposition(2), symplectic_transposition(2)):
        for op in (yang_op(2), flip_op(2, "u", "v")):
            assert tau_on_leg(tau_on_leg(op, 1, t), 1, t) == op
            assert tau_on_leg(tau_on_leg(op, 2, t), 2, t) == op


def test_tau_dimension_mismatch():
    with pytest.raises(ValueError):
        tau_on_leg(yang_op(3), 1, orthogonal_transposition(2))
    with pytest.raises(ValueError):
        tau_on_leg(yang_op(2), 3, orthogonal_transposition(2))


def test_compose_requires_identical_legs():
    with pytest.raises(ValueError):
        tensor_compose(yang_op(2), flip_op(2))


def test_transposition_validation():
    with pytest.raises(ValueError):
        Transposition([[1, 2], [3, 4]])  # neither symmetric nor skew
    with pytest.raises(ValueError):
        Transposition([[1, 0], [0, 0]])  # singular
    with pytest.raises(ValueError):
        symplectic_transposition(3)


def test_transposition_repr_names_the_kind():
    assert repr(symplectic_transposition(2)) == "Transposition(n=2, symplectic)"


def test_matrix_inverse_exact():
    m = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
    assert mat_mul(m, mat_inverse(m)) == identity_matrix(2)


rational_entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def square_matrices(n):
    return st.lists(
        st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(row) for row in rows))


@given(square_matrices(2), square_matrices(2))
def test_transposition_is_an_involutive_antiautomorphism(a, b):
    for t in (orthogonal_transposition(2), symplectic_transposition(2)):
        assert t.apply_matrix(mat_mul(a, b)) == mat_mul(t.apply_matrix(b), t.apply_matrix(a))
        assert t.apply_matrix(t.apply_matrix(a)) == a


@given(square_matrices(3), square_matrices(3))
def test_orthogonal_transposition_n3(a, b):
    t = orthogonal_transposition(3)
    assert t.apply_matrix(mat_mul(a, b)) == mat_mul(t.apply_matrix(b), t.apply_matrix(a))
    assert t.apply_matrix(t.apply_matrix(a)) == a


def small_ops(n=2):
    index = st.tuples(st.integers(1, n), st.integers(1, n))
    entry = st.tuples(index, index)
    return st.dictionaries(entry, rational_entries, max_size=4).map(
        lambda raw: TensorOp(
            (LegSpace(n), LegSpace(n)),
            {key: LaurentPoly.const(c) for key, c in raw.items()},
        )
    )


@given(small_ops(), small_ops(), small_ops())
def test_compose_associativity(a, b, c):
    assert tensor_compose(tensor_compose(a, b), c) == tensor_compose(a, tensor_compose(b, c))


def test_parse_matrix_json():
    data = {"n": 2, "entries": [["1", "-1/2"], ["0", "3"]]}
    m = parse_matrix_json(data)
    assert m == ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(3)))
    with pytest.raises(ValueError):
        parse_matrix_json({"n": 2, "entries": [["1.5", "0"], ["0", "1"]]})
    with pytest.raises(ValueError):
        parse_matrix_json({"n": 2, "entries": [["1", "0"]]})
    with pytest.raises(ValueError):
        parse_matrix_json({"entries": []})


def test_matrix_on_leg():
    m = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    op = matrix_on_leg(m, LegSpace(2))
    assert extract_entry(op, (1,), (2,)) == ONE
    assert extract_entry(op, (2,), (1,)) == -ONE
    assert len(op.entries) == 2
