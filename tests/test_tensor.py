from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    Transposition,
    column_product,
    embed_legs,
    extract_entry,
    identity_matrix,
    identity_op,
    mat_inverse,
    matrix_on_leg,
    mul_into,
    mul_series_into,
    op_chain,
    op_substitute,
    orthogonal_transposition,
    parse_matrix_json,
    site_flip,
    symplectic_transposition,
    tau_on_leg,
    tensor_compose,
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
    for dim in (True, 2.0):
        with pytest.raises(
            ValueError, match=f"^leg dimension must be an integer >= 1, got {dim!r}$"
        ):
            LegSpace(dim)
    with pytest.raises(ValueError):
        LegSpace(2, role="spectator")


@pytest.mark.parametrize("label", [5, "1bad", "", "u\n", "-u", b"u"])
def test_legspace_refuses_a_bad_spectral_label(label):
    """A label enters once, here: the operators built on the leg trust it,
    so a mixed int and str pair can no longer fail later in a sort."""
    text = f"spectral label must be None or a variable name, got {label!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        LegSpace(2, label)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        LegSpace(2, "u").with_label(label)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        identity_op((LegSpace(2, label), LegSpace(2, "u")))


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


@pytest.mark.parametrize(
    "index, text",
    [
        (range(1, 2), "multi-index must be a tuple, got range"),
        (b"\x01", "multi-index must be a tuple, got bytes"),
        ((True,), "index component True is a bool, not an int"),
    ],
)
def test_entries_are_keyed_by_tuples_of_ints(index, text):
    # each of these stands for the index (1,): a range or bytes key next to
    # (1,) would name one entry twice, and a bool would be stored as a bool
    leg = (LegSpace(2),)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        TensorOp(leg, {(index, (1,)): ONE})
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        TensorOp(leg, {((1,), index): ONE})


def test_extract_entry_converts_its_indices_but_refuses_a_bool():
    r = yang_op(2)
    assert extract_entry(r, [1, 2], range(2, 0, -1)) == -ONE
    with pytest.raises(ValueError, match=r"^index component False is a bool, not an int$"):
        extract_entry(r, (1, False), (1, 1))


def test_entries_are_stored_once_as_given():
    u = LaurentPoly.var("u")
    legs = (LegSpace(2, "v"),)
    op = TensorOp(legs, {((2,), (1,)): u, ((1,), (1,)): u - u, ((1,), (2,)): ONE})
    assert list(op.entries) == [((2,), (1,)), ((1,), (2,))]
    assert op.variables == ("u", "v")
    assert all(poly.variables == ("u", "v") for poly in op.entries.values())


def test_column_product_keeps_the_left_factors_word_first():
    # two one-leg factors whose only entry carries the word a, then b:
    # the product a*b applied to e_1 is the word (a, b), left word first
    a = ((0,), {(1,): [((1,), {(0, 0, ("a",)): 1})]})
    b = ((0,), {(1,): [((1,), {(0, 0, ("b",)): 1})]})
    start = {(0, 0, ()): 1}
    assert column_product([a, b], (1,), start, mul_into) == {(1,): {(0, 0, ("a", "b")): 1}}
    assert column_product([b, a], (1,), start, mul_into) == {(1,): {(0, 0, ("b", "a")): 1}}


# series term maps {(u exponent, v exponent, word): coefficient} over a tiny
# range, so products collide and cancel often
series_entries = st.dictionaries(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
        st.lists(st.sampled_from("xy"), max_size=1).map(tuple),
    ),
    st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]),
    min_size=1,
    max_size=3,
)


@st.composite
def prepared_factors(draw):
    """One-leg and two-leg prepared factors on two 2-dimensional legs."""
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slots = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        indices = list(itertools.product((1, 2), repeat=len(slots)))
        by_col = {}
        for col in indices:
            for row in indices:
                if draw(st.booleans()):
                    by_col.setdefault(col, []).append((row, draw(series_entries)))
        factors.append((slots, by_col))
    return factors


@given(
    prepared_factors(),
    st.sampled_from(list(itertools.product((1, 2), repeat=2))),
    st.tuples(
        st.integers(min_value=-5, max_value=2),
        st.integers(min_value=-5, max_value=2),
        st.integers(min_value=-8, max_value=3),
    ),
)
def test_floored_column_product_is_the_full_product_at_or_above_the_floor(factors, col, floor):
    """The full product is taken with the generic mul_into, the floored
    one with the series product that modes passes."""
    start = {(0, 0, ()): 1}
    low_u, low_v, low_sum = floor
    full = column_product(factors, col, start, mul_into)
    assert column_product(factors, col, start, mul_series_into) == full
    expected = {}
    for row, entry in full.items():
        kept = {
            key: c
            for key, c in entry.items()
            if key[0] >= low_u and key[1] >= low_v and key[0] + key[1] >= low_sum
        }
        if kept:
            expected[row] = kept
    assert column_product(factors, col, start, mul_series_into, floor) == expected


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


def test_embed_swapped_targets_transports_the_entries():
    # R at targets (2, 1) is leg i carried to position 3 - i, labels and
    # entries with it: entry ((a, b), (c, d)) moves to ((b, a), (d, c))
    r = yang_op(2)
    r21 = embed_legs(r, (2, 1), r.legs)
    transported = {((b, a), (d, c)): poly for ((a, b), (c, d)), poly in r.entries.items()}
    assert r21 == TensorOp((r.legs[1], r.legs[0]), transported)
    assert tuple(leg.spectral_var for leg in r21.legs) == ("v", "u")


def test_embed_validation():
    r = yang_op(2)
    ambient = (LegSpace(2), LegSpace(2), LegSpace(3))
    with pytest.raises(ValueError):
        embed_legs(r, (1, 1), ambient)
    with pytest.raises(ValueError):
        embed_legs(r, (1, 3), ambient)
    with pytest.raises(ValueError):
        embed_legs(r, (1,), ambient)


def test_site_flip_swaps_spectral_variables():
    r = yang_op(2)
    flipped = site_flip(r)
    assert tuple(leg.spectral_var for leg in flipped.legs) == ("u", "v")
    v_minus_u = LaurentPoly.var("v") - LaurentPoly.var("u")
    assert extract_entry(flipped, (1, 2), (1, 2)) == v_minus_u
    assert extract_entry(flipped, (1, 2), (2, 1)) == -ONE
    assert site_flip(flipped) == r


def test_site_flip_identity_when_labels_match():
    p = flip_op(2)  # unlabelled legs
    assert site_flip(p) == p


@st.composite
def two_leg_ops(draw):
    """A two-leg operator with legs of dimension 1-3, both labelled (in
    either order) or both unlabelled, and up to four Laurent entries in
    u, v and a spectator w."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    labels = draw(st.sampled_from([("u", "v"), ("v", "u"), (None, None)]))
    legs = (LegSpace(dims[0], labels[0]), LegSpace(dims[1], labels[1], "quantum"))
    index = st.tuples(st.integers(1, dims[0]), st.integers(1, dims[1]))
    poly = st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * 3), rational_entries, max_size=3
    ).map(lambda terms: LaurentPoly(("u", "v", "w"), terms))
    return TensorOp(legs, draw(st.dictionaries(st.tuples(index, index), poly, max_size=4)))


@given(two_leg_ops())
def test_site_flip_is_the_labelled_subscript_flip(op):
    flipped = site_flip(op)
    assert site_flip(flipped) == op
    x, y = (leg.spectral_var for leg in op.legs)
    assert flipped.legs == (op.legs[1].with_label(x), op.legs[0].with_label(y))
    swap = {} if x is None else {x: y, y: x}
    assert len(flipped.entries) == len(op.entries)
    for (row, col), poly in op.entries.items():
        assert extract_entry(flipped, row[::-1], col[::-1]) == poly.substitute(swap)


def test_site_flip_refuses_other_shapes():
    with pytest.raises(ValueError, match=r"^site flip needs a two-leg operator, got 3 legs$"):
        site_flip(identity_op((LegSpace(2),) * 3))
    with pytest.raises(
        ValueError, match=r"^site flip moves a labelled leg onto an unlabelled position$"
    ):
        site_flip(flip_op(2, "u", None))


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


def test_tau_on_an_unlabelled_leg_keeps_int_coefficients():
    for t in (orthogonal_transposition(2), symplectic_transposition(2)):
        q = tau_on_leg(flip_op(2), 1, t)
        assert q.entries
        assert all(type(c) is int for poly in q.entries.values() for c in poly.terms.values())


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


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: orthogonal_transposition(True), "form size must be an integer >= 1, got True"),
        (lambda: orthogonal_transposition(0), "form size must be an integer >= 1, got 0"),
        (lambda: orthogonal_transposition(1.5), "form size must be an integer >= 1, got 1.5"),
        (lambda: symplectic_transposition(True), "form size must be an integer >= 1, got True"),
        (lambda: symplectic_transposition(0), "form size must be an integer >= 1, got 0"),
        (lambda: symplectic_transposition(2.0), "form size must be an integer >= 1, got 2.0"),
        (lambda: symplectic_transposition(3), "symplectic form needs even dimension, got 3"),
        (lambda: Transposition([]), "the form g must not be empty"),
        (
            lambda: parse_matrix_json({"n": True, "entries": [["1"]]}),
            '"n" must be an integer >= 1, got True',
        ),
        (lambda: identity_matrix(True), "matrix size must be an integer >= 1, got True"),
        (lambda: identity_matrix(2.0), "matrix size must be an integer >= 1, got 2.0"),
        (lambda: identity_matrix(0), "matrix size must be an integer >= 1, got 0"),
    ],
)
def test_form_sizes_refuse_bools_floats_and_empty_forms(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


def test_transposition_repr_names_the_kind():
    assert repr(symplectic_transposition(2)) == "Transposition(n=2, symplectic)"


def test_matrix_inverse_exact():
    m = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
    leg = LegSpace(2)
    product = tensor_compose(matrix_on_leg(m, leg), matrix_on_leg(mat_inverse(m), leg))
    assert product == matrix_on_leg(identity_matrix(2), leg)


rational_entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def square_matrices(n):
    return st.lists(
        st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(row) for row in rows))


def assert_involutive_antiautomorphism(t, a, b):
    """t(AB) = t(B) t(A) and t(t(A)) = A for constant matrices on one leg,
    through tau_on_leg and tensor_compose, the path every check takes."""
    leg = LegSpace(t.n)
    a, b = (matrix_on_leg(m, leg) for m in (a, b))

    def tau(op):
        return tau_on_leg(op, 1, t)

    assert tau(tensor_compose(a, b)) == tensor_compose(tau(b), tau(a))
    assert tau(tau(a)) == a


@given(square_matrices(2), square_matrices(2))
def test_transposition_is_an_involutive_antiautomorphism(a, b):
    for t in (orthogonal_transposition(2), symplectic_transposition(2)):
        assert_involutive_antiautomorphism(t, a, b)


@given(square_matrices(3), square_matrices(3))
def test_orthogonal_transposition_n3(a, b):
    assert_involutive_antiautomorphism(orthogonal_transposition(3), a, b)


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
