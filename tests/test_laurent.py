from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from packed_oracle import mul_packed_into, pack, unpack
from reflection_workbench.kernel import (
    LaurentPoly,
    add_into,
    format_rational,
    mul_into,
    mul_series_into,
    mul_shifted,
    parse_rational,
    require_int,
)

U = LaurentPoly.var("u")
V = LaurentPoly.var("v")


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-4/7") == Fraction(-4, 7)
    assert parse_rational("+2") == Fraction(2)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["1.5", "a", "1e3", "2/-3", "", "1/2/3", "0x1"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("3/0")


def test_format_rational_round_trips():
    assert format_rational(Fraction(-4, 7)) == "-4/7"
    assert format_rational(Fraction(6, 2)) == "3"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_binomial_square():
    p = (U - V) * (U - V)
    assert p.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_quasi_inverse_factor_product():
    # (u-v-1)(u-v+1) = (u-v)^2 - 1
    p = (U - V - 1) * (U - V + 1)
    assert p == (U - V) ** 2 - 1
    assert p.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1, (0, 0): -1}


def test_additive_inverse_is_empty():
    p = (U - V) ** 3 + LaurentPoly.var("u", -2)
    q = p + (-p)
    assert q.is_zero()
    assert q.terms == {}


def test_variable_order_is_canonical():
    p = LaurentPoly(("v", "u"), {(1, 2): 3})
    assert p.variables == ("u", "v")
    assert p.terms == {(2, 1): 3}


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(("u", "u"), {(1, 1): 1})


@pytest.mark.parametrize("exponent", [True, 1.0])
def test_an_exponent_must_be_an_int(exponent):
    text = f"non-integer exponent in ({exponent!r},)"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        LaurentPoly.var("u", exponent)


@pytest.mark.parametrize("value", [True, False, 2.0, "2", None, -1])
def test_require_int_refuses_all_but_an_int_at_or_above_the_least(value):
    text = f"size must be an integer >= 0, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        require_int("size", value, 0)


@pytest.mark.parametrize("exponent", [True, 1.0, -1])
def test_a_power_needs_an_int_exponent(exponent):
    text = f"exponent must be an integer >= 0, got {exponent!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        U**exponent


def test_substitute_negates_variable():
    p = (U - V).substitute({"u": "-u"})
    assert p == -U - V


def test_substitute_identity_map():
    p = (U - V) ** 2 - 1
    assert p.substitute({"u": "u", "v": "v"}) == p
    assert p.substitute({}) == p


def test_substitute_at_degeneracy_point():
    p = (U - V) ** 2 - 1
    assert p.substitute({"u": Fraction(2), "v": Fraction(1)}).is_zero()


def test_substitute_swaps_simultaneously():
    p = U - V
    assert p.substitute({"u": "v", "v": "u"}) == V - U
    q = LaurentPoly(("u1", "u2"), {(3, 1): 1})
    swapped = q.substitute({"u1": "u2", "u2": "u1"})
    assert swapped.terms == {(1, 3): 1}


def test_substitute_zero_into_negative_power_errors():
    p = LaurentPoly.var("u", -1) + V
    with pytest.raises(ValueError):
        p.substitute({"u": 0})
    # but 0 into a plain polynomial is fine
    assert (U + 1).substitute({"u": 0}) == 1


def test_substitute_unknown_variable_errors():
    with pytest.raises(ValueError):
        U.substitute({"w": "u"})


def test_negative_exponents_multiply():
    p = LaurentPoly.var("u", -2) * LaurentPoly.var("u", 5)
    assert p.terms == {(3,): 1}
    point = p.substitute({"u": Fraction(1, 2)})
    assert point == Fraction(1, 8)


def test_an_integral_scalar_keeps_int_coefficients():
    """An integral Fraction scalar is stored as the int it equals, as the
    constructor stores integral coefficients."""
    for p in (U * Fraction(2), Fraction(2) * U, (U - V) * Fraction(-6, 3)):
        assert all(type(c) is int for c in p.terms.values())
    assert (U * Fraction(2)).terms == {(1,): 2}
    assert (U * Fraction(1, 2)).terms == {(1,): Fraction(1, 2)}


def test_an_integral_fraction_coefficient_equals_and_prints_as_the_int():
    """Arithmetic does not normalize, so h * 2 may hold Fraction(1, 1) where
    U holds 1; the two forms give equal polynomials with identical text."""
    h = LaurentPoly(("u",), {(1,): Fraction(1, 2)})
    pairs = [(h * 2, U), (h + h, U), (h * h * 4, U**2), (h * -6, -3 * U), (h * 2 + 1, U + 1)]
    for computed, plain in pairs:
        assert computed == plain
        assert str(computed) == str(plain)


def test_str_rendering():
    p = (U - V) ** 2 - 1
    assert str(p) == "u^2 - 2*u*v + v^2 - 1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.var("u", -1)) == "u^-1"
    assert str(LaurentPoly.const(Fraction(-3, 2), ("u",))) == "-3/2"


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponents = st.tuples(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)
)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda terms: LaurentPoly(("u", "v"), terms)
)


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == 0


@given(polys, polys)
def test_substitution_is_a_ring_homomorphism(p, q):
    mapping = {"u": "-u", "v": "w"}
    assert (p * q).substitute(mapping) == p.substitute(mapping) * q.substitute(mapping)
    assert (p + q).substitute(mapping) == p.substitute(mapping) + q.substitute(mapping)


@given(polys, polys)
def test_point_evaluation_is_a_ring_homomorphism(p, q):
    mapping = {"u": Fraction(3, 2), "v": Fraction(-7, 5)}
    assert (p * q).substitute(mapping) == p.substitute(mapping) * q.substitute(mapping)
    assert (p + q).substitute(mapping) == p.substitute(mapping) + q.substitute(mapping)


@given(polys)
def test_double_negation_substitution_is_identity(p):
    once = p.substitute({"u": "-u", "v": "-v"})
    assert once.substitute({"u": "-u", "v": "-v"}) == p


# -- the shared term-map core ---------------------------------------------------


def test_add_into_deletes_cancelled_keys_in_place():
    acc = {(1,): 2, (0,): 1}
    out = add_into(acc, [((1,), -2), ((2,), 3), ((0,), Fraction(1, 2))])
    assert out is acc
    assert acc == {(0,): Fraction(3, 2), (2,): 3}


def test_mul_into_adds_exponents_and_keeps_the_left_word_first():
    a = {(-1, 0, ("x",)): 2}
    b = {(0, -2, ("y",)): 3, (1, 0, ()): -1}
    acc = {(-1, -2, ("x", "y")): -6, (5, 5, ()): 1}
    out = mul_into(acc, a, b)
    assert out is acc
    assert acc == {(0, 0, ("x",)): -2, (5, 5, ()): 1}
    assert mul_into({}, b, a) == {(-1, -2, ("y", "x")): 6, (0, 0, ("x",)): -2}


# (exponent, word) keys over a tiny range, so products collide and cancel often
term_maps = st.dictionaries(
    st.tuples(
        st.integers(min_value=-1, max_value=1),
        st.lists(st.sampled_from("xy"), max_size=1).map(tuple),
    ),
    st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]),
    max_size=4,
)


@given(term_maps, term_maps, term_maps)
def test_mul_into_matches_a_naive_expansion(acc, a, b):
    expected = dict(acc)
    for (ea, wa), ca in a.items():
        for (eb, wb), cb in b.items():
            key = (ea + eb, wa + wb)
            expected[key] = expected.get(key, 0) + ca * cb
    expected = {key: coeff for key, coeff in expected.items() if coeff}
    assert mul_into(dict(acc), a, b) == expected


# mode-series keys (u exponent, v exponent, word), again over a tiny range
series_maps = st.dictionaries(
    st.tuples(
        st.integers(min_value=-2, max_value=1),
        st.integers(min_value=-2, max_value=1),
        st.lists(st.sampled_from("xy"), max_size=2).map(tuple),
    ),
    st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]),
    max_size=5,
)
floors = st.none() | st.tuples(
    st.integers(min_value=-3, max_value=1),
    st.integers(min_value=-3, max_value=1),
    st.integers(min_value=-5, max_value=1),
)


@given(st.none() | series_maps, series_maps, series_maps, floors)
def test_mul_series_into_matches_a_naive_expansion(acc, a, b, floor):
    """Every term pair's key is (au + bu, av + bv, aw + bw); with a floor,
    the pairs below any of its three bounds are skipped and acc's own terms
    are kept whatever their key."""
    expected = dict(acc or {})
    for (au, av, aw), ca in a.items():
        for (bu, bv, bw), cb in b.items():
            key = (au + bu, av + bv, aw + bw)
            if floor and (key[0] < floor[0] or key[1] < floor[1] or key[0] + key[1] < floor[2]):
                continue
            expected[key] = expected.get(key, 0) + ca * cb
    expected = {key: coeff for key, coeff in expected.items() if coeff}
    start = None if acc is None else dict(acc)
    out = mul_series_into(start, a, b, floor)
    assert out == expected
    assert start is None or out is start


def test_mul_series_into_keeps_the_left_word_first_and_skips_below_the_floor():
    a = {(-1, 0, ("x",)): 2, (0, 0, ()): 1}
    b = {(0, -2, ("y",)): 3, (-1, 0, ()): -1}
    assert mul_series_into(None, a, b) == {
        (-1, -2, ("x", "y")): 6,
        (-2, 0, ("x",)): -2,
        (0, -2, ("y",)): 3,
        (-1, 0, ()): -1,
    }
    # a floor of -1 on the u exponent drops the one key at u^-2
    assert mul_series_into(None, a, b, (-1, -2, -3)) == {
        (-1, -2, ("x", "y")): 6,
        (0, -2, ("y",)): 3,
        (-1, 0, ()): -1,
    }
    # and one of -2 on the sum drops the u^-1 v^-2 key as well
    assert mul_series_into(None, a, b, (-1, -2, -2)) == {(0, -2, ("y",)): 3, (-1, 0, ()): -1}


@given(
    st.none() | st.integers(),
    st.lists(st.tuples(st.integers(0, 200), st.integers(-3, 3))),
    st.integers(-(1 << 100), 1 << 100),
)
def test_mul_shifted_adds_each_term_times_the_entry(acc, a, b):
    # a Kronecker term (shift, c) stands for c * 2^shift; None is an empty acc
    expected = (acc or 0) + sum(c * b * 2**shift for shift, c in a)
    assert mul_shifted(acc, a, b) == expected


# -- packed monomial keys of the test oracle (tests/packed_oracle.py) -----------


@st.composite
def boxed_vectors(draw, count=1):
    """A field width, an arity and count exponent vectors inside the box
    |e_i| < 2^(width - 1) that width packs uniquely."""
    width = draw(st.integers(1, 6))
    arity = draw(st.integers(0, 4))
    top = (1 << (width - 1)) - 1
    vector = st.tuples(*(st.integers(-top, top) for _ in range(arity)))
    return (width, arity) + tuple(draw(vector) for _ in range(count))


@given(boxed_vectors())
def test_unpack_inverts_pack_inside_the_box(case):
    width, arity, exps = case
    assert unpack(pack(exps, width), arity, width) == exps


@given(boxed_vectors(count=2))
def test_packed_keys_add_as_exponent_vectors(case):
    width, arity, a, b = case
    total = tuple(x + y for x, y in zip(a, b))
    assume(all(abs(e) < 1 << (width - 1) for e in total))
    assert pack(a, width) + pack(b, width) == pack(total, width)
    assert unpack(pack(a, width) + pack(b, width), arity, width) == total


@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1]))
def test_pack_refuses_a_vector_just_outside_the_box(width, before, after, sign):
    edge = sign << (width - 1)
    pad, tail = (0,) * before, (0,) * after
    last_inside = pad + (edge - sign,) + tail
    assert unpack(pack(last_inside, width), len(last_inside), width) == last_inside
    with pytest.raises(ValueError, match="does not fit"):
        pack(pad + (edge,) + tail, width)


# two-variable maps whose products reach |e| <= 4 < 2^(4 - 1), with few
# exponents and coefficients, so products collide and cancel often
pair_maps = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]),
    max_size=5,
)


@given(pair_maps, pair_maps, pair_maps)
@example({}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})  # the two u*v cancel
def test_packed_product_matches_mul_into(acc, a, b):
    def packed(terms):
        return {pack(e, 4): c for e, c in terms.items()}

    out = mul_packed_into(packed(acc), packed(a), packed(b))
    assert {unpack(key, 2, 4): c for key, c in out.items()} == mul_into(dict(acc), a, b)

