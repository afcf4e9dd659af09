from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reflection_workbench.kernel import LaurentPoly, format_rational, parse_rational

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
