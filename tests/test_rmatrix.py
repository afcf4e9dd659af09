from __future__ import annotations

from fractions import Fraction

import pytest

from reflection_workbench.kernel import (
    LaurentPoly,
    extract_entry,
    identity_op,
    leg_permute,
    op_scale,
    orthogonal_transposition,
    site_permute,
    symplectic_transposition,
    tau_on_leg,
    tensor_compose,
)
from reflection_workbench.rmatrix import (
    RFamily,
    breve_r_series,
    flip_p,
    r_primes,
    yang_r,
    yang_r_bar,
    zeta_factor,
)

U = LaurentPoly.var("u")
V = LaurentPoly.var("v")


def test_yang_r_entries():
    r = yang_r(2)
    assert extract_entry(r, (1, 1), (1, 1)) == U - V - 1
    assert extract_entry(r, (2, 1), (1, 2)) == -LaurentPoly.const(1)
    assert extract_entry(r, (1, 2), (1, 2)) == U - V
    assert tuple(leg.spectral_var for leg in r.legs) == ("u", "v")


def test_yang_r_rejects_variable_clash():
    with pytest.raises(ValueError):
        yang_r(2, "u", "u")


@pytest.mark.parametrize("n", [2, 3])
def test_quasi_inverse_identity(n):
    r = yang_r(n)
    r_bar, zeta = yang_r_bar(n)
    expected = op_scale(identity_op(r.legs), zeta)
    assert tensor_compose(r, r_bar) == expected
    assert tensor_compose(r_bar, r) == expected


def test_zeta_is_frozen_form():
    zeta = zeta_factor()
    assert zeta.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1, (0, 0): -1}
    assert zeta == (U - V) ** 2 - 1


def test_r_bar_at_unit_separation_is_twice_a_projector():
    r_bar, _ = yang_r_bar(2)
    from reflection_workbench.kernel import op_substitute

    at_unit = op_substitute(r_bar, {"u": Fraction(1), "v": Fraction(0)})  # Id + P
    half = op_scale(at_unit, Fraction(1, 2))
    assert tensor_compose(half, half) == half


def test_r_prime_closed_form_orthogonal():
    t = orthogonal_transposition(2)
    r_prime, r_double = r_primes(2, t)
    q = tau_on_leg(flip_p(2, "u", "v"), 1, t)
    closed = op_scale(identity_op(r_prime.legs), -U - V) - q
    assert r_prime == closed
    assert r_double == r_prime
    assert extract_entry(r_prime, (1, 1), (1, 1)) == -U - V - 1
    assert extract_entry(r_prime, (1, 1), (2, 2)) == -LaurentPoly.const(1)
    assert extract_entry(r_prime, (1, 2), (1, 2)) == -U - V


def test_symplectic_q_matrix_frozen():
    t = symplectic_transposition(2)
    q = tau_on_leg(flip_p(2, "u", "v"), 1, t)
    one = LaurentPoly.const(1)
    expected = {
        ((1, 2), (1, 2)): one,
        ((1, 2), (2, 1)): -one,
        ((2, 1), (1, 2)): -one,
        ((2, 1), (2, 1)): one,
    }
    assert {key: value for key, value in q.entries.items()} == expected
    # rank-one with trace 2: Q^2 = 2 Q
    assert tensor_compose(q, q) == op_scale(q, 2)
    # flip-invariance of Q, the reason R'' = R' below
    assert site_permute(q, (2, 1)) == q


@pytest.mark.parametrize(
    "n,t_builder",
    [(2, orthogonal_transposition), (3, orthogonal_transposition),
     (2, symplectic_transposition), (4, symplectic_transposition)],
)
def test_r_double_prime_equals_r_prime(n, t_builder):
    r_prime, r_double = r_primes(n, t_builder(n))
    assert r_double == r_prime


@pytest.mark.parametrize(
    "n,t_builder",
    [(2, orthogonal_transposition), (3, orthogonal_transposition),
     (2, symplectic_transposition), (4, symplectic_transposition)],
)
def test_tau_tau_r_is_the_site_flip(n, t_builder):
    t = t_builder(n)
    r = yang_r(n)
    both = tau_on_leg(tau_on_leg(r, 1, t), 2, t)
    assert both == site_permute(r, (2, 1))
    # and explicitly NOT the bare leg transport
    assert both != leg_permute(r, (2, 1))


def test_breve_series_first_term():
    breve = breve_r_series(2, K=0)
    expected = identity_op(breve.legs) - op_scale(
        flip_p(2, "u", "v"), LaurentPoly(("u", "v"), {(-1, 0): 1})
    )
    assert breve == expected


def test_breve_series_coefficient_of_v2():
    breve = breve_r_series(2, K=4)
    # coefficient of v^2 u^-3 in every P-slot is -1
    entry = extract_entry(breve, (1, 2), (2, 1))
    assert entry.terms[(-3, 2)] == -1
    diag = extract_entry(breve, (1, 2), (1, 2))
    assert (-3, 2) not in diag.terms


@pytest.mark.parametrize(
    "K,labels",
    [pytest.param(K, ("u", "v"), id=str(K)) for K in (0, 1, 3)]
    + [
        pytest.param(K, labels, id=f"{K}-{labels[0]}{labels[1]}")
        for labels in (("z", "w"), ("v", "u"))
        for K in (0, 1, 3)
    ],
)
def test_breve_series_cross_multiplied_oracle(K, labels):
    n = 2
    uvar, vvar = labels
    breve = breve_r_series(n, uvar, vvar, K)
    scalar = LaurentPoly.var(uvar) - LaurentPoly.var(vvar)
    product = tensor_compose(op_scale(identity_op(breve.legs), scalar), breve)
    target = yang_r(n, uvar, vvar)
    difference = product - target

    def low_order(exps):
        return exps[vvar] <= K

    from reflection_workbench.kernel import TensorOp

    residue = TensorOp(
        difference.legs,
        {key: poly.filtered(low_order) for key, poly in difference.entries.items()},
    )
    assert residue.is_zero()
    assert not difference.is_zero()  # the tail genuinely lives above order K


def test_rfamily_build():
    fam = RFamily.build(3)
    assert fam.r_double_prime == fam.r_prime
    sym = RFamily.build(2, symplectic_transposition(2))
    assert sym.r_double_prime == sym.r_prime


def test_rfamily_rejects_size_mismatch():
    with pytest.raises(ValueError):
        RFamily.build(3, symplectic_transposition(2))
