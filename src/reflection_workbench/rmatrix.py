"""Constructors for the Yang R-matrix family.

R(u,v) = (u-v) Id - P on two labelled legs, its quasi-inverse partner
R-bar with the central factor zeta = (u-v)^2 - 1, the tau-twisted forms
R' and R'', and the truncated Laurent expansion of Id - P/(u-v).  For
this family R'' = R'; check_tau_symmetry reports that as its
primes_coincide side and fails without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    Transposition,
    identity_op,
    op_scale,
    orthogonal_transposition,
    site_permute,
    tau_on_leg,
)

DEFAULT_TRUNCATION = 8


def flip_p(n, uvar=None, vvar=None, roles=("auxiliary", "auxiliary")):
    """The permutation operator P on two n-dimensional legs."""
    legs = (LegSpace(n, uvar, roles[0]), LegSpace(n, vvar, roles[1]))
    one = LaurentPoly.const(1)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[((i, j), (j, i))] = one
    return TensorOp(legs, entries)


def _yang(n, uvar, vvar, roles, sign):
    """(uvar - vvar) Id + sign P on two legs labelled uvar, vvar."""
    if uvar == vvar:
        raise ValueError(f"spectral variables must differ, both are {uvar!r}")
    legs = (LegSpace(n, uvar, roles[0]), LegSpace(n, vvar, roles[1]))
    scalar = LaurentPoly.var(uvar) - LaurentPoly.var(vvar)
    return op_scale(identity_op(legs), scalar) + op_scale(flip_p(n, uvar, vvar, roles), sign)


def yang_r(n, uvar="u", vvar="v", roles=("auxiliary", "auxiliary")):
    """(uvar - vvar) Id - P on two legs labelled uvar, vvar."""
    return _yang(n, uvar, vvar, roles, -1)


def zeta_factor(uvar="u", vvar="v"):
    """(uvar - vvar)^2 - 1, the central quasi-invertibility factor."""
    return (LaurentPoly.var(uvar) - LaurentPoly.var(vvar)) ** 2 - 1


def yang_r_bar(n, uvar="u", vvar="v", roles=("auxiliary", "auxiliary")):
    """The quasi-inverse partner: returns ((u-v) Id + P, (u-v)^2 - 1)."""
    return _yang(n, uvar, vvar, roles, 1), zeta_factor(uvar, vvar)


def primed_pair(op, t):
    """The twisted images of a two-leg operator: (tau on leg 1 of op, its
    site flip)."""
    prime = tau_on_leg(op, 1, t)
    return prime, site_permute(prime, (2, 1))


def r_primes(n, t):
    """R' = tau on leg 1 of R(u, v), and R'' = site flip of R'."""
    return primed_pair(yang_r(n), t)


def breve_r_series(n, uvar="u", vvar="v", K=DEFAULT_TRUNCATION):
    """Id - sum_{k=0..K} v^k u^(-k-1) P: the expansion of Id - P/(u-v)
    in the region |v| < |u|, truncated at series index K."""
    if K < 0:
        raise ValueError(f"truncation order must be >= 0, got {K}")
    if uvar == vvar:
        raise ValueError(f"spectral variables must differ, both are {uvar!r}")
    legs = (LegSpace(n, uvar), LegSpace(n, vvar))
    p = flip_p(n, uvar, vvar)
    result = identity_op(legs)
    for k in range(K + 1):
        result = result - op_scale(p, LaurentPoly((uvar, vvar), {(-k - 1, k): 1}))
    return result


@dataclass(frozen=True)
class RFamily:
    """The Yang family bundle: R, its quasi-inverse partner and the twisted
    forms.  build validates sizes only; the identities among them are what
    check_quasi_inverse and check_tau_symmetry report."""

    n: int
    t: Transposition
    r: TensorOp
    r_bar: TensorOp
    r_prime: TensorOp
    r_double_prime: TensorOp

    @staticmethod
    def build(n, t=None, uvar="u", vvar="v"):
        if t is None:
            t = orthogonal_transposition(n)
        if t.n != n:
            raise ValueError(f"transposition size {t.n} does not match n={n}")
        r = yang_r(n, uvar, vvar)
        r_bar, _ = yang_r_bar(n, uvar, vvar)
        return RFamily(n, t, r, r_bar, *primed_pair(r, t))
