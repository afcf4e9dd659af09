"""Constructors for the Yang R-matrix family.

R(u,v) = (u-v) Id - P on two labelled legs, its quasi-inverse partner
R-bar with the central factor zeta = (u-v)^2 - 1, the tau-twisted forms
R' and R'' (computed, then checked equal for this family), and the
truncated Laurent expansion of Id - P/(u-v).
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


def yang_r(n, uvar="u", vvar="v", roles=("auxiliary", "auxiliary")):
    """(uvar - vvar) Id - P on two legs labelled uvar, vvar."""
    if uvar == vvar:
        raise ValueError(f"spectral variables must differ, both are {uvar!r}")
    legs = (LegSpace(n, uvar, roles[0]), LegSpace(n, vvar, roles[1]))
    scalar = LaurentPoly.var(uvar) - LaurentPoly.var(vvar)
    return op_scale(identity_op(legs), scalar) - flip_p(n, uvar, vvar, roles)


def zeta_factor(uvar="u", vvar="v"):
    """(uvar - vvar)^2 - 1, the central quasi-invertibility factor."""
    return (LaurentPoly.var(uvar) - LaurentPoly.var(vvar)) ** 2 - 1


def yang_r_bar(n, uvar="u", vvar="v", roles=("auxiliary", "auxiliary")):
    """The quasi-inverse partner: returns ((u-v) Id + P, (u-v)^2 - 1)."""
    if uvar == vvar:
        raise ValueError(f"spectral variables must differ, both are {uvar!r}")
    legs = (LegSpace(n, uvar, roles[0]), LegSpace(n, vvar, roles[1]))
    scalar = LaurentPoly.var(uvar) - LaurentPoly.var(vvar)
    r_bar = op_scale(identity_op(legs), scalar) + flip_p(n, uvar, vvar, roles)
    return r_bar, zeta_factor(uvar, vvar)


def r_primes(n, t, uvar="u", vvar="v"):
    """R' = tau on leg 1 of R, and R'' = site flip of R'.

    For this family R'' coincides with R'; that equality is checked
    rather than assumed, keeping the generic code path honest.
    """
    r = yang_r(n, uvar, vvar)
    r_prime = tau_on_leg(r, 1, t)
    r_double_prime = site_permute(r_prime, (2, 1))
    if r_double_prime != r_prime:
        raise ValueError("site flip of R' does not reproduce R'")
    return r_prime, r_double_prime


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
    """The Yang family bundle: R, its quasi-inverse partner, the twisted
    forms, and both central factors.  build validates sizes only; that
    R R-bar = zeta Id is what check_quasi_inverse reports."""

    n: int
    t: Transposition
    r: TensorOp
    r_bar: TensorOp
    zeta: LaurentPoly
    r_prime: TensorOp
    r_double_prime: TensorOp
    zeta_prime: LaurentPoly
    uvar: str = "u"
    vvar: str = "v"

    @staticmethod
    def build(n, t=None, uvar="u", vvar="v"):
        if t is None:
            t = orthogonal_transposition(n)
        if t.n != n:
            raise ValueError(f"transposition size {t.n} does not match n={n}")
        r = yang_r(n, uvar, vvar)
        r_bar, zeta = yang_r_bar(n, uvar, vvar)
        r_prime, r_double_prime = r_primes(n, t, uvar, vvar)
        zeta_prime = zeta.substitute({uvar: "-" + uvar})
        return RFamily(
            n, t, r, r_bar, zeta, r_prime, r_double_prime, zeta_prime, uvar, vvar
        )
