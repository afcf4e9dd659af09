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
    require_int,
    site_flip,
    tau_on_leg,
)

DEFAULT_TRUNCATION = 8

AUXILIARY_PAIR = ("auxiliary", "auxiliary")

# yang_r by its validated leg pair, and yang_r_prime by that pair and the
# form's matrix g: operators are immutable, so every caller may share them
_YANG_R = {}
_YANG_R_PRIME = {}


def _leg_pair(n, uvar, vvar, roles, labelled=True):
    """The two legs of a two-leg builder, each checked by LegSpace; with
    labelled, the labels must be two distinct variable names."""
    if not isinstance(roles, tuple) or len(roles) != 2:
        raise ValueError(f"roles must be a pair of leg roles, got {roles!r}")
    legs = LegSpace(n, uvar, roles[0]), LegSpace(n, vvar, roles[1])
    if labelled and (uvar is None or vvar is None):
        raise ValueError(f"both legs need a spectral label, got {uvar!r} and {vvar!r}")
    if labelled and uvar == vvar:
        raise ValueError(f"spectral variables must differ, both are {uvar!r}")
    return legs


def flip_p(n, uvar=None, vvar=None, roles=AUXILIARY_PAIR):
    """The permutation operator P on two n-dimensional legs."""
    legs = _leg_pair(n, uvar, vvar, roles, labelled=False)
    one = LaurentPoly.const(1)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[((i, j), (j, i))] = one
    return TensorOp._raw(legs, entries)


def _yang(legs, sign):
    """(u - v) Id + sign P on the two legs, labelled u and v."""
    n = legs[0].dim
    scalar = LaurentPoly.var(legs[0].spectral_var) - LaurentPoly.var(legs[1].spectral_var)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[((i, j), (i, j))] = scalar
    for i in range(1, n + 1):
        entries[((i, i), (i, i))] = scalar + sign
        for j in range(1, n + 1):
            if i != j:
                entries[((i, j), (j, i))] = LaurentPoly.const(sign)
    return TensorOp._raw(legs, entries)


def yang_r(n, uvar="u", vvar="v", roles=AUXILIARY_PAIR):
    """(uvar - vvar) Id - P on two legs labelled uvar, vvar, built once per
    leg pair."""
    legs = _leg_pair(n, uvar, vvar, roles)
    r = _YANG_R.get(legs)
    if r is None:
        r = _YANG_R[legs] = _yang(legs, -1)
    return r


def yang_r_prime(n, uvar, vvar, t):
    """tau on leg 1 of yang_r(n, uvar, vvar), built once per leg pair and form."""
    key = (_leg_pair(n, uvar, vvar, AUXILIARY_PAIR), t.g)
    prime = _YANG_R_PRIME.get(key)
    if prime is None:
        prime = _YANG_R_PRIME[key] = tau_on_leg(yang_r(n, uvar, vvar), 1, t)
    return prime


def yang_r_primes(n, uvar, vvar, t):
    """(R', R'') of yang_r(n, uvar, vvar), R' from yang_r_prime."""
    return _with_flip(yang_r_prime(n, uvar, vvar, t))


def zeta_factor(uvar="u", vvar="v"):
    """(uvar - vvar)^2 - 1, the central quasi-invertibility factor."""
    return (LaurentPoly.var(uvar) - LaurentPoly.var(vvar)) ** 2 - 1


def yang_r_bar(n, uvar="u", vvar="v", roles=AUXILIARY_PAIR):
    """The quasi-inverse partner: returns ((u-v) Id + P, (u-v)^2 - 1)."""
    return _yang(_leg_pair(n, uvar, vvar, roles), 1), zeta_factor(uvar, vvar)


def primed_pair(op, t):
    """The twisted images of a two-leg operator: (tau on leg 1 of op, its
    site flip)."""
    return _with_flip(tau_on_leg(op, 1, t))


def _with_flip(prime):
    """(prime, its site flip), the flip built once per prime, in its memo."""
    return prime, prime.memo("site_flip", lambda: site_flip(prime))


def r_primes(n, t):
    """R' = tau on leg 1 of R(u, v), and R'' = site flip of R'."""
    return yang_r_primes(n, "u", "v", t)


def breve_r_series(n, uvar="u", vvar="v", K=DEFAULT_TRUNCATION):
    """Id - sum_{k=0..K} v^k u^(-k-1) P: the expansion of Id - P/(u-v)
    in the region |v| < |u|, truncated at series index K."""
    require_int("truncation order", K, 0)
    _leg_pair(n, uvar, vvar, AUXILIARY_PAIR)
    p = flip_p(n, uvar, vvar)
    series = LaurentPoly((uvar, vvar), {(-k - 1, k): 1 for k in range(K + 1)})
    return identity_op(p.legs) - op_scale(p, series)


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
        return RFamily(n, t, r, r_bar, *yang_r_primes(n, uvar, vvar, t))
