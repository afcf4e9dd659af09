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

AUXILIARY_PAIR = ("auxiliary", "auxiliary")

# yang_r by its validated leg pair: operators are immutable, so every
# caller may share them, and what is derived from one is kept in its memo
_YANG_R = {}


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


def zeta_factor(uvar="u", vvar="v"):
    """(uvar - vvar)^2 - 1, the central quasi-invertibility factor."""
    return (LaurentPoly.var(uvar) - LaurentPoly.var(vvar)) ** 2 - 1


def yang_r_bar(n, uvar="u", vvar="v", roles=AUXILIARY_PAIR):
    """The quasi-inverse partner: returns ((u-v) Id + P, (u-v)^2 - 1)."""
    return _yang(_leg_pair(n, uvar, vvar, roles), 1), zeta_factor(uvar, vvar)


def prime(op, t):
    """tau on leg 1 of op, built once per operator and form, in its memo."""
    return op.memo(("prime", t.g), lambda: tau_on_leg(op, 1, t))


def primed_pair(op, t):
    """The twisted images of a two-leg operator: (prime(op, t), its site
    flip), the flip built once per prime, in its memo."""
    p = prime(op, t)
    return p, p.memo("site_flip", lambda: site_flip(p))


def r_primes(n, t):
    """R' = tau on leg 1 of R(u, v), and R'' = site flip of R'."""
    return primed_pair(yang_r(n), t)


def breve_r_series(n, uvar, vvar, K):
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
        return RFamily(n, t, r, r_bar, *primed_pair(r, t))
