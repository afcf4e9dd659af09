"""The untruncated bucket builder, the reference that the level-capped
buckets of modes._rtt_buckets and modes._twisted_buckets are tested
against.

collect_buckets runs kernel.column_product on the series term maps with
no floor, so it builds every u^(-alpha) v^(-beta) coefficient that the
truncated series reach, whatever alpha and beta are.  rtt_buckets and
twisted_buckets state the same two sides as modes does.
"""

from __future__ import annotations

import math

from reflection_workbench.kernel import add_into, column_product, mul_into
from reflection_workbench.modes import NCPoly, _leg_factor, _two_leg_factor, series_matrix
from reflection_workbench.rmatrix import r_primes, yang_r


def collect_buckets(lhs, rhs, n):
    """For every matrix entry ((i,a),(j,b)) and every u^(-alpha) v^(-beta)
    monomial of the two factor lists' difference, the NCPoly coefficient,
    keyed by (alpha, beta, i, a, j, b)."""
    raw = {}
    for j in range(1, n + 1):
        for b in range(1, n + 1):
            diffs = column_product(lhs, (j, b), {(0, 0, ()): 1}, mul_into)
            for row, terms in column_product(rhs, (j, b), {(0, 0, ()): 1}, mul_into).items():
                add_into(diffs.setdefault(row, {}), ((k, -x) for k, x in terms.items()))
            for (i, a), diff in diffs.items():
                for (eu, ev, word), coeff in diff.items():
                    raw.setdefault((-eu, -ev, i, a, j, b), {})[word] = coeff
    return {key: NCPoly._raw(terms) for key, terms in raw.items()}


def rtt_buckets(n, length):
    """Every coefficient of R T1(u) T2(v) - T2(v) T1(u) R."""
    r = _two_leg_factor(yang_r(n))
    t1 = _leg_factor(series_matrix("T", n, length, var="u"), 0)
    t2 = _leg_factor(series_matrix("T", n, length, var="v"), 1)
    return collect_buckets([r, t1, t2], [t2, t1, r], n)


def twisted_buckets(n, length, t, scaled=True):
    """(D, every coefficient of R S1 R' S2 - S2 R'' S1 R), with R' and R''
    scaled by D when scaled is true and left as they are otherwise."""
    primes = r_primes(n, t)
    coeffs = (c for op in primes for poly in op.entries.values() for c in poly.terms.values())
    scale = math.lcm(*(c.denominator for c in coeffs))
    r = _two_leg_factor(yang_r(n))
    rp, rpp = (_two_leg_factor(op, scale if scaled else 1) for op in primes)
    s1 = _leg_factor(series_matrix("S", n, length, var="u"), 0)
    s2 = _leg_factor(series_matrix("S", n, length, var="v"), 1)
    return scale, collect_buckets([r, s1, rp, s2], [s2, rpp, s1, r], n)


def within(buckets, alpha_cap, cap, total):
    """The buckets with alpha <= alpha_cap, beta <= cap and alpha + beta
    <= total."""
    return {
        key: p
        for key, p in buckets.items()
        if key[0] <= alpha_cap and key[1] <= cap and key[0] + key[1] <= total
    }
