"""A closed-form oracle for the rewrite rules of Y(gl_n).

For R = (u - v) Id - P the defining relations of the Yangian in modes are

    [t_ij^(r+1), t_kl^(s)] - [t_ij^(r), t_kl^(s+1)]
        = t_kj^(r) t_il^(s) - t_kj^(s) t_il^(r),        t^(0) = delta,

and telescoped over r they give

    [t_ij^(a), t_kl^(b)]
        = sum_{c=0}^{min(a,b)-1} (t_kj^(c) t_il^(a+b-1-c) - t_kj^(a+b-1-c) t_il^(c))

(Molev, Yangians and Classical Lie Algebras, AMS 2007, Ch. 1).  Both are
written here from these formulas alone, with no series, floor or
telescoping of modes, so a fault in any of them shows: every rule of
derive_rules must be y*x plus the telescoped bracket, and every defining
relation within the cap must normal-form to 0, while the relations with
their right side negated must not.
"""

from __future__ import annotations

import itertools

import pytest

from reflection_workbench.modes import ModeGen, NCPoly, derive_rules, normal_form


def t(i, j, level):
    """t_ij^(level) as an NCPoly, with t^(0) the scalar delta_ij."""
    if level == 0:
        return NCPoly.one() if i == j else NCPoly.zero()
    return NCPoly({(ModeGen("T", i, j, level),): 1})


def bracket(a, b, i, j, k, l):
    """The telescoped right side of [t_ij^(a), t_kl^(b)]."""
    out = NCPoly.zero()
    for c in range(min(a, b)):
        out = out + t(k, j, c) * t(i, l, a + b - 1 - c) - t(k, j, a + b - 1 - c) * t(i, l, c)
    return out


def commutator(x, y):
    return x * y - y * x


def defining_relations(n, d, sign):
    """LHS - sign * RHS of every defining relation with r + s + 1 <= d + 1."""
    out = []
    indices = itertools.product(range(1, n + 1), repeat=4)
    for (i, j, k, l), r in itertools.product(indices, range(d + 1)):
        for s in range(d + 1 - r):
            lhs = commutator(t(i, j, r + 1), t(k, l, s)) - commutator(t(i, j, r), t(k, l, s + 1))
            rhs = t(k, j, r) * t(i, l, s) - t(k, j, s) * t(i, l, r)
            out.append(lhs - rhs * sign)
    return out


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_every_rule_is_the_swap_plus_the_telescoped_bracket(n, d):
    rules = derive_rules(n, d).rules
    gens = [ModeGen("T", i, j, a) for a in range(1, d + 1)
            for i in range(1, n + 1) for j in range(1, n + 1)]
    pairs = {(x, y) for x in gens for y in gens if x > y and x.level + y.level <= d + 1}
    assert set(rules) == pairs
    for x, y in pairs:
        expected = NCPoly({(y, x): 1}) + bracket(x.level, y.level, x.row, x.col, y.row, y.col)
        assert rules[(x, y)] == expected, f"{x}*{y}"


@pytest.mark.parametrize(
    "n, d, relations, remaining",
    [(2, 2, 72, 40), (2, 3, 136, 84), (3, 3, 711, 396), (4, 2, 1248, 432)],
)
def test_the_defining_relations_leave_no_residue_and_their_negation_does(
    n, d, relations, remaining
):
    """Counts are of the nonzero relations, and of the negated ones whose
    normal form is not 0."""
    rs = derive_rules(n, d)
    kept = [p for p in defining_relations(n, d, 1) if not p.is_zero()]
    assert len(kept) == relations
    assert all(normal_form(p, rs).is_zero() for p in kept)
    negated = [p for p in defining_relations(n, d, -1) if not normal_form(p, rs).is_zero()]
    assert len(negated) == remaining
