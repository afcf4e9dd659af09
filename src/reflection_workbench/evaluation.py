"""Evaluation images of the generator series.

Polynomial representatives for series acting through one extra
N-dimensional space at a formal evaluation point: the basic T-operator
(u - z) Id - P, the twisted solution built from it, the quasi-inverse
pair of L-operators with their three defining relations, the truncated
pairing expansion, and coaction images of reflection-equation solutions.

eval_t returns the plain operator on legs (auxiliary u, quantum z);
build_twisted_s and coaction_image read the labels and the size off
those legs, and tau_on_leg refuses a transposition of another size.

Every identity in scope is multilinear in each series factor separately,
so each factor is replaced by its denominator-cleared polynomial
representative; the dropped scalar denominators cancel between the two
sides of every relation and all checks stay in exact Laurent arithmetic.
"""

from __future__ import annotations

from .kernel import (
    Frozen,
    LaurentPoly,
    fresh_label,
    op_chain,
    op_substitute,
    tau_on_leg,
    tensor_compose,
)
from .rmatrix import breve_r_series, yang_r, yang_r_bar
from .verify import CheckReport, compare_sides


def eval_t(n, uvar="u", zvar="z"):
    """The basic evaluation image of the generator series on legs
    (auxiliary uvar, quantum zvar): the cleared representative
    (u - z) Id - P of Id - P/(u - z).  That it satisfies the RTT relation
    is what check_rtt reports."""
    return yang_r(n, uvar, zvar, roles=("auxiliary", "quantum"))


def build_twisted_s(t_op, t):
    """The twisted solution: t applied on the auxiliary leg of T (sending
    u to -u) composed with T itself, ((-u - z) Id - Q)((u - z) Id - P)."""
    return tensor_compose(tau_on_leg(t_op, 1, t), t_op)


class DoubleEval(Frozen):
    """The quasi-inverse pair of evaluation images on legs
    (auxiliary uvar, quantum zvar).

    l_plus = (u - z) Id - P and l_minus = (u - z) Id + P multiply to
    ((u - z)^2 - 1) Id in either order.  Only the legs and labels are
    validated; that law is what check_quasi_inverse reports.  Each
    representative is the true series image up to a scalar; the denom
    fields record the cleared linear factor.  skip_check has no effect;
    it is accepted only because perfbench/child.py still passes it.
    """

    __slots__ = ("n", "uvar", "zvar", "l_plus", "l_minus", "denom_plus", "denom_minus")

    def __init__(self, l_plus, l_minus, denom_plus, denom_minus, skip_check=False):
        if l_plus.legs != l_minus.legs:
            raise ValueError("the two operators must share the same legs")
        if len(l_plus.legs) != 2:
            raise ValueError("expected operators on exactly two legs")
        aux, quantum = l_plus.legs
        if aux.spectral_var is None or quantum.spectral_var is None:
            raise ValueError("both legs need spectral labels")
        if aux.dim != quantum.dim:
            raise ValueError("leg dimensions must agree")
        object.__setattr__(self, "n", aux.dim)
        object.__setattr__(self, "uvar", aux.spectral_var)
        object.__setattr__(self, "zvar", quantum.spectral_var)
        object.__setattr__(self, "l_plus", l_plus)
        object.__setattr__(self, "l_minus", l_minus)
        object.__setattr__(self, "denom_plus", denom_plus)
        object.__setattr__(self, "denom_minus", denom_minus)

    def __repr__(self):
        return f"DoubleEval(n={self.n}, uvar={self.uvar!r}, zvar={self.zvar!r})"


def eval_double(n, uvar="u", zvar="z"):
    """Both evaluation images: l_plus = (u - z) Id - P and the quasi-inverse
    partner l_minus = (u - z) Id + P."""
    roles = ("auxiliary", "quantum")
    l_plus = yang_r(n, uvar, zvar, roles=roles)
    l_minus, _ = yang_r_bar(n, uvar, zvar, roles=roles)
    scalar = LaurentPoly.var(uvar) - LaurentPoly.var(zvar)
    return DoubleEval(l_plus, l_minus, scalar, scalar)


def check_double_relations(d):
    """The three defining relations of the pair, one verdict each.

    On legs (aux u, aux v, quantum z) with the middle factor
    R = (u - v) Id - P acting on the two auxiliary legs:

      minus_minus:  Lm1(u) Lm2(v) R  =  R Lm2(v) Lm1(u)
      plus_plus:    R Lp1(u) Lp2(v)  =  Lp2(v) Lp1(u) R
      cross:        Lp1(u) R Lm2(v)  =  Lm2(v) R Lp1(u)

    The report's params carry the per-relation verdicts; the witness
    comes from the first failing relation.
    """
    vvar = fresh_label("v", set(d.l_plus.variables) | set(d.l_minus.variables))
    aux_u, quantum = d.l_plus.legs
    ambient = (aux_u, aux_u.with_label(vvar), quantum)
    r_mid = (yang_r(d.n, d.uvar, vvar), (1, 2))
    lp1 = (d.l_plus, (1, 3))
    lp2 = (op_substitute(d.l_plus, {d.uvar: vvar}), (2, 3))
    lm1 = (d.l_minus, (1, 3))
    lm2 = (op_substitute(d.l_minus, {d.uvar: vvar}), (2, 3))
    sides = [
        ("minus_minus", [lm1, lm2, r_mid], [r_mid, lm2, lm1]),
        ("plus_plus", [r_mid, lp1, lp2], [lp2, lp1, r_mid]),
        ("cross", [lp1, r_mid, lm2], [lm2, r_mid, lp1]),
    ]
    verdicts, witness = compare_sides(ambient, sides)
    params = {"n": d.n, "verdicts": verdicts}
    return CheckReport("double_relations", params, all(verdicts.values()), witness)


def pairing_series(n, K):
    """Id - sum_{k=0..K} w^k z^(-k-1) P: the truncated expansion of
    Id - P/(z - w) in the region |w| < |z|."""
    return breve_r_series(n, "z", "w", K)


def coaction_image(s, t_op, t):
    """The evaluation coaction applied to a reflection-equation solution:
    [t on the auxiliary leg of T, at -u] . S . T on the block enlarged by
    the quantum leg of the evaluation operator t_op.

    s acts on (auxiliary leg at t_op's auxiliary label, coefficient
    block); the image acts on the same legs followed by t_op's quantum
    leg.  Label collisions between the two blocks are an error, never
    silently renamed.
    """
    if not s.legs:
        raise ValueError("the solution needs at least the auxiliary leg")
    lead, (aux, quantum) = s.legs[0], t_op.legs
    if (lead.dim, lead.spectral_var) != (aux.dim, aux.spectral_var):
        raise ValueError(
            f"solution leg (dim {lead.dim}, label {lead.spectral_var!r}) does not "
            f"match the evaluation operator's (dim {aux.dim}, label {aux.spectral_var!r})"
        )
    if quantum.spectral_var in s.variables:
        raise ValueError(
            f"evaluation label {quantum.spectral_var!r} collides with the solution's variables"
        )
    m = len(s.legs)
    ambient = s.legs + (quantum,)
    outer = (1, m + 1)
    twisted = tau_on_leg(t_op, 1, t)
    middle = tuple(range(1, m + 1))
    return op_chain(ambient, [(twisted, outer), (s, middle), (t_op, outer)])
