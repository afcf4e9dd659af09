"""Exact identity predicates.

Every equation asserted about the R-matrix / fusion / reflection-equation
structures becomes a named check returning a CheckReport.  A failing check
carries the lexicographically first disagreeing entry as a witness; a pass
means the complete entry set of both sides was compared exactly.
A report holds no timing: the command line times each registered check
once, around its whole runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import (
    block_labels,
    breve_product,
    fused_r,
    fused_r_prime_flipped,
)
from .kernel import (
    LaurentPoly,
    LegSpace,
    TensorOp,
    extract_entry,
    fresh_label,
    identity_op,
    op_chain,
    op_scale,
    op_substitute,
    site_permute,
    tau_on_leg,
)
from .rmatrix import flip_p, yang_r


@dataclass(frozen=True)
class CheckReport:
    name: str
    params: dict
    passed: bool
    witness: dict | None

    def to_json(self):
        return {
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "witness": self.witness,
        }


def first_witness(lhs, rhs):
    """The lexicographically first (row, col) where lhs and rhs differ, with
    both entries rendered, or None when every entry agrees.  An entry stored
    on one side only counts as a difference; the leg layouts must match."""
    if lhs.legs != rhs.legs:
        raise ValueError("leg layout mismatch")
    differing = [
        key
        for key in lhs.entries.keys() | rhs.entries.keys()
        if lhs.entries.get(key) != rhs.entries.get(key)
    ]
    if not differing:
        return None
    row, col = min(differing)
    return {
        "row": list(row),
        "col": list(col),
        "lhs": str(extract_entry(lhs, row, col)),
        "rhs": str(extract_entry(rhs, row, col)),
    }


def _truncated(op, keep):
    return TensorOp(op.legs, {key: poly.filtered(keep) for key, poly in op.entries.items()})


def compare_sides(ambient, sides, keep=None):
    """Compare a list of (label, lhs factors, rhs factors); return the
    verdict of each label and the witness.

    Each side is the op_chain of its factors over the ambient legs; with
    keep, only the monomials it accepts are compared.  All sides are fully
    compared (no shortcut); the witness is the first_witness of the first
    failing side in order, or None when every side agrees.
    """
    verdicts = {}
    witness = None
    for label, lhs, rhs in sides:
        lhs, rhs = op_chain(ambient, lhs), op_chain(ambient, rhs)
        if keep is not None:
            lhs, rhs = _truncated(lhs, keep), _truncated(rhs, keep)
        found = first_witness(lhs, rhs)
        verdicts[label] = found is None
        if found is not None and witness is None:
            witness = dict(found, side=label) if label else found
    return verdicts, witness


def _compare(name, params, ambient, sides, keep=None):
    """Build the report for a list of sides (see compare_sides)."""
    _, witness = compare_sides(ambient, sides, keep)
    return CheckReport(name, params, witness is None, witness)


def _span(first, last):
    """The target positions first..last."""
    return tuple(range(first, last + 1))


def check_ybe(r):
    """R12 R13 R23 = R23 R13 R12 on three legs."""
    if len(r.legs) != 2:
        raise ValueError("check_ybe expects an operator on two legs")
    a = r.legs[0].spectral_var
    b = r.legs[1].spectral_var
    if a is None or b is None or a == b:
        raise ValueError("check_ybe needs two distinct spectral labels")
    w = fresh_label("w", set(r.variables))
    legs = (r.legs[0], r.legs[1], r.legs[1].with_label(w))
    r12 = (r, (1, 2))
    r13 = (op_substitute(r, {b: w}), (1, 3))
    r23 = (op_substitute(r, {a: b, b: w}), (2, 3))
    params = {"n": r.legs[0].dim, "labels": f"{a},{b},{w}"}
    return _compare("ybe", params, legs, [("", [r12, r13, r23], [r23, r13, r12])])


def check_quasi_inverse(r, r_bar, zeta):
    """r r_bar = zeta Id and r_bar r = zeta Id."""
    if r.legs != r_bar.legs:
        raise ValueError("check_quasi_inverse: mismatched legs")
    whole = _span(1, len(r.legs))
    target = [(op_scale(identity_op(r.legs), zeta), whole)]
    sides = [
        ("r*r_bar", [(r, whole), (r_bar, whole)], target),
        ("r_bar*r", [(r_bar, whole), (r, whole)], target),
    ]
    params = {"n": r.legs[0].dim, "zeta": str(zeta)}
    return _compare("quasi_inverse", params, r.legs, sides)


def check_tau_symmetry(r, t):
    """tau_1 tau_2 R = R_21: transposing both legs of R is its site flip."""
    whole = (1, 2)
    both_legs = tau_on_leg(tau_on_leg(r, 1, t), 2, t)
    sides = [("", [(both_legs, whole)], [(site_permute(r, (2, 1)), whole)])]
    params = {"n": r.legs[0].dim, "kind": t.kind}
    return _compare("tau_symmetry", params, r.legs, sides)


def check_pairing(series, order):
    """(z - w) times the pairing series of the given order is the cleared
    operator (z - w) Id - P up to the first dropped term z^(-order-1)
    w^(order+1) P.  Multiplying by z - w is injective, so this pins every
    coefficient of the series."""
    zvar, wvar = (leg.spectral_var for leg in series.legs)
    p_op = flip_p(series.legs[0].dim, zvar, wvar)
    scalar = LaurentPoly.var(zvar) - LaurentPoly.var(wvar)
    cleared = op_scale(identity_op(series.legs), scalar) - p_op
    boundary = op_scale(p_op, LaurentPoly((zvar, wvar), {(-order - 1, order + 1): 1}))
    whole = (1, 2)
    lhs = [(op_scale(series, scalar) - cleared, whole)]
    sides = [("cross_multiplied", lhs, [(boundary, whole)])]
    params = {"n": series.legs[0].dim, "orders_checked": order + 1}
    return _compare("pairing", params, series.legs, sides)


def check_rtt(r, t_op):
    """R12 T1 T2 = T2 T1 R12 with T the one-aux-leg operator at r's labels."""
    if len(r.legs) != 2:
        raise ValueError("check_rtt expects an R-matrix on two legs")
    a = r.legs[0].spectral_var
    b = r.legs[1].spectral_var
    if not t_op.legs or t_op.legs[0].spectral_var != a:
        raise ValueError(f"t_op's auxiliary leg must carry the label {a!r}")
    if t_op.legs[0].dim != r.legs[0].dim:
        raise ValueError("t_op auxiliary dimension does not match R")
    if b in t_op.variables:
        raise ValueError(f"t_op must not already depend on {b!r}")
    coeff = t_op.legs[1:]
    ambient = (r.legs[0], r.legs[1]) + coeff
    coeff_targets = _span(3, len(ambient))
    t1 = (t_op, (1,) + coeff_targets)
    t2 = (op_substitute(t_op, {a: b}), (2,) + coeff_targets)
    r12 = (r, (1, 2))
    params = {"n": r.legs[0].dim, "coeff_legs": len(coeff)}
    return _compare("rtt", params, ambient, [("", [r12, t1, t2], [t2, t1, r12])])


def _re_sides(r, r_prime, r_double_prime, s1, s2):
    """Shared layout for the (conjugate) reflection equation builders:
    the ambient legs and the one side R S1 R' S2 = S2 R'' S1 R."""
    if not s1.legs or not s2.legs:
        raise ValueError("solutions need at least the auxiliary leg")
    if s1.legs[1:] != s2.legs[1:]:
        raise ValueError("solutions must share the coefficient block")
    if (s1.legs[0].dim, s2.legs[0].dim) != (r.legs[0].dim, r.legs[1].dim):
        raise ValueError("solution leg dimensions do not match the R-matrix")
    if (s1.legs[0].spectral_var, s2.legs[0].spectral_var) != (
        r.legs[0].spectral_var,
        r.legs[1].spectral_var,
    ):
        raise ValueError("solution labels do not match the R-matrix labels")
    coeff = s1.legs[1:]
    ambient = (s1.legs[0], s2.legs[0]) + coeff
    coeff_targets = _span(3, len(ambient))
    big_s1 = (s1, (1,) + coeff_targets)
    big_s2 = (s2, (2,) + coeff_targets)
    big_r = (r, (1, 2))
    lhs = [big_r, big_s1, (r_prime, (1, 2)), big_s2]
    rhs = [big_s2, (r_double_prime, (1, 2)), big_s1, big_r]
    return ambient, [("", lhs, rhs)]


def check_re(fam, s1, s2):
    """R S1 R' S2 = S2 R'' S1 R (matrix reflection equation)."""
    ambient, sides = _re_sides(fam.r, fam.r_prime, fam.r_double_prime, s1, s2)
    params = {"n": fam.n, "kind": fam.t.kind, "coeff_legs": len(s1.legs) - 1}
    return _compare("re", params, ambient, sides)


def check_conjugate_re(fam, s1, s2):
    """R-bar S1 (R-bar)'' S2 = S2 (R-bar)' S1 R-bar.

    The primed partners of R-bar are built by the same tau rules; no
    equality between them is assumed.  The middle factor on the LEFT is
    the double-primed one, mirroring the plain reflection equation with
    the sides' roles exchanged.
    """
    r_bar = fam.r_bar
    r_bar_prime = tau_on_leg(r_bar, 1, fam.t)
    r_bar_double = site_permute(r_bar_prime, (2, 1))
    ambient, sides = _re_sides(r_bar, r_bar_double, r_bar_prime, s1, s2)
    params = {"n": fam.n, "kind": fam.t.kind}
    return _compare("conjugate_re", params, ambient, sides)


def _swap_adjacent(i, total):
    sigma = list(range(1, total + 1))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return tuple(sigma)


def check_membership(h, fam):
    """R_{i,i+1} h = sigma_{i,i+1}(h) R_{i,i+1} for all adjacent aux pairs."""
    aux_count = 0
    for position, leg in enumerate(h.legs, start=1):
        if leg.role == "auxiliary" and leg.spectral_var == f"u{position}":
            aux_count += 1
        else:
            break
    if aux_count < 2:
        raise ValueError("membership needs at least two auxiliary legs labelled u1, u2, ...")
    n = h.legs[0].dim
    if n != fam.n:
        raise ValueError(f"family size {fam.n} does not match legs of dimension {n}")
    whole = _span(1, len(h.legs))
    sides = []
    for i in range(1, aux_count):
        r_i = (yang_r(n, f"u{i}", f"u{i + 1}"), (i, i + 1))
        flipped = site_permute(h, _swap_adjacent(i, len(h.legs)))
        sides.append((f"i={i}", [r_i, (h, whole)], [(flipped, whole), r_i]))
    params = {"n": n, "k": aux_count}
    return _compare("membership", params, h.legs, sides)


def check_characteristic(family, fam, k, i, primed_middle=True):
    """S^(k) = S^(i)_1 (R')^(i),(k-i) S^(k-i)_2 for one partition.

    primed_middle=False deliberately drops the tau twist on the middle
    factor; that variant must fail for a generic seed and exists as a
    negative control.
    """
    if not 0 <= i <= k <= family.k_max:
        raise ValueError(f"need 0 <= i <= k <= {family.k_max}, got i={i}, k={k}")
    j = k - i
    whole = family.component(k)
    legs = whole.legs
    coeff_targets = _span(k + 1, len(legs))
    first = family.component(i)
    second = family.component(j)
    relabel = {f"u{b}": f"u{i + b}" for b in range(1, j + 1) if i}
    if relabel:
        second = op_substitute(second, relabel)
    labels = block_labels("u", k)
    middle = fused_r(
        i, j, fam.n, primed=primed_middle, t=fam.t, u_labels=labels[:i], v_labels=labels[i:]
    )
    rhs = [
        (first, _span(1, i) + coeff_targets),
        (middle, _span(1, k)),
        (second, _span(i + 1, k) + coeff_targets),
    ]
    params = {
        "n": fam.n,
        "k": k,
        "i": i,
        "primed_middle": primed_middle,
    }
    sides = [("", [(whole, _span(1, len(legs)))], rhs)]
    return _compare("characteristic", params, legs, sides)


def _fused_blocks(chi, fam, k, m):
    """Common layout for the fused componentwise checks: ambient legs and
    the factors chi^(k) on the u-block and chi^(m), relabelled, on the
    v-block."""
    coeff = chi.coeff_legs
    u_labels = block_labels("u", k)
    v_labels = block_labels("v", m)
    for leg in coeff:
        if leg.spectral_var in set(u_labels) | set(v_labels):
            raise ValueError("coefficient labels collide with block labels")
    ambient = tuple(LegSpace(fam.n, name) for name in u_labels + v_labels) + coeff
    coeff_targets = _span(k + m + 1, len(ambient))
    chi_m = chi.component(m)
    relabel = {f"u{b}": f"v{b}" for b in range(1, m + 1)}
    if relabel:
        chi_m = op_substitute(chi_m, relabel)
    return (
        ambient,
        (chi.component(k), _span(1, k) + coeff_targets),
        (chi_m, _span(k + 1, k + m) + coeff_targets),
    )


def check_fused_re(chi, fam, k, m):
    """Componentwise reflection equation for a graded family:
    R^(k),(m) chi^(k)_1 (R')^(k),(m) chi^(m)_2
      = chi^(m)_2 (R'')^(k),(m) chi^(k)_1 R^(k),(m)."""
    n = fam.n
    ambient, chi_k, chi_m = _fused_blocks(chi, fam, k, m)
    block = _span(1, k + m)
    plain = (fused_r(k, m, n), block)
    primed = (fused_r(k, m, n, primed=True, t=fam.t), block)
    flipped = (fused_r_prime_flipped(k, m, n, fam.t), block)
    sides = [("", [plain, chi_k, primed, chi_m], [chi_m, flipped, chi_k, plain])]
    params = {"n": n, "k": k, "m": m, "kind": fam.t.kind}
    return _compare("fused_re", params, ambient, sides)


def check_intertwiner(chi, fam, K, k, m):
    """breveR chi^(k)_1 breveR' chi^(m)_2 = chi^(m)_2 breveR' chi^(k)_1 breveR
    compared modulo terms of order > K, where the order of a monomial is its
    total inverse degree in the u-block variables."""
    if K < 0:
        raise ValueError("truncation order must be >= 0")
    n = fam.n
    slack = k * (k - 1) // 2
    ambient, chi_k, chi_m = _fused_blocks(chi, fam, k, m)
    block = _span(1, k + m)
    breve = (breve_product(k, m, n, K + slack, primed=False, t=fam.t), block)
    breve_p = (breve_product(k, m, n, K + slack, primed=True, t=fam.t), block)
    sides = [("", [breve, chi_k, breve_p, chi_m], [chi_m, breve_p, chi_k, breve])]
    u_labels = set(block_labels("u", k))

    def low_order(exps):
        inverse_degree = -sum(e for name, e in exps.items() if name in u_labels)
        return inverse_degree <= K

    params = {
        "n": n,
        "k": k,
        "m": m,
        "order_checked": K,
        "kind": fam.t.kind,
    }
    return _compare("intertwiner", params, ambient, sides, keep=low_order)
