"""Exact identity predicates.

Every equation asserted about the R-matrix / fusion / reflection-equation
structures becomes a named check returning a CheckReport.  A check states
each side as a factor list of small (op, targets) factors; rtt_sides and
re_sides write the RTT order R T1 T2 = T2 T1 R and the reflection-equation
order R S1 R' S2 = S2 R'' S1 R down once, for every check here and for
the mode layer.  compare_sides evaluates the sides one basis row at a time
through the kernel's column engine (column_product): row r of F1...Fm is
column r of Fm^T...F1^T, so each half is prepared reversed and transposed,
and no side is ever held whole.  Every factor's legs must be the ambient legs at its targets;
_transposed refuses any other layout for every check.  Inside a row
each entry is one exact int, its polynomial evaluated at powers of two
by Kronecker substitution over a digit box wide enough that evaluation
is injective, so a term product is one shift of a long int and equal
entries are equal ints; keep masks digits, and the witness decodes them
into polynomials again.  A pass is a proof: the sides agree exactly on
every row, compared directly or through a proven symmetry.  Rows are
compared in ascending order, and a failing side stops at its first
differing row, so a failing check carries the lexicographically first
disagreeing (row, col) entry as a witness.
A report holds no timing: the command line times each registered check
once, around its whole runner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .fusion import block_layout, block_legs, breve_factors, fused_r_factors
from .kernel import (
    LaurentPoly,
    column_product,
    fresh_label,
    identity_op,
    mul_shifted,
    op_scale,
    op_substitute,
    orbit_representatives,
    require_int,
    signed_symmetries,
    tau_on_leg,
)
from .rmatrix import flip_p, primed_pair, yang_r


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


def _witness(row, col, lhs, rhs):
    """The witness dict for a differing (row, col) and its two entries."""
    return {"row": list(row), "col": list(col), "lhs": str(lhs), "rhs": str(rhs)}


def _transposed(op, targets, ambient, context):
    """A factor transposed for row application: its 0-based target slots,
    rows = _rows(op), the position in context of each of op's variables,
    and its exponent bounds over context, lcd and norm (see _rows).  The
    factor's legs must be the ambient legs at its targets, checked on
    every call; the rest is built once per (targets, context), in op's
    memo."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets) or not all(1 <= p <= len(ambient) for p in targets):
        raise ValueError(f"targets {targets} are not distinct positions 1..{len(ambient)}")
    if tuple(ambient[p - 1] for p in targets) != op.legs:
        raise ValueError(
            f"factor legs {op.legs} do not match the ambient legs at targets {targets}"
        )

    def build():
        rows = op.memo("rows", lambda: _rows(op))
        where = tuple(context.index(name) for name in op.variables)
        low, high = [0] * len(context), [0] * len(context)
        for k, i in enumerate(where):
            low[i], high[i] = rows.low[k], rows.high[k]
        return SimpleNamespace(
            slots=tuple(p - 1 for p in targets), rows=rows, where=where,
            low=tuple(low), high=tuple(high), lcd=rows.lcd, norm=rows.norm,
        )

    return op.memo(("transposed", targets, context), build)


def _rows(op):
    """op's entries grouped by row, as (col, term map) pairs, so
    kernel.column_product applies its transpose; with its least and
    greatest exponent of each of its variables, the lcd of its
    coefficients and its largest row L1 norm once scaled by that lcd."""
    by_row, norms, lcd = {}, {}, 1
    for (row, col), poly in op.entries.items():
        terms = poly.terms
        by_row.setdefault(row, []).append((col, terms))
        norms[row] = norms.get(row, 0) + sum(map(abs, terms.values()))
        lcd = math.lcm(lcd, *(c.denominator for c in terms.values()))
    exponents = [e for entries in by_row.values() for _, terms in entries for e in terms]
    low, high = (
        tuple(pick((e[i] for e in exponents), default=0) for i in range(len(op.variables)))
        for pick in (min, max)
    )
    norm = int(max(norms.values(), default=0) * lcd)
    return SimpleNamespace(by_row=by_row, low=low, high=high, lcd=lcd, norm=norm)


class _Box:
    """The digit box of one side (see compare_sides): x^e, for
    low_i <= e_i <= low_i + spans_i, is the digit of cb bits at position
    sum_i (e_i - low_i) * strides_i, and an entry holds scale times its
    polynomial.  With keep, mask has every bit of the digits of the
    monomials keep accepts."""

    def __init__(self, context, low, spans, cb, scale, keep):
        self.context, self.low, self.spans, self.cb, self.scale = context, low, spans, cb, scale
        self.strides = tuple(math.prod(span + 1 for span in spans[:i]) for i in range(len(spans)))
        self.width = cb * math.prod(span + 1 for span in spans)
        # 2^(cb - 1) in every digit: added to an entry, it turns each
        # balanced digit into a plain one in 0..2^cb - 1, with no carries
        self.bias = ((1 << self.width) - 1) // ((1 << cb) - 1) << (cb - 1)
        self.mask = None
        if keep is not None:
            digits = [
                "1" * cb if keep(dict(zip(context, e))) else "0" * cb for e in self.monomials()
            ]
            self.mask = int("".join(reversed(digits)), 2)
            self.kept_bias = self.bias & self.mask

    def shift(self, exps, low):
        """The bit shift of x^exps once every exponent is shifted by -low."""
        return self.cb * sum((e - b) * s for e, b, s in zip(exps, low, self.strides))

    def monomials(self):
        """The exponent vector of each digit position, in position order."""
        ranges = [range(b, b + span + 1) for b, span in zip(self.low, self.spans)]
        return (e[::-1] for e in itertools.product(*reversed(ranges)))

    def kept(self, value):
        """The entry with the digits of the monomials keep rejects cleared."""
        if self.mask is None:
            return value
        return ((value + self.bias) & self.mask) - self.kept_bias

    def decoded(self, value):
        """The entry as the LaurentPoly over context it stands for: its
        balanced digits, divided by scale, at the box's monomials."""
        text = format(value + self.bias, f"0{self.width}b")
        half, terms = 1 << (self.cb - 1), {}
        for position, exps in enumerate(self.monomials()):
            end = self.width - self.cb * position
            digit = int(text[end - self.cb:end], 2) - half
            if digit:
                terms[exps] = Fraction(digit, self.scale)
        return LaurentPoly._raw(self.context, terms)


def _kronecker(lhs, rhs, ambient, context, keep):
    """One side as Kronecker ints (see compare_sides): for each half its
    prepared factors, which kernel.column_product applies with
    mul_shifted, and its start int; then the side's _Box."""
    halves = [
        [_transposed(op, targets, ambient, context) for op, targets in reversed(half)]
        for half in (lhs, rhs)
    ]
    arity = range(len(context))
    offsets = [tuple(sum(f.low[i] for f in half) for i in arity) for half in halves]
    reaches = [tuple(sum(f.high[i] - f.low[i] for f in half) for i in arity) for half in halves]
    low = tuple(map(min, *offsets))
    spans = tuple(max(o[i] - low[i] + r[i] for o, r in zip(offsets, reaches)) for i in arity)
    lcds = [math.prod(f.lcd for f in half) for half in halves]
    bound = max(lcds[1 - h] * math.prod(f.norm for f in halves[h]) for h in (0, 1))
    box = _Box(context, low, spans, bound.bit_length() + 1, lcds[0] * lcds[1], keep)

    def applied(op, f):
        """f, op's _transposed, as its terms in (shift, int) pairs, built
        once per box layout of its variables, and each shift once per
        exponent vector."""
        rows, strides = f.rows, tuple(box.strides[i] for i in f.where)

        def build():
            shifts = {}
            for entries in rows.by_row.values():
                for _, terms in entries:
                    for e in terms:
                        if e not in shifts:
                            shifts[e] = box.cb * sum(
                                (x - b) * s for x, b, s in zip(e, rows.low, strides)
                            )
            return {
                row: [
                    (col, tuple((shifts[e], int(c * rows.lcd)) for e, c in terms.items()))
                    for col, terms in entries
                ]
                for row, entries in rows.by_row.items()
            }

        return f.slots, op.memo(("applied", box.cb, strides), build)

    prepared = []
    for h, half in enumerate((lhs, rhs)):
        factors = [applied(op, f) for (op, _), f in zip(reversed(half), halves[h])]
        prepared.append((factors, lcds[1 - h] << box.shift(offsets[h], low)))
    return prepared, box


def compare_sides(ambient, sides, keep=None):
    """Compare a list of (label, lhs factors, rhs factors); return the
    verdict of each label and the witness.

    Each side is the ordered product of its (op, targets) factors on the
    ambient legs, evaluated one basis row at a time, so no side is ever
    built whole.  Laurent coefficients commute, so row r of F1...Fm is
    column r of Fm^T...F1^T: each half is prepared reversed and transposed
    and kernel.column_product applies it to e_r.  Every factor's legs must
    equal the ambient legs at its targets.  What _transposed derives from
    a factor is kept in its operator's memo, so an operator shared between
    sides or checks is prepared once per targets and variable context.

    Each entry of a row is one exact int, by Kronecker substitution.  Per
    side, each factor's exponents are shifted by its least exponent of
    each variable and its coefficients are scaled by their lcd, so a term
    of it is c*x^e with c integral and e >= 0.  A half's entries are then
    lcd_half^-1 * x^M_half times such polynomials, where lcd_half is the
    product of its factors' lcds and M_half the sum of their shifts.  Let
    M be the least M_half of the two halves, per variable.  The side's
    box holds every x^e with 0 <= e_i - M_i <= span_i, span_i the most
    that either half reaches, and x^e is evaluated at 2^(cb * p(e)) with
    p(e) = sum_i (e_i - M_i) * stride_i and stride_i = prod_{j<i}
    (span_j + 1), so distinct monomials of the box get distinct digit
    positions.  A factor term c*x^e is applied to a row entry as
    (c * entry) << shift (kernel.mul_shifted), and each half starts at
    the other half's lcd times x^(M_half - M): both halves compute
    lcd_lhs * lcd_rhs * x^-M times their side's entries, and these are
    equal exactly when the entries are.

    Equality of the ints is a proof.  A row's L1 norm (the sum of
    |coefficient| over its entries' terms) grows at most by the factor's
    largest row L1 norm at each factor, so every digit of a half's entry
    has |digit| <= B = lcd_other * prod_f (scaled row L1 norm of f).  cb
    is taken with 2^(cb - 1) > B, so every digit is balanced,
    -2^(cb - 1) < digit < 2^(cb - 1), at a position >= 0, and such
    digits are read back uniquely from the value at 2^cb: evaluation is
    injective on the box.  With keep, the digits of the monomials it
    rejects are masked off before the ints are compared, and the witness
    decodes its two entries into LaurentPolys over the check's variable
    context, dividing by lcd_lhs * lcd_rhs.

    Rows are compared only at the least row of each orbit of the signed
    permutations w (w e_i = s_i e_sigma(i)) that every factor is proven
    to commute with: kernel.signed_symmetries tests each factor, entry by
    entry, for F(sigma r, sigma c) = s(r) s(c) F(r, c).  W = w on every
    leg then commutes with each side, so a side's row at sigma r is +-its
    row at r times W^-1, and two sides that agree at r agree on r's orbit;
    keep sees only monomials, which W leaves alone.  With an empty group
    every row is its own representative.  Each side runs through the
    representatives in ascending order and stops at the first that
    differs: every differing row has a differing representative at or
    below it, so that is the least differing row, and the side fails.  A
    side whose representatives all agree passes.  The witness is the
    least differing column in that row of the first failing side in
    order, or None when every side agrees.
    """
    ambient = tuple(ambient)
    context = {leg.spectral_var for leg in ambient if leg.spectral_var is not None}
    for _label, lhs, rhs in sides:
        for op, _targets in lhs + rhs:
            context.update(op.variables)
    context = tuple(sorted(context))
    prepared = [(label, *_kronecker(lhs, rhs, ambient, context, keep)) for label, lhs, rhs in sides]

    def differences(halves, box, row):
        """(col, lhs entry, rhs entry) for each col where the two sides'
        rows at row differ; the rows themselves are dropped on return."""
        (lhs, lhs_start), (rhs, rhs_start) = halves
        left = column_product(lhs, row, lhs_start, mul_shifted)
        right = column_product(rhs, row, rhs_start, mul_shifted)
        found = []
        for col in left.keys() | right.keys():
            entries = box.kept(left.get(col, 0)), box.kept(right.get(col, 0))
            if entries[0] != entries[1]:
                found.append((col, *entries))
        return found

    group = signed_symmetries(ambient, [op for _, lhs, rhs in sides for op, _ in lhs + rhs])
    rows = list(itertools.product(*(range(1, leg.dim + 1) for leg in ambient)))
    representatives = orbit_representatives(rows, group)
    verdicts = {}
    witness = None
    for label, halves, box in prepared:
        verdicts[label] = True
        for row in representatives:
            found = differences(halves, box, row)
            if found:
                verdicts[label] = False
                if witness is None:
                    col, left, right = min(found, key=lambda difference: difference[0])
                    witness = _witness(row, col, box.decoded(left), box.decoded(right))
                    if label:
                        witness["side"] = label
                break
    return verdicts, witness


def _compare(name, params, ambient, sides, keep=None):
    """Build the report for a list of sides (see compare_sides)."""
    _, witness = compare_sides(ambient, sides, keep)
    return CheckReport(name, params, witness is None, witness)


def _span(first, last):
    """The target positions first..last."""
    return tuple(range(first, last + 1))


def rtt_sides(r, t1, t2):
    """The two sides of R T1 T2 = T2 T1 R, from one factor list each."""
    return r + t1 + t2, t2 + t1 + r


def re_sides(r, s1, r_prime, s2, r_double_prime):
    """The two sides of R S1 R' S2 = S2 R'' S1 R, from one factor list each."""
    return r + s1 + r_prime + s2, s2 + r_double_prime + s1 + r


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
    return _compare("ybe", params, legs, [("", *rtt_sides([r12], [r13], [r23]))])


def check_quasi_inverse(r, r_bar, zeta):
    """r r_bar = zeta Id and r_bar r = zeta Id."""
    whole = _span(1, len(r.legs))
    target = [(op_scale(identity_op(r.legs), zeta), whole)]
    sides = [
        ("r*r_bar", [(r, whole), (r_bar, whole)], target),
        ("r_bar*r", [(r_bar, whole), (r, whole)], target),
    ]
    params = {"n": r.legs[0].dim, "zeta": str(zeta)}
    return _compare("quasi_inverse", params, r.legs, sides)


def check_tau_symmetry(r, t):
    """tau_1 tau_2 R = R_21: transposing both legs of R is its site flip,
    R with its labels (if any) exchanged, placed at targets (2, 1).

    The primes side states R'' = R' for the twisted images of R (see
    primed_pair, which refuses a half-labelled R); its verdict is the
    primes_coincide param.
    """
    r_prime, r_double_prime = primed_pair(r, t)
    a, b = (leg.spectral_var for leg in r.legs)
    r21 = op_substitute(r, {a: b, b: a}) if a is not None else r
    whole = (1, 2)
    both_legs = tau_on_leg(r_prime, 2, t)
    sides = [
        ("", [(both_legs, whole)], [(r21, (2, 1))]),
        ("primes", [(r_double_prime, whole)], [(r_prime, whole)]),
    ]
    verdicts, witness = compare_sides(r.legs, sides)
    params = {"n": r.legs[0].dim, "kind": t.kind, "primes_coincide": verdicts["primes"]}
    return CheckReport("tau_symmetry", params, witness is None, witness)


def check_pairing(series, order):
    """(z - w) times the pairing series of the given order is the cleared
    operator (z - w) Id - P up to the first dropped term z^(-order-1)
    w^(order+1) P.  Multiplying by z - w is injective, so this pins every
    coefficient of the series."""
    require_int("truncation order", order, 0)
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
    if b in t_op.variables:
        raise ValueError(f"t_op must not already depend on {b!r}")
    if t_op.legs and t_op.legs[0].spectral_var != a:
        raise ValueError(
            f"t_op's auxiliary leg is labelled {t_op.legs[0].spectral_var!r}, "
            f"not {a!r} as R's first leg"
        )
    coeff = t_op.legs[1:]
    ambient = (r.legs[0], r.legs[1]) + coeff
    coeff_targets = _span(3, len(ambient))
    t1 = (t_op, (1,) + coeff_targets)
    t2 = (op_substitute(t_op, {a: b}), (2,) + coeff_targets)
    r12 = (r, (1, 2))
    params = {"n": r.legs[0].dim, "coeff_legs": len(coeff)}
    return _compare("rtt", params, ambient, [("", *rtt_sides([r12], [t1], [t2]))])


def _re_layout(r, r_prime, r_double_prime, s1, s2):
    """Shared layout for the (conjugate) reflection equation builders:
    the ambient legs and the one side R S1 R' S2 = S2 R'' S1 R (re_sides)."""
    if not s1.legs or not s2.legs:
        raise ValueError("solutions need at least the auxiliary leg")
    coeff = s1.legs[1:]
    ambient = (s1.legs[0], s2.legs[0]) + coeff
    coeff_targets = _span(3, len(ambient))
    big_r, r_p, r_pp = ([(op, (1, 2))] for op in (r, r_prime, r_double_prime))
    big_s1 = [(s1, (1,) + coeff_targets)]
    big_s2 = [(s2, (2,) + coeff_targets)]
    return ambient, [("", *re_sides(big_r, big_s1, r_p, big_s2, r_pp))]


def check_re(fam, s1, s2):
    """R S1 R' S2 = S2 R'' S1 R (matrix reflection equation)."""
    ambient, sides = _re_layout(fam.r, fam.r_prime, fam.r_double_prime, s1, s2)
    params = {"n": fam.n, "kind": fam.t.kind, "coeff_legs": len(s1.legs) - 1}
    return _compare("re", params, ambient, sides)


def check_conjugate_re(fam, s1, s2):
    """R-bar S1 (R-bar)'' S2 = S2 (R-bar)' S1 R-bar.

    The primed partners of R-bar are built by the same tau rules; no
    equality between them is assumed.  The middle factor on the LEFT is
    the double-primed one, mirroring the plain reflection equation with
    the sides' roles exchanged.
    """
    r_bar_prime, r_bar_double = primed_pair(fam.r_bar, fam.t)
    ambient, sides = _re_layout(fam.r_bar, r_bar_double, r_bar_prime, s1, s2)
    params = {"n": fam.n, "kind": fam.t.kind}
    return _compare("conjugate_re", params, ambient, sides)


def check_membership(h):
    """R_{i,i+1} h = sigma_{i,i+1}(h) R_{i,i+1} for all adjacent aux pairs:
    sigma_{i,i+1}(h) is h with u_i and u_{i+1} exchanged, at targets i+1, i."""
    u_block, _ = block_layout(len(h.legs), 0)
    aux_count = 0
    for leg, (label, _target) in zip(h.legs, u_block):
        if leg.role == "auxiliary" and leg.spectral_var == label:
            aux_count += 1
        else:
            break
    if aux_count < 2:
        raise ValueError("membership needs at least two auxiliary legs labelled u1, u2, ...")
    n = h.legs[0].dim
    whole = _span(1, len(h.legs))
    sides = []
    for (a, i), (b, j) in zip(u_block, u_block[1:aux_count]):
        r_i = (yang_r(n, a, b), (i, j))
        flipped = (op_substitute(h, {a: b, b: a}), whole[: i - 1] + (j, i) + whole[j:])
        sides.append((f"i={i}", [r_i, (h, whole)], [flipped, r_i]))
    params = {"n": n, "k": aux_count}
    return _compare("membership", params, h.legs, sides)


def _require_one_form(chi, fam):
    """Refuse components built on another form than fam's R' and R''.
    Transposition has no __eq__, so the values are compared."""
    seed_t = chi.seed.t
    if (seed_t.n, seed_t.sign, seed_t.g) != (fam.n, fam.t.sign, fam.t.g):
        raise ValueError(
            f"the graded family's form ({seed_t.kind}, n={seed_t.n}) is not the "
            f"R-matrix family's ({fam.t.kind}, n={fam.n})"
        )


def check_characteristic(family, fam, k, i, primed_middle=True):
    """S^(k) = S^(i)_1 (R')^(i),(k-i) S^(k-i)_2 for one partition.

    The left side is the component S^(k) whole; the right side splits
    the u-block after leg i and splices the factor lists of S^(i), the
    fused middle and S^(k-i), each built on its own part.
    primed_middle=False deliberately drops the tau twist on the middle
    factor; that variant must fail for a generic seed and exists as a
    negative control.
    """
    require_int("k", k, 0)
    require_int("i", i, 0)
    if not i <= k <= family.k_max:
        raise ValueError(f"need 0 <= i <= k <= {family.k_max}, got i={i}, k={k}")
    _require_one_form(family, fam)
    whole = family.component(k)
    legs = whole.legs
    coeff_targets = _span(k + 1, len(legs))
    u_block, _ = block_layout(k, 0)
    first, second = u_block[:i], u_block[i:]
    rhs = (
        family.factors(first, coeff_targets)
        + fused_r_factors(first, second, fam.n, fam.t if primed_middle else None)
        + family.factors(second, coeff_targets)
    )
    params = {
        "n": fam.n,
        "k": k,
        "i": i,
        "primed_middle": primed_middle,
    }
    sides = [("", [(whole, _span(1, len(legs)))], rhs)]
    return _compare("characteristic", params, legs, sides)


def _fused_blocks(chi, fam, k, m):
    """Common layout for the fused componentwise checks: ambient legs, the
    blocks of block_layout(k, m), and the factor lists of chi^(k) built on
    the u-block and chi^(m) built on the v-block."""
    _require_one_form(chi, fam)
    u_block, v_block = block_layout(k, m)
    ambient = block_legs(k, m, fam.n) + chi.coeff_legs
    coeff_targets = _span(k + m + 1, len(ambient))
    chi_k = chi.factors(u_block, coeff_targets)
    chi_m = chi.factors(v_block, coeff_targets)
    return ambient, u_block, v_block, chi_k, chi_m


def check_fused_re(chi, fam, k, m):
    """Componentwise reflection equation for a graded family:
    R^(k),(m) chi^(k)_1 (R')^(k),(m) chi^(m)_2
      = chi^(m)_2 (R'')^(k),(m) chi^(k)_1 R^(k),(m),
    each fused block spliced in as its factor list."""
    n = fam.n
    ambient, u_block, v_block, chi_k, chi_m = _fused_blocks(chi, fam, k, m)
    plain = fused_r_factors(u_block, v_block, n)
    primed = fused_r_factors(u_block, v_block, n, fam.t)
    flipped = fused_r_factors(v_block, u_block, n, fam.t)
    sides = [("", *re_sides(plain, chi_k, primed, chi_m, flipped))]
    params = {"n": n, "k": k, "m": m, "kind": fam.t.kind}
    return _compare("fused_re", params, ambient, sides)


def check_intertwiner(chi, fam, K, k, m):
    """breveR chi^(k)_1 breveR' chi^(m)_2 = chi^(m)_2 breveR' chi^(k)_1 breveR
    compared modulo terms of order > K, where the order of a monomial is its
    total inverse degree in the u-block variables."""
    require_int("truncation order", K, 0)
    n = fam.n
    slack = k * (k - 1) // 2
    ambient, u_block, v_block, chi_k, chi_m = _fused_blocks(chi, fam, k, m)
    breve = breve_factors(u_block, v_block, n, K + slack)
    breve_p = breve_factors(u_block, v_block, n, K + slack, fam.t)
    sides = [("", *re_sides(breve, chi_k, breve_p, chi_m, breve_p))]
    u_labels = {label for label, _ in u_block}

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
