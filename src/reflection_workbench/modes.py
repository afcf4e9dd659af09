"""Noncommutative mode algebra.

The series coefficients of the generator matrices live in a free
algebra.  This module expands matrix relations with series-valued
entries into exact relations among the mode generators, orients those
relations into a level-filtered rewrite system, computes normal forms,
and checks the twisted-solution substitution symbolically at low level.

Mode relations are always produced by the expander from the matrix
relations, and the twisted generator images are derived from the series
product S(u) = t(T(-u)) T(u); no commutator or image formula is
transcribed from anywhere else.  A series entry is a term map
{(u exponent, v exponent, word): nonzero exact coefficient}.  A word is a
tuple of generators, and each generator is itself the tuple
(level, row, col, family), so the rewrite order is plain tuple order.

A relation is stated as two factor lists on two n-dimensional legs, each
series matrix a one-leg factor on its own slot and each R-matrix a
two-leg factor, in the orders of verify.rtt_sides and verify.re_sides,
and each side is evaluated one column at a time by the kernel's column
engine, as verify evaluates its checks: column_product with
mul_series_into on series term maps here, where verify runs it on
Kronecker ints.  The products are floored on alpha, beta and alpha +
beta, so only the u^(-alpha) v^(-beta) coefficients that the reader keeps
are built: derive_rules reads only alpha <= d - 1 and alpha + beta <= d,
and _twisted_buckets states the lemma that bounds the twisted relation.
Why a floored product is exact is stated at kernel.column_product.  NCPoly
terms are summed by the kernel's term-map core (add_into).  NCPoly checks
words and coefficients in its public constructor only; internal results
are wrapped by NCPoly._raw.

The embedding check holds ints only.  R' and R'' are scaled by D, the lcd
of their coefficients, and the images by E, the lcd of theirs; each side
holds one primed factor and each relation word one S1 and one S2
generator, so every residue is exactly D*E^2 times the true one.
normal_form is linear word by word, so each distinct relation word is
substituted and normal-formed once, and each rewrite system keeps every
word's normal form.  The rules are derived only up to the level the
relations reach (verify_twisted_embedding).  A passing check renders no
text; a failure reports the relation of least text, it and its residue
divided back.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import (
    Frozen,
    add_into,
    column_product,
    mul_series_into,
    orthogonal_transposition,
    signed_sum,
)
from .kernel.laurent import _coerce_scalar, require_int
from .rmatrix import r_primes, yang_r
from .verify import CheckReport, re_sides, rtt_sides

FAMILIES = ("T", "S")


class ModeGen(tuple):
    """One series coefficient, built as ModeGen(family, row, col, level) and
    stored as the immutable tuple (level, row, col, family): tuple order is
    the rewrite order (level, then entry), and <, == and hash are tuple's."""

    __slots__ = ()

    def __new__(cls, family, row, col, level):
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
        require_int("matrix index", row, 1)
        require_int("matrix index", col, 1)
        require_int("level", level, 0)
        if family == "T" and level < 1:
            raise ValueError("the level-0 coefficient of family T is the unit, not a generator")
        return tuple.__new__(cls, (level, row, col, family))

    level = property(lambda self: self[0])
    row = property(lambda self: self[1])
    col = property(lambda self: self[2])
    family = property(lambda self: self[3])

    def __getnewargs__(self):
        return (self.family, self.row, self.col, self.level)

    def __repr__(self):
        fields = f"family={self.family!r}, row={self.row!r}, col={self.col!r}, level={self.level!r}"
        return f"ModeGen({fields})"

    def __str__(self):
        return f"{self.family}{self.level}[{self.row},{self.col}]"


def word_level(word):
    return sum(gen.level for gen in word)


def word_key(word):
    return (word_level(word), len(word), word)


class NCPoly(Frozen):
    """Free-algebra element: finite words of generators with exact
    rational coefficients, stored verbatim (no implicit commutation)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pairs = []
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if not all(isinstance(gen, ModeGen) for gen in word):
                raise ValueError(f"word {word} contains a non-generator")
            coeff = _coerce_scalar(coeff)
            if coeff:
                pairs.append((word, coeff))
        object.__setattr__(self, "terms", add_into({}, pairs))

    @staticmethod
    def _raw(terms):
        """Wrap a clean term map (ModeGen word tuples, nonzero exact
        coefficients): the fast path for internal results."""
        poly = object.__new__(NCPoly)
        object.__setattr__(poly, "terms", terms)
        return poly

    @staticmethod
    def zero():
        return NCPoly()

    @staticmethod
    def one():
        return NCPoly({(): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly._raw(add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return NCPoly._raw({word: -coeff for word, coeff in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce_scalar(other)
            if not other:
                return NCPoly.zero()
            return NCPoly._raw({word: coeff * other for word, coeff in self.terms.items()})
        if not isinstance(other, NCPoly):
            return NotImplemented
        products = (
            (wa + wb, ca * cb) for wa, ca in self.terms.items() for wb, cb in other.terms.items()
        )
        return NCPoly._raw(add_into({}, products))

    __rmul__ = __mul__

    def __str__(self):
        return signed_sum(
            (self.terms[word], "*".join(str(gen) for gen in word))
            for word in sorted(self.terms, key=word_key, reverse=True)
        )

    def __repr__(self):
        return f"NCPoly({self})"


def series_matrix(family, n, d, var="u"):
    """The n x n matrix of truncated generator series.

    Family T entries are delta + sum_{k=1..d} var^(-k) gen(T,i,j,k); the
    level-0 coefficient of T is the numeric unit.  Family S entries are
    sum_{k=0..d} var^(-k) gen(S,i,j,k), with level 0 a free generator.
    Each entry is a term map {(u exponent, v exponent, word): coefficient}
    holding only nonzero exact coefficients; var is "u" or "v".
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    require_int("n", n, 1)
    require_int("series length", d, 0)
    if var not in ("u", "v"):
        raise ValueError(f'series variable must be "u" or "v", got {var!r}')
    unit = family == "T"
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            terms = {(0, 0, ()): 1} if unit and i == j else {}
            for k in range(1 if unit else 0, d + 1):
                word = (ModeGen(family, i, j, k),)
                terms[(-k, 0, word) if var == "u" else (0, -k, word)] = 1
            row.append(terms)
        rows.append(tuple(row))
    return tuple(rows)


# -- factor lists for the two-leg expansion ----------------------------------


def _scalar_matrix(rows):
    """A matrix of exact numbers as term maps of the empty word."""
    return tuple(tuple({(0, 0, ()): _coerce_scalar(x)} if x else {} for x in row) for row in rows)


def _leg_factor(matrix, slot):
    """An n x n matrix of series term maps as a prepared one-leg factor on
    the 0-based slot (see kernel.column_product)."""
    by_col = {}
    for i, row in enumerate(matrix, start=1):
        for j, terms in enumerate(row, start=1):
            by_col.setdefault((j,), []).append(((i,), terms))
    return (slot,), by_col


def _two_leg_factor(op, scale=1):
    """A two-leg operator in u and v, times scale, as a prepared factor."""
    by_col = {}
    for (row, col), poly in op.entries.items():
        aligned = poly.aligned(("u", "v")).terms.items()
        terms = {(eu, ev, ()): _coerce_scalar(c * scale) for (eu, ev), c in aligned}
        by_col.setdefault(col, []).append((row, terms))
    return (0, 1), by_col


def _collect_buckets(lhs, rhs, n, floor):
    """Coefficient extraction for two sides given as ordered lists of
    prepared factors on two n-dimensional legs: for every matrix entry
    ((i,a),(j,b)) and every u^(-alpha) v^(-beta) monomial with (-alpha,
    -beta, -alpha - beta) at or above the floor triple, the NCPoly
    difference, keyed by (alpha, beta, i, a, j, b).  Only those monomials
    are built (see kernel.column_product)."""
    raw = {}
    for j in range(1, n + 1):
        for b in range(1, n + 1):
            diffs = column_product(lhs, (j, b), {(0, 0, ()): 1}, mul_series_into, floor)
            right = column_product(rhs, (j, b), {(0, 0, ()): 1}, mul_series_into, floor)
            for row, terms in right.items():
                add_into(diffs.setdefault(row, {}), ((k, -x) for k, x in terms.items()))
            for (i, a), diff in diffs.items():
                # each (u exponent, v exponent, word) key lands in one bucket
                for (eu, ev, word), coeff in diff.items():
                    raw.setdefault((-eu, -ev, i, a, j, b), {})[word] = coeff
    return {key: NCPoly._raw(terms) for key, terms in raw.items()}


def _rtt_buckets(n, length, floor):
    """Indexed coefficients of R T1(u) T2(v) - T2(v) T1(u) R with series
    truncated at the given length, down to the floor triple on (-alpha,
    -beta, -alpha - beta)."""
    r = _two_leg_factor(yang_r(n))
    t1 = _leg_factor(series_matrix("T", n, length, var="u"), 0)
    t2 = _leg_factor(series_matrix("T", n, length, var="v"), 1)
    return _collect_buckets(*rtt_sides([r], [t1], [t2]), n, floor)


def _twisted_buckets(n, length, t):
    """(D, indexed coefficients of R S1 R' S2 - S2 R'' S1 R) with R' and
    R'' scaled by D, and the free level-0 normalization for the S series,
    up to alpha, beta <= d and alpha + beta <= B(d) = max(2d - 4, d - 1),
    where d = length - 2 is the level cap.

    Every bucket past B(d) mentions a generator above d, so _distinct,
    which stays the deciding filter, would drop it.  Lemma: with alpha,
    beta <= d and alpha + beta > B(d), every bucket (alpha, beta, i, a,
    j, b) holds a word with a generator above d.  Proof: if alpha < 0 then
    alpha + beta <= d - 1, and likewise for beta, so alpha, beta >= 0;
    and alpha + beta >= 2d - 3 gives m = max(alpha, beta) >= d - 1.  For
    every form t, R = (u - v) Id - P, while R' = tau_1(R) and its site
    flip R'', scaled by D, are -D (u + v) Id minus a constant matrix.  A
    word's total level is alpha + beta plus the degree in u and v of the
    R-matrix terms on its path, so the words of level alpha + beta + 2
    come from the scalar linear parts alone, which commute with the
    series.  The left side holds W1 = s_ij^(alpha) s_ab^(beta+2) with
    coefficient D and
    W2 = s_ij^(alpha+2) s_ab^(beta) with -D.  The right side holds only
    S2-then-S1 words, through the part D (v^2 - u^2) of R'' R, which has
    no uv term: s_ab^(beta) s_ij^(alpha+2) with -D and
    s_ab^(beta+2) s_ij^(alpha) with D.  So W1 cancels only at i = a,
    j = b with alpha = beta + 2, and W2 only there with beta = alpha + 2.
    The word holding level m + 2 >= d + 1 (W2 when alpha >= beta, W1
    otherwise) therefore survives, since its cancelling needs the other
    exponent to exceed m, and the series of length d + 2 hold it.  The
    bound is met: for d = 1, 2, 3 the largest alpha + beta that
    _distinct keeps is B(d).
    """
    r = _two_leg_factor(yang_r(n))
    primes = r_primes(n, t)
    coeffs = (c for op in primes for poly in op.entries.values() for c in poly.terms.values())
    scale = math.lcm(*(c.denominator for c in coeffs))
    rp, rpp = (_two_leg_factor(op, scale) for op in primes)
    s1 = _leg_factor(series_matrix("S", n, length, var="u"), 0)
    s2 = _leg_factor(series_matrix("S", n, length, var="v"), 1)
    d = length - 2
    sides = re_sides([r], [s1], [rp], [s2], [rpp])
    return scale, _collect_buckets(*sides, n, (-d, -d, -_twisted_sum_bound(d)))


def _twisted_sum_bound(d):
    """B(d) = max(2d - 4, d - 1), the largest alpha + beta of a twisted
    relation of level cap d (see _twisted_buckets)."""
    return max(2 * d - 4, d - 1)


def expand_relation(relation, n, d, t=None):
    """All mode relations of total generator level at most d.

    The series are expanded one step past what the relation's scalar
    degree requires (length d+1 for "rtt", d+2 for "twisted_re"), the
    u^(-alpha) v^(-beta) coefficients of LHS - RHS with alpha, beta <= d
    are collected (the others mention a generator above d in every term;
    see kernel.column_product; for "twisted_re" also alpha + beta <= B(d),
    see _twisted_buckets), and any relation mentioning a generator
    of level above d is discarded: the truncated series cannot see the
    complete constraint on those, while every kept coefficient is an
    exact consequence of the full relation.  The result is deduplicated
    and sorted by its text form.
    """
    require_int("level cap", d, 1)
    if relation == "rtt":
        return _relations(_rtt_buckets(n, d + 1, (-d, -d, -2 * d)), d)
    if relation == "twisted_re":
        if t is None:
            t = orthogonal_transposition(n)
        scale, buckets = _twisted_buckets(n, d + 2, t)
        return _relations(buckets, d, scale)
    raise ValueError(f"unknown relation {relation!r}")


def _distinct(buckets, d):
    """The distinct bucket polynomials free of generators above level d (a
    word's top generator is its max, as a generator's tuple leads with its
    level)."""
    kept = (p for p in buckets.values() if all(max(w)[0] <= d for w in p.terms if w))
    return list({frozenset(p.terms.items()): p for p in kept}.values())


def _relations(buckets, d, scale=1):
    """The distinct bucket polynomials free of generators above level d,
    divided by scale and sorted by their text form."""
    return sorted((p * Fraction(1, scale) for p in _distinct(buckets, d)), key=str)


class RewriteSystem(Frozen):
    """Oriented swap rules keyed by out-of-order generator pairs.

    rules[(x, y)] with x > y in generator order is the full replacement of
    the word x*y: the swapped word y*x with coefficient one plus
    correction terms that drop in the (level, word length) measure.  Both
    properties are validated here, so an unorientable relation is
    rejected at construction instead of looping forever in normal_form.
    forms memoizes normal_form word by word for these immutable rules.
    """

    __slots__ = ("rules", "level_cap", "forms")

    def __init__(self, rules, level_cap):
        checked = {}
        for (x, y), replacement in rules.items():
            if x <= y:
                raise ValueError(f"rule key {x}*{y} is not an out-of-order pair")
            top = x.level + y.level
            if top > level_cap:
                raise ValueError(f"rule {x}*{y} exceeds the level cap {level_cap}")
            if replacement.terms.get((y, x)) != 1:
                raise ValueError(f"cannot orient the rule for {x}*{y}: swap term missing")
            for word in replacement.terms:
                if word == (y, x):
                    continue
                level = word_level(word)
                if level > top or (level == top and len(word) >= 2):
                    raise ValueError(
                        f"cannot orient the rule for {x}*{y}: "
                        f"correction word of level {level} does not drop"
                    )
            checked[(x, y)] = replacement
        object.__setattr__(self, "rules", checked)
        object.__setattr__(self, "level_cap", level_cap)
        object.__setattr__(self, "forms", {})

    def __repr__(self):
        return f"RewriteSystem(rules={len(self.rules)}, level_cap={self.level_cap})"


def derive_rules(n, d):
    """Orient the level-d RTT relations into a rewrite system.

    For generators x at level lam and y at level mu with x above y, the
    telescoped sum of the expansion's coefficients at indices
    (r, lam+mu-1-r), entry ((x.row, y.row), (x.col, y.col)), over
    r = 0..lam-1 collapses the staircase of commutator differences into
    x*y - y*x - correction with every correction word of total level
    lam+mu-1.  The coefficients are read from the indexed RTT expansion
    (series length d+1), since a flat relation list forgets which
    coefficient each relation came from.  Rules exist for every out-of-order pair with
    level sum <= d+1, which the level-d relations fully determine.
    """
    require_int("level cap", d, 1)
    # every key read below has alpha <= lam - 1 <= d - 1 and alpha + beta <= d
    buckets = _rtt_buckets(n, d + 1, (1 - d, -d, -d))
    gens = [
        ModeGen("T", i, j, level)
        for level in range(1, d + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    rules = {}
    for x in gens:
        for y in gens:
            if x <= y or x.level + y.level > d + 1:
                continue
            telescoped = NCPoly.zero()
            for r in range(x.level):
                key = (r, x.level + y.level - 1 - r, x.row, y.row, x.col, y.col)
                part = buckets.get(key)
                if part is not None:
                    telescoped = telescoped + part
            rules[(x, y)] = NCPoly({(x, y): 1}) - telescoped
    return RewriteSystem(rules, d + 1)


def normal_form(p, rs):
    """Rewrite until no word contains an adjacent pair x*y with x > y.

    Each step swaps the first such pair of some word via its rule;
    corrections strictly drop in the (level, inversions) measure, so the
    rewriting terminates.  Each word's normal form is built once per
    system, in rs.forms; on a miss a word above the level cap, or an
    in-cap pair with no rule (incomplete system), is an error rather than
    a silent skip.
    """
    forms = rs.forms
    acc = {}
    for word, coeff in p.terms.items():
        form = forms.get(word)
        if form is None:
            form = _word_form(word, rs)
        for w, c in form.items():
            total = acc.get(w, 0) + coeff * c
            if total:
                acc[w] = total
            else:
                del acc[w]
    return NCPoly._raw(acc)


def _word_form(word, rs):
    """The normal form of one word as a term map, memoized in rs.forms."""
    level = word_level(word)
    if level > rs.level_cap:
        raise ValueError(
            f"word of total level {level} exceeds the rewrite level cap {rs.level_cap}"
        )
    for pos in range(len(word) - 1):
        if word[pos] > word[pos + 1]:
            break
    else:
        form = rs.forms[word] = {word: 1}
        return form
    pair = (word[pos], word[pos + 1])
    rule = rs.rules.get(pair)
    if rule is None:
        raise ValueError(
            f"missing rule for the pair {pair[0]}*{pair[1]} (level cap {rs.level_cap})"
        )
    head, tail = word[:pos], word[pos + 2 :]
    form = {}
    for rword, rcoeff in rule.terms.items():
        sub = head + rword + tail
        sub_form = rs.forms.get(sub)
        if sub_form is None:
            sub_form = _word_form(sub, rs)
        add_into(form, ((w, rcoeff * c) for w, c in sub_form.items()))
    rs.forms[word] = form
    return form


def substitute_gens(p, image):
    """Replace every generator by its NCPoly image (a callable); words map
    to ordered products of the images."""
    acc = {}
    for word, coeff in p.terms.items():
        factor = NCPoly._raw({(): coeff})
        for gen in word:
            factor = factor * image(gen)
        add_into(acc, factor.terms.items())
    return NCPoly._raw(acc)


def twisted_generator_images(n, d, t):
    """The substitution S(u) = t(T(-u)) T(u), read off the series product:
    level k of entry (i,j) maps to the u^(-k) coefficient of entry (i,j),
    where t(X) = g X^transposed g^(-1).  Series of length d give every
    coefficient of level k <= d exactly."""
    if t.n != n:
        raise ValueError(f"transposition size {t.n} does not match n={n}")
    tee = series_matrix("T", n, d)
    # entry (p,q) is T_qp(-u): the u^(-k) term picks up the sign (-1)^k
    flipped = tuple(
        tuple(
            {(eu, ev, w): -c if eu % 2 else c for (eu, ev, w), c in tee[q][p].items()}
            for q in range(n)
        )
        for p in range(n)
    )
    factors = [
        _leg_factor(m, 0) for m in (_scalar_matrix(t.g), flipped, _scalar_matrix(t.g_inv), tee)
    ]
    start = {(0, 0, ()): 1}
    columns = [column_product(factors, (j,), start, mul_series_into) for j in range(1, n + 1)]
    images = {}
    for k in range(d + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entry = columns[j - 1].get((i,), {})
                images[ModeGen("S", i, j, k)] = NCPoly._raw(
                    {w: c for (eu, _, w), c in entry.items() if eu == -k}
                )
    return images


def _integral_images(n, d, t):
    """(E, the twisted images times E), E the lcd of their coefficients."""
    images = twisted_generator_images(n, d, t)
    scale = math.lcm(*(c.denominator for p in images.values() for c in p.terms.values()))
    for gen, p in images.items():
        images[gen] = NCPoly._raw({w: _coerce_scalar(c * scale) for w, c in p.terms.items()})
    return scale, images


def _residues(relations, images, rules):
    """Yield (relation, normal form of its substitution) for relations of
    quadratic words.  Each distinct word's substitution, the product of
    its two images, is built as one term map and normal-formed once
    (normal_form is linear)."""
    forms = {}
    for p in relations:
        acc = {}
        for word, coeff in p.terms.items():
            form = forms.get(word)
            if form is None:
                if len(word) != 2:
                    raise ValueError(f"relation word of length {len(word)} is not quadratic")
                a, b = (images[gen].terms.items() for gen in word)
                product = add_into({}, ((wa + wb, ca * cb) for wa, ca in a for wb, cb in b))
                form = forms[word] = normal_form(NCPoly._raw(product), rules).terms
            for w, c in form.items():
                total = acc.get(w, 0) + coeff * c
                if total:
                    acc[w] = total
                else:
                    del acc[w]
        yield p, NCPoly._raw(acc)


def verify_twisted_embedding(n, d=2, t=None):
    """Substitute the twisted images into every twisted relation of level
    at most d and normal-form the result in the rewrite system derived
    from the level-(B(d) + 1) expansion; every residue must vanish exactly.

    Every word of a kept relation has total level alpha + beta + 2 <=
    B(d) + 2 (_twisted_buckets); S^(k) maps to a u^(-k) coefficient, so
    substitution keeps the level, and rewriting never raises it.  Rules
    for pairs with level sum up to B(d) + 2 therefore suffice; a lower cap
    makes normal_form refuse a word, so it cannot pass wrongly.  Ints and
    witness: see the module docstring.  RTT relations that cannot be
    oriented into rules fail the check, with the refused rule as the
    witness.
    """
    require_int("level cap", d, 1)
    if t is None:
        t = orthogonal_transposition(n)
    scale, buckets = _twisted_buckets(n, d + 2, t)
    relations = _distinct(buckets, d)
    del buckets
    params = {"n": n, "level": d, "kind": t.kind, "relations": len(relations)}
    try:
        rules = derive_rules(n, _twisted_sum_bound(d) + 1)
    except ValueError as exc:
        return CheckReport("twisted_embedding", params, False, {"rule": str(exc)})
    image_scale, images = _integral_images(n, d, t)
    failing = [(p, r) for p, r in _residues(relations, images, rules) if not r.is_zero()]
    witness = None
    if failing:
        p, residue = min(((p * Fraction(1, scale), r) for p, r in failing), key=lambda f: str(f[0]))
        residue = residue * Fraction(1, scale * image_scale**2)
        witness = {"relation": str(p), "residue": str(residue)}
    return CheckReport("twisted_embedding", params, not failing, witness)
