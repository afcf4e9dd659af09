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
{(u exponent, v exponent, word): nonzero exact coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .kernel import Frozen, format_rational, orthogonal_transposition
from .rmatrix import r_primes, yang_r
from .verify import CheckReport

FAMILIES = ("T", "S")


@dataclass(frozen=True)
class ModeGen:
    """One series coefficient: family letter, matrix entry, level."""

    family: str
    row: int
    col: int
    level: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        for index in (self.row, self.col):
            if not isinstance(index, int) or index < 1:
                raise ValueError(f"matrix indices must be positive integers, got {index!r}")
        if not isinstance(self.level, int) or self.level < 0:
            raise ValueError(f"level must be a nonnegative integer, got {self.level!r}")
        if self.family == "T" and self.level < 1:
            raise ValueError("the level-0 coefficient of family T is the unit, not a generator")

    def __str__(self):
        return f"{self.family}{self.level}[{self.row},{self.col}]"


def gen_key(gen):
    """The total generator order used for rewriting: level, then entry."""
    return (gen.level, gen.row, gen.col, gen.family)


def word_level(word):
    return sum(gen.level for gen in word)


def word_key(word):
    return (word_level(word), len(word), tuple(gen_key(gen) for gen in word))


class NCPoly(Frozen):
    """Free-algebra element: finite words of generators with exact
    rational coefficients, stored verbatim (no implicit commutation)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if not all(isinstance(gen, ModeGen) for gen in word):
                raise ValueError(f"word {word} contains a non-generator")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficient must be rational, got {type(coeff).__name__}")
            coeff = Fraction(coeff)
            if not coeff:
                continue
            prev = clean.get(word)
            if prev is None:
                clean[word] = coeff
            else:
                total = prev + coeff
                if total:
                    clean[word] = total
                else:
                    del clean[word]
        object.__setattr__(self, "terms", clean)

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
        merged = dict(self.terms)
        for word, coeff in other.terms.items():
            total = merged.get(word, Fraction(0)) + coeff
            if total:
                merged[word] = total
            else:
                merged.pop(word, None)
        return NCPoly(merged)

    def __neg__(self):
        return NCPoly({word: -coeff for word, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return NCPoly.zero()
            return NCPoly({word: coeff * other for word, coeff in self.terms.items()})
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                word = wa + wb
                total = acc.get(word, Fraction(0)) + ca * cb
                if total:
                    acc[word] = total
                else:
                    del acc[word]
        return NCPoly(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def max_gen_level(self):
        return max((gen.level for word in self.terms for gen in word), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for word in sorted(self.terms, key=word_key, reverse=True):
            coeff = self.terms[word]
            if word:
                body = "*".join(str(gen) for gen in word)
                if abs(coeff) != 1:
                    body = f"{format_rational(abs(coeff))}*{body}"
            else:
                body = format_rational(abs(coeff))
            pieces.append(("-" if coeff < 0 else "+", body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"NCPoly({self})"


def relations_to_text(relations):
    """Canonical text form for fixture diffing: one relation per line."""
    return "\n".join(str(p) for p in relations)


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
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if d < 0:
        raise ValueError(f"series length must be >= 0, got {d}")
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


# -- matrix plumbing for the two-leg expansion -------------------------------


def _series_mul(a, b):
    """Product of two term maps: exponents add, words concatenate."""
    out = {}
    for (ua, va, wa), ca in a.items():
        for (ub, vb, wb), cb in b.items():
            key = (ua + ub, va + vb, wa + wb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: coeff for key, coeff in out.items() if coeff}


def _series_add(acc, terms):
    """Add the term map terms into acc in place, dropping zeros."""
    for key, coeff in terms.items():
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            del acc[key]


def _mat_mul_series(a, b):
    size = len(a)
    out = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = {}
            for m in range(size):
                if a[r][m] and b[m][c]:
                    _series_add(acc, _series_mul(a[r][m], b[m][c]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _scalar_matrix(rows):
    """A matrix of exact numbers as term maps of the empty word."""
    return tuple(tuple({(0, 0, ()): x} if x else {} for x in row) for row in rows)


def _two_leg_scalar(op, n):
    """The n^2 x n^2 scalar matrix of a two-leg operator, row-major."""
    size = n * n
    rows = [[{} for _ in range(size)] for _ in range(size)]
    for (row, col), poly in op.entries.items():
        r = (row[0] - 1) * n + (row[1] - 1)
        c = (col[0] - 1) * n + (col[1] - 1)
        for exps, coeff in poly.term_items():
            rows[r][c][(exps.get("u", 0), exps.get("v", 0), ())] = coeff
    return tuple(tuple(row) for row in rows)


def _kron(a, b):
    """The Kronecker product of two series matrices: entry (i*m + p,
    j*m + q) is a[i][j] * b[p][q], with b of size m."""
    return tuple(tuple(_series_mul(x, y) for x in ra for y in rb) for ra in a for rb in b)


def _unit(n):
    """The n x n unit matrix; its int coefficient keeps the types of the
    series it multiplies."""
    return _scalar_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def _collect_buckets(lhs, rhs, n):
    """Coefficient extraction for two sides given as ordered lists of
    n^2 x n^2 series matrices, each multiplied left to right: for every
    matrix entry ((i,a),(j,b)) and every u^(-alpha) v^(-beta) monomial,
    the NCPoly difference, keyed by (alpha, beta, i, a, j, b)."""
    lhs, rhs = (reduce(_mat_mul_series, side) for side in (lhs, rhs))
    size = n * n
    raw = {}
    for r in range(size):
        i, a = r // n + 1, r % n + 1
        for c in range(size):
            j, b = c // n + 1, c % n + 1
            for sign, entry in ((1, lhs[r][c]), (-1, rhs[r][c])):
                for (eu, ev, word), coeff in entry.items():
                    acc = raw.setdefault((-eu, -ev, i, a, j, b), {})
                    acc[word] = acc.get(word, 0) + sign * coeff
    buckets = {}
    for key, terms in raw.items():
        p = NCPoly(terms)
        if not p.is_zero():
            buckets[key] = p
    return buckets


def _rtt_buckets(n, length):
    """Indexed coefficients of R T1(u) T2(v) - T2(v) T1(u) R with series
    truncated at the given length."""
    r_mat = _two_leg_scalar(yang_r(n), n)
    t1 = _kron(series_matrix("T", n, length, var="u"), _unit(n))
    t2 = _kron(_unit(n), series_matrix("T", n, length, var="v"))
    return _collect_buckets([r_mat, t1, t2], [t2, t1, r_mat], n)


def _twisted_buckets(n, length, t):
    """Indexed coefficients of R S1 R' S2 - S2 R'' S1 R with the free
    level-0 normalization for the S series."""
    r_mat = _two_leg_scalar(yang_r(n), n)
    rp_mat, rpp_mat = (_two_leg_scalar(op, n) for op in r_primes(n, t))
    s1 = _kron(series_matrix("S", n, length, var="u"), _unit(n))
    s2 = _kron(_unit(n), series_matrix("S", n, length, var="v"))
    return _collect_buckets([r_mat, s1, rp_mat, s2], [s2, rpp_mat, s1, r_mat], n)


def expand_relation(relation, n, d, t=None):
    """All mode relations of total generator level at most d.

    The series are expanded one step past what the relation's scalar
    degree requires (length d+1 for "rtt", d+2 for "twisted_re"), every
    u^a v^b coefficient of LHS - RHS is collected, and any relation
    mentioning a generator of level above d is discarded: the truncated
    series cannot see the complete constraint on those, while every kept
    coefficient is an exact consequence of the full relation.  The result
    is deduplicated and sorted by its text form.
    """
    if d < 1:
        raise ValueError(f"level cap must be >= 1, got {d}")
    if relation == "rtt":
        buckets = _rtt_buckets(n, d + 1)
    elif relation == "twisted_re":
        if t is None:
            t = orthogonal_transposition(n)
        buckets = _twisted_buckets(n, d + 2, t)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return _relations(buckets, d)


def _relations(buckets, d):
    """The distinct bucket polynomials free of generators above level d,
    sorted by their text form."""
    seen = {}
    for key in sorted(buckets):
        p = buckets[key]
        if p.max_gen_level() > d:
            continue
        seen.setdefault(str(p), p)
    return [seen[text] for text in sorted(seen)]


class RewriteSystem(Frozen):
    """Oriented swap rules keyed by out-of-order generator pairs.

    rules[(x, y)] with gen_key(x) > gen_key(y) is the full replacement of
    the word x*y: the swapped word y*x with coefficient one plus
    correction terms that drop in the (level, word length) measure.  Both
    properties are validated here, so an unorientable relation is
    rejected at construction instead of looping forever in normal_form.
    """

    __slots__ = ("rules", "level_cap")

    def __init__(self, rules, level_cap):
        checked = {}
        for (x, y), replacement in rules.items():
            if gen_key(x) <= gen_key(y):
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

    def __repr__(self):
        return f"RewriteSystem(rules={len(self.rules)}, level_cap={self.level_cap})"


def rules_to_text(rs):
    """Canonical text form of the rule set, one rule per line."""
    ordered = sorted(rs.rules, key=lambda pair: (gen_key(pair[0]), gen_key(pair[1])))
    return "\n".join(f"{x}*{y} -> {rs.rules[(x, y)]}" for x, y in ordered)


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
    if d < 1:
        raise ValueError(f"level cap must be >= 1, got {d}")
    buckets = _rtt_buckets(n, d + 1)
    gens = [
        ModeGen("T", i, j, level)
        for level in range(1, d + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    rules = {}
    for x in gens:
        for y in gens:
            if gen_key(x) <= gen_key(y) or x.level + y.level > d + 1:
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
    """Rewrite until no word contains an out-of-order adjacent pair.

    Each step swaps the first out-of-order pair of some word via its
    rule; corrections strictly drop in the (level, inversions) measure,
    so the loop terminates.  Words above the system's level cap are
    rejected up front, and a missing rule for an in-cap pair is an error
    (incomplete system) rather than a silent skip.
    """
    for word in p.terms:
        if word_level(word) > rs.level_cap:
            raise ValueError(
                f"word of total level {word_level(word)} exceeds the "
                f"rewrite level cap {rs.level_cap}"
            )
    acc = {}
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop()
        pos = None
        for idx in range(len(word) - 1):
            if gen_key(word[idx]) > gen_key(word[idx + 1]):
                pos = idx
                break
        if pos is None:
            total = acc.get(word, Fraction(0)) + coeff
            if total:
                acc[word] = total
            else:
                acc.pop(word, None)
            continue
        pair = (word[pos], word[pos + 1])
        rule = rs.rules.get(pair)
        if rule is None:
            raise ValueError(
                f"missing rule for the pair {pair[0]}*{pair[1]} "
                f"(level cap {rs.level_cap})"
            )
        for rword, rcoeff in rule.terms.items():
            work.append((word[:pos] + rword + word[pos + 2 :], coeff * rcoeff))
    return NCPoly(acc)


def substitute_gens(p, image):
    """Replace every generator by its NCPoly image (a callable); words map
    to ordered products of the images."""
    result = NCPoly.zero()
    for word, coeff in p.terms.items():
        factor = NCPoly({(): coeff})
        for gen in word:
            factor = factor * image(gen)
        result = result + factor
    return result


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
    factors = [_scalar_matrix(t.g), flipped, _scalar_matrix(t.g_inv), tee]
    s_mat = reduce(_mat_mul_series, factors)
    images = {}
    for k in range(d + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entry = s_mat[i - 1][j - 1]
                images[ModeGen("S", i, j, k)] = NCPoly(
                    {w: c for (eu, _, w), c in entry.items() if eu == -k}
                )
    return images


def verify_twisted_embedding(n, d=2, t=None):
    """Substitute the twisted images into every twisted relation of level
    at most d and normal-form the result in the rewrite system derived
    from the level-(2d-1) expansion; every residue must vanish exactly.

    The substituted words carry total level up to 2d, so the rule set
    needs pairs with level sum up to 2d, which the level-(2d-1) relation
    set provides.
    """
    if t is None:
        t = orthogonal_transposition(n)
    relations = expand_relation("twisted_re", n, d, t)
    rules = derive_rules(n, 2 * d - 1)
    images = twisted_generator_images(n, d, t)
    witness = None
    failures = 0
    for p in relations:
        residue = normal_form(substitute_gens(p, images.__getitem__), rules)
        if not residue.is_zero():
            failures += 1
            if witness is None:
                witness = {"relation": str(p), "residue": str(residue)}
    params = {
        "n": n,
        "level": d,
        "kind": t.kind,
        "relations": len(relations),
    }
    return CheckReport("twisted_embedding", params, failures == 0, witness)
