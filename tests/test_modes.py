"""Mode-level expansion, rewriting, and the twisted substitution check."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reflection_workbench.kernel import (
    Transposition,
    orthogonal_transposition,
    symplectic_transposition,
)
from reflection_workbench.modes import (
    ModeGen,
    NCPoly,
    RewriteSystem,
    derive_rules,
    expand_relation,
    gen_key,
    normal_form,
    relations_to_text,
    rules_to_text,
    series_matrix,
    substitute_gens,
    twisted_generator_images,
    verify_twisted_embedding,
    word_key,
    word_level,
    _collect_buckets,
    _kron,
    _relations,
    _rtt_buckets,
    _unit,
)

ORTH2 = orthogonal_transposition(2)
SYMPL2 = symplectic_transposition(2)


def t_gen(i, j, level=1):
    return ModeGen("T", i, j, level)


def monic_text(p):
    lead = max(p.terms, key=word_key)
    return str(p * (Fraction(1) / p.terms[lead]))


# -- generators and free polynomials ----------------------------------------


def test_mode_generator_validation():
    with pytest.raises(ValueError, match="family"):
        ModeGen("U", 1, 1, 1)
    with pytest.raises(ValueError, match="unit"):
        ModeGen("T", 1, 1, 0)
    with pytest.raises(ValueError, match="indices"):
        ModeGen("S", 0, 1, 1)
    with pytest.raises(ValueError, match="level"):
        ModeGen("S", 1, 1, -1)
    assert str(ModeGen("S", 2, 1, 0)) == "S0[2,1]"


def test_ncpoly_merges_words_and_drops_zeros():
    x = t_gen(1, 2)
    p = NCPoly({(x,): Fraction(1, 2), (x, x): 0})
    q = NCPoly({(x,): Fraction(1, 2)})
    assert p == q
    assert (p - q).is_zero()
    with pytest.raises(TypeError, match="rational"):
        NCPoly({(x,): 0.5})
    with pytest.raises(ValueError, match="non-generator"):
        NCPoly({(x, "y"): 1})


def test_ncpoly_product_keeps_word_order():
    x, y = t_gen(1, 2), t_gen(2, 1)
    xp = NCPoly({(x,): 1})
    yp = NCPoly({(y,): 1})
    assert (xp * yp).terms == {(x, y): Fraction(1)}
    assert xp * yp != yp * xp
    assert (xp * yp) * 2 - 2 * (xp * yp) == NCPoly.zero()


def test_ncpoly_text_sorts_leading_word_first():
    x, y = t_gen(1, 1), t_gen(1, 2)
    p = NCPoly({(): Fraction(-3, 2), (x,): 1, (y, x): -1})
    assert str(p) == "-T1[1,2]*T1[1,1] + T1[1,1] - 3/2"
    assert str(NCPoly.zero()) == "0"


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_ncpoly_scaling_distributes(a, b):
    x, y = t_gen(1, 2), t_gen(2, 2)
    p = NCPoly({(x,): 1, (x, y): Fraction(2, 3)})
    q = NCPoly({(y,): -1, (x, y): Fraction(1, 3)})
    assert (p + q) * a == p * a + q * a
    assert p * (a + b) == p * a + p * b


# -- series matrices ----------------------------------------------------------


def test_series_matrix_t_entries():
    mat = series_matrix("T", 2, 1)
    assert mat[0][1] == {(-1, 0, (t_gen(1, 2),)): 1}
    assert mat[0][0] == {(0, 0, ()): 1, (-1, 0, (t_gen(1, 1),)): 1}
    assert series_matrix("T", 2, 1, var="v")[1][0] == {(0, -1, (t_gen(2, 1),)): 1}


def test_series_matrix_s_level_zero_is_free():
    mat = series_matrix("S", 2, 0)
    for i in range(2):
        for j in range(2):
            assert mat[i][j] == {(0, 0, (ModeGen("S", i + 1, j + 1, 0),)): 1}


def test_series_matrix_normalization_flags():
    with pytest.raises(ValueError, match="series length"):
        series_matrix("T", 2, -1)


def test_series_matrix_rejects_an_unknown_variable():
    with pytest.raises(ValueError, match="series variable"):
        series_matrix("T", 2, 1, var="w")


# -- relation expansion -------------------------------------------------------


def bracket_relation(i, j, a, b):
    """The general-linear bracket [X_ij, X_ab] = d_aj X_ib - d_ib X_aj
    written as a relation, the committed oracle for the level-1 set."""
    x, y = t_gen(i, j), t_gen(a, b)
    terms = {}

    def bump(word, delta):
        terms[word] = terms.get(word, Fraction(0)) + delta

    bump((x, y), Fraction(1))
    bump((y, x), Fraction(-1))
    if a == j:
        bump((t_gen(i, b),), Fraction(-1))
    if i == b:
        bump((t_gen(a, j),), Fraction(1))
    return NCPoly(terms)


def test_rtt_level_one_matches_bracket_pattern():
    relations = expand_relation("rtt", 2, 1)
    assert len(relations) == 12
    expected = set()
    for i in (1, 2):
        for j in (1, 2):
            for a in (1, 2):
                for b in (1, 2):
                    p = bracket_relation(i, j, a, b)
                    if not p.is_zero():
                        expected.add(monic_text(p))
    assert {monic_text(p) for p in relations} == expected


def test_expansion_is_deterministic_and_validates():
    first = [str(p) for p in expand_relation("rtt", 2, 2)]
    second = [str(p) for p in expand_relation("rtt", 2, 2)]
    assert first == second
    assert first == sorted(first)
    with pytest.raises(ValueError, match="level cap"):
        expand_relation("rtt", 2, 0)
    with pytest.raises(ValueError, match="unknown relation"):
        expand_relation("braid", 2, 1)


def test_expansion_discards_higher_level_mentions():
    for d in (1, 2):
        for p in expand_relation("rtt", 2, d):
            assert p.max_gen_level() <= d


def test_twisted_level_one_fixture():
    relations = expand_relation("twisted_re", 2, 1)
    assert len(relations) == 74
    for p in relations:
        assert p.max_gen_level() <= 1
        assert max(word_level(word) for word in p.terms) <= 2
        assert all(g.family == "S" for word in p.terms for g in word)
    assert relations_to_text(relations).count("\n") == 73


def test_identity_structure_leaves_only_commutators():
    t1 = _kron(series_matrix("T", 2, 2, var="u"), _unit(2))
    t2 = _kron(_unit(2), series_matrix("T", 2, 2, var="v"))
    buckets = _collect_buckets([t1, t2], [t2, t1], 2)
    kept = _relations(buckets, 1)
    assert len(kept) == 12
    for p in kept:
        words = sorted(p.terms, key=word_key)
        assert len(words) == 2
        assert words[0] == tuple(reversed(words[1]))
        assert sorted(p.terms.values()) == [Fraction(-1), Fraction(1)]


# -- rule derivation and rewriting --------------------------------------------


def test_derived_rules_golden_text():
    rules = derive_rules(2, 1)
    assert rules.level_cap == 2
    assert rules_to_text(rules) == "\n".join(
        [
            "T1[1,2]*T1[1,1] -> T1[1,1]*T1[1,2] - T1[1,2]",
            "T1[2,1]*T1[1,1] -> T1[1,1]*T1[2,1] + T1[2,1]",
            "T1[2,1]*T1[1,2] -> T1[1,2]*T1[2,1] + T1[2,2] - T1[1,1]",
            "T1[2,2]*T1[1,1] -> T1[1,1]*T1[2,2]",
            "T1[2,2]*T1[1,2] -> T1[1,2]*T1[2,2] - T1[1,2]",
            "T1[2,2]*T1[2,1] -> T1[2,1]*T1[2,2] + T1[2,1]",
        ]
    )


def test_rules_exist_only_for_out_of_order_pairs():
    rules = derive_rules(2, 2)
    assert rules.level_cap == 3
    for x, y in rules.rules:
        assert gen_key(x) > gen_key(y)
        assert x.level + y.level <= 3
    assert (t_gen(1, 1), t_gen(1, 2)) not in rules.rules
    assert (t_gen(1, 2, 2), t_gen(1, 1, 2)) not in rules.rules


def test_derive_rules_rejects_level_zero():
    with pytest.raises(ValueError, match="level cap"):
        derive_rules(2, 0)


def count_rtt_expansions(monkeypatch):
    """Route modes._rtt_buckets through a recorder of its arguments."""
    from reflection_workbench import modes

    calls = []

    def counting(*args):
        calls.append(args)
        return _rtt_buckets(*args)

    monkeypatch.setattr(modes, "_rtt_buckets", counting)
    return calls


def test_derive_rules_expands_the_relation_once(monkeypatch):
    calls = count_rtt_expansions(monkeypatch)
    derive_rules(2, 2)
    assert calls == [(2, 3)]


def test_twisted_embedding_expands_the_rtt_relation_once(monkeypatch):
    calls = count_rtt_expansions(monkeypatch)
    assert verify_twisted_embedding(2, 1).passed
    assert calls == [(2, 2)]


def test_rewrite_system_validates_orientation():
    x, y = t_gen(1, 2), t_gen(1, 1)
    with pytest.raises(ValueError, match="not an out-of-order pair"):
        RewriteSystem({(y, x): NCPoly({(x, y): 1})}, 2)
    with pytest.raises(ValueError, match="swap term missing"):
        RewriteSystem({(x, y): NCPoly({(x,): 1})}, 2)
    with pytest.raises(ValueError, match="does not drop"):
        RewriteSystem({(x, y): NCPoly({(y, x): 1, (x, y): 1})}, 2)
    with pytest.raises(ValueError, match="exceeds the level cap"):
        RewriteSystem({(x, y): NCPoly({(y, x): 1})}, 1)


def test_rtt_relations_normal_form_to_zero():
    for d in (1, 2):
        relations = expand_relation("rtt", 2, d)
        rules = derive_rules(2, 2 * d - 1)
        for p in relations:
            assert normal_form(p, rules).is_zero()


def test_normal_form_single_swap():
    rules = derive_rules(2, 1)
    p = NCPoly({(t_gen(1, 2), t_gen(1, 1)): 1})
    assert str(normal_form(p, rules)) == "T1[1,1]*T1[1,2] - T1[1,2]"


def test_normal_form_rejects_overflow_and_missing_rules():
    rules = derive_rules(2, 1)
    too_big = NCPoly({(t_gen(1, 1), t_gen(1, 2), t_gen(2, 1)): 1})
    with pytest.raises(ValueError, match="level cap"):
        normal_form(too_big, rules)
    empty = RewriteSystem({}, 2)
    with pytest.raises(ValueError, match="missing rule"):
        normal_form(NCPoly({(t_gen(1, 2), t_gen(1, 1)): 1}), empty)


def last_pair_normal_form(p, rs):
    """Reduction oracle that always rewrites the last out-of-order pair."""
    acc = NCPoly.zero()
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop()
        pos = None
        for idx in reversed(range(len(word) - 1)):
            if gen_key(word[idx]) > gen_key(word[idx + 1]):
                pos = idx
                break
        if pos is None:
            acc = acc + NCPoly({word: coeff})
            continue
        rule = rs.rules[(word[pos], word[pos + 1])]
        for rword, rcoeff in rule.terms.items():
            work.append((word[:pos] + rword + word[pos + 2 :], coeff * rcoeff))
    return acc


def test_normal_form_is_confluent_on_small_words():
    rules = derive_rules(2, 2)
    gens = [t_gen(i, j) for i in (1, 2) for j in (1, 2)]
    words = [(a,) for a in gens]
    words += [(a, b) for a in gens for b in gens]
    words += [(a, b, c) for a in gens for b in gens for c in gens]
    for word in words:
        reduced = normal_form(NCPoly({word: 1}), rules)
        for w in reduced.terms:
            assert all(
                gen_key(w[i]) <= gen_key(w[i + 1]) for i in range(len(w) - 1)
            )
        assert normal_form(reduced, rules) == reduced
        assert last_pair_normal_form(NCPoly({word: 1}), rules) == reduced


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.sampled_from([(i, j) for i in (1, 2) for j in (1, 2)]),
            st.sampled_from([(i, j) for i in (1, 2) for j in (1, 2)]),
        ),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        max_size=4,
    )
)
def test_normal_form_is_linear(entries):
    rules = derive_rules(2, 1)
    p = NCPoly(
        {(t_gen(*a), t_gen(*b)): coeff for (a, b), coeff in entries.items()}
    )
    q = NCPoly({(t_gen(2, 1), t_gen(1, 2)): Fraction(1, 2)})
    assert normal_form(p + q, rules) == normal_form(p, rules) + normal_form(q, rules)
    assert normal_form(normal_form(p, rules), rules) == normal_form(p, rules)


# -- the twisted substitution -------------------------------------------------


def test_twisted_images_level_zero_is_delta():
    images = twisted_generator_images(2, 1, ORTH2)
    assert images[ModeGen("S", 1, 1, 0)] == NCPoly.one()
    assert images[ModeGen("S", 1, 2, 0)].is_zero()


def test_twisted_images_level_one():
    orth = twisted_generator_images(2, 1, ORTH2)
    assert orth[ModeGen("S", 1, 2, 1)] == NCPoly(
        {(t_gen(1, 2),): 1, (t_gen(2, 1),): -1}
    )
    sympl = twisted_generator_images(2, 1, SYMPL2)
    assert sympl[ModeGen("S", 1, 2, 1)] == NCPoly({(t_gen(1, 2),): 2})


def entrywise_images(n, d, t):
    """Reference: level k of S(i,j) is
    sum_{a+b=k} (-1)^a [g T_transposed^(a) g^(-1)]_{im} T^(b)_{mj}
    summed over m, with level 0 of T read as the numeric unit."""
    images = {}
    for k in range(d + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = NCPoly.zero()
                for a in range(k + 1):
                    b = k - a
                    sign = Fraction(-1) ** a
                    for m in range(1, n + 1):
                        if a == 0:
                            if i != m:
                                continue
                            left = NCPoly.one()
                        else:
                            left_terms = {}
                            for p_ in range(1, n + 1):
                                for q_ in range(1, n + 1):
                                    value = t.g[i - 1][p_ - 1] * t.g_inv[q_ - 1][m - 1]
                                    if value:
                                        word = (ModeGen("T", q_, p_, a),)
                                        left_terms[word] = (
                                            left_terms.get(word, Fraction(0)) + value
                                        )
                            left = NCPoly(left_terms)
                        if b == 0:
                            if m != j:
                                continue
                            right = NCPoly.one()
                        else:
                            right = NCPoly({(ModeGen("T", m, j, b),): 1})
                        acc = acc + (left * right) * sign
                images[ModeGen("S", i, j, k)] = acc
    return images


FORMS = {
    "orth2": orthogonal_transposition(2),
    "sympl2": symplectic_transposition(2),
    "sym2": Transposition([[1, 2], [2, Fraction(1, 3)]]),
    "orth3": orthogonal_transposition(3),
    "sym3": Transposition([[2, 1, 0], [1, 0, 3], [0, 3, Fraction(-1, 2)]]),
    "orth4": orthogonal_transposition(4),
    "sympl4": symplectic_transposition(4),
    "skew4": Transposition([[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]]),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("form", sorted(FORMS))
def test_twisted_images_match_the_entrywise_formula(form, d):
    t = FORMS[form]
    images = twisted_generator_images(t.n, d, t)
    assert images == entrywise_images(t.n, d, t)


def test_twisted_images_refuse_a_form_of_another_size():
    with pytest.raises(ValueError, match="transposition size 3"):
        twisted_generator_images(2, 1, orthogonal_transposition(3))


def test_substitute_gens_multiplies_in_word_order():
    x, y = ModeGen("S", 1, 1, 1), ModeGen("S", 2, 2, 1)
    a, b = t_gen(1, 2), t_gen(2, 1)
    images = {x: NCPoly({(a,): 1}), y: NCPoly({(b,): 1, (): 1})}
    out = substitute_gens(NCPoly({(x, y): 2}), lambda g: images[g])
    assert out == NCPoly({(a, b): 2, (a,): 2})


@pytest.mark.parametrize(
    "n, level, t, relations",
    [
        (2, 1, ORTH2, 74),
        (2, 1, SYMPL2, 74),
        (2, 2, ORTH2, 132),
        (2, 2, SYMPL2, 132),
        (3, 1, orthogonal_transposition(3), 393),
    ],
)
def test_twisted_embedding_passes(n, level, t, relations):
    report = verify_twisted_embedding(n, level, t)
    assert report.passed
    assert report.witness is None
    assert report.params["relations"] == relations
    assert report.params["level"] == level


def test_twisted_embedding_defaults_to_orthogonal():
    report = verify_twisted_embedding(2, 1)
    assert report.passed
    assert report.params["kind"] == "orthogonal"
    with pytest.raises(ValueError, match="level cap"):
        verify_twisted_embedding(2, 0)


def unsigned_images(n, d, t):
    """The twisted images with the sign alternation dropped, which is the
    series taken at +u instead of -u: not a solution."""
    out = {}
    for k in range(d + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = NCPoly.zero()
                for a in range(k + 1):
                    b = k - a
                    for m in range(1, n + 1):
                        if a == 0:
                            if i != m:
                                continue
                            left = NCPoly.one()
                        else:
                            left = NCPoly(
                                {
                                    (ModeGen("T", q, p, a),): t.g[i - 1][p - 1]
                                    * t.g_inv[q - 1][m - 1]
                                    for p in range(1, n + 1)
                                    for q in range(1, n + 1)
                                    if t.g[i - 1][p - 1] * t.g_inv[q - 1][m - 1]
                                }
                            )
                        if b == 0:
                            if m != j:
                                continue
                            right = NCPoly.one()
                        else:
                            right = NCPoly({(ModeGen("T", m, j, b),): 1})
                        acc = acc + left * right
                out[ModeGen("S", i, j, k)] = acc
    return out


def test_unsigned_substitution_fails():
    images = unsigned_images(2, 1, ORTH2)
    relations = expand_relation("twisted_re", 2, 1, ORTH2)
    rules = derive_rules(2, 1)
    residues = [
        normal_form(substitute_gens(p, lambda g: images[g]), rules)
        for p in relations
    ]
    assert sum(1 for r in residues if not r.is_zero()) == 24


# -- independent certificate: ideal membership without rewriting --------------


def reduce_against(pivots, terms):
    terms = dict(terms)
    while terms:
        lead = max(terms, key=word_key)
        pivot = pivots.get(lead)
        if pivot is None:
            return terms
        factor = terms[lead]
        for word, coeff in pivot.items():
            total = terms.get(word, Fraction(0)) - factor * coeff
            if total:
                terms[word] = total
            else:
                terms.pop(word, None)
    return terms


def ideal_pivots(n, d):
    """Echelonized two-sided multiples of the RTT relations, bounded by
    the levels and lengths the substituted twisted relations can reach."""
    relations = expand_relation("rtt", n, 2 * d - 1)
    level_bound, length_bound = 2 * d, 4
    gens = [
        ModeGen("T", i, j, level)
        for level in range(1, 2 * d)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    sides = [()] + [(g,) for g in gens] + [(g, h) for g in gens for h in gens]
    pivots = {}
    for relation in relations:
        max_level = max(word_level(w) for w in relation.terms)
        max_len = max(len(w) for w in relation.terms)
        for prefix in sides:
            if (
                word_level(prefix) + max_level > level_bound
                or len(prefix) + max_len > length_bound
            ):
                continue
            for suffix in sides:
                if (
                    word_level(prefix) + word_level(suffix) + max_level > level_bound
                    or len(prefix) + len(suffix) + max_len > length_bound
                ):
                    continue
                instance = {}
                for word, coeff in relation.terms.items():
                    full = prefix + word + suffix
                    instance[full] = instance.get(full, Fraction(0)) + coeff
                rest = reduce_against(pivots, instance)
                if rest:
                    lead = max(rest, key=word_key)
                    inv = Fraction(1) / rest[lead]
                    pivots[lead] = {w: c * inv for w, c in rest.items()}
    return pivots


@pytest.mark.parametrize(
    "level, t",
    [(1, ORTH2), (1, SYMPL2), (2, ORTH2), (2, SYMPL2)],
)
def test_embedding_agrees_with_ideal_membership_oracle(level, t):
    n = 2
    pivots = ideal_pivots(n, level)
    images = twisted_generator_images(n, level, t)
    for relation in expand_relation("twisted_re", n, level, t):
        substituted = substitute_gens(relation, lambda g: images[g])
        assert reduce_against(pivots, substituted.terms) == {}


# -- constant solutions at the mode level --------------------------------------


def character_image(x):
    def image(gen):
        if gen.level:
            return NCPoly.zero()
        value = x[gen.row - 1][gen.col - 1]
        return NCPoly({(): value}) if value else NCPoly.zero()

    return image


def test_character_substitution_vanishes_for_symmetric_and_skew():
    relations = expand_relation("twisted_re", 2, 1, ORTH2)
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    skew = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    for x in (identity, skew):
        for p in relations:
            assert substitute_gens(p, character_image(x)).is_zero()
    lopsided = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    bad = [
        p
        for p in relations
        if not substitute_gens(p, character_image(lopsided)).is_zero()
    ]
    assert len(bad) == 2


@settings(max_examples=15, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_character_substitution_vanishes_for_random_symmetric(a, b, c):
    relations = expand_relation("twisted_re", 2, 1, ORTH2)
    symmetric = ((a, b), (b, c))
    for p in relations:
        assert substitute_gens(p, character_image(symmetric)).is_zero()
