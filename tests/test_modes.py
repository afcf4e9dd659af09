"""Mode-level expansion, rewriting, and the twisted substitution check."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bucket_oracle
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
    normal_form,
    series_matrix,
    substitute_gens,
    twisted_generator_images,
    verify_twisted_embedding,
    word_key,
    word_level,
    _collect_buckets,
    _distinct,
    _integral_images,
    _leg_factor,
    _relations,
    _residues,
    _rtt_buckets,
    _twisted_buckets,
)

ORTH2 = orthogonal_transposition(2)
SYMPL2 = symplectic_transposition(2)


def t_gen(i, j, level=1):
    return ModeGen("T", i, j, level)


def max_gen_level(p):
    """The highest generator level that any word of p mentions."""
    return max((gen.level for word in p.terms for gen in word), default=0)


def monic_text(p):
    lead = max(p.terms, key=word_key)
    return str(p * (Fraction(1) / p.terms[lead]))


# -- generators and free polynomials ----------------------------------------


def test_mode_generator_validation():
    with pytest.raises(ValueError, match="family"):
        ModeGen("U", 1, 1, 1)
    with pytest.raises(ValueError, match="unit"):
        ModeGen("T", 1, 1, 0)
    with pytest.raises(ValueError, match="^matrix index must be an integer >= 1, got 0$"):
        ModeGen("S", 0, 1, 1)
    with pytest.raises(ValueError, match="level"):
        ModeGen("S", 1, 1, -1)
    assert str(ModeGen("S", 2, 1, 0)) == "S0[2,1]"


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: ModeGen("T", True, 1, 1), "matrix index must be an integer >= 1, got True"),
        (lambda: ModeGen("T", 1, 2.0, 1), "matrix index must be an integer >= 1, got 2.0"),
        (lambda: ModeGen("T", 1, 1, True), "level must be an integer >= 0, got True"),
        (lambda: ModeGen("S", 1, 1, 0.0), "level must be an integer >= 0, got 0.0"),
        (lambda: expand_relation("rtt", 2, 1.5), "level cap must be an integer >= 1, got 1.5"),
        (lambda: expand_relation("twisted_re", 2, True), "level cap must be an integer >= 1, got True"),
        (lambda: derive_rules(2, 2.0), "level cap must be an integer >= 1, got 2.0"),
        (lambda: derive_rules(2, 0), "level cap must be an integer >= 1, got 0"),
        (lambda: verify_twisted_embedding(2, True), "level cap must be an integer >= 1, got True"),
    ],
)
def test_mode_layer_refuses_bools_and_floats(build, text):
    """A bool is an int to isinstance and a float may be integral; both
    are refused by type, as the CLI refuses them."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


GENERATORS = st.one_of(
    st.builds(ModeGen, st.just("T"), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    st.builds(ModeGen, st.just("S"), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
)


def order_key(gen):
    return (gen.level, gen.row, gen.col, gen.family)


@settings(max_examples=200, deadline=None)
@given(GENERATORS, GENERATORS)
def test_generator_order_is_level_then_entry(x, y):
    assert (x < y) == (order_key(x) < order_key(y))
    assert (x == y) == (order_key(x) == order_key(y))
    if x == y:
        assert hash(x) == hash(y)


def test_mode_generator_is_immutable():
    x = t_gen(1, 2)
    for name in ("family", "row", "col", "level", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.family, x.row, x.col, x.level) == ("T", 1, 2, 1)


def test_mode_generator_copies_and_reprs_as_itself():
    x = ModeGen("S", 2, 1, 0)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is ModeGen and y == x
    assert repr(x) == "ModeGen(family='S', row=2, col=1, level=0)"
    assert eval(repr(x)) == x


def test_ncpoly_refuses_a_plain_tuple_equal_to_a_generator():
    x = t_gen(1, 2)
    plain = (x.level, x.row, x.col, x.family)
    assert plain == x
    with pytest.raises(ValueError, match="non-generator"):
        NCPoly({(plain,): 1})
    with pytest.raises(ValueError, match="non-generator"):
        NCPoly({(x, plain): 1})


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


def test_ncpoly_refuses_a_plain_number_summand():
    with pytest.raises(TypeError):
        NCPoly.one() + 1
    with pytest.raises(TypeError):
        NCPoly.one() - 1
    with pytest.raises(TypeError):
        1 + NCPoly.one()


def test_ncpoly_arithmetic_does_not_revalidate(monkeypatch):
    """Words and coefficients are checked where they enter; sums,
    negations and products of checked polynomials are wrapped as they are."""
    x, y = t_gen(1, 2), t_gen(2, 1)
    p, q = NCPoly({(x,): 1}), NCPoly({(y,): Fraction(1, 2)})

    def refuse(self, terms=None):
        raise AssertionError("the validating constructor ran")

    monkeypatch.setattr(NCPoly, "__init__", refuse)
    text = "-1/2*T1[2,1]*T1[1,2] + 1/2*T1[1,2]*T1[2,1] - 2*T1[1,2]"
    assert str(p * q - q * p + (-p) * 2) == text


def test_ncpoly_integral_scalar_keeps_int_coefficients():
    p = NCPoly({(t_gen(1, 2),): 3, (t_gen(2, 1),): -1})
    for q in (p * Fraction(2), Fraction(2) * p):
        assert [type(c) for c in q.terms.values()] == [int, int]
        assert q.terms == {(t_gen(1, 2),): 6, (t_gen(2, 1),): -2}


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


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: series_matrix("T", True, 1), "n must be an integer >= 1, got True"),
        (lambda: series_matrix("T", 2.0, 1), "n must be an integer >= 1, got 2.0"),
        (lambda: series_matrix("T", 2, 1.5), "series length must be an integer >= 0, got 1.5"),
        (lambda: series_matrix("S", 2, True), "series length must be an integer >= 0, got True"),
        (lambda: series_matrix("S", 2, -1), "series length must be an integer >= 0, got -1"),
        (
            lambda: twisted_generator_images(2, 1.5, ORTH2),
            "series length must be an integer >= 0, got 1.5",
        ),
    ],
)
def test_series_matrix_refuses_bools_and_floats(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


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
            assert max_gen_level(p) <= d


def test_twisted_level_one_fixture():
    relations = expand_relation("twisted_re", 2, 1)
    assert len(relations) == 74
    for p in relations:
        assert max_gen_level(p) <= 1
        assert max(word_level(word) for word in p.terms) <= 2
        assert all(g.family == "S" for word in p.terms for g in word)
    assert "\n".join(map(str, relations)).count("\n") == 73


def test_identity_structure_leaves_only_commutators():
    t1 = _leg_factor(series_matrix("T", 2, 2, var="u"), 0)
    t2 = _leg_factor(series_matrix("T", 2, 2, var="v"), 1)
    buckets = _collect_buckets([t1, t2], [t2, t1], 2, (-1, -1, -2))
    kept = _relations(buckets, 1)
    assert len(kept) == 12
    for p in kept:
        words = sorted(p.terms, key=word_key)
        assert len(words) == 2
        assert words[0] == tuple(reversed(words[1]))
        assert sorted(p.terms.values()) == [Fraction(-1), Fraction(1)]


def assert_capped(buckets, reference, alpha_cap, cap, total):
    """The floored products build exactly the untruncated builder's
    coefficients with alpha <= alpha_cap, beta <= cap and alpha + beta
    <= total, and none past any bound."""
    assert buckets
    assert all(key[0] <= alpha_cap and key[1] <= cap for key in buckets)
    assert all(key[0] + key[1] <= total for key in buckets)
    assert buckets == bucket_oracle.within(reference, alpha_cap, cap, total)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("reader", ["derive_rules", "expand_relation"])
def test_rtt_buckets_are_the_full_expansion_within_the_cap(n, d, reader):
    """Each reader's floor: derive_rules reads only keys with alpha <= d - 1
    and alpha + beta <= d, expand_relation takes every in-cap key."""
    alpha_cap, total = {"derive_rules": (d - 1, d), "expand_relation": (d, 2 * d)}[reader]
    reference = bucket_oracle.rtt_buckets(n, d + 1)
    buckets = _rtt_buckets(n, d + 1, (-alpha_cap, -d, -total))
    assert_capped(buckets, reference, alpha_cap, d, total)


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_derive_rules_from_the_floored_buckets_are_those_of_the_full_expansion(
    monkeypatch, n, d
):
    """Every key that derive_rules reads lies above its floor, so the rules
    built from the untruncated buckets are the same."""
    from reflection_workbench import modes

    def unfloored(n, length, floor):
        return bucket_oracle.rtt_buckets(n, length)

    floored = derive_rules(n, d).rules
    monkeypatch.setattr(modes, "_rtt_buckets", unfloored)
    assert derive_rules(n, d).rules == floored


# -- rule derivation and rewriting --------------------------------------------


def test_derived_rules_golden_text():
    rules = derive_rules(2, 1)
    assert rules.level_cap == 2
    rule_text = "\n".join(f"{x}*{y} -> {rules.rules[(x, y)]}" for x, y in sorted(rules.rules))
    assert rule_text == "\n".join(
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
        assert x > y
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
    assert calls == [(2, 3, (-1, -2, -2))]


def test_twisted_embedding_expands_the_rtt_relation_once(monkeypatch):
    calls = count_rtt_expansions(monkeypatch)
    assert verify_twisted_embedding(2, 1).passed
    assert calls == [(2, 2, (0, -1, -1))]


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
            if word[idx] > word[idx + 1]:
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
            assert all(w[i] <= w[i + 1] for i in range(len(w) - 1))
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


def overlaps(rs):
    """(overlaps, unresolved) over every x*y*z with x > y > z, rules for
    x*y and y*z and level sum within the cap: x*rule(y, z) and
    rule(x, y)*z must have one normal form (Bergman's diamond lemma)."""
    rules = rs.rules
    right_of = {}
    for x, y in rules:
        right_of.setdefault(x, []).append(y)
    count = unresolved = 0
    for (x, y), xy in rules.items():
        for z in right_of.get(y, ()):
            if x.level + y.level + z.level > rs.level_cap:
                continue
            count += 1
            left = normal_form(NCPoly({(x,): 1}) * rules[(y, z)], rs)
            right = normal_form(xy * NCPoly({(z,): 1}), rs)
            unresolved += left != right
    return count, unresolved


@pytest.mark.parametrize("n, count, perturbed", [(2, 28, 2), (3, 408, 7), (4, 2480, 12)])
def test_rewrite_system_is_confluent_within_the_cap(n, count, perturbed):
    """Every overlap of the level-3 rules resolves.  Control: doubling the
    corrections of the first level-sum-3 rule that has any leaves
    overlaps unresolved."""
    rs = derive_rules(n, 3)
    assert overlaps(rs) == (count, 0)
    key = next(
        (x, y)
        for x, y in sorted(rs.rules)
        if x.level + y.level == 3 and len(rs.rules[(x, y)].terms) > 1
    )
    swap = NCPoly({(key[1], key[0]): 1})
    doubled = dict(rs.rules)
    doubled[key] = swap + (rs.rules[key] - swap) * 2
    assert overlaps(RewriteSystem(doubled, rs.level_cap)) == (count, perturbed)


# -- the twisted substitution -------------------------------------------------


def test_twisted_images_level_zero_is_delta():
    images = twisted_generator_images(2, 1, ORTH2)
    assert images[ModeGen("S", 1, 1, 0)] == NCPoly.one()
    assert images[ModeGen("S", 1, 2, 0)].is_zero()


def test_twisted_images_keep_int_coefficients():
    images = twisted_generator_images(2, 2, ORTH2)
    coeffs = [c for p in images.values() for c in p.terms.values()]
    assert len(coeffs) == 20
    assert all(type(c) is int for c in coeffs)


def test_substitution_does_not_revalidate(monkeypatch):
    """substitute_gens builds its words from checked images and wraps them
    as they are."""
    images = twisted_generator_images(2, 1, ORTH2)
    p = max(expand_relation("twisted_re", 2, 1, ORTH2), key=lambda q: len(q.terms))

    def refuse(self, terms=None):
        raise AssertionError("the validating constructor ran")

    expected = str(substitute_gens(p, images.__getitem__))
    monkeypatch.setattr(NCPoly, "__init__", refuse)
    assert str(substitute_gens(p, images.__getitem__)) == expected


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


GOLDEN_MODE_DIGESTS = {
    "orth2": (
        orthogonal_transposition(2),
        "1b3fa5e65b0d5c8a4446bef4e5214dfe7904e41b4c54dab22bdeb830201eaeb4",
    ),
    "diag3": (
        Transposition([[2, 0, 0], [0, -3, 0], [0, 0, 5]]),
        "117682fb0e2742fd1f11f14a1e234e7808d2e29bb21ae35e98461932a489eedf",
    ),
    "sympl4": (
        symplectic_transposition(4),
        "c26c6539dd20bfeecb8146d10b379e17c895297f3d807eeb5dc155e820c705e3",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MODE_DIGESTS))
def test_mode_layer_texts_are_golden(case):
    """The level-2 twisted relations, the level-3 rules and the level-2
    twisted images, as canonical texts, hash to fixed digests."""
    t, digest = GOLDEN_MODE_DIGESTS[case]
    images = twisted_generator_images(t.n, 2, t)
    rules = derive_rules(t.n, 3).rules
    texts = [
        "\n".join(map(str, expand_relation("twisted_re", t.n, 2, t))),
        "\n".join(f"{x}*{y} -> {rules[(x, y)]}" for x, y in sorted(rules)),
        "\n".join(sorted(f"{gen} -> {image}" for gen, image in images.items())),
    ]
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest() == digest


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
        (3, 3, orthogonal_transposition(3), 1131),
        (4, 3, symplectic_transposition(4), 3580),
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


@pytest.mark.parametrize(
    "t, other, relation, residue",
    [
        (
            ORTH2,
            Transposition(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))),
            "-S1[1,2]*S1[1,1] + S1[1,1]*S1[1,2] + 2*S1[1,1]*S0[1,2] "
            "- S0[1,1]*S1[2,1] - S0[1,1]*S1[1,2]",
            "-2*T1[2,1] - 2*T1[1,2]",
        ),
        (
            SYMPL2,
            Transposition(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))),
            "-S1[1,2]*S1[1,1] + S1[1,1]*S1[1,2] - S1[1,2]*S0[2,2] + S1[1,1]*S0[1,2] "
            "- S0[1,2]*S1[1,1] - S0[1,1]*S1[1,2]",
            "2*T1[2,1] - 2*T1[1,2]",
        ),
    ],
)
def test_twisted_embedding_fails_for_images_of_another_form(
    t, other, relation, residue, monkeypatch
):
    """Images built with another form than the relations' are not a
    solution: the check fails with the first nonzero residue."""
    from reflection_workbench import modes

    monkeypatch.setattr(
        modes, "twisted_generator_images", lambda n, d, _t: twisted_generator_images(n, d, other)
    )
    report = verify_twisted_embedding(2, 1, t)
    assert report.passed is False
    assert report.witness == {"relation": relation, "residue": residue}


DIAG23 = Transposition([[2, 0], [0, 3]])
SKEW3 = Transposition([[0, 3], [-3, 0]])


@pytest.mark.parametrize(
    "t, other, total, relation, residue",
    [
        (
            DIAG23,
            Transposition([[2, 0], [0, -3]]),
            6 * 6**2,
            "-S1[1,2]*S1[1,1] + S1[1,1]*S1[1,2] + 2*S1[1,1]*S0[1,2] "
            "- 2/3*S0[1,1]*S1[2,1] - S0[1,1]*S1[1,2]",
            "-4/3*T1[2,1] - 2*T1[1,2]",
        ),
        (
            SKEW3,
            DIAG23,
            1 * 6**2,
            "-S1[1,2]*S1[1,1] + S1[1,1]*S1[1,2] - S1[1,2]*S0[2,2] + S1[1,1]*S0[1,2] "
            "- S0[1,2]*S1[1,1] - S0[1,1]*S1[1,2]",
            "4/3*T1[2,1] - 2*T1[1,2]",
        ),
    ],
)
def test_twisted_embedding_witness_is_divided_back_exactly(
    t, other, total, relation, residue, monkeypatch
):
    """With non-unimodular forms the relations are scaled by D and the
    residues by D*E^2 > 1; the witness is divided back to the true
    relation of least text and its true residue."""
    scale = _twisted_buckets(2, 3, t)[0]
    image_scale = _integral_images(2, 1, other)[0]
    assert scale * image_scale**2 == total
    from reflection_workbench import modes

    monkeypatch.setattr(
        modes, "twisted_generator_images", lambda n, d, _t: twisted_generator_images(n, d, other)
    )
    report = verify_twisted_embedding(2, 1, t)
    assert report.passed is False
    assert report.witness == {"relation": relation, "residue": residue}


TWISTED_CAP_FORMS = {
    "orth2": ORTH2,
    "sympl2": SYMPL2,
    "diag23": DIAG23,
    "skew3": SKEW3,
    "orth3": orthogonal_transposition(3),
}


def twisted_total(d):
    """B(d), the bound on alpha + beta of the twisted buckets that the
    lemma at modes._twisted_buckets allows."""
    return max(2 * d - 4, d - 1)


def distinct_maps(buckets, d):
    """The term maps that _distinct keeps, as a set."""
    return {frozenset(p.terms.items()) for p in _distinct(buckets, d)}


@pytest.mark.parametrize("form", sorted(TWISTED_CAP_FORMS))
@pytest.mark.parametrize("d", [1, 2])
def test_twisted_buckets_are_the_full_expansion_within_the_cap(form, d):
    t = TWISTED_CAP_FORMS[form]
    scale, buckets = _twisted_buckets(t.n, d + 2, t)
    reference_scale, reference = bucket_oracle.twisted_buckets(t.n, d + 2, t)
    assert scale == reference_scale
    assert_capped(buckets, reference, d, d, twisted_total(d))
    assert distinct_maps(buckets, d) == distinct_maps(reference, d)


TWISTED_LEMMA_FORMS = {
    "orth2": ORTH2,
    "sympl2": SYMPL2,
    "orth3": orthogonal_transposition(3),
    "orth4": orthogonal_transposition(4),
    "sympl4": symplectic_transposition(4),
}


@pytest.mark.parametrize("form", sorted(TWISTED_LEMMA_FORMS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_twisted_buckets_past_the_sum_bound_mention_a_generator_above_the_cap(form, d):
    """The lemma at modes._twisted_buckets, on the untruncated builder:
    every in-cap bucket with alpha + beta > B(d) mentions a generator
    above d, the largest alpha + beta that the level filter keeps is
    B(d), and the floored builder keeps the same distinct relations."""
    t = TWISTED_LEMMA_FORMS[form]
    total = twisted_total(d)
    reference = bucket_oracle.twisted_buckets(t.n, d + 2, t)[1]
    in_cap = bucket_oracle.within(reference, d, d, 2 * d)
    past = [p for key, p in in_cap.items() if key[0] + key[1] > total]
    assert past
    assert all(max_gen_level(p) > d for p in past)
    kept = [key for key, p in in_cap.items() if max_gen_level(p) <= d]
    assert max(key[0] + key[1] for key in kept) == total
    assert distinct_maps(_twisted_buckets(t.n, d + 2, t)[1], d) == distinct_maps(reference, d)


@pytest.mark.parametrize("d, capped, full", [(1, 134, 486), (2, 230, 694)])
def test_twisted_buckets_past_the_cap_are_not_built(d, capped, full):
    assert len(_twisted_buckets(2, d + 2, ORTH2)[1]) == capped
    assert len(bucket_oracle.twisted_buckets(2, d + 2, ORTH2)[1]) == full


@pytest.mark.parametrize("form", ["orth2", "sympl2", "orth3"])
@pytest.mark.parametrize("d", [2, 3])
def test_the_embedding_rules_stop_at_the_relations_level(form, d, monkeypatch):
    """The check derives its rules at B(d) + 1, and that cap is tight and
    checks itself: rules derived one level lower make normal_form refuse a
    word of level B(d) + 2 instead of passing."""
    from reflection_workbench import modes

    t = TWISTED_CAP_FORMS[form]
    levels = []

    def recording(n, level):
        levels.append(level)
        return derive_rules(n, level)

    monkeypatch.setattr(modes, "derive_rules", recording)
    assert verify_twisted_embedding(t.n, d, t).passed
    cap = twisted_total(d) + 1
    assert levels == [cap]
    monkeypatch.setattr(modes, "derive_rules", lambda n, level: derive_rules(n, level - 1))
    text = f"^word of total level {cap + 1} exceeds the rewrite level cap {cap}$"
    with pytest.raises(ValueError, match=text):
        verify_twisted_embedding(t.n, d, t)


@pytest.mark.parametrize(
    "t, other",
    [(ORTH2, Transposition([[1, 0], [0, -1]])), (SYMPL2, orthogonal_transposition(2))],
)
def test_a_warm_normal_form_memo_cannot_pass_a_broken_relation(t, other, monkeypatch):
    """One rewrite system first normal-forms the right images, which pass;
    the other form's images must then fail with the report of a fresh
    system, byte for byte."""
    from reflection_workbench import modes

    def report_text(report):
        return json.dumps([report.passed, report.params, report.witness], sort_keys=True)

    def other_images(n, d, _t):
        return twisted_generator_images(n, d, other)

    with monkeypatch.context() as patch:
        patch.setattr(modes, "twisted_generator_images", other_images)
        fresh = verify_twisted_embedding(2, 2, t)
    assert fresh.passed is False
    assert set(fresh.witness) == {"relation", "residue"}
    shared = derive_rules(2, twisted_total(2) + 1)
    monkeypatch.setattr(modes, "derive_rules", lambda n, level: shared)
    assert verify_twisted_embedding(2, 2, t).passed
    assert shared.forms
    monkeypatch.setattr(modes, "twisted_generator_images", other_images)
    assert report_text(verify_twisted_embedding(2, 2, t)) == report_text(fresh)


INT_PATH_FORMS = {
    "orth2": (ORTH2, Transposition([[1, 0], [0, -1]]), 2),
    "sympl2": (SYMPL2, orthogonal_transposition(2), 2),
    "diag23": (DIAG23, Transposition([[2, 0], [0, -3]]), 2),
    "skew3": (SKEW3, DIAG23, 2),
    "orth3": (orthogonal_transposition(3), Transposition([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), 1),
    "diag35m2": (Transposition([[3, 0, 0], [0, 5, 0], [0, 0, -2]]), orthogonal_transposition(3), 1),
}


@pytest.mark.parametrize("form", sorted(INT_PATH_FORMS))
def test_int_path_matches_the_fraction_path(form):
    """The int buckets divided by D are the buckets of the unscaled R' and
    R'', key by key within the level cap, and each residue taken once per
    distinct word is D*E^2 times the normal form of the true relation's
    true substitution, for the form's own images and for another form's,
    which leave residues."""
    t, other, d = INT_PATH_FORMS[form]
    n = t.n
    scale, buckets = _twisted_buckets(n, d + 2, t)
    unscaled = bucket_oracle.twisted_buckets(n, d + 2, t, scaled=False)[1]
    reference = bucket_oracle.within(unscaled, d, d, twisted_total(d))
    assert all(type(c) is int for p in buckets.values() for c in p.terms.values())
    assert {key: p * Fraction(1, scale) for key, p in buckets.items()} == reference
    relations = _distinct(buckets, d)
    rules = derive_rules(n, 2 * d - 1)
    for form_of_images in (t, other):
        image_scale, images = _integral_images(n, d, form_of_images)
        assert all(type(c) is int for p in images.values() for c in p.terms.values())
        true_images = twisted_generator_images(n, d, form_of_images)
        residues = list(_residues(relations, images, rules))
        assert [p for p, _ in residues] == relations
        for p, residue in residues:
            true_residue = normal_form(
                substitute_gens(p * Fraction(1, scale), true_images.__getitem__), rules
            )
            assert residue == true_residue * (scale * image_scale**2)
        failing = sum(1 for _, residue in residues if not residue.is_zero())
        assert (failing == 0) == (form_of_images is t)


def test_residues_refuse_a_word_that_is_not_quadratic():
    gen = ModeGen("S", 1, 1, 1)
    images = {gen: NCPoly({(t_gen(1, 1),): 1})}
    with pytest.raises(ValueError, match="^relation word of length 3 is not quadratic$"):
        list(_residues([NCPoly({(gen, gen, gen): 1})], images, derive_rules(2, 1)))


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
