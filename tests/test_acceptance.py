"""Acceptance suite: the package's advertised guarantees, one test per
guarantee, each with its runtime budget.  Every identity is exact; there
are no tolerances anywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import test_modes

from reflection_workbench.evaluation import (
    DoubleEval,
    build_twisted_s,
    check_double_relations,
    eval_double,
    eval_t,
    pairing_series,
)
from reflection_workbench.fusion import GradedFamily
from reflection_workbench.kernel import (
    LaurentPoly,
    identity_matrix,
    identity_op,
    op_scale,
    op_substitute,
    orthogonal_transposition,
    site_permute,
    symplectic_transposition,
    tau_on_leg,
)
from reflection_workbench.modes import (
    ModeGen,
    NCPoly,
    derive_rules,
    expand_relation,
    gen_key,
    normal_form,
    relations_to_text,
    substitute_gens,
    twisted_generator_images,
    verify_twisted_embedding,
)
from reflection_workbench.rmatrix import (
    RFamily,
    flip_p,
    r_primes,
    yang_r,
    yang_r_bar,
)
from reflection_workbench.verify import (
    check_characteristic,
    check_fused_re,
    check_intertwiner,
    check_membership,
    check_quasi_inverse,
    check_re,
    check_ybe,
)

SKEW2 = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_criterion_01_yang_baxter_equation():
    started = time.perf_counter()
    for n in (2, 3, 4):
        report = check_ybe(yang_r(n))
        assert report.passed, (n, report.witness)
    assert time.perf_counter() - started < 5.0


def test_criterion_02_quasi_inverse_product():
    started = time.perf_counter()
    # the central factor, written out: (u - v)^2 - 1 = u^2 - 2uv + v^2 - 1
    expected_zeta = LaurentPoly(
        ("u", "v"), {(2, 0): 1, (1, 1): -2, (0, 2): 1, (0, 0): -1}
    )
    for n in (2, 3, 4):
        r = yang_r(n)
        r_bar, zeta = yang_r_bar(n)
        assert zeta == expected_zeta
        report = check_quasi_inverse(r, r_bar, zeta)
        assert report.passed, (n, report.witness)
    assert time.perf_counter() - started < 1.0


def test_criterion_03_transpose_symmetry():
    started = time.perf_counter()
    forms = (
        orthogonal_transposition(2),
        orthogonal_transposition(3),
        symplectic_transposition(2),
        symplectic_transposition(4),
    )
    for t in forms:
        r = yang_r(t.n)
        assert tau_on_leg(tau_on_leg(r, 1, t), 2, t) == site_permute(r, (2, 1))
        r_prime, r_double_prime = r_primes(t.n, t)
        assert r_prime == r_double_prime
    assert time.perf_counter() - started < 1.0


def test_criterion_04_character_families():
    started = time.perf_counter()
    cases = []
    for n in (2, 3):
        t = orthogonal_transposition(n)
        cases.append((identity_matrix(n), t))
    for n in (2, 4):
        t = symplectic_transposition(n)
        cases.append((t.g, t))
    for x, t in cases:
        fam = RFamily.build(t.n, t)
        family = GradedFamily.from_character(x, t, 3)
        for k in (1, 2):
            for m in (1, 2):
                report = check_fused_re(family, fam, k, m)
                assert report.passed, (t.n, t.sign, k, m, report.witness)
        for k in (2, 3):
            report = check_membership(family.component(k))
            assert report.passed, (t.n, t.sign, k, report.witness)
        for k in range(4):
            for i in range(k + 1):
                report = check_characteristic(family, fam, k, i)
                assert report.passed, (t.n, t.sign, k, i, report.witness)
    assert time.perf_counter() - started < 30.0


def test_criterion_05_twisted_evaluation_solution():
    started = time.perf_counter()
    forms = (
        orthogonal_transposition(2),
        orthogonal_transposition(3),
        symplectic_transposition(2),
    )
    for t in forms:
        s1 = build_twisted_s(eval_t(t.n), t)
        s2 = op_substitute(s1, {"u": "v"})
        report = check_re(RFamily.build(t.n, t), s1, s2)
        assert report.passed, (t.n, t.sign, report.witness)
    assert time.perf_counter() - started < 10.0


def test_criterion_06_double_yangian_relations():
    started = time.perf_counter()
    for n in (2, 3):
        report = check_double_relations(eval_double(n))
        assert report.passed, (n, report.witness)
        assert report.params["verdicts"] == {
            "minus_minus": True,
            "plus_plus": True,
            "cross": True,
        }
    # negative control: doubling the flip part of l_minus must break the
    # relations that involve it, and the report must say where
    d = eval_double(2)
    bad_minus = d.l_minus + flip_p(2, "u", "z", ("auxiliary", "quantum"))
    broken = DoubleEval(d.l_plus, bad_minus, d.denom_plus, d.denom_minus)
    report = check_double_relations(broken)
    assert not report.passed
    assert report.witness is not None
    assert time.perf_counter() - started < 10.0


def test_criterion_07_pairing_series():
    started = time.perf_counter()
    K = 10
    series = pairing_series(2, K)
    p = flip_p(2, "z", "w")
    expected = identity_op(p.legs)
    for k in range(K + 1):
        expected = expected - op_scale(p, LaurentPoly(("z", "w"), {(-k - 1, k): 1}))
    assert series == expected
    z_minus_w = LaurentPoly.var("z") - LaurentPoly.var("w")
    target = op_scale(identity_op(p.legs), z_minus_w) - p
    residue = op_scale(series, z_minus_w) - target
    assert residue == op_scale(p, LaurentPoly(("z", "w"), {(-K - 1, K + 1): 1}))
    assert time.perf_counter() - started < 1.0


# Level-one exchange relations for the 2x2 series algebra, derived by hand
# from the coefficient of u^-1 v^0 in every matrix entry of the exchange
# identity: the commutator [T1[i,j], T1[a,b]] equals
# (T1[i,b] if a == j else 0) - (T1[a,j] if i == b else 0).  Each relation
# below appears with both signs because two coefficient buckets survive per
# entry pair.  The expansion sorts its output by text form.
GL2_BRACKET_FIXTURE = """\
-T1[1,2]*T1[1,1] + T1[1,1]*T1[1,2] - T1[1,2]
-T1[2,1]*T1[1,1] + T1[1,1]*T1[2,1] + T1[2,1]
-T1[2,1]*T1[1,2] + T1[1,2]*T1[2,1] + T1[2,2] - T1[1,1]
-T1[2,2]*T1[1,1] + T1[1,1]*T1[2,2]
-T1[2,2]*T1[1,2] + T1[1,2]*T1[2,2] - T1[1,2]
-T1[2,2]*T1[2,1] + T1[2,1]*T1[2,2] + T1[2,1]
T1[1,2]*T1[1,1] - T1[1,1]*T1[1,2] + T1[1,2]
T1[2,1]*T1[1,1] - T1[1,1]*T1[2,1] - T1[2,1]
T1[2,1]*T1[1,2] - T1[1,2]*T1[2,1] - T1[2,2] + T1[1,1]
T1[2,2]*T1[1,1] - T1[1,1]*T1[2,2]
T1[2,2]*T1[1,2] - T1[1,2]*T1[2,2] + T1[1,2]
T1[2,2]*T1[2,1] - T1[2,1]*T1[2,2] - T1[2,1]"""


def _gl2_gen(i, j):
    return ModeGen("T", i, j, 1)


def _gl2_bracket(i, j, a, b):
    out = NCPoly.zero()
    if a == j:
        out = out + NCPoly({(_gl2_gen(i, b),): 1})
    if i == b:
        out = out - NCPoly({(_gl2_gen(a, j),): 1})
    return out


def test_criterion_08_mode_extraction_gl2_bracket():
    started = time.perf_counter()
    relations = expand_relation("rtt", 2, 1)
    assert relations_to_text(relations) == GL2_BRACKET_FIXTURE
    rules = derive_rules(2, 1)
    gens = [_gl2_gen(i, j) for i in (1, 2) for j in (1, 2)]
    for x in gens:
        for y in gens:
            if gen_key(x) <= gen_key(y):
                continue
            expected = NCPoly({(y, x): 1}) + _gl2_bracket(x.row, x.col, y.row, y.col)
            assert normal_form(NCPoly({(x, y): 1}), rules) == expected
    for relation in relations:
        assert normal_form(relation, rules).is_zero()
    assert time.perf_counter() - started < 5.0


def test_criterion_09_twisted_embedding():
    started = time.perf_counter()
    forms = (orthogonal_transposition(2), symplectic_transposition(2))
    for level in (1, 2):
        pivots = test_modes.ideal_pivots(2, level)
        for t in forms:
            report = verify_twisted_embedding(2, level, t)
            assert report.passed, (level, t.sign, report.witness)
            # rewrite-free cross-check: each substituted relation must
            # reduce to nothing against the echelonized relation ideal
            images = twisted_generator_images(2, level, t)
            for relation in expand_relation("twisted_re", 2, level, t):
                substituted = substitute_gens(relation, lambda g: images[g])
                assert test_modes.reduce_against(pivots, substituted.terms) == {}
    assert time.perf_counter() - started < 60.0


def test_criterion_10_intertwiner_truncation():
    started = time.perf_counter()
    t = orthogonal_transposition(2)
    fam = RFamily.build(2, t)
    for x in (identity_matrix(2), SKEW2):
        family = GradedFamily.from_character(x, t, 1)
        report = check_intertwiner(family, fam, 4, 1, 1)
        assert report.passed, (x, report.witness)
    assert time.perf_counter() - started < 10.0


def test_criterion_11_deterministic_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = os.path.join(root, "configs", "suite.json")

    def run():
        begun = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "reflection_workbench.cli", "suite", "--config", config],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - begun
        assert proc.returncode == 0, proc.stderr
        body = json.loads(proc.stdout)["body"]
        return json.dumps(body, sort_keys=True), elapsed

    first_body, first_time = run()
    repeat_body, repeat_time = run()
    third_body, third_time = run()
    assert first_body == repeat_body
    assert first_body == third_body
    # the third run may not cost more than twice either earlier pass; the
    # additive grace absorbs interpreter start-up noise on small suites
    assert third_time < 2 * max(first_time, repeat_time) + 10.0
