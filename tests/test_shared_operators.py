"""Operators that the checks share.  yang_r is built once per leg pair;
what is derived from an operator (its prime per form, a prime's site
flip, each seed instance per label, compare_sides' preparation per
targets and variable context) is built once, in the operator's memo.  A
warm process must give every negative control the verdict and witness of
a cold one, every shared operator must equal one built from scratch, and
a second run of the demo suite in one process must build nothing new
from the operators the first run shared."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import reflection_workbench
from reflection_workbench import rmatrix, verify
from reflection_workbench.cli import main
from reflection_workbench.evaluation import (
    DoubleEval,
    build_twisted_s,
    check_double_relations,
    eval_double,
    eval_t,
)
from reflection_workbench.fusion import GradedFamily, SeedSolution
from reflection_workbench.kernel import (
    LaurentPoly,
    LegSpace,
    Transposition,
    identity_op,
    matrix_on_leg,
    op_scale,
    op_substitute,
    orthogonal_transposition,
    symplectic_transposition,
    tau_on_leg,
)
from reflection_workbench.modes import verify_twisted_embedding
from reflection_workbench.rmatrix import (
    RFamily,
    flip_p,
    prime,
    primed_pair,
    r_primes,
    yang_r,
)
from reflection_workbench.verify import (
    check_characteristic,
    check_fused_re,
    check_intertwiner,
    check_re,
    check_rtt,
    check_tau_symmetry,
    check_ybe,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(reflection_workbench.__file__)))


def _matrix(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def re_mutant(r, s1, r_prime, s2, r_double_prime):
    return r + s1 + r_prime + s2, s1 + r_double_prime + s2 + r


def rtt_mutant(r, t1, t2):
    return r + t1 + t2, t1 + t2 + r


def _bindings(original):
    """(module, attr) for every package module that binds original by name."""
    return [
        (module, attr)
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "reflection_workbench"
        for attr, value in sorted(vars(module).items())
        if value is original
    ]


def _witness_controls():
    """The witness workload's negative controls, rebuilt through the public
    API: an upper-triangular seed, which is no reflection solution, the
    unprimed characteristic split and a perturbed quasi-inverse pair."""
    t = orthogonal_transposition(3)
    fam = RFamily.build(3, t)
    seed = SeedSolution(matrix_on_leg(_matrix((2, -3, 0), (0, 5, 0), (0, 0, -7)),
                                      LegSpace(3, "u")), t)
    family = GradedFamily(seed, 2)
    character = GradedFamily.from_character(_matrix((3, 0, 0), (0, -2, 0), (0, 0, 5)), t, 2)
    good = eval_double(3)
    kick = op_scale(flip_p(3, good.uvar, good.zvar, ("auxiliary", "quantum")), 3)
    broken = DoubleEval(good.l_plus, good.l_minus + kick, good.denom_plus, good.denom_minus)
    controls = [
        (f"fused_re k={k},m={m}", lambda k=k, m=m: check_fused_re(family, fam, k, m))
        for k in (1, 2)
        for m in (1, 2)
    ]
    controls.append(("characteristic unprimed",
                     lambda: check_characteristic(character, fam, 2, 1, primed_middle=False)))
    controls.append(("double_relations perturbed", lambda: check_double_relations(broken)))
    return controls


def _controls():
    """(label, patches, call) for every negative control; patches are
    (original, replacement) pairs applied to every binding of original."""
    # R is built afresh under the patched flip, so the warm R'' in the
    # memo of the shared R neither hides the patch nor takes in its result
    site_flip = [(rmatrix.site_flip, lambda op: op * 2), (rmatrix._YANG_R, {})]
    rtt = [(verify.rtt_sides, rtt_mutant)]
    re = [(verify.re_sides, re_mutant)]
    controls = [("site_flip doubled", site_flip,
                 lambda: check_tau_symmetry(yang_r(2), orthogonal_transposition(2)))]
    controls += [
        ("rtt mutant: rtt", rtt, lambda: check_rtt(yang_r(2), eval_t(2))),
        ("rtt mutant: ybe", rtt, lambda: check_ybe(yang_r(2))),
        ("rtt mutant: double", rtt, lambda: check_double_relations(eval_double(2))),
    ]
    for form in (orthogonal_transposition(2), orthogonal_transposition(3),
                 symplectic_transposition(2)):
        def twisted(t=form):
            s1 = build_twisted_s(eval_t(t.n), t)
            return check_re(RFamily.build(t.n, t), s1, op_substitute(s1, {"u": "v"}))

        controls.append((f"re mutant: twisted {form!r}", re, twisted))
    for form in (orthogonal_transposition(2), symplectic_transposition(2)):
        def wrong_leg(t=form):
            # a fresh R' with tau on leg 2: the memo of the family's own R'
            # must not stand in for it
            fam = RFamily.build(2, t)
            s1 = build_twisted_s(eval_t(2), t)
            broken = dataclasses.replace(fam, r_prime=tau_on_leg(fam.r, 2, t))
            return check_re(broken, s1, op_substitute(s1, {"u": "v"}))

        controls.append((f"R' on the wrong leg: re {form!r}", [], wrong_leg))
    characters = [(_matrix((2, 0), (0, 3)), orthogonal_transposition(2)),
                  (_matrix((0, 1), (-1, 0)), symplectic_transposition(2))]
    for x, t in characters:
        for block in ((2, 1), (1, 2)):
            def fused(x=x, t=t, block=block):
                return check_fused_re(GradedFamily.from_character(x, t, 2),
                                      RFamily.build(2, t), *block)

            def intertwiner(x=x, t=t, block=block):
                return check_intertwiner(GradedFamily.from_character(x, t, 2),
                                         RFamily.build(2, t), 4, *block)

            controls.append((f"re mutant: fused_re {t!r} {block}", re, fused))
            controls.append((f"re mutant: intertwiner {t!r} {block}", re, intertwiner))
    for t in (orthogonal_transposition(2), symplectic_transposition(2)):
        controls.append((f"re mutant: embedding {t!r}", re,
                         lambda t=t: verify_twisted_embedding(2, 2, t)))
    controls += [(label, [], call) for label, call in _witness_controls()]
    return controls


def control_reports(cold=False):
    """{label: [passed, params, witness]} of every control, each run under
    its patches, which are undone after it.  With cold, the shared
    operators are dropped before each control."""
    reports = {}
    for label, patches, call in _controls():
        if cold:
            rmatrix._YANG_R.clear()
        undo = []
        for original, replacement in patches:
            for module, attr in _bindings(original):
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
        try:
            report = call()
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)
        reports[label] = json.loads(json.dumps([report.passed, report.params, report.witness]))
    return reports


def _demo_suite(tmp_path):
    """Run configs/suite.json through the command line; return its exit code."""
    with open(os.path.join(CONFIGS, "suite.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    for record in data["checks"]:
        for key in ("g", "x"):
            if key in record:
                record[key] = os.path.join(CONFIGS, record[key])
    data["out"] = str(tmp_path / "report.json")
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    return main(["suite", "--config", str(config)])


def _from_scratch(legs):
    """(u - v) Id - P on the two legs, by the public kernel operations."""
    u, v = (leg.spectral_var for leg in legs)
    scalar = LaurentPoly.var(u) - LaurentPoly.var(v)
    roles = tuple(leg.role for leg in legs)
    return op_scale(identity_op(legs), scalar) - flip_p(legs[0].dim, u, v, roles)


def test_a_warm_process_fails_every_control_with_its_cold_witness(tmp_path):
    assert _demo_suite(tmp_path) == 0
    warm = control_reports()
    script = (
        f"import json, sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
        "import test_shared_operators as t; print(json.dumps(t.control_reports(cold=True)))"
    )
    cold = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert warm == json.loads(cold.stdout)
    assert len(warm) == 25
    for label, (passed, params, witness) in warm.items():
        assert passed is False, label
        assert witness is not None, label
    # every shared operator, and every prime and flip in its memo, equals
    # one built from scratch
    primes = 0
    for legs, r in rmatrix._YANG_R.items():
        assert r.legs == legs
        assert r == _from_scratch(legs)
        for key, p in r._memo.items():
            if type(key) is tuple and key[0] == "prime":
                primes += 1
                r_prime, r_double_prime = primed_pair(_from_scratch(legs), Transposition(key[1]))
                assert p == r_prime
                assert p._memo.get("site_flip", r_double_prime) == r_double_prime
    assert primes > 0


def test_shared_operators_equal_ones_built_from_scratch():
    for n in (2, 3, 4):
        forms = [orthogonal_transposition(n)] + ([symplectic_transposition(n)] if n % 2 == 0 else [])
        for t in forms:
            for a, b in (("u1", "v1"), ("v2", "u1"), ("u", "z")):
                legs = (LegSpace(n, a), LegSpace(n, b))
                assert yang_r(n, a, b) is yang_r(n, a, b) == _from_scratch(legs)
                for op in (yang_r(n, a, b), _from_scratch(legs)):
                    assert prime(op, t) is prime(op, t)
                    assert prime(op, t) == tau_on_leg(_from_scratch(legs), 1, t)
            diagonal = _matrix(*([(i + 2) * (i == j) for j in range(n)] for i in range(n)))
            family = GradedFamily.from_character(t.g if t.sign < 0 else diagonal, t, 2)
            family.factors((("u1", 1), ("u2", 2)), ())
            seed = family.seed
            assert seed.instance("u2") is seed.instance("u2")
            assert seed.instance("u2") == op_substitute(seed.s, {"u": "u2"})
            assert seed.instance("u1") == op_substitute(seed.s, {"u": "u1"})


def test_the_family_and_the_mode_layer_share_r_prime_and_r_double_prime():
    for n in (2, 3, 4):
        forms = [orthogonal_transposition(n)] + ([symplectic_transposition(n)] if n % 2 == 0 else [])
        for t in forms:
            family = RFamily.build(n, t)
            assert family.r_prime is r_primes(n, t)[0] is prime(yang_r(n), t)
            assert family.r_double_prime is r_primes(n, t)[1]
            fresh = primed_pair(_from_scratch((LegSpace(n, "u"), LegSpace(n, "v"))), t)
            assert (family.r_prime, family.r_double_prime) == fresh
            assert r_primes(n, t) == fresh


def test_the_demo_suite_builds_each_r_once_and_prepares_each_factor_once(
    monkeypatch, tmp_path
):
    """Run twice in one process from no shared operators: the first run
    builds each R(u, v) once, the second builds none, and _transposed
    builds its entry at most once per distinct (op, targets, context) in
    the first run and for no operator the first run already prepared."""
    monkeypatch.setattr(rmatrix, "_YANG_R", {})
    builds = []
    build = rmatrix._yang

    def counting_build(legs, sign):
        if sign == -1:
            builds.append(legs)
        return build(legs, sign)

    monkeypatch.setattr(rmatrix, "_yang", counting_build)
    prepared = []
    transposed = verify._transposed

    def counting_transposed(op, targets, ambient, context):
        built = ("transposed", tuple(targets), context) not in op._memo
        prepared.append((op, tuple(targets), context, built))
        return transposed(op, targets, ambient, context)

    monkeypatch.setattr(verify, "_transposed", counting_transposed)
    runs = []
    for _ in range(2):
        builds.clear()
        prepared.clear()
        assert _demo_suite(tmp_path) == 0
        runs.append((list(builds), list(prepared)))
    (first_builds, first), (second_builds, second) = runs
    assert len(first_builds) == len(set(first_builds)) == 16
    assert second_builds == []
    first_keys = [(id(op), targets, context) for op, targets, context, built in first if built]
    distinct = {(id(op), targets, context) for op, targets, context, _ in first}
    assert len(first_keys) == len(set(first_keys)) == len(distinct)
    # the second run prepares again only the operators each run makes
    # afresh (relabellings, fused components, the cli's graded families)
    seen = {id(op) for op, *_ in first}
    assert not [op for op, *_, built in second if built and id(op) in seen]
    assert (len(first), len(first_keys)) == (376, 176)
    assert (len(second), sum(built for *_, built in second)) == (376, 92)
