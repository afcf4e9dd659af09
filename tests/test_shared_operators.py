"""Operators that the checks share.  yang_r is built once per leg pair,
R' and R'' once per leg pair and form, each seed instance once per
label, and compare_sides prepares each distinct (op, targets) once per
call.  A warm process must give every negative control the verdict and
witness of a cold one, every shared operator must equal one built from
scratch, and the counts of builds and preparations must repeat exactly
when the demo suite runs twice in one process."""

from __future__ import annotations

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
    primed_pair,
    r_primes,
    yang_r,
    yang_r_prime,
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
    site_flip = [(rmatrix.site_flip, lambda op: op * 2)]
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
            rmatrix._YANG_R_PRIME.clear()
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
    assert len(warm) == 23
    for label, (passed, params, witness) in warm.items():
        assert passed is False, label
        assert witness is not None, label
    # every shared operator equals one built from scratch
    for legs, r in rmatrix._YANG_R.items():
        assert r.legs == legs
        assert r == _from_scratch(legs)
    for (legs, g), prime in rmatrix._YANG_R_PRIME.items():
        assert prime == tau_on_leg(_from_scratch(legs), 1, Transposition(g))


def test_shared_operators_equal_ones_built_from_scratch():
    for n in (2, 3, 4):
        forms = [orthogonal_transposition(n)] + ([symplectic_transposition(n)] if n % 2 == 0 else [])
        for t in forms:
            for a, b in (("u1", "v1"), ("v2", "u1"), ("u", "z")):
                legs = (LegSpace(n, a), LegSpace(n, b))
                assert yang_r(n, a, b) is yang_r(n, a, b) == _from_scratch(legs)
                prime = yang_r_prime(n, a, b, t)
                assert prime is yang_r_prime(n, a, b, t)
                assert prime == tau_on_leg(_from_scratch(legs), 1, t)
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
            assert family.r_prime is r_primes(n, t)[0] is yang_r_prime(n, "u", "v", t)
            assert family.r_double_prime is r_primes(n, t)[1]
            fresh = primed_pair(_from_scratch((LegSpace(n, "u"), LegSpace(n, "v"))), t)
            assert (family.r_prime, family.r_double_prime) == fresh
            assert r_primes(n, t) == fresh


def test_the_demo_suite_builds_each_r_once_and_prepares_each_factor_once_per_call(
    monkeypatch, tmp_path
):
    """Run twice in one process from no shared operators: the first run
    builds each R(u, v) once, the second builds none, and each
    compare_sides call runs _transposed once per distinct (op, targets),
    the same number of times in both runs."""
    monkeypatch.setattr(rmatrix, "_YANG_R", {})
    monkeypatch.setattr(rmatrix, "_YANG_R_PRIME", {})
    builds = []
    build = rmatrix._yang

    def counting_build(legs, sign):
        if sign == -1:
            builds.append(legs)
        return build(legs, sign)

    monkeypatch.setattr(rmatrix, "_yang", counting_build)
    calls = []
    transposed = verify._transposed

    def counting_transposed(*args):
        calls[-1][0] += 1
        return transposed(*args)

    monkeypatch.setattr(verify, "_transposed", counting_transposed)
    compare = verify.compare_sides

    def counting_compare(ambient, sides, keep=None):
        distinct = {(id(op), tuple(targets)) for _, lhs, rhs in sides for op, targets in lhs + rhs}
        calls.append([0, len(distinct)])
        return compare(ambient, sides, keep)

    for module, attr in _bindings(compare):
        monkeypatch.setattr(module, attr, counting_compare)
    runs = []
    for _ in range(2):
        builds.clear()
        calls.clear()
        assert _demo_suite(tmp_path) == 0
        runs.append((list(builds), [tuple(call) for call in calls]))
    (first_builds, first_calls), (second_builds, second_calls) = runs
    assert len(first_builds) == len(set(first_builds)) == 16
    assert second_builds == []
    assert all(done == distinct for done, distinct in first_calls)
    assert second_calls == first_calls
    assert (len(first_calls), sum(done for done, _ in first_calls)) == (49, 257)
