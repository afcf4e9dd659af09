"""The reflection-equation and RTT factor orders are written down once, in
verify.re_sides and verify.rtt_sides, and every check and the mode layer
state their sides through them.  A mutant of either order must fail every
instance listed here, so a slip in the one statement cannot pass unseen.

Each mutant exchanges two factors on the right side only:
  re:  R S1 R' S2 = S1 R'' S2 R  (S1 and S2 exchanged);
  rtt: R T1 T2 = T1 T2 R         (T1 and T2 exchanged).
Both are patched into every module that imports the shape function by
name, as the imports in verify, evaluation and modes bind it.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

from reflection_workbench import verify
from reflection_workbench.cli import main
from reflection_workbench.evaluation import (
    build_twisted_s,
    check_double_relations,
    eval_double,
    eval_t,
)
from reflection_workbench.fusion import GradedFamily
from reflection_workbench.kernel import (
    op_substitute,
    orthogonal_transposition,
    symplectic_transposition,
)
from reflection_workbench.modes import derive_rules, verify_twisted_embedding
from reflection_workbench.rmatrix import RFamily, yang_r
from reflection_workbench.verify import (
    check_fused_re,
    check_intertwiner,
    check_re,
    check_rtt,
    check_ybe,
)


def _matrix(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


IDENTITY = _matrix((1, 0), (0, 1))
DIAG23 = _matrix((2, 0), (0, 3))
SKEW = _matrix((0, 1), (-1, 0))

# name -> (constant character, the constructor of its form)
CHARACTERS = {
    "identity": (IDENTITY, orthogonal_transposition),
    "diag23": (DIAG23, orthogonal_transposition),
    "skew": (SKEW, symplectic_transposition),
}

TWISTED_FORMS = {
    "orthogonal2": orthogonal_transposition(2),
    "orthogonal3": orthogonal_transposition(3),
    "symplectic2": symplectic_transposition(2),
}


def re_mutant(r, s1, r_prime, s2, r_double_prime):
    return r + s1 + r_prime + s2, s1 + r_double_prime + s2 + r


def rtt_mutant(r, t1, t2):
    return r + t1 + t2, t1 + t2 + r


@pytest.fixture(params=["plain", "mutant"])
def re_order(request, monkeypatch):
    """Run a test under verify.re_sides and under its S1 <-> S2 mutant."""
    if request.param == "mutant":
        _patch_everywhere(monkeypatch, verify.re_sides, re_mutant)
    return request.param


@pytest.fixture(params=["plain", "mutant"])
def rtt_order(request, monkeypatch):
    """Run a test under verify.rtt_sides and under its T1 <-> T2 mutant."""
    if request.param == "mutant":
        _patch_everywhere(monkeypatch, verify.rtt_sides, rtt_mutant)
    return request.param


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace original in every package module that binds it by name."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reflection_workbench":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


# -- the reflection-equation order ----------------------------------------


@pytest.mark.parametrize("form", sorted(TWISTED_FORMS))
def test_re_order_decides_the_twisted_evaluation_solution(re_order, form):
    t = TWISTED_FORMS[form]
    s1 = build_twisted_s(eval_t(t.n), t)
    s2 = op_substitute(s1, {"u": "v"})
    report = check_re(RFamily.build(t.n, t), s1, s2)
    assert report.passed is (re_order == "plain")


@pytest.mark.parametrize("block", [(2, 1), (1, 2)])
@pytest.mark.parametrize("character", ["diag23", "skew"])
def test_re_order_decides_the_fused_re_and_the_intertwiner(re_order, character, block):
    x, form = CHARACTERS[character]
    t = form(2)
    chi = GradedFamily.from_character(x, t, k_max=2)
    fam = RFamily.build(2, t)
    expected = re_order == "plain"
    assert check_fused_re(chi, fam, *block).passed is expected
    assert check_intertwiner(chi, fam, 4, *block).passed is expected


@pytest.mark.parametrize("form", [orthogonal_transposition, symplectic_transposition])
def test_re_order_decides_the_twisted_embedding(re_order, form):
    assert verify_twisted_embedding(2, 2, form(2)).passed is (re_order == "plain")


# Equivalent mutant: at blocks (1, 1) the S1 <-> S2 mutant passes the fused
# RE and the intertwiner (K = 4) for each constant character below, as the
# plain order does, so these instances cannot tell the two orders apart.
# Measured, not derived; the blocks (2, 1) and (1, 2) above do tell them
# apart.
@pytest.mark.parametrize("character", sorted(CHARACTERS))
def test_re_mutant_is_equivalent_at_blocks_one_one(re_order, character):
    x, form = CHARACTERS[character]
    t = form(2)
    chi = GradedFamily.from_character(x, t, k_max=1)
    fam = RFamily.build(2, t)
    assert check_fused_re(chi, fam, 1, 1).passed
    assert check_intertwiner(chi, fam, 4, 1, 1).passed


# -- the RTT order --------------------------------------------------------


def test_rtt_order_decides_rtt_ybe_and_plus_plus(rtt_order):
    expected = rtt_order == "plain"
    assert check_rtt(yang_r(2), eval_t(2)).passed is expected
    assert check_ybe(yang_r(2)).passed is expected
    verdicts = check_double_relations(eval_double(2)).params["verdicts"]
    assert verdicts == {"minus_minus": True, "plus_plus": expected, "cross": True}


def test_rtt_order_decides_the_derived_rules(rtt_order):
    if rtt_order == "plain":
        assert len(derive_rules(2, 1).rules) == 6
        return
    with pytest.raises(
        ValueError, match=r"^cannot orient the rule for T1\[1,2\]\*T1\[1,1\]: swap term missing$"
    ):
        derive_rules(2, 1)


def test_rtt_mutant_fails_the_demo_embeddings_and_the_report_is_written(monkeypatch, tmp_path):
    """Rules that cannot be oriented fail the embedding check, with the
    refused rule as the witness, instead of ending the suite."""
    _patch_everywhere(monkeypatch, verify.rtt_sides, rtt_mutant)
    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    with open(os.path.join(configs, "suite.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    for record in data["checks"]:
        for key in ("g", "x"):
            if key in record:
                record[key] = os.path.join(configs, record[key])
    data["out"] = str(tmp_path / "report.json")
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    assert main(["suite", "--config", str(config)]) == 1
    body = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["body"]
    embeddings = [check for check in body["checks"] if check["name"] == "embedding"]
    assert len(embeddings) == 2
    for check in embeddings:
        assert check["passed"] is False
        assert check["witness"] == {
            "rule": "cannot orient the rule for T1[1,2]*T1[1,1]: swap term missing"
        }
