"""Package-wide properties: frozen value classes and no `assert` in the source."""

from __future__ import annotations

import ast
import pathlib
from fractions import Fraction

import pytest

import reflection_workbench
from reflection_workbench.evaluation import eval_double, eval_t
from reflection_workbench.fusion import GradedFamily, character_seed
from reflection_workbench.kernel import Frozen, LaurentPoly, orthogonal_transposition
from reflection_workbench.modes import NCPoly, derive_rules
from reflection_workbench.rmatrix import yang_r

IDENTITY2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

FROZEN_CASES = {
    "LaurentPoly": (lambda: LaurentPoly.var("u"), "terms"),
    "TensorOp": (lambda: yang_r(2), "entries"),
    "Transposition": (lambda: orthogonal_transposition(2), "g_inv"),
    "NCPoly": (NCPoly.one, "terms"),
    "RewriteSystem": (lambda: derive_rules(2, 1), "rules"),
    "SeedSolution": (
        lambda: character_seed(IDENTITY2, orthogonal_transposition(2)),
        "s",
    ),
    "GradedFamily": (
        lambda: GradedFamily.from_character(IDENTITY2, orthogonal_transposition(2)),
        "k_max",
    ),
    "EvalRep": (lambda: eval_t(2), "t_poly"),
    "DoubleEval": (lambda: eval_double(2), "l_plus"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_value_classes_refuse_rebinding_and_deletion(name):
    build, attr = FROZEN_CASES[name]
    obj = build()
    assert type(obj).__name__ == name
    assert isinstance(obj, Frozen)
    before = getattr(obj, attr)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        delattr(obj, attr)
    assert getattr(obj, attr) is before


def test_source_has_no_assert_statements():
    """Checks must not vanish under `python -O`, so src raises instead."""
    root = pathlib.Path(reflection_workbench.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
