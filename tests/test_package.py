"""Package-wide properties: frozen value classes, constructors that compute
no identity, no `assert` in the source, one clock, in the CLI, and test
settings under which a failing property test is reported, not fatal."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import reflection_workbench
from reflection_workbench import verify
from reflection_workbench.evaluation import DoubleEval, eval_double, eval_t
from reflection_workbench.fusion import GradedFamily, SeedSolution, character_seed
from reflection_workbench.kernel import (
    Frozen,
    LaurentPoly,
    LegSpace,
    TensorOp,
    matrix_on_leg,
    op_chain,
    orthogonal_transposition,
    symplectic_transposition,
    tensor_compose,
)
from reflection_workbench.modes import NCPoly, derive_rules
from reflection_workbench.rmatrix import RFamily, yang_r

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


def test_constructors_compute_no_identity(monkeypatch):
    """Constructors validate shapes and labels only: no compose, no factor
    chain, no operator comparison and no check runs while they build.
    Every module binding is patched, so a call through any import path is
    counted; TensorOp.__eq__ is patched on the class, which `!=` also
    goes through."""
    watched = {id(tensor_compose): tensor_compose, id(op_chain): op_chain}
    for name, fn in vars(verify).items():
        if name.startswith("check_") and callable(fn):
            watched[id(fn)] = fn
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {key: counting(fn) for key, fn in watched.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "reflection_workbench":
            continue
        for attr, value in list(vars(module).items()):
            if watched.get(id(value)) is value:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    monkeypatch.setattr(TensorOp, "__eq__", counting(TensorOp.__eq__))

    skew = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    t = orthogonal_transposition(3)
    t2 = symplectic_transposition(2)
    t_op = eval_t(3)
    pair = eval_double(3)
    seed = character_seed(skew, t2)
    SeedSolution(matrix_on_leg(skew, LegSpace(2, "u")), t2)
    DoubleEval(pair.l_plus, pair.l_minus, pair.denom_plus, pair.denom_minus)
    RFamily.build(3, t)
    GradedFamily.from_character(skew, t2, k_max=2)
    assert calls == []
    assert (t_op.legs[0].dim, pair.n, seed.t.n) == (3, 3, 2)


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


def test_only_the_cli_keeps_a_clock():
    """Checks are timed once, by cli._execute around each runner; no other
    module imports or calls `time`."""
    root = pathlib.Path(reflection_workbench.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "time" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[0] == "time"
            else:
                hit = isinstance(node, ast.Name) and node.id == "time"
            if hit:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


FAILING_PROPERTY_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(value):
    assert value != value
"""


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    """With warnings as errors, hypothesis's failure report must not abort
    the run: pytest exits 1 (a test failed), not 3 (internal error)."""
    settings = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY_TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(settings), "-p", "no:cacheprovider",
         "-q", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
