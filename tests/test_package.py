"""Package-wide properties: frozen value classes, constructors that compute
no identity, no `assert` in the source, one clock, in the CLI, one
monomial product, in the Laurent kernel, one block layout, in fusion, leg
exchanges in the checks stated by targets, the reflection-equation and
RTT orders written once, in verify, one product of term maps, in the
kernel, one alignment path in the kernel's sums and products, one
refusal of integer arguments, kernel.require_int, the validating
TensorOp constructor kept for outside input, no text rendered by a
passing embedding check, and test settings under which a failing property
test is reported, not fatal."""

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
from reflection_workbench.modes import NCPoly, derive_rules, verify_twisted_embedding
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
    chain, no column comparison, no operator comparison and no check runs
    while they build.  Every module binding is patched, so a call through
    any import path is counted; TensorOp.__eq__ is patched on the class,
    which `!=` also goes through."""
    watched = {id(fn): fn for fn in (tensor_compose, op_chain, verify.compare_sides)}
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


def _source_trees():
    """(path relative to the package, parsed module) for every source file."""
    root = pathlib.Path(reflection_workbench.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(root).as_posix(), tree


def _imports(node, module):
    """Whether node is an import statement that names module at top level."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == module for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == module
    return False


def test_source_has_no_assert_statements():
    """Checks must not vanish under `python -O`, so src raises instead."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_cli_keeps_a_clock():
    """Checks are timed once, by cli._execute around each runner; no other
    module imports or calls `time`."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        if name != "cli.py"
        for node in ast.walk(tree)
        if _imports(node, "time") or (isinstance(node, ast.Name) and node.id == "time")
    ]
    assert found == []


def test_only_the_laurent_kernel_imports_operator():
    """The monomial product on tuple keys is kernel.laurent.mul_into, the
    one place that adds keys componentwise with operator.add; no other
    module imports `operator` to keep a second copy."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        if name != "kernel/laurent.py"
        for node in ast.walk(tree)
        if _imports(node, "operator")
    ]
    assert found == []


def test_only_fusion_names_block_legs():
    """The (k, m) block layout is stated once, by fusion.block_layout: no
    other module builds a u/v block label such as f"u{i}" itself."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        if name != "fusion.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and len(node.values) > 1
        and isinstance(node.values[0], ast.Constant)
        and node.values[0].value in ("u", "v")
        and isinstance(node.values[1], ast.FormattedValue)
    ]
    assert found == []


def test_checks_exchange_legs_by_targets():
    """verify states a leg exchange (sigma_{i,i+1}(h), R_21) by placing a
    factor at exchanged targets: only rmatrix flips a whole operator, to
    build R'' = R'_21."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "site_flip")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "site_flip")
        )
    ]
    assert [site.split(":")[0] for site in found] == ["rmatrix.py"]


def test_the_two_equation_orders_are_written_once():
    """The reflection-equation order R S1 R' S2 = S2 R'' S1 R is written
    only in verify.re_sides and the RTT order R T1 T2 = T2 T1 R only in
    verify.rtt_sides: exactly these functions state their sides through
    them, so none of them writes an order by hand."""
    callers = {"re_sides": set(), "rtt_sides": set()}
    for name, tree in _source_trees():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in callers:
                        callers[node.func.id].add(f"{name}:{function.name}")
    assert callers == {
        "re_sides": {
            "verify.py:_re_layout",
            "verify.py:check_fused_re",
            "verify.py:check_intertwiner",
            "modes.py:_twisted_buckets",
        },
        "rtt_sides": {
            "verify.py:check_ybe",
            "verify.py:check_rtt",
            "evaluation.py:check_double_relations",
            "modes.py:_rtt_buckets",
        },
    }


def test_only_the_kernel_multiplies_term_maps():
    """Ordered factor lists are multiplied by kernel.column_product (and the
    whole-operator reference tensor_compose): no module outside kernel/
    calls mul_into, mul_series_into or mul_shifted, though it may pass one
    to column_product as its entry product."""
    products = {"mul_into", "mul_series_into", "mul_shifted"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        if not name.startswith("kernel/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in products)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in products)
        )
    ]
    assert found == []


def test_kernel_products_and_sums_have_one_alignment_path():
    """LaurentPoly.__add__, LaurentPoly.__mul__ and tensor_compose align
    both operands to the union of their variables and nothing else: none
    compares .variables to pick a second path, since aligning to a
    polynomial's own variables already returns it unchanged."""
    wanted = {("kernel/laurent.py", "__add__"), ("kernel/laurent.py", "__mul__"),
              ("kernel/tensor.py", "tensor_compose")}
    seen, found = set(), []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) in wanted:
                seen.add((name, node.name))
                found += [
                    f"{name}:{compare.lineno}"
                    for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    and any(
                        isinstance(side, ast.Attribute) and side.attr == "variables"
                        for side in [compare.left, *compare.comparators]
                    )
                ]
    assert seen == wanted
    assert found == []


def test_only_outside_input_goes_through_the_validating_tensor_op():
    """TensorOp(...) checks every index and leg of what it is given; the
    kernel operations and builders, whose parts are valid by construction,
    return through TensorOp._raw.  Only matrix_on_leg, which wraps a
    caller's leg and matrix, calls the validating constructor."""
    found = []
    for name, tree in _source_trees():
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                found += [
                    f"{name}:{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "TensorOp"
                ]
    assert found == ["kernel/tensor.py:matrix_on_leg"]


def _compares_type_with_int(node):
    """Whether node is a comparison `type(x) is int` or `type(x) is not int`."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    )


def test_only_the_kernel_refuses_integer_arguments():
    """Every size, order, level and index argument is refused by
    kernel.require_int, with one text: no other function tests type(x)
    against int, except the LaurentPoly constructor, which tests the
    elements of an exponent vector, not an argument."""
    found = []
    for name, tree in _source_trees():
        owner = {}
        # ast.walk is breadth first, so a nested function overrides its parent
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owner.update((node, function.name) for node in ast.walk(function))
        found += [
            f"{name}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if _compares_type_with_int(node)
        ]
    assert sorted(found) == ["kernel/laurent.py:__init__", "kernel/laurent.py:require_int"]


def test_a_passing_embedding_renders_no_text(monkeypatch):
    """verify_twisted_embedding tells relations apart by their term maps
    and renders text only for a failure's witness, so a passing check
    never calls NCPoly.__str__."""

    def refuse(self):
        raise AssertionError("NCPoly.__str__ ran on the pass path")

    monkeypatch.setattr(NCPoly, "__str__", refuse)
    assert verify_twisted_embedding(2, 2).passed


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
