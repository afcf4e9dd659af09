from __future__ import annotations

import re
from fractions import Fraction

import pytest

from reflection_workbench.fusion import (
    GradedFamily,
    SeedSolution,
    block_layout,
    block_legs,
    breve_product,
    character_seed,
    fused_breve,
    fused_r,
    fused_r_prime_flipped,
    fused_s,
)
from reflection_workbench.kernel import (
    LegSpace,
    TensorOp,
    embed_legs,
    identity_op,
    matrix_on_leg,
    op_substitute,
    orthogonal_transposition,
    symmetry_sign,
    symplectic_transposition,
    tau_on_leg,
    tensor_compose,
)
from reflection_workbench.rmatrix import RFamily, breve_r_series, yang_r
from reflection_workbench.verify import check_re, compare_sides

SKEW = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
IDENTITY2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_fused_r_single_factor():
    assert fused_r(1, 1, 2) == yang_r(2, "u1", "v1")
    t = orthogonal_transposition(2)
    assert fused_r(1, 1, 2, t) == tau_on_leg(yang_r(2, "u1", "v1"), 1, t)


def test_fused_r_empty_blocks_are_identity():
    op = fused_r(0, 2, 3)
    assert op == identity_op(op.legs)
    op = fused_r(2, 0, 3)
    assert op == identity_op(op.legs)
    assert fused_r(0, 0, 3).legs == ()


def test_fused_r_coproduct_law():
    # the (2,1) block factorizes as the product of embedded (1,1) blocks
    n = 2
    whole = fused_r(2, 1, n)
    single = fused_r(1, 1, n)
    first = embed_legs(single, (1, 3), whole.legs)
    second = embed_legs(op_substitute(single, {"u1": "u2"}), (2, 3), whole.legs)
    assert whole == tensor_compose(first, second)


def test_fused_r_factor_order_unprimed_descends():
    # k=1, m=2: R_{1,2}(u1,v2) comes before R_{1,1}(u1,v1)
    n = 2
    whole = fused_r(1, 2, n)
    f_v2 = embed_legs(yang_r(n, "u1", "v2"), (1, 3), whole.legs)
    f_v1 = embed_legs(yang_r(n, "u1", "v1"), (1, 2), whole.legs)
    assert whole == tensor_compose(f_v2, f_v1)
    assert whole != tensor_compose(f_v1, f_v2)


def test_symmetry_sign():
    assert symmetry_sign(IDENTITY2) == 1
    assert symmetry_sign(SKEW) == -1
    assert symmetry_sign(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))) == 1
    with pytest.raises(ValueError, match="breaks symmetry"):
        symmetry_sign(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))


def test_character_seed_accepts_both_kinds():
    character_seed(IDENTITY2, orthogonal_transposition(2))
    character_seed(SKEW, symplectic_transposition(2))
    character_seed(SKEW, orthogonal_transposition(2))


def test_character_chi_components():
    t = orthogonal_transposition(2)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    assert family.component(1) == identity_op((LegSpace(2, "u1"),))
    assert family.component(0) == identity_op(())
    # k=2 for X=Id collapses to the primed factor alone
    chi2 = family.component(2)
    assert chi2 == tau_on_leg(yang_r(2, "u1", "u2"), 1, t)


def test_character_chi_k2_general_x():
    t = orthogonal_transposition(2)
    chi2 = GradedFamily.from_character(SKEW, t, k_max=2).component(2)
    legs = chi2.legs
    x1 = embed_legs(matrix_on_leg(SKEW, LegSpace(2, "u1")), (1,), legs)
    x2 = embed_legs(matrix_on_leg(SKEW, LegSpace(2, "u2")), (2,), legs)
    r12 = embed_legs(tau_on_leg(yang_r(2, "u1", "u2"), 1, t), (1, 2), legs)
    assert chi2 == tensor_compose(tensor_compose(x1, r12), x2)


def test_check_re_fails_for_non_solution_seed():
    # the constructor validates legs and labels only; the reflection
    # equation is reported by check_re, with a witness
    bad = matrix_on_leg(
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
        LegSpace(2, "u"),
    )
    t = orthogonal_transposition(2)
    seed = SeedSolution(bad, t)
    report = check_re(RFamily.build(2, t), seed.s, seed.instance("v"))
    assert not report.passed
    assert report.witness == {"row": [1, 2], "col": [1, 2], "lhs": "-u + v", "rhs": "0"}


def test_graded_family_cache_and_validation():
    t = orthogonal_transposition(2)
    family = GradedFamily.from_character(IDENTITY2, t, k_max=2)
    first = family.component(2)
    assert family.component(2) is first  # lazy cache hit
    with pytest.raises(ValueError):
        family.component(3)
    with pytest.raises(ValueError):
        family.component(-1)
    assert family.component(0) == identity_op(())


@pytest.mark.parametrize("k", [True, 1.0])
def test_graded_family_refuses_a_non_int_component_before_the_cache(k):
    # a bool or float k must not reach the cache, where True and 1.0 would
    # both hit the entry stored under 1
    family = GradedFamily.from_character(IDENTITY2, orthogonal_transposition(2), k_max=2)
    family.component(1)
    with pytest.raises(ValueError, match=f"^component must be an integer >= 0, got {k!r}$"):
        family.component(k)
    assert list(family._cache) == [1]


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: block_layout(True, 1), "block size must be an integer >= 0, got True"),
        (lambda: block_layout(1, 2.0), "block size must be an integer >= 0, got 2.0"),
        (lambda: fused_r(True, 1, 2), "block size must be an integer >= 0, got True"),
        (lambda: fused_r(1.5, 1, 2), "block size must be an integer >= 0, got 1.5"),
        (lambda: block_legs(1, False, 2), "block size must be an integer >= 0, got False"),
    ],
)
def test_block_layout_refuses_bools_and_floats(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


@pytest.mark.parametrize("k_max", [True, 1.5, -1])
def test_graded_family_refuses_a_bad_k_max(k_max):
    text = f"k_max must be an integer >= 0, got {k_max!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        GradedFamily.from_character(IDENTITY2, orthogonal_transposition(2), k_max=k_max)


def test_fused_breve_single_factor_matches_series():
    assert fused_breve(1, 1, 2, 2) == breve_r_series(2, "u1", "v1", 2)
    t = orthogonal_transposition(2)
    primed = fused_breve(1, 1, 2, 2, t)
    assert primed == tau_on_leg(breve_r_series(2, "u1", "v1", 2), 1, t)


@pytest.mark.parametrize("K", [True, 1.5, -1])
def test_fused_breve_refuses_a_bad_truncation_order(K):
    text = f"truncation order must be an integer >= 0, got {K!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        fused_breve(1, 1, 2, K)


def test_fused_breve_empty_block():
    op = fused_breve(1, 0, 2, 3)
    assert op == identity_op(op.legs)


def test_fused_breve_truncation_is_stable():
    # building with extra per-factor depth and re-truncating changes nothing
    for t in (None, orthogonal_transposition(2)):
        shallow = fused_breve(2, 1, 2, 2, t)
        deeper = breve_product(2, 1, 2, 4, t)
        v_labels = {"v1"}

        def cut(exps):
            return sum(e for name, e in exps.items() if name in v_labels) <= 2

        recut = TensorOp(
            deeper.legs,
            {key: poly.filtered(cut) for key, poly in deeper.entries.items()},
        )
        assert shallow == recut


@pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
def test_fused_r_prime_flipped_is_the_block_swap(k, m, kind):
    # the primed fused_r on the (m, k) layout with u_i and v_i exchanged,
    # its m-block placed at targets k+1..k+m and its k-block at 1..k; the
    # unprimed operator placed the same way is the negative control
    n = 2
    t = orthogonal_transposition(n) if kind == "orthogonal" else symplectic_transposition(n)
    relabel = {f"u{i}": f"v{i}" for i in range(1, m + 1)}
    relabel.update({f"v{i}": f"u{i}" for i in range(1, k + 1)})
    targets = tuple(range(k + 1, k + m + 1)) + tuple(range(1, k + 1))

    def swapped(primed):
        return [(op_substitute(fused_r(m, k, n, t if primed else None), relabel), targets)]

    direct = [(fused_r_prime_flipped(k, m, n, t), tuple(range(1, k + m + 1)))]
    verdicts, _ = compare_sides(
        block_legs(k, m, n), [("", swapped(True), direct), ("unprimed", swapped(False), direct)]
    )
    assert verdicts == {"": True, "unprimed": False}


def test_fused_r_prime_flipped_single_is_r_prime():
    t = orthogonal_transposition(2)
    assert fused_r_prime_flipped(1, 1, 2, t) == tau_on_leg(yang_r(2, "u1", "v1"), 1, t)


def test_fused_r_prime_flipped_validates_blocks():
    with pytest.raises(ValueError, match="^block size must be an integer >= 0, got -1$"):
        fused_r_prime_flipped(-1, 1, 2, orthogonal_transposition(2))


def test_breve_product_validates_blocks():
    with pytest.raises(ValueError, match="^block size must be an integer >= 0, got -1$"):
        breve_product(-1, 1, 2, 3)
    with pytest.raises(ValueError, match="^block size must be an integer >= 0, got -1$"):
        breve_product(1, -1, 2, 3)


def test_fused_s_layout():
    t = orthogonal_transposition(2)
    seed = character_seed(SKEW, t)
    s2 = fused_s(seed, 2)
    assert tuple(leg.spectral_var for leg in s2.legs) == ("u1", "u2")
    assert fused_s(seed, 1) == matrix_on_leg(SKEW, LegSpace(2, "u1"))
