"""The fusion procedure.

Fused R-matrices on (k, m) blocks of auxiliary legs, the primed variants,
fused S-matrices grown from a seed solution of the reflection equation,
characters built from constant (skew-)symmetric matrices, and the
truncated fused breve operators.

block_layout states the (k, m) block layout once: u1..uk at targets 1..k,
then v1..vm at k+1..k+m.  The factor builders take blocks of (label,
target) legs and emit each factor at its final labels and targets.
Coefficient legs keep their own labels.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import (
    Frozen,
    LegSpace,
    TensorOp,
    matrix_on_leg,
    op_chain,
    op_substitute,
    require_int,
    symmetry_sign,
)
from .rmatrix import breve_r_series, prime, yang_r


def block_layout(k, m):
    """The (k, m) block layout as two blocks of (label, target) legs: the
    u-block u1..uk at targets 1..k, then the v-block v1..vm at targets
    k+1..k+m."""
    require_int("block size", k, 0)
    require_int("block size", m, 0)
    return (
        tuple((f"u{i}", i) for i in range(1, k + 1)),
        tuple((f"v{j}", k + j) for j in range(1, m + 1)),
    )


def block_legs(k, m, n):
    """The legs of the (k, m) block layout: u1..uk followed by v1..vm."""
    u_block, v_block = block_layout(k, m)
    return tuple(LegSpace(n, label) for label, _ in u_block + v_block)


def _block_product(outer, inner, plain, t):
    """The ordered (op, targets) factors of a product of two blocks.

    For each leg (a, i) of the outer block and each leg (b, j) of the
    inner one, one factor acts at (i, j).  With t None it is plain(a, b)
    and j runs descending; with a form t it is prime(plain(a, b), t), tau
    on the outer leg, and j runs ascending.  An empty block gives no
    factors.
    """
    if t is None:
        return [(plain(a, b), (i, j)) for a, i in outer for b, j in inner[::-1]]
    return [(prime(plain(a, b), t), (i, j)) for a, i in outer for b, j in inner]


def fused_r_factors(outer, inner, n, t=None):
    """The R-matrix factors of the fused operator of two blocks, primed
    by the form t when one is given."""
    return _block_product(outer, inner, lambda a, b: yang_r(n, a, b), t)


def fused_r(k, m, n, t=None):
    """The fused operator on k + m auxiliary legs.

    km = 0 gives the identity.  Otherwise the ordered product over i = 1..k
    of the R_{i,j}(u_i, v_j) factors, with j descending m..1 for the plain
    operator and, given a form t, ascending 1..m for the primed one (tau
    on the u_i leg).
    """
    return op_chain(block_legs(k, m, n), fused_r_factors(*block_layout(k, m), n, t))


def fused_r_prime_flipped(k, m, n, t):
    """The block-swapped primed fused operator: the primed product with the
    two blocks swapped, the subscript-reversal of the primed fused_r on the
    (m, k) layout.  Each factor is R'(v_i, u_j), tau on v_i, at (k+i, j)."""
    return op_chain(block_legs(k, m, n), fused_r_factors(*block_layout(k, m)[::-1], n, t))


class SeedSolution(Frozen):
    """A one-auxiliary-leg solution of the reflection equation.

    Only the legs and labels are validated; the reflection equation is
    what check_re reports, and for a graded family it is the (k, m) =
    (1, 1) instance of check_fused_re.  skip_check has no effect; it is
    accepted only because perfbench/child.py still passes it.
    """

    __slots__ = ("s", "t", "spectral_var", "coeff_legs")

    def __init__(self, s, t, skip_check=False):
        if not s.legs:
            raise ValueError("seed needs at least the auxiliary leg")
        aux = s.legs[0]
        if aux.spectral_var is None:
            raise ValueError("seed auxiliary leg must carry a spectral label")
        if aux.dim != t.n:
            raise ValueError(
                f"seed leg dimension {aux.dim} does not match transposition size {t.n}"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "spectral_var", aux.spectral_var)
        object.__setattr__(self, "coeff_legs", s.legs[1:])

    def instance(self, label):
        """The seed relabelled to the given auxiliary spectral variable,
        built once per label, in the seed operator's memo.  LegSpace refuses
        a label that is not a variable name."""
        self.s.legs[0].with_label(label)
        if label == self.spectral_var:
            return self.s
        return self.s.memo(("label", label),
                           lambda: op_substitute(self.s, {self.spectral_var: label}))


def fused_s_factors(seed, block, coeff_targets):
    """The factors of the graded component on a block, in product order:
    prod_i ( S_i prod_{j>i} R'_{ij} ) over the block's (label, target) legs,
    with the coefficient legs at coeff_targets.  An empty block gives none."""
    labels = {label for label, _ in block}
    for leg in seed.coeff_legs:
        if leg.spectral_var in labels:
            raise ValueError(
                f"coefficient label {leg.spectral_var!r} collides with auxiliary labels"
            )
    factors = []
    for index, (a, i) in enumerate(block):
        factors.append((seed.instance(a), (i,) + coeff_targets))
        for b, j in block[index + 1:]:
            factors.append((prime(yang_r(seed.t.n, a, b), seed.t), (i, j)))
    return factors


def fused_s(seed, k):
    """The k-th graded component: the product of its fused_s_factors.

    Auxiliary legs are labelled u1..uk; component 0 is the identity on the
    seed's coefficient block.
    """
    u_block, _ = block_layout(k, 0)
    legs = block_legs(k, 0, seed.t.n) + seed.coeff_legs
    return op_chain(legs, fused_s_factors(seed, u_block, tuple(range(k + 1, len(legs) + 1))))


def character_seed(x, t):
    """SeedSolution wrapping a constant (skew-)symmetric matrix."""
    symmetry_sign(x)
    x = tuple(tuple(Fraction(value) for value in row) for row in x)
    if len(x) != t.n:
        raise ValueError(f"matrix size {len(x)} does not match transposition size {t.n}")
    s = matrix_on_leg(x, LegSpace(t.n, "u"))
    return SeedSolution(s, t)


class GradedFamily(Frozen):
    """Truncated graded family {k -> fused_s(seed, k)} of TensorOps on k
    auxiliary legs plus the seed's coefficient block.  Components are
    built lazily per k."""

    __slots__ = ("seed", "k_max", "_cache")

    def __init__(self, seed, k_max):
        require_int("k_max", k_max, 0)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "_cache", {})

    @staticmethod
    def from_seed(seed, k_max):
        return GradedFamily(seed, k_max)

    @staticmethod
    def from_character(x, t, k_max):
        return GradedFamily(character_seed(x, t), k_max)

    @property
    def coeff_legs(self):
        return self.seed.coeff_legs

    def _require_k(self, k):
        require_int("component", k, 0)
        if k > self.k_max:
            raise ValueError(f"component {k} outside 0..{self.k_max}")

    def factors(self, block, coeff_targets):
        """The fused_s_factors of component(len(block)) on the block."""
        self._require_k(len(block))
        return fused_s_factors(self.seed, block, coeff_targets)

    def component(self, k):
        self._require_k(k)
        cached = self._cache.get(k)
        if cached is None:
            cached = self._cache[k] = fused_s(self.seed, k)
        return cached


def breve_factors(outer, inner, n, factor_order, t=None):
    """The per-factor truncated breve series of two blocks, in the
    fused-operator factor order, primed by the form t when one is given."""
    return _block_product(outer, inner, lambda a, b: breve_r_series(n, a, b, factor_order), t)


def breve_product(k, m, n, factor_order, t=None):
    """Product of breve_factors on the block_legs(k, m, n) layout, with NO
    total-order filter applied."""
    factors = breve_factors(*block_layout(k, m), n, factor_order, t)
    return op_chain(block_legs(k, m, n), factors)


def fused_breve(k, m, n, K, t=None):
    """Fused breve operator truncated to total degree <= K in the v-block
    variables (each factor's series index is its v-degree)."""
    require_int("truncation order", K, 0)
    product = breve_product(k, m, n, K, t)
    v_labels = {label for label, _ in block_layout(k, m)[1]}

    def low_order(exps):
        return sum(e for name, e in exps.items() if name in v_labels) <= K

    return TensorOp._raw(
        product.legs,
        {key: poly.filtered(low_order) for key, poly in product.entries.items()},
    )
