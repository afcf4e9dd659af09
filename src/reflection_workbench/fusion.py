"""The fusion procedure.

Fused R-matrices on (k, m) blocks of auxiliary legs, the primed variants,
the omega central factor, fused S-matrices grown from a seed solution of
the reflection equation, characters built from constant (skew-)symmetric
matrices, and the truncated fused breve operators.

Auxiliary legs are always labelled u1..uk left to right; a second block
uses v1..vm.  Coefficient legs keep their own labels.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import (
    Frozen,
    LaurentPoly,
    LegSpace,
    TensorOp,
    leg_permute,
    matrix_on_leg,
    op_chain,
    op_substitute,
    orthogonal_transposition,
    symmetry_sign,
    tau_on_leg,
)
from .rmatrix import breve_r_series, yang_r

DEFAULT_KMAX = 3


def block_labels(prefix, count):
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def _block_product(k, m, n, build, primed, t, flipped=False):
    """The ordered product of two-leg factors on a (k, m) block layout.

    The legs are the u-block u1..uk followed by the v-block v1..vm.  For
    each leg i of the outer block (the u-block, or the v-block when
    flipped) and each leg j of the other block, build(label_i, label_j)
    acts at (i, j); j runs descending for the plain product and ascending
    for the primed one, whose factors carry tau on their outer leg.  An
    empty block gives the identity.
    """
    if k < 0 or m < 0:
        raise ValueError("block sizes must be nonnegative")
    u_labels = block_labels("u", k)
    v_labels = block_labels("v", m)
    if t is None:
        t = orthogonal_transposition(n)
    u_block = tuple(zip(u_labels, range(1, k + 1)))
    v_block = tuple(zip(v_labels, range(k + 1, k + m + 1)))
    outer, inner = (v_block, u_block) if flipped else (u_block, v_block)
    if not primed:
        inner = inner[::-1]
    factors = []
    for a, i in outer:
        for b, j in inner:
            factor = build(a, b)
            factors.append((tau_on_leg(factor, 1, t) if primed else factor, (i, j)))
    legs = tuple(LegSpace(n, name) for name in u_labels + v_labels)
    return op_chain(legs, factors)


def fused_r(k, m, n, primed=False, t=None):
    """The fused operator on k + m auxiliary legs.

    km = 0 gives the identity.  Otherwise the ordered product over i = 1..k
    of the R_{i,j}(u_i, v_j) factors, with j descending m..1 for the plain
    operator and ascending 1..m for the primed one (tau on the u_i leg).
    """
    return _block_product(k, m, n, lambda a, b: yang_r(n, a, b), primed, t)


def fused_r_prime_flipped(k, m, n, t=None):
    """The block-swapped primed fused operator: the subscript-reversal of
    the primed fused_r built on the (m, k) block layout.  Each factor is
    R'(v_i, u_j) with tau acting on the v_i leg, embedded at (k+i, j)."""
    return _block_product(k, m, n, lambda a, b: yang_r(n, a, b), True, t, flipped=True)


def omega_factor(k):
    """prod_{1<=i<j<=k} ((u_i + u_j)^2 - 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    labels = block_labels("u", k)
    result = LaurentPoly.const(1, labels)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            u_i = LaurentPoly.var(labels[i - 1])
            u_j = LaurentPoly.var(labels[j - 1])
            result = result * ((u_i + u_j) ** 2 - 1)
    return result


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
        """The seed relabelled to the given auxiliary spectral variable."""
        if label == self.spectral_var:
            return self.s
        return op_substitute(self.s, {self.spectral_var: label})


def fused_s(seed, k):
    """The k-th graded component: prod_{i=1..k} ( S_i prod_{j>i} R'_{ij} ).

    Auxiliary legs are labelled u1..uk; component 0 is the identity on the
    seed's coefficient block.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeff = seed.coeff_legs
    n = seed.t.n
    labels = block_labels("u", k)
    for leg in coeff:
        if leg.spectral_var in labels:
            raise ValueError(
                f"coefficient label {leg.spectral_var!r} collides with auxiliary labels"
            )
    legs = tuple(LegSpace(n, name) for name in labels) + coeff
    coeff_targets = tuple(range(k + 1, k + 1 + len(coeff)))
    factors = []
    for i in range(1, k + 1):
        factors.append((seed.instance(labels[i - 1]), (i,) + coeff_targets))
        for j in range(i + 1, k + 1):
            r_prime = tau_on_leg(yang_r(n, labels[i - 1], labels[j - 1]), 1, seed.t)
            factors.append((r_prime, (i, j)))
    return op_chain(legs, factors)


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

    def __init__(self, seed, k_max=DEFAULT_KMAX):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "_cache", {})

    @staticmethod
    def from_seed(seed, k_max=DEFAULT_KMAX):
        return GradedFamily(seed, k_max)

    @staticmethod
    def from_character(x, t, k_max=DEFAULT_KMAX):
        return GradedFamily(character_seed(x, t), k_max)

    @property
    def coeff_legs(self):
        return self.seed.coeff_legs

    def component(self, k):
        if not 0 <= k <= self.k_max:
            raise ValueError(f"component {k} outside 0..{self.k_max}")
        cached = self._cache.get(k)
        if cached is None:
            cached = self._cache[k] = fused_s(self.seed, k)
        return cached


def breve_product(k, m, n, factor_order, primed=False, t=None):
    """Product of per-factor truncated breve series on (k, m) blocks, in the
    fused-operator factor order, with NO total-order filter applied."""
    return _block_product(
        k, m, n, lambda a, b: breve_r_series(n, a, b, factor_order), primed, t
    )


def fused_breve(k, m, n, K, primed=False, t=None):
    """Fused breve operator truncated to total degree <= K in the v-block
    variables (each factor's series index is its v-degree)."""
    if K < 0:
        raise ValueError("truncation order must be >= 0")
    product = breve_product(k, m, n, K, primed=primed, t=t)
    v_labels = set(block_labels("v", m))

    def low_order(exps):
        return sum(e for name, e in exps.items() if name in v_labels) <= K

    return TensorOp(
        product.legs,
        {key: poly.filtered(low_order) for key, poly in product.entries.items()},
    )


def block_swap(op, k, m):
    """Move the second block of m legs in front of the first block of k legs
    and rename the u/v labels back to position order (fused subscript flip)."""
    if len(op.legs) != k + m:
        raise ValueError(f"operator has {len(op.legs)} legs, expected {k + m}")
    sigma = tuple(range(m + 1, m + k + 1)) + tuple(range(1, m + 1))
    moved = leg_permute(op, sigma)
    rename = {}
    for j in range(1, k + 1):
        old = op.legs[j - 1].spectral_var
        if old is not None:
            rename[old] = f"v{j}"
    for i in range(1, m + 1):
        old = op.legs[k + i - 1].spectral_var
        if old is not None:
            rename[old] = f"u{i}"
    return op_substitute(moved, rename)
