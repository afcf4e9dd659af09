"""Sparse operators on tensor products of N-dimensional legs.

A TensorOp stores entries as a sparse map from (row multi-index, column
multi-index) pairs to LaurentPoly values.  Multi-indices are 1-based tuples,
one component per leg, read in row-major order over the leg sequence.  Legs
optionally carry a spectral-variable label; every entry is kept aligned to a
single shared variable context (entry variables plus all leg labels).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .laurent import Frozen, LaurentPoly, parse_rational

ROLES = ("auxiliary", "quantum")


@dataclass(frozen=True)
class LegSpace:
    dim: int
    spectral_var: str | None = None
    role: str = "auxiliary"

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"leg dimension must be a positive integer, got {self.dim!r}")
        if self.role not in ROLES:
            raise ValueError(f"leg role must be one of {ROLES}, got {self.role!r}")

    def with_label(self, spectral_var):
        return LegSpace(self.dim, spectral_var, self.role)


class TensorOp(Frozen):
    """Sparse linear operator on an ordered sequence of legs."""

    __slots__ = ("legs", "entries", "variables")

    def __init__(self, legs, entries):
        legs = tuple(legs)
        if not all(isinstance(leg, LegSpace) for leg in legs):
            raise ValueError("legs must be LegSpace instances")
        context = set()
        for leg in legs:
            if leg.spectral_var is not None:
                context.add(leg.spectral_var)
        for poly in entries.values():
            context.update(poly.variables)
        context = tuple(sorted(context))
        dims = tuple(leg.dim for leg in legs)
        clean = {}
        for (row, col), poly in entries.items():
            row, col = tuple(row), tuple(col)
            _check_index(row, dims)
            _check_index(col, dims)
            aligned = poly.aligned(context)
            if aligned.is_zero():
                continue
            key = (row, col)
            prev = clean.get(key)
            if prev is None:
                clean[key] = aligned
            else:
                total = prev + aligned
                if total.is_zero():
                    del clean[key]
                else:
                    clean[key] = total
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "variables", context)

    @property
    def dims(self):
        return tuple(leg.dim for leg in self.legs)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        if self.legs != other.legs:
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(self.entries[key] == other.entries[key] for key in self.entries)

    __hash__ = None

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dims)
        return f"TensorOp(legs={dims}, nnz={len(self.entries)})"

    # Convenience operator sugar used throughout the higher modules.

    def __add__(self, other):
        return op_add(self, other)

    def __sub__(self, other):
        return op_add(self, op_scale(other, -1))

    def __neg__(self):
        return op_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return op_scale(self, other)
        return NotImplemented

    __rmul__ = __mul__


def _check_index(index, dims):
    if len(index) != len(dims):
        raise ValueError(f"multi-index {index} has arity {len(index)}, expected {len(dims)}")
    for component, dim in zip(index, dims):
        if not isinstance(component, int) or not 1 <= component <= dim:
            raise ValueError(f"index component {component} out of range 1..{dim}")


def identity_op(legs):
    legs = tuple(legs)
    one = LaurentPoly.const(1)
    entries = {}
    for index in itertools.product(*(range(1, leg.dim + 1) for leg in legs)):
        entries[(index, index)] = one
    return TensorOp(legs, entries)


def op_scale(a, factor):
    # int and Fraction factors take the scalar fast path of LaurentPoly
    return TensorOp(a.legs, {key: poly * factor for key, poly in a.entries.items()})


def op_add(a, b):
    if a.legs != b.legs:
        raise ValueError("leg mismatch in op_add")
    merged = dict(a.entries)
    for key, poly in b.entries.items():
        if key in merged:
            merged[key] = merged[key] + poly
        else:
            merged[key] = poly
    return TensorOp(a.legs, merged)


def tensor_compose(a, b):
    """Entrywise exact matrix product a.b (identical leg sequences required)."""
    if a.legs != b.legs:
        raise ValueError(f"leg mismatch: {a.legs} vs {b.legs}")
    if a.variables == b.variables:
        ctx = a.variables
        a_entries, b_entries = a.entries, b.entries
    else:
        ctx = tuple(sorted(set(a.variables) | set(b.variables)))
        a_entries = {key: poly.aligned(ctx) for key, poly in a.entries.items()}
        b_entries = {key: poly.aligned(ctx) for key, poly in b.entries.items()}
    by_row = {}
    for (row, col), poly in b_entries.items():
        by_row.setdefault(row, []).append((col, poly.terms))
    # multiply-accumulate on raw term dicts; every intermediate stays an
    # exact Fraction, only the wrapping is skipped
    acc = {}
    plus = operator.add
    for (row, mid), left in a_entries.items():
        lterms = left.terms
        for col, rterms in by_row.get(mid, ()):
            bucket = acc.setdefault((row, col), {})
            for ea, ca in lterms.items():
                for eb, cb in rterms.items():
                    key = tuple(map(plus, ea, eb))
                    prev = bucket.get(key)
                    if prev is None:
                        bucket[key] = ca * cb
                    else:
                        total = prev + ca * cb
                        if total:
                            bucket[key] = total
                        else:
                            del bucket[key]
    entries = {
        key: LaurentPoly._raw(ctx, terms) for key, terms in acc.items() if terms
    }
    return TensorOp(a.legs, entries)


def op_chain(ambient, factors):
    """The ordered product of (op, targets) factors on the ambient legs.

    Each op is embedded at its targets (as in embed_legs) and the embedded
    operators are composed left to right in the listed order.  The empty
    chain is the identity on ambient.
    """
    ambient = tuple(ambient)
    result = None
    for op, targets in factors:
        embedded = embed_legs(op, targets, ambient)
        result = embedded if result is None else tensor_compose(result, embedded)
    return identity_op(ambient) if result is None else result


def tensor_product(a, b):
    """Leg concatenation: legs(a) followed by legs(b), entries multiply."""
    legs = a.legs + b.legs
    entries = {}
    for (ra, ca), pa in a.entries.items():
        for (rb, cb), pb in b.entries.items():
            entries[(ra + rb, ca + cb)] = pa * pb
    return TensorOp(legs, entries)


def embed_legs(a, targets, ambient):
    """Let a act on the chosen ambient legs (identity elsewhere).

    targets are 1-based positions into the ambient leg sequence, pairwise
    distinct but in any order, so subscripts like R_{2,1} are expressible.
    The embedded operator's legs keep a's spectral labels at the targets.
    """
    ambient = tuple(ambient)
    targets = tuple(targets)
    if len(targets) != len(a.legs):
        raise ValueError(f"{len(targets)} targets for {len(a.legs)} legs")
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target in {targets}")
    for position in targets:
        if not 1 <= position <= len(ambient):
            raise ValueError(f"target {position} outside ambient of {len(ambient)} legs")
    for leg, position in zip(a.legs, targets):
        if ambient[position - 1].dim != leg.dim:
            raise ValueError(
                f"dimension mismatch at target {position}: "
                f"{ambient[position - 1].dim} vs {leg.dim}"
            )
    legs = list(ambient)
    for leg, position in zip(a.legs, targets):
        legs[position - 1] = leg
    spectator = [p for p in range(1, len(ambient) + 1) if p not in targets]
    spectator_dims = [legs[p - 1].dim for p in spectator]
    entries = {}
    for (row, col), poly in a.entries.items():
        for assignment in itertools.product(*(range(1, d + 1) for d in spectator_dims)):
            full_row = [0] * len(ambient)
            full_col = [0] * len(ambient)
            for value, position in zip(assignment, spectator):
                full_row[position - 1] = value
                full_col[position - 1] = value
            for i, position in enumerate(targets):
                full_row[position - 1] = row[i]
                full_col[position - 1] = col[i]
            entries[(tuple(full_row), tuple(full_col))] = poly
    return TensorOp(legs, entries)


def leg_permute(a, sigma):
    """Transport leg i to position sigma[i-1]; labels move with their legs."""
    sigma = tuple(sigma)
    k = len(a.legs)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{k}")
    legs = [None] * k
    for i, destination in enumerate(sigma):
        legs[destination - 1] = a.legs[i]
    entries = {}
    for (row, col), poly in a.entries.items():
        new_row = [0] * k
        new_col = [0] * k
        for i, destination in enumerate(sigma):
            new_row[destination - 1] = row[i]
            new_col[destination - 1] = col[i]
        entries[(tuple(new_row), tuple(new_col))] = poly
    return TensorOp(legs, entries)


def op_substitute(a, mapping):
    """Apply a variable substitution to every entry and to the leg labels."""
    entries = {key: poly.substitute(mapping) for key, poly in a.entries.items()}
    legs = []
    for leg in a.legs:
        label = leg.spectral_var
        if label is not None and label in mapping:
            target = mapping[label]
            if isinstance(target, str):
                label = target.lstrip("+-")
            else:
                label = None
        legs.append(LegSpace(leg.dim, label, leg.role))
    return TensorOp(legs, entries)


def site_permute(a, sigma):
    """Permute sites: move legs like leg_permute, then rename the moved
    spectral labels back into position order (so labels stay attached to
    positions, not to legs).  This is the index flip that also swaps the
    spectral variables, the meaning of subscript reversal for R-matrices."""
    sigma = tuple(sigma)
    k = len(a.legs)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{k}")
    inverse = [0] * k
    for i, destination in enumerate(sigma):
        inverse[destination - 1] = i + 1
    rename = {}
    for position in range(1, k + 1):
        source_label = a.legs[inverse[position - 1] - 1].spectral_var
        target_label = a.legs[position - 1].spectral_var
        if source_label == target_label:
            continue
        if source_label is None or target_label is None:
            raise ValueError(
                "site permutation moves a labelled leg onto an unlabelled "
                f"position (position {position})"
            )
        if rename.get(source_label, target_label) != target_label:
            raise ValueError(f"ambiguous label renaming for {source_label!r}")
        rename[source_label] = target_label
    moved = leg_permute(a, sigma)
    if not rename:
        return moved
    return op_substitute(moved, rename)


def tau_on_leg(a, leg_position, t):
    """Apply the involution t (matrix part g.A^T.g^-1) to one leg and send
    that leg's spectral variable to its negative."""
    k = len(a.legs)
    if not 1 <= leg_position <= k:
        raise ValueError(f"leg {leg_position} outside 1..{k}")
    leg = a.legs[leg_position - 1]
    if leg.dim != t.n:
        raise ValueError(f"transposition size {t.n} does not match leg dim {leg.dim}")
    slot = leg_position - 1
    g, g_inv = t.g, t.g_inv
    acc = {}
    for (row, col), poly in a.entries.items():
        b, amn = row[slot], col[slot]
        for i_new in range(1, t.n + 1):
            left = g[i_new - 1][amn - 1]
            if left == 0:
                continue
            for j_new in range(1, t.n + 1):
                right = g_inv[b - 1][j_new - 1]
                if right == 0:
                    continue
                new_row = row[:slot] + (i_new,) + row[slot + 1 :]
                new_col = col[:slot] + (j_new,) + col[slot + 1 :]
                key = (new_row, new_col)
                contribution = poly * (left * right)
                prev = acc.get(key)
                acc[key] = contribution if prev is None else prev + contribution
    result = TensorOp(a.legs, acc)
    if leg.spectral_var is not None:
        result = op_substitute(result, {leg.spectral_var: "-" + leg.spectral_var})
    return result


def fresh_label(stem, taken):
    """A spectral-variable name based on stem that avoids the taken set."""
    if stem not in taken:
        return stem
    counter = 0
    while f"{stem}_{counter}" in taken:
        counter += 1
    return f"{stem}_{counter}"


def extract_entry(a, row, col):
    row, col = tuple(row), tuple(col)
    _check_index(row, a.dims)
    _check_index(col, a.dims)
    return a.entries.get((row, col), LaurentPoly.zero(a.variables))


# -- exact rational matrices (plain tuples of tuples of Fraction) -----------


def identity_matrix(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_transpose(a):
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = mat_transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_inverse(a):
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    work = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def symmetry_sign(x):
    """+1 for a symmetric matrix, -1 for skew; error with the violated
    entry pair otherwise (the zero matrix counts as symmetric)."""
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("matrix is not square")
    symmetric_violation = None
    skew_violation = None
    for i in range(n):
        for j in range(n):
            if symmetric_violation is None and x[i][j] != x[j][i]:
                symmetric_violation = (i + 1, j + 1)
            if skew_violation is None and x[i][j] != -x[j][i]:
                skew_violation = (i + 1, j + 1)
    if symmetric_violation is None:
        return 1
    if skew_violation is None:
        return -1
    si, sj = symmetric_violation
    ki, kj = skew_violation
    raise ValueError(
        "matrix is neither symmetric nor skew: "
        f"x[{si}][{sj}]={x[si - 1][sj - 1]} vs x[{sj}][{si}]={x[sj - 1][si - 1]} "
        f"breaks symmetry, x[{ki}][{kj}]={x[ki - 1][kj - 1]} vs "
        f"-x[{kj}][{ki}]={-x[kj - 1][ki - 1]} breaks skewness"
    )


class Transposition(Frozen):
    """The involutive anti-automorphism A -> g.A^T.g^-1 for an invertible g
    with g^T = sign.g; the sign is read off g by symmetry_sign."""

    __slots__ = ("g", "g_inv", "sign", "n")

    def __init__(self, g):
        g = tuple(tuple(Fraction(x) for x in row) for row in g)
        object.__setattr__(self, "sign", symmetry_sign(g))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", mat_inverse(g))
        object.__setattr__(self, "n", len(g))

    @property
    def kind(self):
        """The form's kind: "orthogonal" when g is symmetric, "symplectic" when skew."""
        return "orthogonal" if self.sign == 1 else "symplectic"

    def apply_matrix(self, a):
        """t(A) = g.A^T.g^-1 for a plain rational matrix A."""
        return mat_mul(mat_mul(self.g, mat_transpose(a)), self.g_inv)

    def __repr__(self):
        return f"Transposition(n={self.n}, {self.kind})"


def orthogonal_transposition(n):
    """Plain matrix transpose: g is the identity form."""
    return Transposition(identity_matrix(n))


def symplectic_transposition(n):
    """Transposition twisted by the standard skew form (n must be even)."""
    if n % 2:
        raise ValueError(f"symplectic form needs even dimension, got {n}")
    half = n // 2
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(half):
        g[i][half + i] = Fraction(1)
        g[half + i][i] = Fraction(-1)
    return Transposition(g)


def parse_matrix_json(data):
    """Parse {"n": N, "entries": [["p/q", ...], ...]} into a Fraction matrix."""
    if not isinstance(data, dict) or set(data) != {"n", "entries"}:
        raise ValueError('matrix JSON must have exactly the keys "n" and "entries"')
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f'"entries" must be a list of {n} rows')
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"each row must have {n} entries")
        rows.append(tuple(parse_rational(cell) for cell in row))
    return tuple(rows)


def matrix_on_leg(matrix, leg):
    """Single-leg TensorOp with the given constant rational matrix."""
    n = leg.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix size does not match leg dimension {n}")
    entries = {}
    for i in range(n):
        for j in range(n):
            value = Fraction(matrix[i][j])
            if value:
                entries[((i + 1,), (j + 1,))] = LaurentPoly.const(value)
    return TensorOp((leg,), entries)
