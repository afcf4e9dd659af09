"""Sparse operators on tensor products of N-dimensional legs.

A TensorOp stores entries as a sparse map from (row multi-index, column
multi-index) pairs to LaurentPoly values.  Multi-indices are 1-based tuples,
one component per leg, read in row-major order over the leg sequence.  Legs
optionally carry a spectral-variable label; every entry is kept aligned to a
single shared variable context (entry variables plus all leg labels).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .laurent import _VAR_PATTERN, Frozen, LaurentPoly, mul_into, parse_rational, require_int

ROLES = ("auxiliary", "quantum")


@dataclass(frozen=True)
class LegSpace:
    dim: int
    spectral_var: str | None = None
    role: str = "auxiliary"

    def __post_init__(self):
        require_int("leg dimension", self.dim, 1)
        label = self.spectral_var
        if label is not None and not (type(label) is str and _VAR_PATTERN.match(label)):
            raise ValueError(f"spectral label must be None or a variable name, got {label!r}")
        if self.role not in ROLES:
            raise ValueError(f"leg role must be one of {ROLES}, got {self.role!r}")

    def with_label(self, spectral_var):
        return LegSpace(self.dim, spectral_var, self.role)


class TensorOp(Frozen):
    """Sparse linear operator on an ordered sequence of legs."""

    __slots__ = ("legs", "entries", "variables", "_memo")

    def __init__(self, legs, entries):
        legs = _require_legs(legs)
        dims = tuple(leg.dim for leg in legs)
        for row, col in entries:
            _check_index(row, dims)
            _check_index(col, dims)
        self._fill(legs, entries)

    @staticmethod
    def _raw(legs, entries):
        """Wrap trusted parts: legs a tuple of LegSpace and entries keyed by
        valid multi-indices.  Aligns and drops zero entries as __init__
        does, without its per-entry checks."""
        op = object.__new__(TensorOp)
        op._fill(legs, entries)
        return op

    def _fill(self, legs, entries):
        context = {leg.spectral_var for leg in legs if leg.spectral_var is not None}
        for poly in entries.values():
            context.update(poly.variables)
        context = tuple(sorted(context))
        clean = {key: poly.aligned(context) for key, poly in entries.items() if poly.terms}
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "variables", context)
        object.__setattr__(self, "_memo", {})

    def memo(self, key, build):
        """build(), called once per key for this operator: its entries never
        change, so what is derived from them stays valid."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def dims(self):
        return tuple(leg.dim for leg in self.legs)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self.legs == other.legs and self.entries == other.entries

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


def _require_legs(legs):
    """legs as a tuple, refused unless every one is a LegSpace."""
    legs = tuple(legs)
    if not all(isinstance(leg, LegSpace) for leg in legs):
        raise ValueError("legs must be LegSpace instances")
    return legs


def _check_index(index, dims):
    """Refuse anything but a tuple of ints in 1..dim, one per leg.  A
    range, bytes or bool that would equal such a tuple is refused too, so
    two distinct keys of a TensorOp's entries never name one entry."""
    if type(index) is not tuple:
        raise ValueError(f"multi-index must be a tuple, got {type(index).__name__}")
    if len(index) != len(dims):
        raise ValueError(f"multi-index {index} has arity {len(index)}, expected {len(dims)}")
    for component, dim in zip(index, dims):
        if isinstance(component, bool):
            raise ValueError(f"index component {component} is a bool, not an int")
        if not isinstance(component, int) or not 1 <= component <= dim:
            raise ValueError(f"index component {component} out of range 1..{dim}")


def identity_op(legs):
    legs = _require_legs(legs)
    one = LaurentPoly.const(1)
    entries = {}
    for index in itertools.product(*(range(1, leg.dim + 1) for leg in legs)):
        entries[(index, index)] = one
    return TensorOp._raw(legs, entries)


def op_scale(a, factor):
    # int and Fraction factors take the scalar fast path of LaurentPoly
    return TensorOp._raw(a.legs, {key: poly * factor for key, poly in a.entries.items()})


def op_add(a, b):
    if a.legs != b.legs:
        raise ValueError("leg mismatch in op_add")
    merged = dict(a.entries)
    for key, poly in b.entries.items():
        if key in merged:
            merged[key] = merged[key] + poly
        else:
            merged[key] = poly
    return TensorOp._raw(a.legs, merged)


def tensor_compose(a, b):
    """Entrywise exact matrix product a.b (identical leg sequences required)."""
    if a.legs != b.legs:
        raise ValueError(f"leg mismatch: {a.legs} vs {b.legs}")
    ctx = tuple(sorted(set(a.variables) | set(b.variables)))
    by_row = {}
    for (row, col), poly in b.entries.items():
        by_row.setdefault(row, []).append((col, poly.aligned(ctx).terms))
    # multiply-accumulate on raw term dicts; every intermediate stays an
    # exact Fraction, only the wrapping is skipped
    acc = {}
    for (row, mid), left in a.entries.items():
        lterms = left.aligned(ctx).terms
        for col, rterms in by_row.get(mid, ()):
            mul_into(acc.setdefault((row, col), {}), lterms, rterms)
    entries = {
        key: LaurentPoly._raw(ctx, terms) for key, terms in acc.items() if terms
    }
    return TensorOp._raw(a.legs, entries)


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


def column_product(factors, col, start, mul, floor=None):
    """The column e_col of the ordered product of prepared factors, as a
    map row -> nonzero entry; the factors are applied right to left.

    A prepared factor is (0-based target slots, {factor column: [(factor
    row, factor entry)]}).  The column starts as the entry start at col,
    and mul(acc, a, b) returns acc plus the factor entry a times the
    column entry b, with acc None at a row's first product.  modes runs
    it on series term maps (start {(0, 0, ()): 1}, mul_series_into, so a
    word key keeps the factor's word on the left) and verify on Kronecker ints
    (mul_shifted), where each entry is one int.

    With a floor, a triple of lower bounds on the first two key
    components eu and ev and on their sum eu + ev, only the part of the
    product at or above all three bounds is built, exactly.  Keys add
    under the product, and each bounded quantity is a linear form of the
    key with nonnegative weights, so a factor raises it by at most the
    greatest value it takes on the factor's keys.  A partial term below
    the floor minus those maxima of the factors still to apply therefore
    feeds no final term at or above the floor, and neither does any term
    it could cancel.  Each step passes that floor on as mul(acc, a, b,
    floor=...), which skips such products.  modes floors the u and v
    exponents at -cap: R, R' and R'' hold only nonnegative exponents, so
    every term of a u^(-alpha) v^(-beta) coefficient carries a series
    generator of level >= alpha on the u leg and >= beta on the v leg,
    and a coefficient past the cap mentions a generator above it in every
    term, which the level filter drops.  The bound on alpha + beta that
    each mode reader needs is stated where its buckets are built.
    """
    steps = [floor] * len(factors)
    if floor is not None:
        for k in range(1, len(factors)):
            by_col = factors[k - 1][1]
            keys = [key for pairs in by_col.values() for _, entry in pairs for key in entry]
            top = (
                max((key[0] for key in keys), default=0),
                max((key[1] for key in keys), default=0),
                max((key[0] + key[1] for key in keys), default=0),
            )
            steps[k] = tuple(f - t for f, t in zip(steps[k - 1], top))
    vector = {col: start}
    for (slots, by_col), step in zip(reversed(factors), reversed(steps)):
        product = mul if step is None else functools.partial(mul, floor=step)
        out = {}
        for row, entry in vector.items():
            for sub_row, factor_entry in by_col.get(tuple(row[s] for s in slots), ()):
                target = list(row)
                for s, value in zip(slots, sub_row):
                    target[s] = value
                target = tuple(target)
                out[target] = product(out.get(target), factor_entry, entry)
        vector = {row: entry for row, entry in out.items() if entry}
    return vector


# the largest leg dimension whose 2^n * n! signed permutations are searched
SYMMETRY_SEARCH_MAX_N = 5


def _sign_conditions(op, perm):
    """The conditions on the signs s under which the permutation perm
    (1-based) takes op to s(r) s(c) op(r, c) at (perm r, perm c) for
    every stored entry, or None when no signs can: some entry's image is
    neither the entry nor its negative.  s(r) s(c) is -1 to the number of
    flipped components of r and c, so each entry gives one condition
    (mask, parity): bit i of mask is how often i occurs in r and c, mod 2,
    and the flips that mask selects must number parity mod 2.  perm is a
    bijection, so the stored entries then map onto the stored entries."""
    entries = op.entries
    conditions = set()
    for (row, col), poly in entries.items():
        image = entries.get((tuple(perm[i] for i in row), tuple(perm[i] for i in col)))
        if image is None:
            return None
        if image.terms == poly.terms:
            parity = 0
        elif image.terms == {e: -c for e, c in poly.terms.items()}:
            parity = 1
        else:
            return None
        mask = 0
        for i in row + col:
            mask ^= 1 << i
        conditions.add((mask, parity))
    return frozenset(conditions)


def signed_symmetries(ambient, ops):
    """Every signed permutation w with W op W^-1 = op for each op in ops,
    where W is w on every leg; ops must sit on ambient legs.

    w sends e_i to s_i e_sigma(i) and is written as the tuple of the
    s_i * sigma(i).  W commutes with an op on any targets exactly when
    op(sigma r, sigma c) = s(r) s(c) op(r, c) on its own legs, since the
    identity on the other legs satisfies it.  The result is the stabilizer
    of ops, so a group.  Each sigma is tested on every entry of each
    distinct op once (TensorOp.memo), the ops with the fewest entries
    first, and each of its 2^n sign vectors on the conditions found (see
    _sign_conditions), so all 2^n n! candidates are decided.  The list is empty, and nothing
    is tried, unless the ambient legs share one dimension
    n <= SYMMETRY_SEARCH_MAX_N.
    """
    dims = {leg.dim for leg in ambient}
    if len(dims) != 1 or max(dims) > SYMMETRY_SEARCH_MAX_N:
        return []
    (n,) = dims
    distinct = sorted({id(op): op for op in ops}.values(), key=lambda op: len(op.entries))
    group = []
    for sigma in itertools.permutations(range(1, n + 1)):
        perm = (0,) + sigma
        conditions = set()
        for op in distinct:
            found = op.memo(("signs", perm), lambda: _sign_conditions(op, perm))
            if found is None:
                break
            conditions |= found
        else:
            for signs in itertools.product((1, -1), repeat=n):
                flips = sum(1 << i for i, s in enumerate(signs, 1) if s < 0)
                if all((mask & flips).bit_count() & 1 == parity for mask, parity in conditions):
                    group.append(tuple(s * i for s, i in zip(signs, sigma)))
    return group


def orbit_representatives(columns, group):
    """The least column of each orbit of group (signed permutations, see
    signed_symmetries) acting by sigma on every component; columns must
    list every column once, in ascending order.  An empty group leaves
    every column its own representative."""
    perms = {(0,) + tuple(abs(i) for i in w) for w in group}
    seen = set()
    representatives = []
    for col in columns:
        if col not in seen:
            representatives.append(col)
            seen.update(tuple(perm[i] for i in col) for perm in perms)
    return representatives


def embed_legs(a, targets, ambient):
    """Let a act on the chosen ambient legs (identity elsewhere).

    targets are 1-based positions into the ambient leg sequence, pairwise
    distinct but in any order, so subscripts like R_{2,1} are expressible.
    The embedded operator's legs keep a's spectral labels at the targets.
    """
    ambient = _require_legs(ambient)
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
    return TensorOp._raw(tuple(legs), entries)


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
    return TensorOp._raw(tuple(legs), entries)


def site_flip(a):
    """The site flip R -> R_21 of a two-leg operator: entry ((i, j),
    (k, l)) moves to ((j, i), (l, k)) and the two labels are exchanged
    inside every entry, so each label stays with its position."""
    if len(a.legs) != 2:
        raise ValueError(f"site flip needs a two-leg operator, got {len(a.legs)} legs")
    first, second = a.legs
    x, y = first.spectral_var, second.spectral_var
    if (x is None) != (y is None):
        raise ValueError("site flip moves a labelled leg onto an unlabelled position")
    swap = {x: y, y: x} if x != y else {}
    entries = {
        ((j, i), (l, k)): poly.substitute(swap)
        for ((i, j), (k, l)), poly in a.entries.items()
    }
    return TensorOp._raw((second.with_label(x), first.with_label(y)), entries)


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
    var = leg.spectral_var
    acc = {}
    for (row, col), poly in a.entries.items():
        if var is not None:
            poly = poly.substitute({var: "-" + var})
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
    return TensorOp._raw(a.legs, acc)


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
    require_int("matrix size", n, 1)
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
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
        if not g:
            raise ValueError("the form g must not be empty")
        object.__setattr__(self, "sign", symmetry_sign(g))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", mat_inverse(g))
        object.__setattr__(self, "n", len(g))

    @property
    def kind(self):
        """The form's kind: "orthogonal" when g is symmetric, "symplectic" when skew."""
        return "orthogonal" if self.sign == 1 else "symplectic"

    def __repr__(self):
        return f"Transposition(n={self.n}, {self.kind})"


def orthogonal_transposition(n):
    """Plain matrix transpose: g is the identity form."""
    require_int("form size", n, 1)
    return Transposition(identity_matrix(n))


def symplectic_transposition(n):
    """Transposition twisted by the standard skew form (n must be even)."""
    require_int("form size", n, 1)
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
    require_int('"n"', n, 1)
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
