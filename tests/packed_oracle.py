"""The packed sparse row product, the reference that the Kronecker rows of
verify.compare_sides are tested against.

A row entry is a sparse term map whose keys are packed exponent vectors:
pack writes each exponent as a signed field of a fixed width, so the
monomial product is one int add (mul_packed_into), and unpack reads the
fields back.  packed_row runs kernel.column_product on these term maps,
with a width that holds every exponent the row can reach.
"""

from __future__ import annotations

from reflection_workbench.kernel import LaurentPoly, column_product


def pack(exps, width):
    """The exponent vector exps as one int: the sum of e_i * 2^(width * i).

    The fields are plain signed digits, so pack(a) + pack(b) == pack(a + b)
    for any a and b, and the key is unique (unpack reads it back) while
    every |e_i| < 2^(width - 1).  A vector outside that box raises
    ValueError, so an overflow never passes silently.
    """
    bound = 1 << (width - 1)
    key = 0
    for i, e in enumerate(exps):
        if not -bound < e < bound:
            raise ValueError(f"exponent {e} does not fit a packed field of width {width}")
        key += e << (width * i)
    return key


def unpack(key, arity, width):
    """The exponent vector of arity fields packed into key (pack's inverse):
    each field is read back as a balanced digit in -2^(width-1)..2^(width-1)-1."""
    half, full = 1 << (width - 1), 1 << width
    exps = []
    for _ in range(arity):
        e = key & (full - 1)
        if e >= half:
            e -= full
        exps.append(e)
        key = (key - e) >> width
    return tuple(exps)


def mul_packed_into(acc, a, b):
    """kernel.mul_into for term maps keyed by packed exponent vectors: the
    monomial product is one int add, so there is no unit-key branch."""
    if acc is None:
        acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            prev = acc.get(key)
            if prev is None:
                acc[key] = ca * cb
            else:
                total = prev + ca * cb
                if total:
                    acc[key] = total
                else:
                    del acc[key]
    return acc


def packed_row(factors, row, context):
    """Row row of the ordered product of (op, targets) factors, as a map
    col -> nonzero LaurentPoly over context.  Each field holds the sum
    over the factors of their largest |exponent| of its variable."""
    reach = [0] * len(context)
    for op, _targets in factors:
        top = [0] * len(context)
        for poly in op.entries.values():
            for exps in poly.aligned(context).terms:
                top = [max(t, abs(e)) for t, e in zip(top, exps)]
        reach = [r + t for r, t in zip(reach, top)]
    width = 1 + max(reach, default=0).bit_length()
    prepared = []
    for op, targets in reversed(factors):
        by_row = {}
        for (r, c), poly in op.entries.items():
            terms = {pack(e, width): x for e, x in poly.aligned(context).terms.items()}
            by_row.setdefault(r, []).append((c, terms))
        prepared.append((tuple(p - 1 for p in targets), by_row))
    vector = column_product(prepared, row, {0: 1}, mul_packed_into)
    return {
        col: LaurentPoly._raw(
            context, {unpack(key, len(context), width): x for key, x in terms.items()}
        )
        for col, terms in vector.items()
    }
