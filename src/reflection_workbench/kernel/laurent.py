"""Exact sparse Laurent polynomials over the rationals.

A polynomial carries an ordered tuple of variable names (kept sorted, so
equal polynomials have identical storage) and a sparse mapping from integer
exponent vectors to nonzero exact coefficients.  A coefficient enters as an
int when it is integral and a Fraction otherwise; arithmetic does not
normalize, so a product or sum may store an integral Fraction such as
Fraction(1, 1).  The two forms compare, hash and print the same.  Negative
exponents are allowed.  Variable sets are aligned by padding exponent
vectors over the sorted union of names, never by renaming.

Example:

    >>> u, v = LaurentPoly.var("u"), LaurentPoly.var("v")
    >>> p = (u - v - 1) * (u - v + 1)
    >>> p == (u - v) * (u - v) - 1
    True
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

RATIONAL_PATTERN = re.compile(r"^[+-]?\d+(/\d+)?$")

_VAR_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_rational(text):
    """Parse an exact rational literal "p" or "p/q".  Decimals are rejected."""
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not RATIONAL_PATTERN.match(stripped):
        raise ValueError(f"not an integer or fraction literal: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def require_int(what, value, least):
    """The one refusal of an integer argument: anything but an int >= least,
    a bool or an integral float included, raises ValueError."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def format_rational(value):
    """Render a Fraction as "p" or "p/q" (the parse_rational inverse)."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _coerce_scalar(value):
    """Normalize an exact scalar as it enters: plain int when integral,
    Fraction otherwise.  Arithmetic results do not pass through here, so
    they may hold an integral Fraction; int and Fraction compare, hash and
    print the same, so the two storage forms are interchangeable."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def add_into(acc, pairs):
    """Add (key, coefficient) pairs into the term map acc in place; a key
    whose coefficient cancels is deleted.  Returns acc."""
    for key, coeff in pairs:
        prev = acc.get(key)
        if prev is None:
            acc[key] = coeff
        else:
            total = prev + coeff
            if total:
                acc[key] = total
            else:
                del acc[key]
    return acc


def mul_into(acc, a, b):
    """Add the product of the term maps a and b into acc in place; returns acc.
    An acc of None starts a new map.

    Keys multiply componentwise with +, so exponent vectors add.  A key of
    a with no nonzero part (the unit monomial) leaves b's keys as they
    are, so those products skip the key sum.
    """
    if acc is None:
        acc = {}
    for ka, ca in a.items():
        shift = any(ka)
        for kb, cb in b.items():
            key = tuple(map(operator.add, ka, kb)) if shift else kb
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


def mul_series_into(acc, a, b, floor=None):
    """mul_into for mode-series keys (u exponent, v exponent, word): the
    exponents add and the words concatenate, a's word on the left.  A floor
    is a triple of lower bounds on the u and v exponents and on their sum;
    a product whose key falls below any one is skipped (see
    kernel.column_product).
    """
    if acc is None:
        acc = {}
    low_u = low_v = low_sum = None
    for (au, av, aw), ca in a.items():
        if floor is not None:
            low_u, low_v, low_sum = floor[0] - au, floor[1] - av, floor[2] - au - av
        for (bu, bv, bw), cb in b.items():
            if low_u is not None and (bu < low_u or bv < low_v or bu + bv < low_sum):
                continue
            key = (au + bu, av + bv, aw + bw)
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


def mul_shifted(acc, a, b):
    """mul_into for Kronecker-substituted entries, each one int: b is a
    polynomial evaluated at powers of two, and a lists a factor's terms as
    (shift, int coefficient) pairs, so the term c*x^e times b is
    (c * b) << shift.  Returns acc + a*b, with an acc of None read as 0.
    A coefficient +-1 skips the multiply, one pass less over a long b."""
    total = 0 if acc is None else acc
    for shift, c in a:
        if c == 1:
            total += b << shift
        elif c == -1:
            total -= b << shift
        else:
            total += (c * b) << shift
    return total


def signed_sum(pieces):
    """Render (nonzero coefficient, monomial text) pairs as "a - b + c":
    an empty monomial shows the coefficient alone, a unit coefficient is
    left off a nonempty monomial, and no pieces render as "0"."""
    out = ""
    for coeff, mono in pieces:
        magnitude = format_rational(abs(coeff))
        if not mono:
            body = magnitude
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if out:
            out += f" - {body}" if coeff < 0 else f" + {body}"
        else:
            out = f"-{body}" if coeff < 0 else body
    return out or "0"


class Frozen:
    """Base of the immutable value classes: attributes are set once at
    construction through object.__setattr__ and can be neither rebound
    nor deleted afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class LaurentPoly(Frozen):
    """Sparse multivariate Laurent polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables}")
        for name in variables:
            if not _VAR_PATTERN.match(name):
                raise ValueError(f"bad variable name: {name!r}")
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        sorted_vars = tuple(variables[i] for i in order)
        pairs = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} has arity {len(exps)}, expected {len(variables)}"
                )
            if any(type(e) is not int for e in exps):
                raise ValueError(f"non-integer exponent in {exps}")
            coeff = _coerce_scalar(coeff)
            if coeff:
                pairs.append((tuple(exps[i] for i in order), coeff))
        object.__setattr__(self, "variables", sorted_vars)
        object.__setattr__(self, "terms", add_into({}, pairs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw(variables, terms):
        """Wrap parts that already satisfy the class invariants.

        Internal fast path for arithmetic results: variables must be a
        sorted tuple of distinct valid names and terms a clean dict
        (aligned integer exponent tuples, nonzero exact coefficients).
        """
        poly = object.__new__(LaurentPoly)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    @staticmethod
    def zero(variables=()):
        return LaurentPoly(variables, {})

    @staticmethod
    def const(value, variables=()):
        variables = tuple(variables)
        return LaurentPoly(variables, {(0,) * len(variables): _coerce_scalar(value)})

    @staticmethod
    def var(name, exponent=1):
        return LaurentPoly((name,), {(exponent,): Fraction(1)})

    # -- alignment ---------------------------------------------------------

    def aligned(self, variables):
        """Re-express over a superset variable tuple (padding with exponent
        0); self itself when the tuple is its own, so aligning is free then."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        if list(variables) != sorted(variables):
            raise ValueError(f"alignment target must be sorted: {variables}")
        if not set(self.variables) <= set(variables):
            missing = set(self.variables) - set(variables)
            raise ValueError(f"alignment target drops variables {sorted(missing)}")
        pos = {name: i for i, name in enumerate(variables)}
        slots = [pos[name] for name in self.variables]
        terms = {}
        for exps, coeff in self.terms.items():
            vec = [0] * len(variables)
            for slot, e in zip(slots, exps):
                vec[slot] = e
            terms[tuple(vec)] = coeff
        return LaurentPoly._raw(variables, terms)

    @staticmethod
    def _union_vars(a, b):
        if a.variables == b.variables:
            return a.variables
        return tuple(sorted(set(a.variables) | set(b.variables)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.variables)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ctx = LaurentPoly._union_vars(self, other)
        terms = dict(self.aligned(ctx).terms)
        return LaurentPoly._raw(ctx, add_into(terms, other.aligned(ctx).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce_scalar(other)
            if not other:
                return LaurentPoly._raw(self.variables, {})
            return LaurentPoly._raw(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ctx = LaurentPoly._union_vars(self, other)
        terms = mul_into({}, self.aligned(ctx).terms, other.aligned(ctx).terms)
        return LaurentPoly._raw(ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        require_int("exponent", exponent, 0)
        result = LaurentPoly.const(1, self.variables)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.variables)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ctx = LaurentPoly._union_vars(self, other)
        return self.aligned(ctx).terms == other.aligned(ctx).terms

    __hash__ = None

    def is_zero(self):
        return not self.terms

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping):
        """Simultaneous substitution: variable -> (+/-)variable or rational point.

        String targets are "w" or "-w"; anything else is coerced to Fraction.
        The map must only mention variables of this polynomial.  Substituting
        0 into a negative power is an error.
        """
        norm = {}
        for src, tgt in mapping.items():
            if src not in self.variables:
                raise ValueError(f"unknown variable {src!r} (have {self.variables})")
            if isinstance(tgt, str):
                sign = 1
                name = tgt
                if name.startswith(("+", "-")):
                    sign = -1 if name[0] == "-" else 1
                    name = name[1:]
                if not _VAR_PATTERN.match(name):
                    raise ValueError(f"bad substitution target: {tgt!r}")
                norm[src] = ("var", name, sign)
            else:
                # Fraction even when integral: int ** negative would leave
                # exact arithmetic, Fraction ** negative stays exact
                norm[src] = ("num", Fraction(_coerce_scalar(tgt)), 1)
        kept = [v for v in self.variables if v not in norm]
        new_vars = tuple(
            sorted(set(kept) | {t[1] for t in norm.values() if t[0] == "var"})
        )
        pos = {name: i for i, name in enumerate(new_vars)}
        pairs = []
        for exps, coeff in self.terms.items():
            vec = [0] * len(new_vars)
            c = coeff
            for name, e in zip(self.variables, exps):
                action = norm.get(name)
                if action is None:
                    vec[pos[name]] += e
                elif action[0] == "var":
                    vec[pos[action[1]]] += e
                    if action[2] < 0 and e % 2:
                        c = -c
                else:
                    point = action[1]
                    if point == 0 and e < 0:
                        raise ValueError("substituting 0 into a negative power")
                    c *= point**e
            if c:
                pairs.append((tuple(vec), c))
        return LaurentPoly._raw(new_vars, add_into({}, pairs))

    # -- interrogation -----------------------------------------------------

    def filtered(self, keep):
        """Sub-sum of terms whose exponent dict satisfies the predicate."""
        terms = {
            exps: coeff
            for exps, coeff in self.terms.items()
            if keep(dict(zip(self.variables, exps)))
        }
        return LaurentPoly(self.variables, terms)

    def __str__(self):
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            factors = (
                name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exps) if e
            )
            pieces.append((self.terms[exps], "*".join(factors)))
        return signed_sum(pieces)

    def __repr__(self):
        return f"LaurentPoly({self})"
