"""Exact sparse Laurent polynomials over the rationals.

A polynomial carries an ordered tuple of variable names (kept sorted, so
equal polynomials have identical storage) and a sparse mapping from integer
exponent vectors to nonzero exact coefficients (int when integral, Fraction
otherwise; the two forms compare and hash equal).  Negative exponents are
allowed.  Variable sets are aligned by padding exponent vectors over the
sorted union of names, never by renaming.

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

_VAR_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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


def format_rational(value):
    """Render a Fraction as "p" or "p/q" (the parse_rational inverse)."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _coerce_scalar(value):
    """Normalize an exact scalar: plain int when integral, Fraction otherwise.

    Integral values are kept as machine ints so the arithmetic hot paths
    stay on native integer operations; int and Fraction compare and hash
    equal, so the two storage forms are interchangeable.
    """
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


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
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} has arity {len(exps)}, expected {len(variables)}"
                )
            if any(not isinstance(e, int) for e in exps):
                raise ValueError(f"non-integer exponent in {exps}")
            coeff = _coerce_scalar(coeff)
            if coeff == 0:
                continue
            key = tuple(exps[i] for i in order)
            prev = clean.get(key)
            if prev is None:
                clean[key] = coeff
            else:
                total = prev + coeff
                if total:
                    clean[key] = total
                else:
                    del clean[key]
        object.__setattr__(self, "variables", sorted_vars)
        object.__setattr__(self, "terms", clean)

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
        """Re-express over a superset variable tuple (padding with exponent 0)."""
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
        if self.variables == other.variables:
            ctx, a, b = self.variables, self, other
        else:
            ctx = LaurentPoly._union_vars(self, other)
            a, b = self.aligned(ctx), other.aligned(ctx)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            prev = terms.get(exps)
            if prev is None:
                terms[exps] = coeff
            else:
                total = prev + coeff
                if total:
                    terms[exps] = total
                else:
                    del terms[exps]
        return LaurentPoly._raw(ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.variables)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly._raw(self.variables, {})
            return LaurentPoly._raw(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.variables == other.variables:
            ctx, a, b = self.variables, self, other
        else:
            ctx = LaurentPoly._union_vars(self, other)
            a, b = self.aligned(ctx), other.aligned(ctx)
        terms = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(map(operator.add, ea, eb))
                prev = terms.get(key)
                if prev is None:
                    terms[key] = ca * cb
                else:
                    total = prev + ca * cb
                    if total:
                        terms[key] = total
                    else:
                        del terms[key]
        return LaurentPoly._raw(ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
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
        terms = {}
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
                key = tuple(vec)
                total = terms.get(key, Fraction(0)) + c
                if total:
                    terms[key] = total
                else:
                    del terms[key]
        return LaurentPoly(new_vars, terms)

    # -- interrogation -----------------------------------------------------

    def term_items(self):
        """Canonically ordered (exponent-dict, coefficient) pairs."""
        for exps in sorted(self.terms):
            yield dict(zip(self.variables, exps)), self.terms[exps]

    def filtered(self, keep):
        """Sub-sum of terms whose exponent dict satisfies the predicate."""
        terms = {
            exps: coeff
            for exps, coeff in self.terms.items()
            if keep(dict(zip(self.variables, exps)))
        }
        return LaurentPoly(self.variables, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = format_rational(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(coeff))}*{mono}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"
