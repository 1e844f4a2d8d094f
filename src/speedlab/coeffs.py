"""Time-space periodic coefficient fields and their expression language.

A coefficient is a closed-form expression in the variables t and x, sampled
on a uniform grid over one period cell [0, omega) x [0, ell).  Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' unary)*
    unary  := '-' unary | atom
    atom   := number | 't' | 'x' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'abs'

Whitespace is insignificant; numbers are decimal literals with an optional
exponent.  '^' is right-associative and binds the already-resolved unary,
so "-2^2" evaluates to 4.

An expression is evaluated on the grid as it is parsed, with float64
literals.  Malformed text, or nesting too deep for the parser's recursion,
raises ParseError; a non-finite sample, a constant "1/0" included, raises
EvalError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ParseError

# Relative tolerance deciding whether a structural symmetry holds.
SYMMETRY_TOL = 1e-10

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent that evaluates each production as it reads it, on the
    broadcastable sample arrays t and x; literals are float64, so a constant
    division by zero gives inf like any other non-finite sample."""

    def __init__(self, text, t, x):
        self.text = text
        self.t = t
        self.x = x
        self.tokens = []
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None or m.end() == pos:
                stripped = self.text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r} (at position {pos})")
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r} "
                             f"(at position {pos})")

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r} (at position {pos})")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = _BINARY[self.take()[1]]
            value = op(value, self.term())
        return value

    def term(self):
        value = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = _BINARY[self.take()[1]]
            value = op(value, self.factor())
        return value

    def factor(self):
        bases = [self.unary()]
        while self.peek()[:2] == ("op", "^"):
            self.take()
            bases.append(self.unary())
        value = bases.pop()
        for b in reversed(bases):  # right-associative
            value = np.power(b, value)
        return value

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return -self.unary()
        return self.atom()

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return np.float64(val)
        if kind == "name":
            if val == "t":
                return self.t
            if val == "x":
                return self.x
            if val in _CONSTANTS:
                return _CONSTANTS[val]
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _FUNCS[val](inner)
            raise ParseError(f"unknown name {val!r} (at position {pos})")
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a value, found {val or 'end of input'!r} "
                         f"(at position {pos})")


def evaluate_expression(text: str, t, x) -> np.ndarray:
    """Evaluate a coefficient expression on broadcastable arrays t and x.

    Raises ParseError (with position) on malformed text and EvalError on a
    non-finite sample.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(_Parser(text, t, x).parse(), dtype=float)
    except RecursionError:
        raise ParseError("expression nests too deeply for the parser") from None
    out = np.broadcast_to(out, np.broadcast_shapes(t.shape, x.shape)).copy()
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(out)))
        raise EvalError(f"non-finite value at grid node index {tuple(bad[0].tolist())}")
    return out


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientField:
    """One (omega, ell)-periodic scalar coefficient sampled on the period cell.

    values[j, k] is the sample at (t_j, x_k) with t_j = j*omega/nt and
    x_k = k*ell/nx.  Fields are immutable; arithmetic between fields on the
    same grid yields new fields.
    """

    omega: float
    ell: float
    values: np.ndarray
    expr: str | None = field(default=None, compare=False)

    def __post_init__(self):
        # one float C-ordered copy: reductions such as the period map's mean
        # shift then sum in one order, whatever array the field was built from
        v = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not (self.omega > 0 and self.ell > 0):
            raise ValueError("periods must be positive")
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("values must be an nt x nx array with nt, nx >= 2")
        if not np.all(np.isfinite(v)):
            raise EvalError("field contains non-finite samples")
        v.setflags(write=False)

    @property
    def nt(self):
        return self.values.shape[0]

    @property
    def nx(self):
        return self.values.shape[1]

    @property
    def dt(self):
        return self.omega / self.nt

    @property
    def dx(self):
        return self.ell / self.nx

    def evaluate(self, t, x):
        """Bilinear periodic interpolation; exact at grid nodes."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        ft = (t / self.dt) % self.nt
        fx = (x / self.dx) % self.nx
        j0 = np.floor(ft).astype(int) % self.nt
        k0 = np.floor(fx).astype(int) % self.nx
        wt = ft - np.floor(ft)
        wx = fx - np.floor(fx)
        j1 = (j0 + 1) % self.nt
        k1 = (k0 + 1) % self.nx
        v = self.values
        return ((1 - wt) * (1 - wx) * v[j0, k0] + (1 - wt) * wx * v[j0, k1]
                + wt * (1 - wx) * v[j1, k0] + wt * wx * v[j1, k1])

    def same_grid(self, other):
        return (self.omega == other.omega and self.ell == other.ell
                and self.nt == other.nt and self.nx == other.nx)

    def _combine(self, other, op, reverse=False):
        """op(self, other), or op(other, self) when reverse; a composed field
        carries no expression, so refine_field rejects it."""
        if isinstance(other, CoefficientField):
            if not self.same_grid(other):
                raise ValueError("field arithmetic requires matching grids")
            other = other.values
        else:
            other = float(other)
        values = op(other, self.values) if reverse else op(self.values, other)
        return CoefficientField(self.omega, self.ell, values)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._combine(other, np.subtract, reverse=True)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    def __rmul__(self, other):
        return self.__mul__(other)

    def min(self):
        return float(self.values.min())

    def max(self):
        return float(self.values.max())


@dataclass(frozen=True)
class SymmetryReport:
    """Structural symmetry flags of a field in x.

    A flag is true iff the field's max deviation from the symmetry is at
    most SYMMETRY_TOL relative to the field's max absolute value.
    """

    even_in_x: bool
    x_independent: bool


def build_field(expr: str, omega: float, ell: float, nt: int, nx: int) -> CoefficientField:
    """Sample an expression exactly on the periodic cell grid."""
    if not (omega > 0 and ell > 0):
        raise ValueError("periods must be positive")
    if nt < 2 or nx < 2:
        raise ValueError("need nt >= 2 and nx >= 2")
    t = (np.arange(nt) * (omega / nt))[:, None]
    x = (np.arange(nx) * (ell / nx))[None, :]
    return CoefficientField(omega, ell, evaluate_expression(expr, t, x), expr)


def refine_field(f: CoefficientField) -> CoefficientField:
    """Resample an expression-backed field on the grid doubled in t and x.

    Always a doubling: speeds.richardson extrapolates across exactly one.
    """
    if f.expr is None:
        raise ValueError("field carries no expression, cannot resample exactly")
    return build_field(f.expr, f.omega, f.ell, 2 * f.nt, 2 * f.nx)


def mean_and_symmetry(f: CoefficientField) -> tuple[float, SymmetryReport]:
    """Period-cell mean (plain node average, exact for periodic sampling) and symmetries."""
    v = f.values
    scale = float(np.max(np.abs(v)))
    tol = SYMMETRY_TOL * scale
    rx = v[:, (-np.arange(f.nx)) % f.nx]
    rep = SymmetryReport(
        even_in_x=float(np.max(np.abs(v - rx))) <= tol,
        x_independent=float(np.max(np.abs(v - v.mean(axis=1, keepdims=True)))) <= tol,
    )
    return float(v.mean()), rep
