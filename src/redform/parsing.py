"""Parsing and printing of field-element expressions.

Grammar: integer literals, `i`, one variable symbol, `+ - * / ^`, parentheses;
`^` takes nonnegative integer exponents.  Everything printed here reparses to
the same value.
"""

from __future__ import annotations

from .field import GaussRational, UniPoly, RatFunc, GR_ONE

__all__ = ["ParseError", "parse_ratfunc", "degree_bound", "format_ratfunc",
           "format_gauss"]


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_OPS = set("+-*/^(),")


def _tokenize(text):
    toks = []
    line, col = 1, 1
    k = 0
    while k < len(text):
        ch = text[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch.isspace():
            k += 1
            col += 1
            continue
        if ch in _OPS:
            toks.append((ch, ch, line, col))
            k += 1
            col += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", text[k:j], line, col))
            col += j - k
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[k:j], line, col))
            col += j - k
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("end", "", line, col))
    return toks


class _Degrees:
    """Bounds on the numerator and denominator degrees of an expression as
    written: the parser evaluates into this instead of RatFunc to size an
    expression without doing its arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(0, 0)

    @classmethod
    def x(cls):
        return cls(1, 0)

    def is_zero(self):
        return False

    def __neg__(self):
        return self

    def __add__(self, other):
        return _Degrees(max(self.num + other.den, other.num + self.den),
                        self.den + other.den)

    __sub__ = __add__

    def __mul__(self, other):
        return _Degrees(self.num + other.num, self.den + other.den)

    def __truediv__(self, other):
        return _Degrees(self.num + other.den, self.den + other.num)

    def __pow__(self, n):
        return _Degrees(self.num * n, self.den * n)


class _Parser:
    """Recursive descent over the tokens, evaluating into ``kind``: RatFunc,
    or _Degrees for a degree bound."""

    def __init__(self, text, var, kind=RatFunc):
        self.toks = _tokenize(text)
        self.pos = 0
        self.var = var
        self.kind = kind

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg):
        kind, val, line, col = self.peek()
        raise ParseError(msg, line, col)

    def parse(self):
        v = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected token {self.peek()[1]!r}")
        return v

    def expr(self):
        kind = self.peek()[0]
        neg = False
        if kind in ("+", "-"):
            neg = self.next()[0] == "-"
        v = self.term()
        if neg:
            v = -v
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            w = self.factor()
            if op == "/":
                if w.is_zero():
                    self.fail("division by zero")
                v = v / w
            else:
                v = v * w
        return v

    def factor(self):
        v = self.atom()
        if self.peek()[0] == "^":
            self.next()
            kind, val, line, col = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", line, col)
            v = v ** int(val)
        return v

    def atom(self):
        kind, val, line, col = self.next()
        if kind == "int":
            return self.kind.const(int(val))
        if kind == "name":
            if val == "i":
                return self.kind.const(GaussRational(0, 1))
            if val == self.var:
                return self.kind.x()
            raise ParseError(f"unknown symbol {val!r} (variable is {self.var!r})",
                             line, col)
        if kind == "(":
            v = self.expr()
            kind2, _, line2, col2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", line2, col2)
            return v
        if kind == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {val!r}", line, col)


def parse_ratfunc(text: str, var: str) -> RatFunc:
    """Parse an expression string into a rational function in the given variable."""
    return _Parser(text, var).parse()


def degree_bound(text: str, var: str) -> int:
    """Upper bound on the degrees of the numerator and denominator of the
    expression as written (before cancellation), found without arithmetic."""
    d = _Parser(text, var, _Degrees).parse()
    return max(d.num, d.den)


def format_gauss(c: GaussRational) -> str:
    """Print an element of Q(i); the result reparses."""

    def rat(q):
        return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if c.im == 0:
        return rat(c.re)
    im = "i" if c.im == 1 else ("-i" if c.im == -1 else f"{rat(c.im)}*i")
    if c.re == 0:
        return im
    sign = "+" if c.im > 0 else "-"
    imabs = "i" if abs(c.im) == 1 else f"{rat(abs(c.im))}*i"
    return f"({rat(c.re)}{sign}{imabs})"


def _format_monomial(c: GaussRational, k: int, var: str) -> str:
    if k == 0:
        return format_gauss(c)
    xs = var if k == 1 else f"{var}^{k}"
    if c == GR_ONE:
        return xs
    if c == GaussRational(-1):
        return f"-{xs}"
    return f"{format_gauss(c)}*{xs}"


def format_poly(p: UniPoly, var: str) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        s = _format_monomial(c, k, var)
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


def format_ratfunc(f: RatFunc, var: str) -> str:
    """Print a rational function; the result reparses to the same value."""
    num = format_poly(f.num, var)
    if f.den == UniPoly([1]):
        return num
    den = format_poly(f.den, var)
    if num.startswith("-") or "+" in num[1:] or "-" in num[1:]:
        num = f"({num})"
    if den.startswith("-") or "+" in den[1:] or "-" in den[1:] or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"
