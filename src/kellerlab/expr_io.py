"""Parsing and printing of polynomials, map files, and system files.

Expression grammar (recursive descent, precedence climbing):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := base ('^' INTEGER)*
    base   := NUMBER | NAME | '(' expr ')'

Numbers are integer or rational literals `p/q` with no embedded spaces;
exponents are non-negative integer literals; implicit multiplication is
forbidden.

A product of numbers and variable powers, such as `3*x1^2*x2`, is built as
one (Fraction, exponent tuple) term and added straight into its
expression's term map.  A `Polynomial` is built only for a parenthesised
sub-expression, and its products with single terms and powers of single
terms skip packing (`Polynomial.__mul__`, `__pow__`).  A power of a base
with more than one term is expanded, so its
degree is capped at MAX_POWER_DEGREE and its term count, bounded before
expanding by C(degree + k, k) for a base in k variables, at MAX_POWER_TERMS:
`(x+y+1)^200` and `(x+y+z+w+1)^24` are ParseErrors at the `^`, not 20301 and
20475 terms.  A product of two factors with more than one term is bounded
the same way, by the smaller of |a|*|b| and C(deg a + deg b + k, k), so
`(x+y+z+w+1)^20*(x+y+z+w+1)^20` is a ParseError at the `*`.  Map files are
the line-oriented format

    # comment
    name: some-label          (optional metadata before the header)
    vars: x1 x2 ... xn
    F1 = <expr>
    ...
    Fn = <expr>

System files share the grammar, with one bare expression per line
(`<expr> = 0` implied) instead of `Fi =` lines.  Both formats share one
header reader, body loop and header writer; `load_map_file` and
`load_system_file` skip a leading byte-order mark.  A metadata key is an
identifier other than `vars`, and the writers refuse an entry or body line
that would not read back as written (a `#`, a line break or surrounding
spaces).  Error columns count from 1 at the start of the line, in an
expression as in either file format.

Numbers are read and printed exactly at any length, past the interpreter's
4300-digit limit on int/str conversion too (`parse_int`, `format_int`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .errors import ParseError
from .polyring import Polynomial, PolyMap, _add_terms

# Largest total degree of an expanded power of a base with more than one
# term.  The bundled and hard-tier maps need 3; (x+y+1)^60 must still parse.
MAX_POWER_DEGREE = 64
# Largest bound C(deg + k, k) on the terms of such a power, with k the number
# of variables in its base: (x+y+z+w+1)^20 (10626 terms) must still parse.
# A product of two factors with more than one term is held to the same cap,
# bounded by the smaller of |a|*|b| and C(deg a + deg b + k, k).
MAX_POWER_TERMS = 20000

# ---- integers of any length ----

# int() and str() refuse more decimal digits than sys.get_int_max_str_digits()
# allows: 4300 by default, and never fewer than 640 unless the limit is off.
# Within 640 digits they are used as they are; past that the number is split.
_FAST_DIGITS = 640
_FAST_BITS = 2000  # 2^2000 < 10^640


def parse_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length.

    The two halves are read on their own and joined, so the interpreter's
    limit on int/str conversion does not apply."""
    if len(digits) <= _FAST_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return parse_int(digits[:-k]) * 10**k + parse_int(digits[-k:])


def format_int(n: int) -> str:
    """str(n) for an int of any size; the inverse of parse_int."""
    if n.bit_length() <= _FAST_BITS:
        return str(n)
    if n < 0:
        return "-" + format_int(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, as log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return format_int(high) + format_int(low).zfill(k)


# ---- tokenizer ----

_OPS = set("+-*^()")


class _Token(NamedTuple):
    kind: str  # number | name | op | end
    text: str
    value: object
    line: int
    column: int


def _is_name_start(ch):
    return ch.isalpha() or ch == "_"


def _is_name_char(ch):
    return ch.isalnum() or ch == "_"


def _tokenize(text, line=1, column=1):
    """Tokens of `text`, which starts at (line, column), lazily, ending with
    one 'end' token.  Columns count from 1 at the start of each line."""
    i = 0
    n = len(text)
    bol = -column  # text[i] is at column i - bol
    while i < n:
        ch = text[i]
        if ch.isspace():
            if ch == "\n":
                line += 1
                bol = i
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            value = Fraction(parse_int(text[i:j]))
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise ParseError(
                        "expected digits after '/' in rational literal", line, j - bol
                    )
                den = parse_int(text[j + 1 : k])
                if den == 0:
                    raise ParseError("zero denominator", line, j + 1 - bol)
                value /= den
                j = k
            yield _Token("number", text[i:j], value, line, i - bol)
            i = j
        elif _is_name_start(ch):
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            yield _Token("name", text[i:j], text[i:j], line, i - bol)
            i = j
        elif ch in _OPS:
            yield _Token("op", ch, ch, line, i - bol)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, i - bol)
    yield _Token("end", "", None, line, n - bol)


# ---- parser ----


_ONE = Fraction(1)


class _Parser:
    """Recursive descent over a token stream, one token of lookahead.

    `term`, `factor`, `atom` and `base` return a product of numbers and
    variable powers as one (Fraction, exponent tuple) pair, which `expr`
    adds into its term map as it is.  Only a parenthesised sub-expression is
    a Polynomial, and only a product or power that takes one in builds
    another."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.cur = next(tokens)
        self.variables = tuple(variables)
        # the zero exponent tuple, and each variable's own
        self.zero = zero = (0,) * len(self.variables)
        self.units = {v: zero[:i] + (1,) + zero[i + 1 :] for i, v in enumerate(self.variables)}

    def advance(self):
        tok = self.cur
        self.cur = next(self.tokens)
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.cur
        # a lexical error anywhere in the text wins over this one: drain the
        # rest of the stream, which raises at the first bad character
        for _ in self.tokens:
            pass
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.cur.kind != "end":
            self.fail(f"unexpected token {self.cur.text!r}")
        return p

    def polynomial(self, t) -> Polynomial:
        """A term pair as a Polynomial; a Polynomial as it is."""
        if type(t) is not tuple:
            return t
        c, m = t
        return Polynomial._raw(self.variables, {m: c} if c else {})

    def expr(self) -> Polynomial:
        # add each term into one term map, not p + q per term
        acc = {}
        sign = 1
        while True:
            t = self.term()
            if type(t) is not tuple:
                _add_terms(acc, t.terms, sign)
            elif t[0]:
                _add_terms(acc, {t[1]: t[0] if sign > 0 else -t[0]})
            if not (self.cur.kind == "op" and self.cur.text in "+-"):
                return Polynomial._raw(self.variables, acc)
            sign = 1 if self.advance().text == "+" else -1

    def term(self):
        p = self.factor()
        while self.cur.kind == "op" and self.cur.text == "*":
            star = self.advance()
            q = self.factor()
            if type(p) is tuple and type(q) is tuple:
                p = (p[0] * q[0], tuple(map(add, p[1], q[1])))
                continue
            p, q = self.polynomial(p), self.polynomial(q)
            if len(p.terms) > 1 and len(q.terms) > 1:
                k = len(p.support_variables() | q.support_variables())
                degree = p.total_degree() + q.total_degree()
                bound = min(len(p.terms) * len(q.terms), math.comb(degree + k, k))
                self.cap_terms("product", bound, star)
            p = p * q
        return p

    def cap_terms(self, what, bound, tok):
        if bound > MAX_POWER_TERMS:
            self.fail(
                f"{what} of up to {bound} terms exceeds the cap of "
                f"{MAX_POWER_TERMS} terms",
                tok,
            )

    def factor(self):
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            t = self.factor()
            return (-t[0], t[1]) if type(t) is tuple else -t
        return self.atom()

    def atom(self):
        p = self.base()
        while self.cur.kind == "op" and self.cur.text == "^":
            caret = self.advance()
            e = self.exponent()
            if type(p) is tuple:
                p = (p[0] ** e, tuple(x * e for x in p[1]))
                continue
            degree = p.total_degree() * e
            if len(p.terms) > 1:
                if degree > MAX_POWER_DEGREE:
                    self.fail(
                        f"power of degree {degree} exceeds the cap of {MAX_POWER_DEGREE}",
                        caret,
                    )
                k = len(p.support_variables())
                self.cap_terms("power", math.comb(degree + k, k), caret)
            p = p**e
        return p

    def exponent(self) -> int:
        tok = self.cur
        if tok.kind == "op" and tok.text == "-":
            self.fail("negative exponent")
        if tok.kind != "number":
            self.fail("expected integer exponent")
        if tok.value.denominator != 1:
            self.fail("non-integer exponent")
        self.advance()
        return int(tok.value)

    def base(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return (tok.value, self.zero)
        if tok.kind == "name":
            if tok.text not in self.units:
                self.fail(f"unknown variable {tok.text!r}")
            self.advance()
            return (_ONE, self.units[tok.text])
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            p = self.expr()
            if not (self.cur.kind == "op" and self.cur.text == ")"):
                self.fail("expected ')'")
            self.advance()
            return p
        if tok.kind == "end":
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {tok.text!r}")


def parse_polynomial(text: str, variables, line=1, column=1) -> Polynomial:
    """Parse an expression over the declared variables."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return _Parser(_tokenize(text, line, column), variables).parse()


# ---- printing ----


def _print_sort_key(item):
    exps, _ = item
    return (sum(exps), tuple(-e for e in exps))


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return format_int(value.numerator)
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


def _format_monomial(variables, exps) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_polynomial(p: Polynomial) -> str:
    """Canonical text form: ascending total degree, lex-descending within it.

    Round-trips through parse_polynomial over the same variables.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coef in sorted(p.terms.items(), key=_print_sort_key):
        mono = _format_monomial(p.variables, exps)
        mag = abs(coef)
        if not mono:
            body = format_fraction(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_fraction(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coef < 0 else body)
        else:
            pieces.append(f"{' - ' if coef < 0 else ' + '}{body}")
    return "".join(pieces)


# ---- map and system files ----


@dataclass(frozen=True)
class MapFile:
    """Parsed on-disk description of a polynomial map."""

    variables: tuple
    components: tuple  # expression strings
    metadata: dict = field(default_factory=dict)
    # the components as parsed by parse_map_file; None for a hand-built file
    parsed: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.components)

    def to_poly_map(self) -> PolyMap:
        if self.parsed is not None:
            return PolyMap(list(self.parsed))
        return PolyMap(
            [parse_polynomial(expr, self.variables) for expr in self.components]
        )


@dataclass(frozen=True)
class SystemFile:
    """Equations `expr = 0`, one expression per line."""

    variables: tuple
    equations: tuple  # expression strings
    metadata: dict = field(default_factory=dict)
    # the equations as parsed by parse_system_file; None for a hand-built file
    parsed: tuple | None = field(default=None, compare=False, repr=False)

    def to_polynomials(self):
        if self.parsed is not None:
            return list(self.parsed)
        return [parse_polynomial(expr, self.variables) for expr in self.equations]


def _check_name(name, lineno, col):
    if not (name and _is_name_start(name[0]) and all(_is_name_char(c) for c in name)):
        raise ParseError(f"bad identifier {name!r}", lineno, col)


def _parse_header_lines(text):
    """Common metadata/vars/body splitting for map and system files."""
    metadata = {}
    variables = None
    body = []  # (lineno, content) after the vars: header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line.strip():
            continue
        if variables is None:
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected 'key: value' or 'vars:' header", lineno, 1)
            key = head.strip()
            key_column = 1 + len(head) - len(head.lstrip())
            _check_name(key, lineno, key_column)
            if key == "vars":
                names = rest.split()
                if not names:
                    raise ParseError("empty variable list", lineno, len(head) + 2)
                start = 0  # offset in rest, whose column is len(head) + 2
                for name in names:
                    start = rest.index(name, start)
                    _check_name(name, lineno, len(head) + 2 + start)
                    start += len(name)
                if len(set(names)) != len(names):
                    raise ParseError("duplicate variable name", lineno, len(head) + 2)
                variables = tuple(names)
            elif key in metadata:
                raise ParseError(f"duplicate metadata key {key!r}", lineno, key_column)
            else:
                metadata[key] = rest.strip()
        else:
            body.append((lineno, line))
    if variables is None:
        raise ParseError("missing 'vars:' header", 1, 1)
    return metadata, variables, body


def _parse_file(text, labelled, empty):
    """Variables, expression strings, metadata and polynomials of a map file
    (`labelled`: each body line is `Fi = <expr>`) or of a system file."""
    metadata, variables, body = _parse_header_lines(text)
    exprs = []
    parsed = []
    for lineno, line in body:
        start = 0  # offset of the expression's part of the line
        if labelled:
            lhs, sep, _ = line.partition("=")
            if not sep:
                raise ParseError("expected 'Fi = <expr>'", lineno, 1)
            expected = f"F{len(exprs) + 1}"
            if lhs.strip() != expected:
                raise ParseError(f"expected component label {expected!r}", lineno, 1)
            start = len(lhs) + 1
        expr = line[start:].lstrip()
        column = 1 + len(line) - len(expr)
        parsed.append(parse_polynomial(expr, variables, line=lineno, column=column))
        exprs.append(expr)
    if not exprs:
        raise ParseError(empty, 1, 1)
    return variables, tuple(exprs), metadata, tuple(parsed)


def _format_file(f, exprs, labelled) -> str:
    """The text of a map or system file, each header line checked with
    `_parse_header_lines` and each body line for what the reader would change."""
    variables = tuple(f.variables)
    vars_line = "vars: " + " ".join(variables)
    lines = [f"{k}: {v}" for k, v in f.metadata.items()]
    checks = [(vars_line, {}, f"variable list {variables!r}")] + [
        (f"{line}\n{vars_line}", {k: v}, f"metadata entry {k!r}: {v!r}")
        for (k, v), line in zip(f.metadata.items(), lines)
    ]
    for header, metadata, what in checks:
        try:
            back = _parse_header_lines(header)
        except ParseError:
            back = None
        if back != (metadata, variables, []):
            raise ValueError(f"{what} would not read back from a file header")
    lines.append(vars_line)
    for i, expr in enumerate(exprs, start=1):
        if "#" in expr or expr.strip().splitlines() != [expr]:
            raise ValueError(f"body line {i} {expr!r} would not read back from a file")
        lines.append(f"F{i} = {expr}" if labelled else expr)
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        return fh.read()


def parse_map_file(text: str) -> MapFile:
    return MapFile(*_parse_file(text, True, "map file declares no components"))


def format_map_file(mf: MapFile) -> str:
    return _format_file(mf, mf.components, labelled=True)


def map_file_from_poly_map(F: PolyMap, metadata=None) -> MapFile:
    return MapFile(
        variables=F.variables,
        components=tuple(print_polynomial(c) for c in F.components),
        metadata=dict(metadata or {}),
    )


def load_map_file(path) -> MapFile:
    return parse_map_file(_read_text(path))


def parse_system_file(text: str) -> SystemFile:
    return SystemFile(*_parse_file(text, False, "system file declares no equations"))


def format_system_file(sf: SystemFile) -> str:
    return _format_file(sf, sf.equations, labelled=False)


def load_system_file(path) -> SystemFile:
    return parse_system_file(_read_text(path))
