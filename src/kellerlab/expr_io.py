"""Parsing and printing of polynomials, map files, and system files.

Expression grammar (recursive descent, precedence climbing):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := base ('^' INTEGER)*
    base   := NUMBER | NAME | '(' expr ')'

Numbers are integer or rational literals `p/q` with no embedded spaces;
exponents are number literals of non-negative integer value; implicit
multiplication is forbidden.

The parser reads the text at offsets with compiled regular expressions and
builds no token list.  One match of `_FACTOR` reads a factor with the
whitespace around it: unary minuses, then a number or a name together with
its chain of `^` exponents, or a `(`.  A term is kept as an integer
numerator, an integer denominator and an exponent list, and becomes one
Fraction when it is added to its expression's term map.  A parenthesised
sub-expression is one recursive `expr` call and becomes a `Polynomial`; its
products with single terms and powers of single terms skip packing
(`Polynomial.__mul__`, `__pow__`).  Only a text with an error is read as
tokens from its start, so that a lexical error anywhere in it (a bad
character, `p/` or `p/0`) is reported before a syntax error ahead of it.

A power of a base with more than one term is expanded, so its degree is
capped at MAX_POWER_DEGREE and its term count, bounded before expanding by
C(degree + k, k) for a base in k variables, at MAX_POWER_TERMS:
`(x+y+1)^200` and `(x+y+z+w+1)^24` are ParseErrors at the `^`, not 20301 and
20475 terms.  A product of two factors with more than one term is bounded
the same way, by the smaller of |a|*|b| and C(deg a + deg b + k, k), so
`(x+y+z+w+1)^20*(x+y+z+w+1)^20` is a ParseError at the `*`.  A power c^e
of a coefficient c other than 0 and ±1, of a number or of a single term
such as `(9*x)^e`, is refused at the `^` when bit_length(c)·e passes
MAX_POWER_BITS; numbers written out in digits are not capped.  A '(' nested
more than MAX_NESTING_DEPTH deep is refused at that '('.  Map files are the
line-oriented format

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
import re
from dataclasses import dataclass, field
from fractions import Fraction

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
# Largest bound bit_length(c) * e on the bits of a power c^e of a coefficient:
# `3^3000000` is a ParseError, not 1.4 million digits.
MAX_POWER_BITS = 1 << 16
# Deepest nesting of parentheses.  The scanner recurses once per '(', so a
# deeper '(' is a ParseError at that '(' well before the interpreter's
# recursion limit; the bundled and hard-tier maps nest at most 3 deep.
MAX_NESTING_DEPTH = 256

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


# ---- parser ----

# A factor and the whitespace around it: unary minuses, then a number p or
# p/q or a name with its chain of ^ links, or a '('.  An exponent is a number
# of integer value, so it may be written p/q where q divides p.
_CHAIN = r"((?:\s*\^\s*\d+(?:/\d+)?(?![\d/]))*)\s*"
_FACTOR = re.compile(r"([\s-]*)(?:(?:(\d+)(?:/(\d+))?|(\w+))" + _CHAIN + r"|\(\s*)")
_CLOSED_CHAIN = re.compile(_CHAIN)  # the chain after a ')'
_LINK = re.compile(r"\^\s*(\d+)(?:/(\d+))?")
_SIGNS = re.compile(r"[\s-]*")
_SPACE = re.compile(r"\s*")
# one token, for error messages and the lexical check of a text with an error
_TOKEN = re.compile(r"\s*(?:(\d+)(?:(/)(\d*))?|(\w+)|[-+*^()])")
_WORD = re.compile(r"\w+")


def _starts_name(word) -> bool:
    """True when a run of word characters is a name token: it starts with a
    letter or '_', not with a digit or another character such as '²'."""
    return word[:1].isalpha() or word[:1] == "_"


class _Scanner:
    """Recursive descent over the text at offsets, one `expr` call per
    parenthesised sub-expression."""

    __slots__ = ("text", "line", "column", "variables", "index")

    def __init__(self, text, variables, line, column):
        self.text = text
        self.line = line
        self.column = column
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables) if _starts_name(v)}

    def expr(self, pos, depth):
        """(Polynomial, offset after it) of the expression at pos inside depth
        parentheses, which ends at the end of the text, or at a ')' (read)
        when depth > 0."""
        text = self.text
        match = _FACTOR.match
        index = self.index
        nvars = len(self.variables)
        acc = {}
        sign = 1
        while True:
            # the term: num/den * x^exps, times poly once a factor has parentheses
            num, den, exps, poly, star = sign, 1, [0] * nvars, None, None
            while True:
                m = match(text, pos)
                if m is None:
                    self.fail_factor(pos)
                minus, digits, denom, name, chain = m.groups()
                pos = m.end()
                if minus.count("-") & 1:
                    num = -num
                q = None
                if name is not None:
                    i = index.get(name)
                    if i is None:
                        self.fail(f"unknown variable {name!r}", m.start(4))
                    exps[i] += self.exponent(chain, m.start(5)) if chain else 1
                elif digits is not None:
                    c, d = parse_int(digits), 1
                    if denom is not None:
                        d = parse_int(denom)
                        if not d:
                            self.fail("zero denominator", m.start(3))
                        g = math.gcd(c, d)
                        c, d = c // g, d // g
                    for caret, e in self.links(chain, m.start(5)) if chain else ():
                        self.cap_bits(c, d, e, caret)
                        c, d = c**e, d**e
                    num *= c
                    den *= d
                else:
                    if depth == MAX_NESTING_DEPTH:
                        cap = f"the cap of {MAX_NESTING_DEPTH}"
                        self.fail(f"parentheses nested deeper than {cap}", m.end(1))
                    q, pos = self.expr(pos, depth + 1)
                    m = _CLOSED_CHAIN.match(text, pos)
                    pos = m.end()
                    for caret, e in self.links(m[1], m.start(1)) if m[1] else ():
                        q = self.power(q, e, caret)
                ch = text[pos : pos + 1]
                if ch == "^":
                    self.fail_exponent(pos)
                if q is not None:
                    p = self.times(poly, num, den, exps)
                    num, den, exps = 1, 1, [0] * nvars
                    if len(p.terms) > 1 and len(q.terms) > 1:
                        k = len(p.support_variables() | q.support_variables())
                        degree = p.total_degree() + q.total_degree()
                        bound = min(len(p.terms) * len(q.terms), math.comb(degree + k, k))
                        self.cap_terms("product", bound, star)
                    poly = p * q
                if ch != "*":
                    break
                star = pos
                pos += 1
            if poly is not None:
                _add_terms(acc, self.times(poly, num, den, exps).terms)
            elif num:
                _add_terms(acc, {tuple(exps): Fraction(num, den) if den != 1 else Fraction(num)})
            if ch == "+" or ch == "-":
                sign = 1 if ch == "+" else -1
                pos += 1
            elif depth:
                if ch != ")":
                    self.fail("expected ')'", pos)
                return Polynomial._raw(self.variables, acc), pos + 1
            else:
                if ch:
                    self.fail(f"unexpected token {self.token(pos)!r}", pos)
                return Polynomial._raw(self.variables, acc), pos

    def times(self, poly, num, den, exps):
        """poly * num/den * x^exps, with None for poly standing for 1."""
        if poly is not None and num == den and not any(exps):
            return poly
        t = Polynomial._raw(self.variables, {tuple(exps): Fraction(num, den)} if num else {})
        return t if poly is None else poly * t

    def exponent(self, chain, start):
        """The product of the exponents of the chain at offset start."""
        if chain[1:].isdecimal():  # one link '^INT'
            return parse_int(chain[1:])
        return math.prod(e for _, e in self.links(chain, start))

    def links(self, chain, start):
        """(offset of the '^', exponent) of each link of the chain at start."""
        for m in _LINK.finditer(self.text, start, start + len(chain)):
            e = parse_int(m[1])
            if m[2] is not None:
                d = parse_int(m[2])
                if not d:
                    self.fail("zero denominator", m.start(2))
                if e % d:
                    self.fail("non-integer exponent", m.start(1))
                e //= d
            yield m.start(), e

    def power(self, p, e, caret):
        """p^e for a Polynomial p, under the caps."""
        if len(p.terms) > 1:
            degree = p.total_degree() * e
            if degree > MAX_POWER_DEGREE:
                self.fail(f"power of degree {degree} exceeds the cap of {MAX_POWER_DEGREE}", caret)
            k = len(p.support_variables())
            self.cap_terms("power", math.comb(degree + k, k), caret)
        elif p.terms:
            ((_, c),) = p.terms.items()
            self.cap_bits(c.numerator, c.denominator, e, caret)
        return p**e

    def cap_terms(self, what, bound, pos):
        if bound > MAX_POWER_TERMS:
            cap = f"the cap of {MAX_POWER_TERMS} terms"
            self.fail(f"{what} of up to {bound} terms exceeds {cap}", pos)

    def cap_bits(self, num, den, e, caret):
        """Refuse (num/den)^e when bit_length * e passes MAX_POWER_BITS; a
        coefficient of magnitude 0 or 1 never grows."""
        bits = max(num.bit_length(), den.bit_length()) * e
        if bits > e and bits > MAX_POWER_BITS:
            cap = f"the cap of {MAX_POWER_BITS} bits"
            self.fail(f"power of a coefficient of up to {bits} bits exceeds {cap}", caret)

    def fail_factor(self, pos):
        """The error of a text at pos that does not start a factor."""
        pos = _SIGNS.match(self.text, pos).end()
        if pos == len(self.text):
            self.fail("unexpected end of input", pos)
        self.fail(f"unexpected token {self.token(pos)!r}", pos)

    def fail_exponent(self, caret):
        """The error of a '^' at caret not followed by a number of integer value."""
        pos = _SPACE.match(self.text, caret + 1).end()
        negative = self.text.startswith("-", pos)
        self.fail("negative exponent" if negative else "expected integer exponent", pos)

    def token(self, pos):
        m = _TOKEN.match(self.text, pos)
        return m[0] if m else self.text[pos]

    def fail(self, message, pos):
        """Raise the first lexical error of the text, as the tokens of the
        grammar would, or `message` at pos if there is none."""
        text, at = self.text, 0
        # up to the end, a character no token starts with, or a word like '²x'
        while (m := _TOKEN.match(text, at)) and (m[4] is None or _starts_name(m[4])):
            if m[2] and not m[3]:
                message, pos = "expected digits after '/' in rational literal", m.start(2)
                break
            if m[3] and not parse_int(m[3]):
                message, pos = "zero denominator", m.start(3)
                break
            at = m.end()
        else:
            at = _SPACE.match(text, at).end()
            if at < len(text):
                message, pos = f"unexpected character {text[at]!r}", at
        bol = text.rfind("\n", 0, pos)  # columns count from 1 in each line
        column = pos - bol if bol >= 0 else pos + self.column
        raise ParseError(message, self.line + text.count("\n", 0, pos), column)


def parse_polynomial(text: str, variables, line=1, column=1) -> Polynomial:
    """Parse an expression over the declared variables."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return _Scanner(text, variables, line, column).expr(0, 0)[0]


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
    if not (_WORD.fullmatch(name) and _starts_name(name)):
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
