import importlib.util
import os
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from kellerlab.bundled import bundled_names, bundled_text
from kellerlab.errors import ParseError
from kellerlab.expr_io import (
    MAX_NESTING_DEPTH,
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    MapFile,
    SystemFile,
    format_map_file,
    format_system_file,
    load_map_file,
    load_system_file,
    map_file_from_poly_map,
    parse_map_file,
    parse_polynomial,
    format_int,
    parse_int,
    parse_system_file,
    print_polynomial,
)
from kellerlab.polyring import Polynomial, PolyMap

from _support import (
    naive_mul,
    random_expression,
    random_poly_map,
    random_polynomial,
    reference_mul,
    reference_parse_polynomial,
    reference_pow,
)

V = ("x", "y")


def test_parse_simple():
    p = parse_polynomial("x + y^3", V)
    assert p == Polynomial.variable(V, "x") + Polynomial.variable(V, "y") ** 3


def test_parse_cube_expansion():
    # oracle: naive distribution of (x1 + 2 x2)^3
    lin = {(1, 0): 1, (0, 1): 2}
    expected = naive_mul(naive_mul(lin, lin), lin)
    p = parse_polynomial("(x1 + 2*x2)^3", ("x1", "x2"))
    assert p.terms == {m: Fraction(c) for m, c in expected.items()}


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable") as err:
        parse_polynomial("x + z", V)
    assert err.value.line == 1
    assert err.value.column == 5


def test_parse_rationals_and_unary_minus():
    p = parse_polynomial("-1/2*x + 3/4", V)
    assert p.coefficient((1, 0)) == Fraction(-1, 2)
    assert p.coefficient((0, 0)) == Fraction(3, 4)


def test_parse_matches_the_reference_builder_on_random_expressions():
    rng = random.Random(2626)
    rings = [(), ("x",), V, ("x1", "x2", "x3")]
    for _ in range(400):
        ring = rng.choice(rings)
        text, expected = random_expression(rng, ring)
        got = parse_polynomial(text, ring)
        assert got == expected, text
        assert all(type(c) is Fraction and c for c in got.terms.values()), text


def test_parse_single_terms_and_their_products():
    x, y = (Polynomial.variable(V, v) for v in V)

    def c(value):
        return Polynomial.constant(V, value)

    s = reference_mul(c(3), x) + y  # a parenthesised sum, 3*x + y
    cases = {
        "--x": x,
        "-x*-y": reference_mul(x, y),
        "0*x": Polynomial.zero(V),
        "x - x": Polynomial.zero(V),
        "x^0": c(1),
        "0^0": c(1),
        "(x + y)^0": c(1),
        "2^3*x": reference_mul(c(8), x),
        "3/4*x^2": reference_mul(c(Fraction(3, 4)), reference_pow(x, 2)),
        "(2*x)^3": reference_mul(c(8), reference_pow(x, 3)),
        "x^2^3": reference_pow(x, 6),
        "-2*x*(3*x + y)*y": reference_mul(reference_mul(c(-2), x), reference_mul(s, y)),
        "(3*x + y)*(3*x - y)*(3*x + y)": reference_mul(
            reference_mul(s, reference_mul(c(3), x) - y), s),
        "0*(3*x + y)": Polynomial.zero(V),
        "(3*x + y)*0": Polynomial.zero(V),
        "x*y - y*x + 1/2": c(Fraction(1, 2)),
    }
    for text, expected in cases.items():
        assert parse_polynomial(text, V) == expected, text


def test_print_examples():
    x = Polynomial.variable(V, "x")
    y = Polynomial.variable(V, "y")
    assert print_polynomial(x + y**3) == "x + y^3"
    assert print_polynomial(Polynomial.zero(V)) == "0"
    assert print_polynomial(Fraction(-1, 2) * x) == "-1/2*x"
    assert print_polynomial(x**2 + x * y + y**2 + x) == "x + x^2 + x*y + y^2"


NEGATIVE_CORPUS = [
    "(x + y",
    "x + y)",
    "x ^ y",
    "x^-2",
    "x^(2)",
    "x^1/2",
    "2x",
    "x y",
    "x + * y",
    "x ? y",
    "1/0",
    "x +",
    "",
    "x + z",
    "x * * y",
    "3 / 4",
]


@pytest.mark.parametrize("bad", NEGATIVE_CORPUS)
def test_negative_corpus_has_positions(bad):
    with pytest.raises(ParseError) as err:
        parse_polynomial(bad, V)
    assert err.value.line >= 1
    assert err.value.column >= 1


def test_roundtrip_1000_random():
    rng = random.Random(606)
    for _ in range(1000):
        p = random_polynomial(rng, ("x1", "x2", "x3"), max_degree=5, max_terms=6)
        assert parse_polynomial(print_polynomial(p), ("x1", "x2", "x3")) == p


def test_rational_coefficients_roundtrip():
    rng = random.Random(707)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = (rng.randint(0, 3), rng.randint(0, 3))
            terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        p = Polynomial(V, terms)
        assert parse_polynomial(print_polynomial(p), V) == p


def test_coefficients_past_the_int_str_limit_roundtrip():
    # 5001 and 5000 digits: more than int() and str() accept by default (4300)
    c = Fraction(2 * 10**5000 - 1, 10**4999 + 1)
    text = "1" + "9" * 5000 + "/1" + "0" * 4998 + "1"
    p = Polynomial(V, {(0, 0): -c, (1, 0): c})
    printed = print_polynomial(p)
    assert printed == f"-{text} + {text}*x"
    assert parse_polynomial(printed, V) == p
    mf = parse_map_file(f"vars: x y\nF1 = x + {text}*y^2\nF2 = y\n")
    assert mf.to_poly_map().components[0] == Polynomial(V, {(1, 0): Fraction(1), (0, 2): c})
    with pytest.raises(ParseError) as exc:
        parse_map_file(f"vars: x y\nF1 = {text} @\nF2 = y\n")
    assert (exc.value.line, exc.value.column) == (2, 6 + len(text) + 1)


def test_int_conversion_matches_str_and_int():
    rng = random.Random(4300)
    for digits in (1, 639, 640, 641, 1500, 4300):
        for _ in range(5):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            assert format_int(n) == str(n) and format_int(-n) == str(-n)
            assert parse_int(str(n)) == n and parse_int("00" + str(n)) == n
    for k in (2001, 6000, 12001):
        n = 10**k - 1
        assert format_int(n) == "9" * k and parse_int("9" * k) == n
        assert format_int(10**k) == "1" + "0" * k and parse_int("1" + "0" * k) == 10**k


MAP_TEXT = """\
# a triangular example
name: tri
vars: x y
F1 = x + y^3   # trailing comment
F2 = y
"""


def test_parse_map_file():
    mf = parse_map_file(MAP_TEXT)
    assert mf.variables == ("x", "y")
    assert mf.metadata == {"name": "tri"}
    assert mf.n == 2
    F = mf.to_poly_map()
    assert F.components[0] == parse_polynomial("x + y^3", V)


def test_map_file_roundtrip():
    mf = parse_map_file(MAP_TEXT)
    again = parse_map_file(format_map_file(mf))
    assert again.variables == mf.variables
    assert again.components == mf.components
    assert again.metadata == mf.metadata


def test_map_file_from_poly_map_roundtrip():
    F = PolyMap(
        [parse_polynomial("x + y^3", V), parse_polynomial("y", V)]
    )
    mf = map_file_from_poly_map(F, {"name": "t"})
    assert parse_map_file(format_map_file(mf)).to_poly_map() == F


@pytest.mark.parametrize(
    "text",
    [
        "F1 = x\n",  # missing vars header
        "vars: x y\n",  # no components
        "vars: x x\nF1 = x\n",  # duplicate variable
        "vars: x y\nF2 = x\n",  # wrong label
        "vars: x y\nF1 = x +\n",  # bad expression
        "vars: x y\nF1 = z\n",  # unknown variable
        "vars: x y\nF1 : x\n",  # not an assignment
    ],
)
def test_map_file_errors(text):
    with pytest.raises(ParseError):
        parse_map_file(text)


def test_map_file_error_position_points_into_line():
    with pytest.raises(ParseError) as err:
        parse_map_file("vars: x y\nF1 = x + z\n")
    assert err.value.line == 2
    assert err.value.column >= 6


SYS_TEXT = """\
name: demo
vars: x y
x + y^3 - y
x - y
"""


def test_system_file_roundtrip():
    sf = parse_system_file(SYS_TEXT)
    assert sf.variables == ("x", "y")
    assert len(sf.equations) == 2
    polys = sf.to_polynomials()
    assert polys[0] == parse_polynomial("x + y^3 - y", V)
    again = parse_system_file(format_system_file(sf))
    assert again.equations == sf.equations


def test_system_file_requires_equations():
    with pytest.raises(ParseError):
        parse_system_file("vars: x y\n")


# ---- each file is parsed once ----


def _count_parses(monkeypatch):
    from kellerlab import expr_io

    calls = []
    real = expr_io.parse_polynomial

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(expr_io, "parse_polynomial", counting)
    return calls


def test_map_file_keeps_parsed_components(monkeypatch):
    calls = _count_parses(monkeypatch)
    mf = parse_map_file(MAP_TEXT)
    assert len(calls) == 2
    F = mf.to_poly_map()
    G = mf.to_poly_map()
    assert len(calls) == 2
    assert F == G == PolyMap([parse_polynomial("x + y^3", V), parse_polynomial("y", V)])
    # the parsed polynomials take no part in equality or repr
    plain = MapFile(variables=mf.variables, components=mf.components, metadata=mf.metadata)
    assert mf == plain
    assert repr(mf) == repr(plain)
    assert plain.to_poly_map() == F


def test_system_file_keeps_parsed_equations(monkeypatch):
    calls = _count_parses(monkeypatch)
    sf = parse_system_file(SYS_TEXT)
    assert len(calls) == 2
    polys = sf.to_polynomials()
    assert len(calls) == 2
    assert polys == [parse_polynomial("x + y^3 - y", V), parse_polynomial("x - y", V)]
    plain = SystemFile(variables=sf.variables, equations=sf.equations, metadata=sf.metadata)
    assert sf == plain
    assert repr(sf) == repr(plain)
    assert plain.to_polynomials() == polys


def test_parse_error_positions_unchanged():
    with pytest.raises(ParseError) as err:
        parse_system_file("vars: x y\nx + y\nx * * y\n")
    assert (err.value.line, err.value.column) == (3, 5)
    with pytest.raises(ParseError) as err:
        parse_map_file("vars: x y\nF1 = x\nF2 =  y + )\n")
    assert (err.value.line, err.value.column) == (3, 11)



def test_superscript_digits_are_positioned_parse_errors():
    # str.isdigit() holds for '²', which int() rejects without a position
    for text, message, column in (
        ("2 + ²", "unexpected character '²'", 5),
        ("x^²", "unexpected character '²'", 3),
        ("1/²", "expected digits after '/'", 2),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_polynomial(text, V)
        assert (err.value.line, err.value.column) == (1, column)
    # decimal digits of other scripts are digits
    assert parse_polynomial("٣*x + 1/٤", V) == parse_polynomial("3*x + 1/4", V)


def test_bad_variable_name_reports_its_column():
    for text, column in (
        ("vars: x 1y\nF1 = x\n", 9),
        ("  vars: x  y-z\nF1 = x\n", 12),
        (": v\nvars: x\nF1 = x\n", 1),  # an empty metadata key
    ):
        with pytest.raises(ParseError, match="bad identifier") as err:
            parse_map_file(text)
        assert (err.value.line, err.value.column) == (1, column)


def test_duplicate_metadata_key_is_a_positioned_parse_error():
    # the second 'name:' used to replace the first without a word
    for text, where in (
        ("name: a\nname: b\nvars: x\nF1 = x\n", (2, 1)),
        ("name: a\nbase: c\n   name  : b\nvars: x\nF1 = x\n", (3, 4)),
    ):
        with pytest.raises(ParseError, match="duplicate metadata key 'name'") as err:
            parse_map_file(text)
        assert (err.value.line, err.value.column) == where
    with pytest.raises(ParseError, match="duplicate metadata key") as err:
        parse_system_file("origin: a\norigin: a\nvars: x\nx\n")
    assert (err.value.line, err.value.column) == (2, 1)


def test_lexical_error_wins_over_an_earlier_syntax_error():
    # tokens are read lazily, yet a bad character anywhere in the text is
    # reported before a syntax error ahead of it
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse_polynomial("x + ) @", V)
    assert (err.value.line, err.value.column) == (1, 7)
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_polynomial("x ** 1/0", V)
    assert (err.value.line, err.value.column) == (1, 8)


def test_parse_streams_its_tokens():
    # 1820 terms, 39 KB of text: a token list alone would take megabytes
    W = ("x", "y", "z", "w")
    p = parse_polynomial("(x + 2*y - 3*z + 1/5*w + 1)^12", W)
    text = print_polynomial(p)
    assert len(p.terms) == 1820 and len(text) > 39000
    tracemalloc.start()
    try:
        q = parse_polynomial(text, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == p
    assert peak < 1 << 20


# ---- exponent bombs ----


def test_power_of_multi_term_base_is_capped():
    with pytest.raises(ParseError, match="degree") as err:
        parse_polynomial("(x+y+1)^200", V)
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError) as err:
        parse_system_file("vars: x y\nx - y\n(x+y+1)^200\n")
    assert (err.value.line, err.value.column) == (3, 8)
    # the cap is on the degree of the power: (x^2+y)^33 has degree 66
    with pytest.raises(ParseError):
        parse_polynomial("(x^2+y)^33", V)
    # repeated powers multiply
    with pytest.raises(ParseError):
        parse_polynomial("(x+1)^10^10", V)


def test_power_with_too_many_terms_is_capped():
    W = ("x", "y", "z", "w")
    # C(28, 4) = 20475 terms at degree 24, under the degree cap
    with pytest.raises(ParseError, match="terms") as err:
        parse_polynomial("(x+y+z+w+1)^24", W)
    assert (err.value.line, err.value.column) == (1, 12)
    # the degree check comes first and keeps its message
    with pytest.raises(ParseError, match="degree"):
        parse_polynomial("(x+y+z+w+1)^65", W)
    assert len(parse_polynomial("(x+y+z+w+1)^20", W).terms) == 10626
    # variables that do not occur in the base do not count
    assert len(parse_polynomial("(x+1)^64", W).terms) == 65


def test_product_with_too_many_terms_is_capped():
    W = ("x", "y", "z", "w")
    # each factor has 10626 terms; the product is bounded by C(44, 4) = 135751
    with pytest.raises(ParseError, match="product of up to 135751 terms") as err:
        parse_polynomial("(x+y+z+w+1)^20*(x+y+z+w+1)^20", W)
    assert (err.value.line, err.value.column) == (1, 15)
    # bounded by C(24, 4) = 10626 although |a|*|b| = 1001^2
    assert len(parse_polynomial("(x+y+z+w+1)^10*(x+y+z+w+1)^10", W).terms) == 10626
    # bounded by |a|*|b| = 25 although C(204, 4) exceeds the cap
    sparse = "(x^100+y^100+z^100+w^100+1)"
    assert len(parse_polynomial(f"{sparse}*{sparse}", W).terms) == 15
    # a single-term factor is never capped
    assert len(parse_polynomial("x^200*(x+y+z+w+1)^20", W).terms) == 10626


def test_power_of_a_coefficient_is_capped():
    # 3^3000000 took half a second to parse, and its 1.43 M digits long to print
    for text, column in (("3^3000000*x", 2), ("x - (9*x)^3000000", 10), ("x*2^100^1000", 8)):
        with pytest.raises(ParseError, match="power of a coefficient .* exceeds the cap") as err:
            parse_polynomial(text, V)
        assert (err.value.line, err.value.column) == (1, column), text
    # the bound is bit_length * e: 2^32768 is at the cap, 2^32769 past it
    half = MAX_POWER_BITS // 2
    assert parse_polynomial(f"2^{half}", V) == Polynomial.constant(V, 2**half)
    with pytest.raises(ParseError, match=f"up to {MAX_POWER_BITS + 2} bits"):
        parse_polynomial(f"2^{half + 1}", V)
    # coefficients 0 and ±1 never grow, and variables carry no coefficient
    x, y = (Polynomial.variable(V, v) for v in V)
    assert parse_polynomial("1^3000000*x + (-1)^3000001*y + 0^3000000", V) == x - y
    assert parse_polynomial("(-x)^3000000", V) == Polynomial(V, {(3000000, 0): 1})
    # numbers written out in digits are not capped
    assert parse_polynomial("9" * 30000, V) == Polynomial.constant(V, 10**30000 - 1)


def test_nesting_is_capped_at_the_first_parenthesis_past_the_cap():
    # the scanner recurses once per '(': 1000 levels were a RecursionError
    x = Polynomial.variable(V, "x")
    assert 3 <= MAX_NESTING_DEPTH <= 500
    k = MAX_NESTING_DEPTH
    assert parse_polynomial("(" * k + "x" + ")" * k, V) == x
    assert parse_polynomial("y + " + "(" * k + "-x" + ")" * k + "^2", V) == x * x + (
        Polynomial.variable(V, "y"))
    for prefix, depth in (("", k + 1), ("2*y - ", k + 1), ("", 1200)):
        text = prefix + "(" * depth + "x" + ")" * depth
        with pytest.raises(ParseError, match=f"nested deeper than the cap of {k}") as err:
            parse_polynomial(text, V)
        assert (err.value.line, err.value.column) == (1, len(prefix) + k + 1), text
    # the same rule in a map file, with the column counted in its line
    text = "vars: x y\nF1 = " + "(" * (k + 1) + "x" + ")" * (k + 1) + "\nF2 = y\n"
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse_map_file(text)
    assert (err.value.line, err.value.column) == (2, len("F1 = ") + k + 1)


def test_powers_below_the_cap_parse():
    assert MAX_POWER_DEGREE >= 60
    p = parse_polynomial("(x+y+1)^60", V)
    assert p.total_degree() == 60 and len(p.terms) == 1891
    # a single-term base is never expanded, so it is not capped
    assert parse_polynomial("x^200*y^3", V).total_degree() == 203
    assert parse_polynomial(f"(2*x)^{MAX_POWER_DEGREE + 1}", V).total_degree() == (
        MAX_POWER_DEGREE + 1
    )
    assert parse_polynomial(f"(x+1)^{MAX_POWER_DEGREE}", V).total_degree() == (
        MAX_POWER_DEGREE
    )


# ---- one position rule, one header writer, one reader ----


def test_indented_system_line_reports_the_column_in_its_line():
    # the '@' is the eighth character of its line, in a system file as in a map file
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse_system_file("vars: x y\n   x + @\n")
    assert (err.value.line, err.value.column) == (2, 8)
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse_map_file("vars: x y\n  F1 =   x + @\n")
    assert (err.value.line, err.value.column) == (2, 14)


def test_tokenizer_columns_count_from_the_start_of_each_line():
    for text, line, column, where in (
        ("x +\n  @", 1, 1, (2, 3)),
        ("(x\n+ y", 1, 1, (2, 4)),  # the end of input, after 'y'
        ("x + @", 4, 7, (4, 11)),
        ("x +\n @", 4, 7, (5, 2)),  # a new line starts at column 1
    ):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, V, line=line, column=column)
        assert (err.value.line, err.value.column) == where, text


UNREADABLE_METADATA = [
    ("na#me", "v"),
    ("name", "a#b.map-scale"),
    ("name", "a\nb: c"),
    ("name", "a\rb"),
    ("na\nme", "v"),
    ("name", " padded"),
    ("name", "padded "),
    (" name", "v"),
    ("vars", "a b"),
    ("1name", "v"),
    ("na-me", "v"),
    ("na:me", "v"),
    ("", "v"),
]


@pytest.mark.parametrize("key, value", UNREADABLE_METADATA)
def test_writers_refuse_metadata_that_would_not_read_back(monkeypatch, key, value):
    calls = _count_parses(monkeypatch)  # a written body is never parsed again
    meta = {"name": "ok", key: value}
    for f, fmt in (
        (MapFile(variables=V, components=("x", "y"), metadata=meta), format_map_file),
        (SystemFile(variables=V, equations=("x - y",), metadata=meta), format_system_file),
    ):
        with pytest.raises(ValueError, match="would not read back") as err:
            fmt(f)
        assert f"metadata entry {key!r}: {value!r}" in str(err.value)
    assert calls == []


@pytest.mark.parametrize("expr", ["x # y", "x\ny", "x\r", " x", "x ", "", "  "])
def test_writers_refuse_body_lines_that_would_not_read_back(expr):
    with pytest.raises(ValueError, match=f"body line 2 {re.escape(repr(expr))}"):
        format_map_file(MapFile(variables=V, components=("x", expr)))
    with pytest.raises(ValueError, match=f"body line 2 {re.escape(repr(expr))}"):
        format_system_file(SystemFile(variables=V, equations=("x", expr)))


@pytest.mark.parametrize("variables", [("x", "1y"), ("x", "x"), (), ("x#",), ("x y",)])
def test_writers_refuse_variables_that_would_not_read_back(variables):
    with pytest.raises(ValueError, match="variable list"):
        format_map_file(MapFile(variables=variables, components=("1",)))


def test_files_with_a_byte_order_mark_load(tmp_path):
    map_path = tmp_path / "bom.map"
    map_path.write_text(MAP_TEXT, encoding="utf-8-sig")
    assert map_path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_map_file(map_path) == parse_map_file(MAP_TEXT)
    sys_path = tmp_path / "bom.sys"
    sys_path.write_text(SYS_TEXT, encoding="utf-8-sig")
    assert load_system_file(sys_path) == parse_system_file(SYS_TEXT)


def _random_name(rng):
    head = rng.choice("abcxyzXY_é")
    return head + "".join(rng.choice("abz019_") for _ in range(rng.randint(0, 4)))


def _random_metadata(rng):
    meta = {}
    for _ in range(rng.randint(0, 4)):
        key = _random_name(rng)
        if key == "vars":
            continue
        value = "".join(rng.choice("ab :=;,-/é1") for _ in range(rng.randint(0, 12)))
        meta[key] = value.strip()
    return meta


def test_files_round_trip_with_random_metadata():
    rng = random.Random(2020)
    for _ in range(200):
        variables = tuple(dict.fromkeys(_random_name(rng) for _ in range(rng.randint(1, 4))))
        meta = _random_metadata(rng)
        F = random_poly_map(rng, variables)
        mf = map_file_from_poly_map(F, meta)
        back = parse_map_file(format_map_file(mf))
        assert (back.variables, back.components, back.metadata) == (
            mf.variables, mf.components, meta)
        assert back.to_poly_map() == F
        polys = [random_polynomial(rng, variables, allow_zero=False)
                 for _ in range(rng.randint(1, 3))]
        sf = SystemFile(variables=variables,
                        equations=tuple(print_polynomial(p) for p in polys),
                        metadata=_random_metadata(rng))
        back = parse_system_file(format_system_file(sf))
        assert (back.variables, back.equations, back.metadata) == (
            sf.variables, sf.equations, sf.metadata)
        assert back.to_polynomials() == polys


# ---- the scanner against the token-stream parser it replaced ----

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# texts on which the two kinds of error and the exponent rules meet
SCANNER_CORPUS = NEGATIVE_CORPUS + [
    "x + ) @", "x ** 1/0", "2 + ²", "x^²", "1/²", "²x", "x²", "٣*x + 1/٤", "x +\n  @",
    "(x\n+ y", "(x y)", "(x ^ y)", "x^", "x^2^y", "x^1/", "x^2/3/4", "x^4/2", "x^0/5",
    "x^4/0", "(x+1)^4/2", "(x+1)^2/4", "1/2^3", "(x + )", "x + ^2", "3/", "3/x", "x1/0",
    "_", "x ^\n2", "x(y)", "(x)(y)", "-", "- -", "x - - - y", "x\t+\x0by", "\u00a0x",
    "x^99999999999999999999", "0^0", "(x+y)^0", "((x)", "x))", "2 3/4", "x^ -2",
    "(x+y+z+w+1)^20*(x+y+z+w+1)^20^y", "(x+y+1)^200 @", "x +\n(x+y+1)^65",
    "1" + "9" * 5000 + "/1" + "0" * 4998 + "1" + "*x", "x^" + "1" * 5000, "1/" + "0" * 5000,
]


def _outcome(parse, text, ring, **where):
    """The polynomial, or the (message, line, column) of the ParseError."""
    try:
        return parse(text, ring, **where)
    except ParseError as err:
        return err.message, err.line, err.column


def _assert_same_outcome(text, ring, **where):
    got = _outcome(parse_polynomial, text, ring, **where)
    # the cap on powers of coefficients is the one rule the old parser lacks
    if not (type(got) is tuple and got[0].startswith("power of a coefficient")):
        assert got == _outcome(reference_parse_polynomial, text, ring, **where), repr(text)
    return got


def test_scanner_matches_the_token_stream_parser_on_random_expressions():
    rng = random.Random(2828)
    rings = [(), ("x",), V, ("x1", "x2", "x3")]
    for _ in range(400):
        ring = rng.choice(rings)
        text, expected = random_expression(rng, ring, depth=rng.choice((1, 2, 3)))
        assert _assert_same_outcome(text, ring) == expected, text


def test_scanner_matches_the_token_stream_parser_on_edited_texts():
    # seeded insertions and deletions of characters in valid texts: most
    # edits make a lexical or a syntax error, or both
    rng = random.Random(2929)
    rings = [(), ("x",), V, ("x1", "x2", "x3")]
    errors = 0
    for _ in range(1500):
        ring = rng.choice(rings)
        text, _ = random_expression(rng, ring, depth=1)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            if text and rng.random() < 0.5:
                text = text[:i] + text[i + 1 :]
            else:
                text = text[:i] + rng.choice("xyz012/^*+-() \n@²٣_") + text[i:]
        errors += type(_assert_same_outcome(text, ring)) is tuple
    assert 500 < errors < 1450


@pytest.mark.parametrize("text", SCANNER_CORPUS)
def test_scanner_matches_the_token_stream_parser_on_the_corpus(text):
    for where in ({}, {"line": 4, "column": 7}):
        _assert_same_outcome(text, V, **where)


def _hard_tier_texts():
    """Every map of the benchmark's hard tier, each sign variant, and the
    curve systems of its n = 3 classes, as the benchmark writes them."""
    spec = importlib.util.spec_from_file_location(
        "hardgen", os.path.join(ROOT, "bench", "hardgen.py"))
    hardgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hardgen)
    from kellerlab.diophantine import cor1_sum_of_squares, curve_CF

    for name in hardgen.CLASSES:
        for signs in hardgen.members(name):
            G, meta = hardgen.build_map(name, signs)
            yield format_map_file(map_file_from_poly_map(G, meta))
            if name in ("c3", "s3"):
                for polys in (curve_CF(G).polynomials, (cor1_sum_of_squares(G),)):
                    equations = tuple(print_polynomial(p) for p in polys)
                    yield format_system_file(SystemFile(G.variables, equations))


def test_scanner_matches_the_token_stream_parser_on_every_shipped_file():
    texts = [bundled_text(name) for name in bundled_names()] + list(_hard_tier_texts())
    assert len(texts) > 50
    for text in texts:
        f = (parse_map_file if "\nF1 =" in text else parse_system_file)(text)
        exprs = f.components if isinstance(f, MapFile) else f.equations
        for expr, parsed in zip(exprs, f.parsed):
            assert _assert_same_outcome(expr, f.variables) == parsed
