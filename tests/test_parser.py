from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    CtorApp,
    CtorPat,
    DefaultPat,
    IntLit,
    ParseError,
    Var,
    parse_expression,
    parse_program,
    pretty_expr,
    pretty_program,
    program_alpha_eq,
    supercompile,
)
from deforest.parser import KEYWORDS, PUNCT, error_at, tokenize
from deforest.syntax import alpha_eq

from conftest import generate_programs


def test_roundtrip_simple_def():
    text = "main xs ys zs = append (append xs ys) zs;\nappend a b = a;\n"
    p = parse_program(text)
    again = parse_program(pretty_program(p))
    assert again == p


def test_list_sugar():
    assert parse_expression("[]") == CtorApp("Nil", ())
    e = parse_expression("[1, 2]")
    assert e == CtorApp("Cons", (IntLit(1), CtorApp("Cons", (IntLit(2), CtorApp("Nil", ())))))


def test_cons_pattern_sugar():
    p = parse_program("f xs = case xs of { (x:xs') -> x; [] -> 0 };")
    case = p.defs["f"].body
    assert case.alts[0].pattern == CtorPat("Cons", ("x", "xs'"))
    assert case.alts[1].pattern == CtorPat("Nil", ())


def test_infix_cons_is_right_associative():
    e = parse_expression("1 : 2 : []")
    assert e == parse_expression("[1, 2]")
    # a case ends at its brace, so the parenthesis reads the cons
    e = parse_expression("(case x of { _ -> 1; } : [])")
    assert e == parse_expression("[case x of { _ -> 1 }]")


def test_default_and_wildcard_patterns():
    p = parse_program("f n = case n of { 0 -> 1; m -> m }; g x = case x of { _ -> 5 };")
    assert p.defs["f"].body.alts[1].pattern == DefaultPat("m")
    assert p.defs["g"].body.alts[0].pattern == DefaultPat(None)


def test_double_append_source_parses():
    text = (
        "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };\n"
        "main xs ys zs = append (append xs ys) zs;\n"
    )
    p = parse_program(text)
    assert set(p.defs) == {"append", "main"}
    assert p.entry == "main"


def test_unknown_lowercase_name_is_a_variable():
    p = parse_program("main = show (f 1); f x = x;")
    body = p.defs["main"]
    assert body.fun == Var("show")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("main = case 1 of { 2 } ;")
    assert str(exc.value) == "1:22: expected '->', found '}'"
    assert (exc.value.line, exc.value.col) == (1, 22)


def test_non_ascii_digit_is_a_parse_error():
    # "²" is a Unicode digit that int() rejects
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("f ²")


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("f x = x; f y = y;")


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_program("   ")


def test_arith_left_associative():
    e = parse_expression("1 - 2 - 3")
    assert pretty_expr(e) == "1 - 2 - 3"
    assert e == parse_expression("(1 - 2) - 3")
    assert e != parse_expression("1 - (2 - 3)")


def test_lambda_multi_parameter():
    e = parse_expression("\\x y -> x + y")
    assert pretty_expr(e) == "\\x y -> x + y"


def test_letrec_parses_and_prints():
    # a letrec becomes a top-level definition, primed past the top-level go,
    # and the program prints and parses back unchanged
    p = parse_program("go = 1; main = letrec go = \\x -> go x in go 1;")
    text = pretty_program(p)
    assert text == "go = 1;\nmain = go' 1;\ngo' x = go' x;\n"
    assert parse_program(text) == p


def test_letrec_definition_is_named_past_every_variable():
    # the parameter go would capture a definition named go, in the source
    # and in the residual alike
    p = parse_program("main go = letrec go = \\n -> n + 1 in case (\\y -> go y) of { _ -> 1 };")
    assert sorted(p.defs) == ["go'", "main"]
    for x in (p, supercompile(p)):
        assert program_alpha_eq(parse_program(pretty_program(x)), x)
    # a parameter, a let binder, a pattern binder and an external variable
    # each take a name
    p = parse_program(
        "main f = letrec f = \\z -> let f' = z in case f' of { f'' -> f'' } in f 1 + f''';"
    )
    assert sorted(p.defs) == ["f''''", "main"]


def test_equal_letrecs_share_one_definition():
    # the second f is parsed again with f naming the first one's definition;
    # its nested h then shares h's, so nothing is left over
    f = "letrec f = \\y -> (letrec h = \\z -> f z in h y) in f"
    p = parse_program(f"main x = case x of {{ 0 -> {f} 1; _ -> {f} 2 }};")
    assert list(p.defs) == ["main", "f", "h"]
    assert pretty_program(p).splitlines()[0] == "main x = case x of { 0 -> f 1; _ -> f 2 };"


def test_expression_roundtrip_through_pretty():
    samples = [
        "case xs of { [] -> 0; (x:xs') -> x + f xs' }",
        "let y = 1 + 2 in y * y",
        "(\\x -> x) (K 1 [2, 3])",
        "x : y : rest",
        "f (g 1) (2 - 3 * 4)",
        "f (-4) (x - (-3))",
        "Just True Nothing",
    ]
    for text in samples:
        e = parse_expression(text, frozenset({"f", "g"}))
        again = parse_expression(pretty_expr(e), frozenset({"f", "g"}))
        assert again == e, text
    assert pretty_expr(CtorApp("True", ())) == "True"


def test_generated_programs_roundtrip():
    for program in generate_programs(25, seed=7):
        text = pretty_program(program)
        again = parse_program(text)
        assert program_alpha_eq(again, program)
        assert alpha_eq(again.defs["main"], program.defs["main"])
        residual = supercompile(program)
        assert program_alpha_eq(parse_program(pretty_program(residual)), residual)


# ---------------------------------------------------------------------------
# the tokenizer against the character loop it replaced


@dataclass(frozen=True)
class Token:
    kind: str  # int | ident | ctor | punct | eof
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "-" and text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                kind = "punct"
            elif word[0].isupper():
                kind = "ctor"
            else:
                kind = "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def positioned_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """tokenize's stream, each token with the line and column that an
    error at it reports."""
    out = []
    tokens = tokenize(text)
    for i, (kind, t) in enumerate(zip(tokens.kinds, tokens.texts)):
        at = error_at(text, i, "")
        out.append((kind, t, at.line, at.col))
    return out


# Every character class the two tokenizers decide: ASCII and Unicode
# letters (a titlecase one, which is not upper), "'" and "_", ASCII digits,
# numeric characters that are not letters ("²", "½") and non-ASCII decimal
# digits ("٣"), which are word characters only after a letter, layout
# including "\r", punctuation and characters that start no token ("$",
# "\x0b", and "Ⓐ", which is upper but not a letter).
CHARS = "aZx_'09²½٣éÄǅλ \t\r\n-->\\=;(){}[],:+*$\x0bⒶ"
PIECES = [*PUNCT, *KEYWORDS, "xs'", "x_1", "Cons", "Ärger", "λx", "x²", "²x", "٣", "x٣",
          "12", "0", " ", "\t", "\r\n", "\n", "-- a comment ; (", "--", "-->", "---"]
token_texts = st.one_of(
    st.text(alphabet=CHARS, max_size=40),
    st.lists(st.sampled_from(PIECES), max_size=25).map("".join),
)


@given(token_texts)
@settings(max_examples=1500, deadline=None)
def test_tokenize_agrees_with_the_reference(text):
    try:
        expected = [(t.kind, t.text, t.line, t.col) for t in reference_tokenize(text)]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(exc)
        return
    assert positioned_tokens(text) == expected
    assert len(tokenize(text)) == len(expected)  # the bench's token count


def test_end_of_input_after_a_trailing_comment_is_at_the_comment():
    cases = [("main = 1 -- no newline", 1, 10), ("main = 1 -- x\n  -- y", 2, 3), ("  --", 1, 3)]
    for text, line, col in cases:
        ref = reference_tokenize(text)[-1]
        assert (ref.line, ref.col) == (line, col)
        assert positioned_tokens(text)[-1] == ("eof", "", line, col)


# ---------------------------------------------------------------------------
# error messages: every raise in the parser, with its exact position

ERRORS = [
    ("program", "main = 1 $ 2;", "1:10: unexpected character '$'"),
    ("program", "main = f ²x;", "1:10: unexpected character '²'"),
    ("program", "main x = x٣ + ٣;", "1:15: unexpected character '٣'"),
    ("program", "main = 1;\n\tf = 2 \x0b;", "2:8: unexpected character '\\x0b'"),
    ("program", "main = λx Ⓐ;", "1:11: unexpected character 'Ⓐ'"),
    ("program", "main = \\ -> 1;", "1:10: lambda needs at least one parameter"),
    ("program", "main = case 1 of { 2 } ;", "1:22: expected '->', found '}'"),
    ("program", "main = (1 + 2;", "1:14: expected ')', found ';'"),
    ("program", "main = [1, 2) ;", "1:13: expected ']', found ')'"),
    ("program", "main = 1 +", "1:11: expected expression, found 'end of input'"),
    ("program", "main = 1 + -- a comment with no newline", "1:12: expected expression, found 'end of input'"),
    ("program", "main =\n  -- one\n  1 + -- two", "3:7: expected expression, found 'end of input'"),
    ("program", "main = 1\n  -- then a comment\n", "3:1: expected ';', found 'end of input'"),
    ("program", "main = 1", "1:9: expected ';', found 'end of input'"),
    ("program", "main = 1; -- done\r\n  f = ;", "2:7: expected expression, found ';'"),
    ("program", "main = ;", "1:8: expected expression, found ';'"),
    ("program", "main = letrec f = 1 in f;", "1:19: letrec f must bind a lambda"),
    ("program", "main y = letrec f = \\x -> y in f 1;", "1:21: letrec f captures variables ['y']"),
    ("program", "main xs = case xs of { (1:t) -> t };", "1:25: expected variable in cons pattern"),
    ("program", "main xs = case xs of { (h:T) -> h };", "1:27: expected variable in cons pattern"),
    ("program", "main xs = case xs of { + -> 1 };", "1:24: expected pattern, found '+'"),
    ("program", "main xs = case xs of {", "1:23: expected pattern, found ''"),
    ("program", "main = 1 2;", "1:8: this expression cannot be applied"),
    ("program", "main = (Just 1) 2;", "1:8: this expression cannot be applied"),
    ("program", "main = let 1 = 2 in 3;", "1:12: expected identifier, found '1'"),
    ("program", "Main = 1;", "1:1: definition must start with a function name"),
    ("program", "main = 1;\n(f) = 2;", "2:3: definition must start with a function name"),
    ("program", "f x = x;\nmain = f 1;\r\nf y = y;", "3:1: duplicate definition of 'f'"),
    ("program", "  -- only a comment", "1:1: empty program"),
    ("expression", "letrec f = \\x -> x in f", "1:1: letrec is allowed only inside a program's definitions"),
    ("expression", "f x )", "1:5: unexpected input after expression: ')'"),
    ("expression", "[1, 2", "1:6: expected ']', found 'end of input'"),
    ("expression", "", "1:1: expected expression, found 'end of input'"),
]


@pytest.mark.parametrize("kind, text, message", ERRORS)
def test_parse_error_messages(kind, text, message):
    parse = parse_program if kind == "program" else parse_expression
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("main = 1" + "0" * 5_000 + ";", "1:8: integer literal too long (5001 digits)"),
        ("main x =\n  f (-" + "9" * 5_000 + ");", "2:7: integer literal too long (5000 digits)"),
        ("f x = case x of { " + "7" * 4_400 + " -> 1 };", "1:19: integer literal too long (4400 digits)"),
    ],
)
def test_long_integer_literal_is_a_parse_error(text, message):
    # longer than Python converts from a string by default
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == message
