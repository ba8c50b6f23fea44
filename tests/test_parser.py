import pytest

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
    assert exc.value.line == 1
    assert exc.value.col > 0


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
    ]
    for text in samples:
        e = parse_expression(text, frozenset({"f", "g"}))
        again = parse_expression(pretty_expr(e), frozenset({"f", "g"}))
        assert again == e, text


def test_generated_programs_roundtrip():
    for program in generate_programs(25, seed=7):
        text = pretty_program(program)
        again = parse_program(text)
        assert program_alpha_eq(again, program)
        assert alpha_eq(again.defs["main"], program.defs["main"])
        residual = supercompile(program)
        assert program_alpha_eq(parse_program(pretty_program(residual)), residual)
