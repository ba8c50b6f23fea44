"""Concrete syntax.

    program := def+
    def     := ident ident* "=" expr ";"
    expr    := "\\" ident+ "->" expr
             | "let" ident "=" expr "in" expr
             | "letrec" ident "=" expr "in" expr
             | "case" expr "of" "{" alt (";" alt)* "}"
             | arith
    alt     := pat "->" expr
    pat     := int | ctor ident* | "[]" | "(" ident ":" ident ")" | ident | "_"
    arith   := app (("+"|"-"|"*") app)*        (left associative)
    app     := atom+
    atom    := int | "(" "-" int ")" | ident | ctor | "(" expr [":" expr] ")" | list

Constructors are capitalized identifiers; "[]"/"(x:xs)"/"[a,b]" are sugar for
Nil and Cons.  A lowercase identifier pattern (or "_") is a default
alternative matching anything and binding the scrutinee.

A letrec is a local name for a top-level definition, as in the paper, and
the parser makes it one: `letrec g = rhs in body` adds the definition
`g = rhs`, after the program's own, and stands for body, with g a function
symbol in rhs and body.  rhs must be a lambda closed except for g.  The
definition is named g, primed (g', g'', ...) past every top-level name,
every variable of the program (parameters, binders and variables used) and
every earlier letrec definition, unless an earlier letrec g has an equal rhs,
whose definition it then shares.  An expression on its own (an entry call)
may not contain a letrec.

One regular expression, _TOKEN, cuts the text into tokens with re.findall.
A token is a kind and a text, and the parser reads both by index from two
parallel lists.  Positions are not kept: an error finds its token's offset
by scanning the text again, and its line and column from that offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Alt,
    Case,
    CONS,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Let,
    NIL,
    Pattern,
    PrimOp,
    Program,
    Var,
    fold_apps,
    fold_lambdas,
    free_vars,
    pattern_binders,
)

KEYWORDS = {"let", "letrec", "in", "case", "of"}

PUNCT = ("->", "\\", "=", ";", "(", ")", "{", "}", "[", "]", ",", ":", "+", "-", "*", "_")

# Layout: whitespace and comments.  What follows it in _TOKEN always
# matches, so the engine never backtracks into it.
_LAYOUT = r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*"
# A token and the layout after it; the first match also takes the layout
# before it, and the empty end of input is the last.  "." is a character
# that starts no token.  A word starts with [^\W\d_], which also takes
# numerals that str.isalpha refuses, as "²"; _Kinds rejects those.
_TOKEN = re.compile(
    rf"(?:\A{_LAYOUT})?([0-9]+|[^\W\d_][\w']*|->|[\\=;(){{}}\[\],:+\-*_]|.|\Z){_LAYOUT}"
)
_NESTING = {"(": 1, "{": 1, "[": 1, ")": -1, "}": -1, "]": -1}
_FIXED_KINDS = {**dict.fromkeys(PUNCT, "punct"), **dict.fromkeys(KEYWORDS, "punct"), "": "eof"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Kinds(dict):
    """Token text -> kind (int | ident | ctor | punct | eof), an integer or
    a word classified when first seen; a KeyError if it starts no token."""

    def __missing__(self, text: str) -> str:
        c = text[0]
        if not (c in "0123456789" or c.isalpha()):
            raise KeyError(text)
        kind = self[text] = "int" if c in "0123456789" else "ctor" if c.isupper() else "ident"
        return kind


@dataclass
class Tokens:
    """A text's tokens as parallel lists, ending with the end of input."""

    kinds: list[str]
    texts: list[str]

    def __len__(self) -> int:  # the benchmark's and parse_curve.py's token count
        return len(self.texts)


def tokenize(text: str) -> Tokens:
    """text's tokens; a ParseError at a character that starts none."""
    texts = _TOKEN.findall(text)
    if not texts[0]:  # layout alone: its match and the end both match ""
        texts = [""]
    try:
        kinds = list(map(_Kinds(_FIXED_KINDS).__getitem__, texts))
    except KeyError as bad:
        i = texts.index(bad.args[0])
        raise error_at(text, i, f"unexpected character {texts[i][0]!r}") from None
    return Tokens(kinds, texts)


def error_at(text: str, i: int, message: str) -> ParseError:
    """A ParseError at the line and column of token i of text, found by
    scanning the text again.  The end of input after a comment that no
    newline ends is where the comment starts.
    """
    offset = [m.start(1) for m in _TOKEN.finditer(text)][i]
    if offset == len(text) and (comment := text.find("--", text.rfind("\n") + 1)) >= 0:
        offset = comment
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Parser:
    def __init__(
        self,
        text: str,
        tokens: Tokens,
        globals_: dict[str, str],
        in_program: bool,
        taken: frozenset[str] = frozenset(),
    ):
        self.text = text
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.pos = 0
        self.globals = globals_  # identifier -> the function symbol it names
        self.names = frozenset(globals_) | taken  # no letrec definition's name
        self.variables: set[str] = set()  # every variable bound or used
        # letrec definitions, name -> (letrec symbol, rhs); None outside a program
        self.hoisted: dict[str, tuple] | None = {} if in_program else None

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"expected {text!r}, found {self.texts[self.pos] or 'end of input'!r}")
        self.pos += 1

    def error(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError at token i, by default the current one."""
        return error_at(self.text, self.pos if i is None else i, message)

    def integer(self, i: int) -> int:
        text = self.texts[i]
        try:
            return int(text)
        except ValueError:  # longer than Python converts
            raise self.error(f"integer literal too long ({len(text)} digits)", i) from None

    # expressions -----------------------------------------------------------

    def expr(self, scope: frozenset[str]) -> Expression:
        texts = self.texts
        t = texts[self.pos]
        if t == "\\":
            self.pos += 1
            params = self.idents()
            if not params:
                raise self.error("lambda needs at least one parameter")
            self.variables.update(params)
            self.expect("->")
            body = self.expr(scope | set(params))
            return fold_lambdas(params, body)
        if t == "let":
            self.pos += 1
            name = self.ident()
            self.variables.add(name)
            self.expect("=")
            bound = self.expr(scope)
            self.expect("in")
            body = self.expr(scope | {name})
            return Let(name, bound, body)
        if t == "letrec":
            if self.hoisted is None:
                raise self.error("letrec is allowed only inside a program's definitions")
            self.pos += 1
            return self.letrec(scope)
        if t == "case":
            self.pos += 1
            scrut = self.expr(scope)
            self.expect("of")
            self.expect("{")
            alts = [self.alt(scope)]
            while texts[self.pos] == ";":
                self.pos += 1
                if texts[self.pos] == "}":
                    break
                alts.append(self.alt(scope))
            self.expect("}")
            return Case(scrut, tuple(alts))
        e = self.arith(scope)
        if texts[self.pos] == ":":
            self.pos += 1
            tail = self.expr(scope)  # right associative
            return CtorApp(CONS, (e, tail))
        return e

    def letrec(self, scope: frozenset[str]) -> Expression:
        """`g = rhs in body` after the keyword: rhs becomes a top-level
        definition (see the module docstring) and body is returned.  A
        definition is shared when rhs, parsed again with g naming it, is
        equal to it.
        """
        g = self.ident()
        self.expect("=")
        start, before = self.pos, self.hoisted
        for name, (symbol, rhs) in before.items():
            if symbol == g and rhs is not None:
                self.pos, self.hoisted = start, dict(before)
                if self.expr_with_global(scope, g, name) == rhs:
                    break
        else:
            self.pos, self.hoisted = start, dict(before)
            name = g
            while name in self.names or name in self.hoisted:
                name += "'"
            self.hoisted[name] = (g, None)  # taken while rhs is parsed
            rhs = self.expr_with_global(scope, g, name)
            if not isinstance(rhs, Lambda):
                raise self.error(f"letrec {g} must bind a lambda", start)
            if captured := free_vars(rhs):
                raise self.error(f"letrec {g} captures variables {sorted(captured)}", start)
            self.hoisted[name] = (g, rhs)
        self.expect("in")
        return self.expr_with_global(scope, g, name)

    def expr_with_global(self, scope: frozenset[str], g: str, name: str) -> Expression:
        saved = self.globals
        self.globals = {**saved, g: name}
        try:
            return self.expr(scope - {g})
        finally:
            self.globals = saved

    def alt(self, scope: frozenset[str]) -> Alt:
        pat = self.pattern()
        self.expect("->")
        binders = pattern_binders(pat)
        self.variables.update(binders)
        body = self.expr(scope.union(binders))
        return Alt(pat, body)

    def pattern(self) -> Pattern:
        kinds, texts = self.kinds, self.texts
        i = self.pos
        self.pos = i + 1  # past the end of input only to raise below
        kind, t = kinds[i], texts[i]
        if kind == "int":
            return IntPat(self.integer(i))
        if t == "_":
            return DefaultPat(None)
        if t == "[":
            self.expect("]")
            return CtorPat(NIL, ())
        if t == "(":
            head = self.ident("expected variable in cons pattern")
            self.expect(":")
            tail = self.ident("expected variable in cons pattern")
            self.expect(")")
            return CtorPat(CONS, (head, tail))
        if kind == "ctor":
            return CtorPat(t, tuple(self.idents()))
        if kind == "ident":
            return DefaultPat(t)
        raise self.error(f"expected pattern, found {t!r}", i)

    def arith(self, scope: frozenset[str]) -> Expression:
        e = self.application(scope)
        while (op := self.texts[self.pos]) in ("+", "-", "*"):
            self.pos += 1
            rhs = self.application(scope)
            e = PrimOp(op, e, rhs)
        return e

    def application(self, scope: frozenset[str]) -> Expression:
        kinds, texts, first = self.kinds, self.texts, self.pos
        head, args = self.atom(scope), []
        while kinds[self.pos] in ("int", "ident", "ctor") or texts[self.pos] in ("(", "["):
            args.append(self.atom(scope))
        if not args:
            return head
        if isinstance(head, CtorApp) and not head.args:
            return CtorApp(head.ctor, tuple(args))
        if isinstance(head, (IntLit, CtorApp)):
            raise self.error("this expression cannot be applied", first)
        return fold_apps(head, args)

    def atom(self, scope: frozenset[str]) -> Expression:
        kinds, texts = self.kinds, self.texts
        i = self.pos
        self.pos = i + 1  # past the end of input only to raise below
        kind, t = kinds[i], texts[i]
        if kind == "int":
            return IntLit(self.integer(i))
        if kind == "ident":
            if t in scope or t not in self.globals:
                self.variables.add(t)
                return Var(t)
            return Global(self.globals[t])
        if kind == "ctor":
            return CtorApp(t, ())
        if t == "(":
            if texts[i + 1] == "-" and kinds[i + 2] == "int" and texts[i + 3] == ")":
                self.pos = i + 4
                return IntLit(-self.integer(i + 2))
            e = self.expr(scope)
            if texts[self.pos] == ":":
                self.pos += 1
                tail = self.expr(scope)
                self.expect(")")
                return CtorApp(CONS, (e, tail))
            self.expect(")")
            return e
        if t == "[":
            if texts[self.pos] == "]":
                self.pos += 1
                return CtorApp(NIL, ())
            items = [self.expr(scope)]
            while texts[self.pos] == ",":
                self.pos += 1
                items.append(self.expr(scope))
            self.expect("]")
            lst: Expression = CtorApp(NIL, ())
            for item in reversed(items):
                lst = CtorApp(CONS, (item, lst))
            return lst
        raise self.error(f"expected expression, found {t or 'end of input'!r}", i)

    def ident(self, error: str = "expected identifier, found {!r}") -> str:
        i = self.pos
        if self.kinds[i] != "ident":
            raise self.error(error.format(self.texts[i]), i)
        self.pos = i + 1
        return self.texts[i]

    def idents(self) -> list[str]:
        """The identifiers from the current token on."""
        start = self.pos
        while self.kinds[self.pos] == "ident":
            self.pos += 1
        return list(self.texts[start : self.pos])


def parse_program(text: str) -> Program:
    tokens = tokenize(text)
    # first pass: collect top-level names so mutual recursion resolves
    kinds, names, depth, at_def_start = tokens.kinds, [], 0, True
    for i, t in enumerate(tokens.texts):
        if t in _NESTING:
            depth += _NESTING[t]
        elif depth:
            continue
        elif t == ";":
            at_def_start = True
            continue
        if at_def_start and not depth and kinds[i] != "eof":
            if kinds[i] != "ident":
                raise error_at(text, i, "definition must start with a function name")
            names.append((t, i))
            at_def_start = False
    seen = set()
    for name, i in names:
        if name in seen:
            raise error_at(text, i, f"duplicate definition of {name!r}")
        seen.add(name)

    globals_ = {name: name for name in seen}
    p = _Parser(text, tokens, globals_, in_program=True)
    defs = _definitions(p)
    if not p.variables.isdisjoint(p.hoisted):
        # a letrec definition takes a variable's name: name them all again,
        # past the variables that this pass has collected
        p = _Parser(text, tokens, globals_, in_program=True, taken=frozenset(p.variables))
        defs = _definitions(p)
    defs.update((name, rhs) for name, (_, rhs) in p.hoisted.items())
    return Program(defs)


def _definitions(p: _Parser) -> dict[str, Expression]:
    defs: dict[str, Expression] = {}
    while p.kinds[p.pos] != "eof":
        name = p.ident()
        params = p.idents()
        p.variables.update(params)
        p.expect("=")
        body = p.expr(frozenset(params))
        p.expect(";")
        defs[name] = fold_lambdas(params, body)
    if not defs:
        raise ParseError("empty program", 1, 1)
    return defs


def parse_expression(text: str, globals_: frozenset[str] = frozenset()) -> Expression:
    tokens = tokenize(text)
    p = _Parser(text, tokens, {name: name for name in globals_}, in_program=False)
    e = p.expr(frozenset())
    if p.kinds[p.pos] != "eof":
        raise p.error(f"unexpected input after expression: {p.texts[p.pos]!r}")
    return e
