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
"""

from __future__ import annotations

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
)

KEYWORDS = {"let", "letrec", "in", "case", "of"}

PUNCT = ("->", "\\", "=", ";", "(", ")", "{", "}", "[", "]", ",", ":", "+", "-", "*", "_")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # int | ident | ctor | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
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


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        globals_: dict[str, str],
        in_program: bool,
        taken: frozenset[str] = frozenset(),
    ):
        self.tokens = tokens
        self.pos = 0
        self.globals = globals_  # identifier -> the function symbol it names
        self.names = frozenset(globals_) | taken  # no letrec definition's name
        self.variables: set[str] = set()  # every variable bound or used
        # letrec definitions, name -> (letrec symbol, rhs); None outside a program
        self.hoisted: dict[str, tuple] | None = {} if in_program else None

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text or t.kind not in ("punct", "ident", "ctor"):
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # expressions -----------------------------------------------------------

    def expr(self, scope: frozenset[str]) -> Expression:
        t = self.peek()
        if t.text == "\\":
            self.next()
            params = []
            while self.peek().kind == "ident":
                params.append(self.next().text)
            if not params:
                raise self.fail("lambda needs at least one parameter")
            self.variables.update(params)
            self.expect("->")
            body = self.expr(scope | set(params))
            return fold_lambdas(params, body)
        if t.text == "let":
            self.next()
            name = self.ident()
            self.variables.add(name)
            self.expect("=")
            bound = self.expr(scope)
            self.expect("in")
            body = self.expr(scope | {name})
            return Let(name, bound, body)
        if t.text == "letrec":
            if self.hoisted is None:
                raise self.fail("letrec is allowed only inside a program's definitions")
            self.next()
            return self.letrec(scope)
        if t.text == "case":
            self.next()
            scrut = self.expr(scope)
            self.expect("of")
            self.expect("{")
            alts = [self.alt(scope)]
            while self.peek().text == ";":
                self.next()
                if self.peek().text == "}":
                    break
                alts.append(self.alt(scope))
            self.expect("}")
            return Case(scrut, tuple(alts))
        e = self.arith(scope)
        if self.peek().text == ":" and self.peek().kind == "punct":
            self.next()
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
        t, start, before = self.peek(), self.pos, self.hoisted
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
                raise ParseError(f"letrec {g} must bind a lambda", t.line, t.col)
            if captured := free_vars(rhs):
                raise ParseError(
                    f"letrec {g} captures variables {sorted(captured)}", t.line, t.col
                )
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
        binders = set()
        match pat:
            case CtorPat(_, bs):
                binders = set(bs)
            case DefaultPat(b) if b is not None:
                binders = {b}
        self.variables |= binders
        body = self.expr(scope | binders)
        return Alt(pat, body)

    def pattern(self) -> Pattern:
        t = self.next()
        if t.kind == "int":
            return IntPat(int(t.text))
        if t.text == "_":
            return DefaultPat(None)
        if t.text == "[":
            self.expect("]")
            return CtorPat(NIL, ())
        if t.text == "(":
            head = self.next()
            if head.kind != "ident":
                raise ParseError("expected variable in cons pattern", head.line, head.col)
            self.expect(":")
            tail = self.next()
            if tail.kind != "ident":
                raise ParseError("expected variable in cons pattern", tail.line, tail.col)
            self.expect(")")
            return CtorPat(CONS, (head.text, tail.text))
        if t.kind == "ctor":
            binders = []
            while self.peek().kind == "ident":
                binders.append(self.next().text)
            return CtorPat(t.text, tuple(binders))
        if t.kind == "ident":
            return DefaultPat(t.text)
        raise ParseError(f"expected pattern, found {t.text!r}", t.line, t.col)

    def arith(self, scope: frozenset[str]) -> Expression:
        e = self.application(scope)
        while self.peek().text in ("+", "-", "*") and self.peek().kind == "punct":
            op = self.next().text
            rhs = self.application(scope)
            e = PrimOp(op, e, rhs)
        return e

    def application(self, scope: frozenset[str]) -> Expression:
        first = self.peek()
        atoms = [self.atom(scope)]
        while self._at_atom():
            atoms.append(self.atom(scope))
        head, args = atoms[0], atoms[1:]
        if isinstance(head, CtorApp) and not head.args:
            return CtorApp(head.ctor, tuple(args))
        if args and isinstance(head, (IntLit, CtorApp)):
            raise ParseError("this expression cannot be applied", first.line, first.col)
        return fold_apps(head, args)

    def _at_atom(self) -> bool:
        t = self.peek()
        return t.kind in ("int", "ident", "ctor") or t.text in ("(", "[")

    def atom(self, scope: frozenset[str]) -> Expression:
        t = self.next()
        if t.kind == "int":
            return IntLit(int(t.text))
        if t.kind == "ident":
            if t.text in scope or t.text not in self.globals:
                self.variables.add(t.text)
                return Var(t.text)
            return Global(self.globals[t.text])
        if t.kind == "ctor":
            return CtorApp(t.text, ())
        if t.text == "(":
            if self.peek().text == "-" and self.peek(1).kind == "int" and self.peek(2).text == ")":
                n = int(self.peek(1).text)
                self.pos += 3
                return IntLit(-n)
            e = self.expr(scope)
            if self.peek().text == ":":
                self.next()
                tail = self.expr(scope)
                self.expect(")")
                return CtorApp(CONS, (e, tail))
            self.expect(")")
            return e
        if t.text == "[":
            if self.peek().text == "]":
                self.next()
                return CtorApp(NIL, ())
            items = [self.expr(scope)]
            while self.peek().text == ",":
                self.next()
                items.append(self.expr(scope))
            self.expect("]")
            lst: Expression = CtorApp(NIL, ())
            for item in reversed(items):
                lst = CtorApp(CONS, (item, lst))
            return lst
        raise ParseError(f"expected expression, found {t.text or 'end of input'!r}", t.line, t.col)

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t.text


def parse_program(text: str, entry: str = "main") -> Program:
    tokens = tokenize(text)
    # first pass: collect top-level names so mutual recursion resolves
    names = []
    depth = 0
    at_def_start = True
    for i, t in enumerate(tokens):
        if t.kind == "eof":
            break
        if t.text in ("(", "{", "["):
            depth += 1
        elif t.text in (")", "}", "]"):
            depth -= 1
        elif t.text == ";" and depth == 0:
            at_def_start = True
            continue
        if at_def_start and depth == 0:
            if t.kind != "ident":
                raise ParseError("definition must start with a function name", t.line, t.col)
            names.append((t.text, t))
            at_def_start = False
    seen = set()
    for name, tok in names:
        if name in seen:
            raise ParseError(f"duplicate definition of {name!r}", tok.line, tok.col)
        seen.add(name)

    globals_ = {name: name for name in seen}
    p = _Parser(tokens, globals_, in_program=True)
    defs = _definitions(p)
    if not p.variables.isdisjoint(p.hoisted):
        # a letrec definition takes a variable's name: name them all again,
        # past the variables that this pass has collected
        p = _Parser(tokens, globals_, in_program=True, taken=frozenset(p.variables))
        defs = _definitions(p)
    defs.update((name, rhs) for name, (_, rhs) in p.hoisted.items())
    return Program(defs=defs, entry=entry)


def _definitions(p: _Parser) -> dict[str, Expression]:
    defs: dict[str, Expression] = {}
    while p.peek().kind != "eof":
        name = p.ident()
        params = []
        while p.peek().kind == "ident":
            params.append(p.next().text)
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
    p = _Parser(tokens, {name: name for name in globals_}, in_program=False)
    e = p.expr(frozenset())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected input after expression: {t.text!r}", t.line, t.col)
    return e
