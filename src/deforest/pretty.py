"""Pretty printer.  Output is deterministic and re-parses to an
alpha-equivalent term (an identical one when no sugar is involved).
"""

from __future__ import annotations

from .syntax import (
    Alt,
    App,
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
    PrimOp,
    Program,
    Var,
    unfold_apps,
    unfold_lambdas,
)

_ATOM, _APP, _ARITH, _EXPR = range(4)
_CHUNK_DIGITS = 500  # below every digit limit Python lets a program set
_CHUNK = 10**_CHUNK_DIGITS


def pretty_expr(e: Expression) -> str:
    return _show(e, _EXPR)


def _literal_list(e: Expression) -> list[Expression] | None:
    items = []
    while True:
        match e:
            case CtorApp(k, ()) if k == NIL:
                return items
            case CtorApp(k, (hd, tl)) if k == CONS:
                items.append(hd)
                e = tl
            case _:
                return None


def _int_text(n: int) -> str:
    """str(n), also for an integer past Python's int-to-str digit limit
    (evaluation and constant folding can make one from shorter literals).
    """
    try:
        return str(n)
    except ValueError:
        pass
    chunks = []
    m = abs(n)
    while m:
        m, r = divmod(m, _CHUNK)
        chunks.append(str(r).zfill(_CHUNK_DIGITS))
    text = "".join(reversed(chunks)).lstrip("0")
    return text if n >= 0 else "-" + text


def _show(e: Expression, ctx: int) -> str:
    match e:
        case IntLit(n):
            text = _int_text(n)
            return text if n >= 0 else f"({text})"
        case Var(name):
            return name
        case Global(name):
            return name
        case CtorApp(k, ()) if k == NIL:
            return "[]"
        case CtorApp(k, (hd, tl)) if k == CONS:
            items = _literal_list(e)
            if items is not None:
                return "[" + ", ".join(_show(x, _EXPR) for x in items) + "]"
            s = f"{_show(hd, _ARITH)} : {_show(tl, _EXPR)}"
            return _wrap(s, ctx < _EXPR)
        case CtorApp(k, ()):
            return k
        case CtorApp(k, args):
            s = k + " " + " ".join(_show(a, _ATOM) for a in args)
            return _wrap(s, ctx < _APP)
        case App():
            head, args = unfold_apps(e)
            s = " ".join([_show(head, _ATOM)] + [_show(a, _ATOM) for a in args])
            return _wrap(s, ctx < _APP)
        case PrimOp(op, l, r):
            # left associative: parenthesize a right operand at the same level
            s = f"{_show(l, _ARITH)} {op} {_show(r, _APP)}"
            return _wrap(s, ctx < _ARITH)
        case Lambda():
            params, body = unfold_lambdas(e)
            s = "\\" + " ".join(params) + " -> " + _show(body, _EXPR)
            return _wrap(s, ctx < _EXPR)
        case Let(x, bound, body):
            s = f"let {x} = {_show(bound, _EXPR)} in {_show(body, _EXPR)}"
            return _wrap(s, ctx < _EXPR)
        case Case(scrut, alts):
            branches = "; ".join(_show_alt(a) for a in alts)
            s = f"case {_show(scrut, _EXPR)} of {{ {branches} }}"
            return _wrap(s, ctx < _EXPR)
        case _:
            raise ValueError(f"cannot print {e!r}")


def _show_alt(a: Alt) -> str:
    match a.pattern:
        case IntPat(n):
            pat = str(n)
        case CtorPat(k, ()) if k == NIL:
            pat = "[]"
        case CtorPat(k, (h, t)) if k == CONS:
            pat = f"({h} : {t})"
        case CtorPat(k, binders):
            pat = " ".join((k,) + binders)
        case DefaultPat(None):
            pat = "_"
        case DefaultPat(b):
            pat = b
        case p:
            raise ValueError(f"cannot print pattern {p!r}")
    return f"{pat} -> {_show(a.body, _EXPR)}"


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def pretty_program(p: Program) -> str:
    lines = []
    for name, body in p.defs.items():
        params, rhs = unfold_lambdas(body)
        head = " ".join([name] + params)
        lines.append(f"{head} = {_show(rhs, _EXPR)};")
    return "\n".join(lines) + "\n"
