import itertools
import random

from hypothesis import given, settings

from deforest import (
    App,
    CtorApp,
    Global,
    IntLit,
    PrimOp,
    Var,
    alpha_eq,
    embeds,
    msg,
    parse_expression,
    split,
    substitute,
)
from deforest.syntax import children

from conftest import expressions


def pe(text):
    return parse_expression(text, frozenset({"fac", "append", "sum", "map", "rev"}))


def test_to_uniform_variable_atom():
    # all variables share one symbol, distinct from the integers' symbol
    assert embeds(Var("x"), Var("y"))
    assert embeds(Var("y"), Var("x"))
    assert not embeds(Var("x"), IntLit(0))
    assert not embeds(IntLit(0), Var("x"))


def test_to_uniform_application():
    # integer values and operators are erased; the children keep their order
    assert embeds(IntLit(0), IntLit(7))
    assert embeds(pe("fac (y - 1)"), pe("fac (x * 2)"))
    assert embeds(pe("fac (x * 2)"), pe("fac (y - 1)"))
    assert not embeds(pe("fac (y - 1)"), pe("fac (1 - y)"))


def test_to_uniform_case_erases_patterns():
    assert embeds(pe("case x of { 0 -> 1 }"), pe("case y of { Nil -> 2 }"))
    assert embeds(pe("case y of { Nil -> 2 }"), pe("case x of { 0 -> 1 }"))
    assert not embeds(pe("case x of { 0 -> 1 }"), pe("case 1 of { 0 -> x }"))


def test_embeds_erases_binders():
    assert embeds(pe("\\x -> x"), pe("\\y -> y"))
    assert embeds(pe("let x = 1 in x"), pe("let y = 2 in y"))


def test_embeds_case_couples_only_equal_alternative_counts():
    one = pe("case x of { 0 -> 1 }")
    two = pe("case x of { 0 -> 1; _ -> 1 }")
    assert not embeds(one, two)
    assert not embeds(two, one)


def test_embeds_ctor_couples_only_equal_arities():
    k1 = CtorApp("K", (Var("x"),))
    k2 = CtorApp("K", (Var("x"), Var("y")))
    assert not embeds(k1, k2)
    assert not embeds(k2, k1)
    assert embeds(k1, CtorApp("K", (k2,)))


def test_embeds_dive():
    assert embeds(pe("e"), pe("Just e"))


def test_embeds_fac_coupling():
    assert embeds(pe("fac y"), pe("fac (y - 1)"))


def test_embeds_not_reverse():
    assert not embeds(pe("fac (y - 1)"), pe("fac y"))


def test_embeds_distinct_heads_do_not_couple():
    assert not embeds(pe("sum xs"), pe("map xs"))
    assert embeds(pe("sum xs"), pe("map (sum xs)"))


def test_primops_share_one_symbol_for_the_whistle():
    assert embeds(pe("x + y"), pe("a * b"))


# brute force oracle: the least relation closed under the axioms, diving and
# coupling, computed bottom-up over a finite universe
def _oracle_closure(terms):
    rel = set()
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(terms, terms):
            if (a, b) in rel:
                continue
            ok = False
            if isinstance(a, Var) and isinstance(b, Var):
                ok = True
            elif any((a, c) in rel for c in children(b)):
                ok = True
            elif (
                isinstance(a, CtorApp)
                and isinstance(b, CtorApp)
                and a.ctor == b.ctor
                and len(a.args) == len(b.args)
                and all((x, y) in rel for x, y in zip(a.args, b.args))
            ):
                ok = True
            if ok:
                rel.add((a, b))
                changed = True
    return rel


def all_terms(max_size):
    by_size = {1: [Var("x")]}
    for size in range(2, max_size + 1):
        terms = [CtorApp("S1", (t,)) for t in by_size[size - 1]]
        for ls in range(1, size - 1):
            for l in by_size[ls]:
                for r in by_size[size - 1 - ls]:
                    terms.append(CtorApp("S2", (l, r)))
        by_size[size] = terms
    return [t for ts in by_size.values() for t in ts]


def test_embedding_agrees_with_bottom_up_oracle_small():
    terms = all_terms(5)
    rel = _oracle_closure(terms)
    for a, b in itertools.product(terms, terms):
        assert embeds(a, b) == ((a, b) in rel), (a, b)


@given(expressions(10))
@settings(max_examples=100, deadline=None)
def test_embeds_reflexive(e):
    assert embeds(e, e)


@given(expressions(6), expressions(6), expressions(6))
@settings(max_examples=60, deadline=None)
def test_embeds_transitive_sampled(a, b, c):
    if embeds(a, b) and embeds(b, c):
        assert embeds(a, c)


# ---------------------------------------------------------------------------
# msg


def test_msg_figure_row_just():
    g = msg(pe("e"), pe("Just e"))
    assert isinstance(g.common, Var)
    h = g.common.name
    assert g.theta1[h] == Var("e")
    assert g.theta2[h] == CtorApp("Just", (Var("e"),))


def test_msg_figure_row_right_pair():
    g = msg(pe("Right e"), pe("Right (P e e')"))
    assert len(g.holes) == 1
    h = g.holes[0]
    assert g.common == CtorApp("Right", (Var(h, fresh=True),))
    assert g.theta1[h] == Var("e")
    assert g.theta2[h] == CtorApp("P", (Var("e"), Var("e'")))


def test_msg_figure_row_fac():
    g = msg(pe("fac y"), pe("fac (y - 1)"))
    assert len(g.holes) == 1
    h = g.holes[0]
    assert g.common == App(Global("fac"), Var(h))
    assert g.theta1[h] == Var("y")
    assert g.theta2[h] == PrimOp("-", Var("y"), IntLit(1))


def test_msg_identical_terms():
    e = pe("sum (map f xs)")
    g = msg(e, e)
    assert g.common == e
    assert g.theta1 == {} and g.theta2 == {}
    assert g.holes == ()


def test_msg_repeated_mismatch_pairs_share_a_hole():
    g = msg(pe("append (fac 1) (fac 1)"), pe("append y y"))
    assert len(g.holes) == 1
    h = g.holes[0]
    assert g.common == App(App(Global("append"), Var(h)), Var(h))


def test_msg_consistent_variable_pairs_become_renames_not_holes():
    g = msg(pe("append (fac y) (fac y)"), pe("append (fac z) (fac z)"))
    assert g.holes == ()
    assert g.theta2 == {"y": Var("z")}


def test_msg_laws_on_spec_examples():
    pairs = [
        (pe("append xs xs"), pe("append xs' xs")),
        (pe("rev xs' (x' : [])"), pe("rev xs []")),
        (pe("fac y"), pe("fac (y - 1)")),
        (pe("sum (map f xs)"), pe("sum ys")),
    ]
    for t1, t2 in pairs:
        g = msg(t1, t2)
        assert alpha_eq(substitute(dict(g.theta1), g.common), t1)
        assert alpha_eq(substitute(dict(g.theta2), g.common), t2)


@given(expressions(9), expressions(9))
@settings(max_examples=200, deadline=None)
def test_msg_laws_random(t1, t2):
    g = msg(t1, t2)
    assert alpha_eq(substitute(dict(g.theta1), g.common), t1)
    assert alpha_eq(substitute(dict(g.theta2), g.common), t2)
    if t1 == t2:
        assert g.holes == ()


# ---------------------------------------------------------------------------
# split


def test_split_upwards_generalization_example():
    common, parts, holes = split(pe("append xs xs"), pe("append xs' xs"))
    assert parts == [Var("xs"), Var("xs")]
    assert len(holes) == 2
    assert common == App(App(Global("append"), Var(holes[0])), Var(holes[1]))


def test_split_downwards_generalization_example():
    common, parts, holes = split(pe("rev xs' (x' : [])"), pe("rev xs []"))
    assert parts == [pe("x' : []")]
    assert len(holes) == 1
    assert common == App(App(Global("rev"), Var("xs'")), Var(holes[0]))


def test_split_different_roots_splits_the_spine():
    common, parts, holes = split(pe("K a b"), pe("g c"))
    assert parts == [Var("a"), Var("b")]
    assert common == CtorApp("K", (Var(holes[0]), Var(holes[1])))


def test_split_holes_are_flagged_fresh():
    common, parts, holes = split(pe("K a b"), pe("g c"))
    for sub in [common.args[0], common.args[1]]:
        assert isinstance(sub, Var) and sub.fresh


def test_split_reassembly_on_spec_examples():
    pairs = [
        (pe("append xs xs"), pe("append xs' xs")),
        (pe("rev xs' (x' : [])"), pe("rev xs []")),
        (pe("K a b"), pe("g c")),
        (pe("(2 * x) + sum xs"), pe("sum (map f ys)")),
    ]
    for t1, t2 in pairs:
        common, parts, holes = split(t1, t2)
        assert substitute(dict(zip(holes, parts)), common) == t1


@given(expressions(9), expressions(9))
@settings(max_examples=300, deadline=None)
def test_split_reassembly_random(t1, t2):
    common, parts, holes = split(t1, t2)
    rebuilt = substitute(dict(zip(holes, parts)), common)
    assert alpha_eq(rebuilt, t1)


def test_wqo_smoke_long_sequences_whistle():
    # any long random term sequence over a fixed alphabet has i < j with
    # term_i embedded in term_j
    rng = random.Random(99)

    def rand_term(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return rng.choice([Var("v"), IntLit(1)])
        if roll < 0.6:
            return CtorApp("S1", (rand_term(depth - 1),))
        return CtorApp("S2", (rand_term(depth - 1), rand_term(depth - 1)))

    seq = [rand_term(rng.randrange(1, 6)) for _ in range(200)]
    found = False
    for j in range(1, len(seq)):
        if any(embeds(seq[i], seq[j]) for i in range(j)):
            found = True
            break
    assert found
