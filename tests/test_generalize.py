import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    App,
    Case,
    CtorApp,
    Global,
    IntLit,
    PrimOp,
    Var,
    parse_expression,
)
from deforest.driver import MemoEntry, _may_embed
from deforest.generalize import _symbol, embeds, msg, split
from deforest.syntax import (
    FreshSupply,
    alpha_eq,
    canonical_symbols,
    children,
    rebuild,
    substitute,
)

from conftest import expressions, scoped_expressions, subterms


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


# the reference whistle: the definition, recursing on terms, memoized on
# pairs of subterm objects
def reference_embeds(a, b, memo=None):
    memo = {} if memo is None else memo
    key = (id(a), id(b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    kids = children(b)
    out = any(reference_embeds(a, c, memo) for c in kids) or (
        type(a) is type(b)
        and _symbol(a) == _symbol(b)
        and all(reference_embeds(x, y, memo) for x, y in zip(children(a), kids))
    )
    memo[key] = out
    return out


def _replace(e, k, new):
    """e with its k-th subterm in preorder replaced by new."""
    if k == 0:
        return new
    k -= 1
    kids = list(children(e))
    for i, c in enumerate(kids):
        n = sum(1 for _ in subterms(c))
        if k < n:
            kids[i] = _replace(c, k, new)
            return rebuild(e, kids)
        k -= n
    raise IndexError(k)


_TERMS = scoped_expressions(8)  # built once: a fresh strategy is validated per draw
_SMALL_TERMS = scoped_expressions(3)


@st.composite
def whistle_pairs(draw):
    """(a, b): independent terms, a subterm of b and b, or b with one
    subterm replaced (by one of its own subterms, which embeds, or by
    another term) and b; either way round.
    """
    b = draw(_TERMS)
    inside = list(subterms(b))
    how = draw(st.sampled_from(["independent", "subterm", "shrunk", "replaced"]))
    if how == "independent":
        a = draw(_TERMS)
    elif how == "subterm":
        a = draw(st.sampled_from(inside))
    else:
        k = draw(st.integers(0, len(inside) - 1))
        if how == "shrunk":
            new = draw(st.sampled_from(list(subterms(inside[k]))))
        else:
            new = draw(_SMALL_TERMS)
        a = _replace(b, k, new)
    return (b, a) if draw(st.booleans()) else (a, b)


@given(whistle_pairs())
@settings(max_examples=400, deadline=None)
def test_embeds_agrees_with_the_reference(pair):
    a, b = pair
    assert embeds(a, b) == reference_embeds(a, b)


def test_whistle_pairs_draw_both_answers():
    # the property above is only worth as much as the answers it meets
    answers = set()

    @given(whistle_pairs())
    @settings(max_examples=40, deadline=None, database=None)
    def collect(pair):
        answers.add(reference_embeds(*pair))

    collect()
    assert answers == {True, False}


_SHARED = pe("sum xs")


# (name, a, b, expected): pairs that a shortcut on symbol counts, subtree
# sizes, symbol sets or shared subterms could decide wrongly; every row is
# also checked against the reference
PRUNING_CASES = [
    ("a-larger-than-b", pe("sum (sum xs)"), pe("sum xs"), False),
    ("b-larger-than-a", pe("sum xs"), pe("sum (sum xs)"), True),
    # Leaf and sum both occur in b, but sum only beside the Leaf
    ("symbol-in-another-branch", pe("Leaf (sum x)"), pe("Cons (Leaf y) (sum x)"), False),
    ("symbol-below-in-the-branch", pe("Leaf (sum x)"), pe("Cons (Leaf (Just (sum y))) z"), True),
    ("equal-counts-other-nesting", pe("Just (Leaf x)"), pe("Leaf (Just x)"), False),
    ("equal-counts-same-nesting", pe("Just (Leaf x)"), pe("Just (Leaf y)"), True),
    ("fewer-alternatives", pe("case x of { 0 -> 1 }"), pe("case x of { 0 -> 1; _ -> 1 }"), False),
    ("more-alternatives", pe("case x of { 0 -> 1; _ -> 1 }"), pe("case x of { 0 -> 1 }"), False),
    (
        "alternatives-inside",
        pe("case x of { 0 -> 1 }"),
        pe("case x of { 0 -> case y of { Nil -> 2 }; _ -> 1 }"),
        True,
    ),
    ("smaller-arity", CtorApp("K", (Var("x"),)), CtorApp("K", (Var("x"), Var("y"))), False),
    ("larger-arity", CtorApp("K", (Var("x"), Var("y"))), CtorApp("K", (Var("x"),)), False),
    (
        "arity-inside",
        CtorApp("K", (Var("x"),)),
        CtorApp("K", (CtorApp("K", (Var("x"), Var("y"))),)),
        True,
    ),
    ("shared-subterm", pe("P (sum a) (sum b)"), CtorApp("P", (_SHARED, _SHARED)), True),
    ("shared-subterm-counted-twice", pe("P (sum a) a"), CtorApp("P", (_SHARED, _SHARED)), True),
    ("shared-subterm-other-nesting", pe("P (sum (sum a)) a"), CtorApp("P", (_SHARED, _SHARED)), False),
]


@pytest.mark.parametrize("a, b, expected", [c[1:] for c in PRUNING_CASES], ids=[c[0] for c in PRUNING_CASES])
def test_embeds_pruning_cases(a, b, expected):
    assert reference_embeds(a, b) == expected
    assert embeds(a, b) == expected


@given(expressions(12))
@settings(max_examples=200, deadline=None)
def test_key_walk_counts_are_the_prepared_forms_counts(e):
    # the key walk lists the symbols in preorder; the postorder is checked
    # by the test below
    assert canonical_symbols(e)[1] == [_symbol(t) for t in subterms(e)]


def _postorder(e):
    """The whistle's symbols of e's nodes in postorder, by plain recursion."""
    return [s for c in children(e) for s in _postorder(c)] + [_symbol(e)]


@given(expressions() | scoped_expressions())
@settings(max_examples=300, deadline=None)
def test_key_walk_postorder_agrees_with_the_reference(e):
    assert canonical_symbols(e)[2] == _postorder(e)


@given(
    st.lists(expressions(8), min_size=2, max_size=5),
    whistle_pairs(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_lazily_built_forms_whistle_as_eager_forms(terms, pair, rng):
    # the driver's whistle: the pre-test on the key walk's symbols, then
    # `embeds`, in whatever order the pairs come, is the reference whistle;
    # the whistle pairs make embedded pairs, which the pre-test must not refuse
    entries = []
    for i, t in enumerate(terms + list(pair)):
        entries.append(MemoEntry(f"h{i}", t, *canonical_symbols(t)))
    pairs = list(itertools.product(entries, repeat=2))
    rng.shuffle(pairs)
    for a, b in pairs:
        driver = _may_embed(a, b) and embeds(a.term, b.term)
        assert driver == reference_embeds(a.term, b.term), (a.term, b.term)


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
    supply = FreshSupply({"e", "e'"})
    g = msg(pe("Right e"), pe("Right (P e e')"), supply)
    assert len(g.holes) == 1
    h = g.holes[0]
    assert g.common == CtorApp("Right", (Var(h),))
    assert h not in ("e", "e'") and h in supply.reserved
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
    supply = FreshSupply({"a", "b", "c"})
    common, parts, holes = split(pe("K a b"), pe("g c"), supply)
    assert common.args == (Var(holes[0]), Var(holes[1]))
    assert len(set(holes)) == 2 and set(holes) <= supply.reserved - {"a", "b", "c"}


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


def test_split_no_part_is_the_whole_term():
    # y meets g in the scrutinee and stands for itself in the alternatives,
    # so the msg generalizes the whole pair; a part that is the whole term
    # would be driven into the same pair again, forever
    t1 = parse_expression("case f1 y g of { 0 -> y; x -> 0 }", frozenset({"f1"}))
    t2 = parse_expression("case f1 g g of { 0 -> y; x -> 0 }", frozenset({"f1"}))
    g = msg(t1, t2)
    assert g.common == Var(g.holes[0])
    common, parts, holes = split(t1, t2)
    assert parts == [t1.scrutinee]
    assert common == Case(Var(holes[0]), t1.alts)


@given(expressions(9), expressions(9))
@settings(max_examples=300, deadline=None)
def test_split_parts_are_proper_subterms(t1, t2):
    _, parts, _ = split(t1, t2)
    assert t1 not in parts


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
