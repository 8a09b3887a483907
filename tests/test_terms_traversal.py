"""Differential test: the variable operations built on `map_vars` give
the same results as the hand-written walks they replaced.

The reference functions below are the earlier implementations, kept
verbatim (one copy of the six-constructor walk each).  They are compared
on every type and term the enumerators produce over the shipped
signatures, on every declaration and rule of those signatures, and on
generated expressions with negative shifts, cutoffs and arbitrary
substitution indices.  On the same expressions, and every subexpression
of them, each node's loose-variable bound is one more than the largest
variable the reference `ref_free_vars` finds free in it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rmtt.kernel import (
    SHIPPED_SIGNATURES,
    App,
    Const,
    Declaration,
    KernelError,
    Lam,
    PiType,
    SortApp,
    Var,
    enumerate_framework_contexts,
    enumerate_terms,
    enumerate_types,
    instantiate_many,
    load_signature,
    parse_signature,
    shipped_signature_text,
    shift,
)
from rmtt.kernel import check, terms
from rmtt.kernel.terms import free_vars, pretty, subst

from test_hashcons import subexpressions

# -- reference implementations ------------------------------------------------


def ref_shift(t, d, cutoff=0):
    """Add d to every free variable index at or above cutoff."""
    if isinstance(t, Var):
        return Var(t.index + d) if t.index >= cutoff else t
    if isinstance(t, Const):
        return Const(t.head, tuple(ref_shift(a, d, cutoff) for a in t.args))
    if isinstance(t, App):
        return App(ref_shift(t.fun, d, cutoff), ref_shift(t.arg, d, cutoff))
    if isinstance(t, Lam):
        return Lam(ref_shift(t.dom, d, cutoff), ref_shift(t.body, d, cutoff + 1))
    if isinstance(t, SortApp):
        return SortApp(t.head, tuple(ref_shift(a, d, cutoff) for a in t.args))
    if isinstance(t, PiType):
        return PiType(ref_shift(t.dom, d, cutoff), ref_shift(t.cod, d, cutoff + 1))
    raise TypeError(f"not an expression: {t!r}")


def ref_subst(t, j, s):
    """Substitute s for Var(j), lowering the indices above j."""
    if isinstance(t, Var):
        if t.index == j:
            return s
        return Var(t.index - 1) if t.index > j else t
    if isinstance(t, Const):
        return Const(t.head, tuple(ref_subst(a, j, s) for a in t.args))
    if isinstance(t, App):
        return App(ref_subst(t.fun, j, s), ref_subst(t.arg, j, s))
    if isinstance(t, Lam):
        return Lam(ref_subst(t.dom, j, s), ref_subst(t.body, j + 1, ref_shift(s, 1)))
    if isinstance(t, SortApp):
        return SortApp(t.head, tuple(ref_subst(a, j, s) for a in t.args))
    if isinstance(t, PiType):
        return PiType(ref_subst(t.dom, j, s), ref_subst(t.cod, j + 1, ref_shift(s, 1)))
    raise TypeError(f"not an expression: {t!r}")


def ref_instantiate_many(t, args):
    """Like instantiate but substituting simultaneously: Var(n-1-k) := args[k]
    for an expression under n = len(args) binders."""
    n = len(args)

    def go(t, depth):
        if isinstance(t, Var):
            i = t.index
            if i < depth:
                return t
            if i < depth + n:
                return ref_shift(args[n - 1 - (i - depth)], depth)
            return Var(i - n)
        if isinstance(t, Const):
            return Const(t.head, tuple(go(a, depth) for a in t.args))
        if isinstance(t, App):
            return App(go(t.fun, depth), go(t.arg, depth))
        if isinstance(t, Lam):
            return Lam(go(t.dom, depth), go(t.body, depth + 1))
        if isinstance(t, SortApp):
            return SortApp(t.head, tuple(go(a, depth) for a in t.args))
        if isinstance(t, PiType):
            return PiType(go(t.dom, depth), go(t.cod, depth + 1))
        raise TypeError(f"not an expression: {t!r}")

    return go(t, 0)


def ref_free_vars(t, depth=0, acc=None):
    if acc is None:
        acc = set()
    if isinstance(t, Var):
        if t.index >= depth:
            acc.add(t.index - depth)
    elif isinstance(t, (Const, SortApp)):
        for a in t.args:
            ref_free_vars(a, depth, acc)
    elif isinstance(t, App):
        ref_free_vars(t.fun, depth, acc)
        ref_free_vars(t.arg, depth, acc)
    elif isinstance(t, Lam):
        ref_free_vars(t.dom, depth, acc)
        ref_free_vars(t.body, depth + 1, acc)
    elif isinstance(t, PiType):
        ref_free_vars(t.dom, depth, acc)
        ref_free_vars(t.cod, depth + 1, acc)
    return acc


def ref_fv_below(t, depth):
    """Free variable indices of t that are below depth."""
    out = []

    def go(t, d):
        if isinstance(t, Var):
            if t.index < depth + d and t.index >= d:
                # free in t, index relative to t's root is t.index - d
                if t.index - d < depth:
                    out.append(t.index - d)
        elif isinstance(t, (Const, SortApp)):
            for a in t.args:
                go(a, d)
        elif isinstance(t, App):
            go(t.fun, d)
            go(t.arg, d)
        elif isinstance(t, Lam):
            go(t.dom, d)
            go(t.body, d + 1)
        elif isinstance(t, PiType):
            go(t.dom, d)
            go(t.cod, d + 1)

    go(t, 0)
    return out


class RuleVar(terms._Node):
    """The old resolver's placeholder for a rule variable, by name.  Its
    index is not known until the rule is closed, so its loose-variable
    bound is infinite: no node holding one counts as closed."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        return terms._lookup(key) or terms._make(cls, key, (name,), float("inf"))


def ref_close_rule_vars(expr, rule_vars, depth=0):
    """Replace RuleVar placeholders with de Bruijn indices: the rule
    context binds rule_vars outermost-first."""
    n = len(rule_vars)
    if isinstance(expr, RuleVar):
        k = rule_vars.index(expr.name)
        return Var(depth + (n - 1 - k))
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Const):
        return Const(expr.head, tuple(ref_close_rule_vars(a, rule_vars, depth) for a in expr.args))
    if isinstance(expr, App):
        return App(
            ref_close_rule_vars(expr.fun, rule_vars, depth),
            ref_close_rule_vars(expr.arg, rule_vars, depth),
        )
    if isinstance(expr, Lam):
        return Lam(
            ref_close_rule_vars(expr.dom, rule_vars, depth),
            ref_close_rule_vars(expr.body, rule_vars, depth + 1),
        )
    if isinstance(expr, SortApp):
        return SortApp(expr.head, tuple(ref_close_rule_vars(a, rule_vars, depth) for a in expr.args))
    if isinstance(expr, PiType):
        return PiType(
            ref_close_rule_vars(expr.dom, rule_vars, depth),
            ref_close_rule_vars(expr.cod, rule_vars, depth + 1),
        )
    raise KernelError(f"bad expression {expr!r}")


class RefResolver(check._Resolver):
    """The resolver as it was: rule variables become RuleVar placeholders,
    closed afterwards by ref_close_rule_vars."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RefResolver.made.append(self)

    def term(self, raw, scope):
        if raw[0] == "call" and self.rule_mode:
            _, name, args, _, _ = raw
            if name not in scope and name not in self.decls:
                if name not in self.rule_vars:
                    self.rule_vars.append(name)
                out = RuleVar(name)
                for a in args:
                    out = App(out, self.term(a, scope))
                return out
        return super().term(raw, scope)


# -- the shipped corpus -------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """Every context entry, type and term enumerated at context depth <= 2,
    plus every declaration and rule expression of the shipped signatures."""
    out = {}
    for name in SHIPPED_SIGNATURES:
        sig = load_signature(name)
        exprs = {}
        for ctx in enumerate_framework_contexts(sig, 2):
            for e in ctx:
                exprs.setdefault(e, len(ctx))
            for ty in enumerate_types(sig, ctx, 4):
                exprs.setdefault(ty, len(ctx))
                for t in enumerate_terms(sig, ctx, ty, 5, normal_only=False):
                    exprs.setdefault(t, len(ctx))
        for it in sig.items:
            if isinstance(it, Declaration):
                for k, ty in enumerate(it.telescope):
                    exprs.setdefault(ty, k)
                if not isinstance(it.target, str):
                    exprs.setdefault(it.target, it.arity)
            else:
                for k, ty in enumerate(it.context):
                    exprs.setdefault(ty, k)
                exprs.setdefault(it.lhs, len(it.context))
                exprs.setdefault(it.rhs, len(it.context))
        out[name] = list(exprs.items())  # (expression, size of its context)
    return out


def assert_loose_is_free_variable_bound(e):
    for u in subexpressions(e):
        assert u.loose == 1 + max(ref_free_vars(u), default=-1)


def test_corpus_is_not_trivial(corpus):
    assert all(len(exprs) >= 5 for exprs in corpus.values())
    everything = [e for exprs in corpus.values() for e, _ in exprs]
    assert any("\\(" in pretty(e) for e in everything)  # a lambda somewhere inside
    assert any(isinstance(e, PiType) for e in everything)
    assert any(free_vars(e) for e in everything)


@pytest.mark.parametrize("name", SHIPPED_SIGNATURES)
def test_identical_on_shipped_expressions(name, corpus):
    exprs = corpus[name]
    fillers = [e for e, _ in exprs[:6]] + [Var(0), Var(2)]
    for e, n in exprs:
        for d in (-2, -1, 1, 3):
            for cutoff in range(n + 2):
                assert shift(e, d, cutoff) == ref_shift(e, d, cutoff)
        for depth in range(n + 2):
            assert free_vars(e, depth) == ref_free_vars(e, depth)
            assert any(i < depth for i in free_vars(e)) == bool(ref_fv_below(e, depth))
            assert shift(e, -depth) == ref_shift(e, -depth)
        for j in range(n + 2):
            for s in fillers:
                assert subst(e, j, s) == ref_subst(e, j, s)
        for k in range(n + 2):
            args = tuple(fillers[(k + m) % len(fillers)] for m in range(k))
            assert instantiate_many(e, args) == ref_instantiate_many(e, args)


@pytest.mark.parametrize("name", SHIPPED_SIGNATURES)
def test_loose_on_shipped_expressions(name, corpus):
    for e, _ in corpus[name]:
        assert_loose_is_free_variable_bound(e)


@pytest.mark.parametrize("name", SHIPPED_SIGNATURES)
def test_shipped_signatures_parse_the_same(name, monkeypatch):
    text = shipped_signature_text(name)
    sig = parse_signature(text)
    made = RefResolver.made
    made.clear()
    monkeypatch.setattr(check, "_Resolver", RefResolver)
    monkeypatch.setattr(check, "_close_rule_vars", lambda expr, n: ref_close_rule_vars(expr, made[-1].rule_vars))
    monkeypatch.setattr(check, "shift", ref_shift)
    monkeypatch.setattr(check, "subst", ref_subst)
    monkeypatch.setattr(check, "instantiate_many", ref_instantiate_many)
    monkeypatch.setattr(check, "free_vars", ref_free_vars)
    ref = parse_signature(text)
    assert any(r.rule_mode for r in made) == bool(sig.rules())
    assert sig == ref
    assert [r.context for r in sig.rules()] == [r.context for r in ref.rules()]


# -- generated expressions ----------------------------------------------------

HEADS = ("c", "d")


def _exprs(leaf):
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Lam, sub, sub),
            st.builds(PiType, sub, sub),
            st.builds(Const, st.sampled_from(HEADS), st.lists(sub, max_size=3).map(tuple)),
            st.builds(SortApp, st.sampled_from(HEADS), st.lists(sub, max_size=2).map(tuple)),
        ),
        max_leaves=12,
    )


EXPRS = _exprs(st.one_of(st.integers(0, 6).map(Var), st.sampled_from(HEADS).map(Const)))


@settings(max_examples=300, deadline=None)
@given(EXPRS, st.integers(-4, 4), st.integers(0, 5))
def test_shift_identical(e, d, cutoff):
    assert shift(e, d, cutoff) == ref_shift(e, d, cutoff)


@settings(max_examples=300, deadline=None)
@given(EXPRS, st.integers(0, 7), EXPRS)
def test_subst_identical(e, j, s):
    assert subst(e, j, s) == ref_subst(e, j, s)


@settings(max_examples=300, deadline=None)
@given(EXPRS, st.lists(EXPRS, max_size=4).map(tuple))
def test_instantiate_many_identical(e, args):
    assert instantiate_many(e, args) == ref_instantiate_many(e, args)


@settings(max_examples=300, deadline=None)
@given(EXPRS, st.integers(0, 5))
def test_free_vars_and_unshift_identical(e, depth):
    assert free_vars(e, depth) == ref_free_vars(e, depth)
    assert any(i < depth for i in free_vars(e)) == bool(ref_fv_below(e, depth))
    assert shift(e, -depth) == ref_shift(e, -depth)


@settings(max_examples=300, deadline=None)
@given(EXPRS)
def test_loose_identical(e):
    assert_loose_is_free_variable_bound(e)


# Rule expressions: a leaf is a bound variable (an index below the binder
# depth where it sits) or rule variable k.  Both encodings are built from
# one description, the placeholder one the old resolver produced and the
# free-index one the resolver produces now.
RULE_LEAVES = st.one_of(
    st.tuples(st.just("bound"), st.integers(0, 3)),
    st.tuples(st.just("rule"), st.integers(0, 3)),
)


def _rule_exprs():
    return st.recursive(
        RULE_LEAVES,
        lambda sub: st.one_of(
            st.tuples(st.just("app"), sub, sub),
            st.tuples(st.just("lam"), sub, sub),
            st.tuples(st.just("pi"), sub, sub),
            st.tuples(st.just("const"), st.lists(sub, max_size=3).map(tuple)),
        ),
        max_leaves=10,
    )


def _encode(desc, depth, placeholders):
    kind = desc[0]
    if kind == "bound":
        return Var(desc[1] % depth) if depth else Const("c")
    if kind == "rule":
        return RuleVar(f"v{desc[1]}") if placeholders else Var(depth + desc[1])
    if kind == "app":
        return App(_encode(desc[1], depth, placeholders), _encode(desc[2], depth, placeholders))
    if kind == "lam":
        return Lam(_encode(desc[1], depth, placeholders), _encode(desc[2], depth + 1, placeholders))
    if kind == "pi":
        return PiType(_encode(desc[1], depth, placeholders), _encode(desc[2], depth + 1, placeholders))
    return Const("c", tuple(_encode(a, depth, placeholders) for a in desc[1]))


@settings(max_examples=300, deadline=None)
@given(_rule_exprs(), st.integers(0, 2))
def test_close_rule_vars_identical(desc, extra):
    # every rule variable the description mentions, plus some that it does not
    rule_vars = [f"v{k}" for k in range(4 + extra)]
    new = check._close_rule_vars(_encode(desc, 0, False), len(rule_vars))
    assert new == ref_close_rule_vars(_encode(desc, 0, True), rule_vars)
