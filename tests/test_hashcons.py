"""Hash-consed kernel terms against the frozen dataclasses they replaced.

The dataclasses below are the earlier term classes, kept verbatim together
with the JSON encoding functions written against them (`reference_to_data`,
`reference_from_data`).  Every type and term that the enumeration corpus of
`tests/test_enumeration.py` produces, and every subexpression of them, is
converted to the reference through `expr_to_data` and compared: the same
`repr`, equality exactly when the references are equal, which is exactly
identity, and a round trip through the encoding that returns the very node.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import pytest

from rmtt.kernel import (
    enumerate_framework_contexts,
    enumerate_terms,
    enumerate_types,
    shipped_signature_text,
)
from rmtt.kernel import check, terms
from rmtt.kernel.terms import expr_from_data, expr_to_data

from constructions import polynomial_object
from test_enumeration import SIGNATURES, TERM_SIZE, fresh, wanted_types

# ---------------------------------------------------------------------------
# the reference: the frozen dataclasses as they were
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    head: str
    args: tuple = ()


@dataclass(frozen=True)
class App:
    fun: object
    arg: object


@dataclass(frozen=True)
class Lam:
    dom: object  # TypeExpr
    body: object


@dataclass(frozen=True)
class SortApp:
    head: str
    args: tuple = ()


@dataclass(frozen=True)
class PiType:
    dom: object
    cod: object


def reference_to_data(t):
    """JSON-able encoding of an expression; inverse of expr_from_data."""
    if isinstance(t, Var):
        return ["var", t.index]
    if isinstance(t, Const):
        return ["const", t.head, [reference_to_data(a) for a in t.args]]
    if isinstance(t, App):
        return ["app", reference_to_data(t.fun), reference_to_data(t.arg)]
    if isinstance(t, Lam):
        return ["lam", reference_to_data(t.dom), reference_to_data(t.body)]
    if isinstance(t, SortApp):
        return ["sort", t.head, [reference_to_data(a) for a in t.args]]
    if isinstance(t, PiType):
        return ["pi", reference_to_data(t.dom), reference_to_data(t.cod)]
    raise TypeError(f"not an expression: {t!r}")


def reference_from_data(d):
    """Inverse of expr_to_data; raises ValueError on anything it does not write."""
    tag, args = (d[0], d[1:]) if isinstance(d, list) and d else (None, ())
    if tag == "var" and len(args) == 1 and type(args[0]) is int and args[0] >= 0:
        return Var(args[0])
    if tag in ("const", "sort") and len(args) == 2 and isinstance(args[0], str) and isinstance(args[1], list):
        return (Const if tag == "const" else SortApp)(args[0], tuple(reference_from_data(a) for a in args[1]))
    if tag in ("app", "lam", "pi") and len(args) == 2:
        return {"app": App, "lam": Lam, "pi": PiType}[tag](reference_from_data(args[0]), reference_from_data(args[1]))
    raise ValueError(f"bad expression encoding: {d!r}")


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

NODE_CLASSES = (terms.Var, terms.Const, terms.App, terms.Lam, terms.SortApp, terms.PiType)


def subexpressions(t):
    yield t
    for f in t._fields:
        v = getattr(t, f)
        for u in v if isinstance(v, tuple) else (v,):
            if isinstance(u, NODE_CLASSES):
                yield from subexpressions(u)


@pytest.fixture(scope="module", params=SIGNATURES)
def corpus(request):
    """Every context entry, type and term (normal or not) the enumeration
    corpus of one signature produces, with every subexpression, in the
    order met and with repeats."""
    sig = fresh(request.param)
    ctxs = [(ctx, TERM_SIZE) for ctx in enumerate_framework_contexts(sig, 2)]
    ctxs.append((polynomial_object(sig, 1, "El"), 5))
    found = []
    for ctx, size in ctxs:
        found.extend(ctx)
        for ty in wanted_types(sig, ctx):
            found.append(ty)
            found.extend(enumerate_terms(sig, ctx, ty, size, normal_only=False))
        found.extend(enumerate_types(sig, ctx, 4))
    return [u for t in found for u in subexpressions(t)]


def test_corpus_covers_every_class(corpus):
    assert {type(t) for t in corpus} >= {terms.Var, terms.Const, terms.App, terms.Lam, terms.SortApp}


def test_repr_matches_reference(corpus):
    for t in corpus:
        ref = reference_from_data(expr_to_data(t))
        assert repr(t) == repr(ref)
        assert reference_to_data(ref) == expr_to_data(t)


def test_equality_is_identity_and_matches_reference(corpus):
    """a == b iff a is b iff their references are equal: each reference
    value has one node, distinct values have distinct nodes, and the
    comparison on nodes is the identity.  Also checked pair by pair on a
    prefix of the corpus, with rebuilt copies mixed in."""
    assert all(cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__ for cls in NODE_CLASSES)
    node_of = {}
    for t in corpus:
        assert node_of.setdefault(reference_from_data(expr_to_data(t)), t) is t
    assert len({id(t) for t in node_of.values()}) == len(node_of)
    sample = corpus[:150]
    sample = sample + [expr_from_data(expr_to_data(t)) for t in sample[::3]]
    refs = [reference_from_data(expr_to_data(t)) for t in sample]
    for a, ra in zip(sample, refs):
        for b, rb in zip(sample, refs):
            assert (a == b) == (a is b) == (ra == rb)
            assert (a != b) == (a is not b)


def test_decoding_returns_the_node(corpus):
    for t in corpus:
        assert expr_from_data(expr_to_data(t)) is t


def test_spines_are_tuples(corpus):
    for t in corpus:
        if isinstance(t, (terms.Const, terms.SortApp)):
            assert type(t.args) is tuple
            assert type(t)(t.head, list(t.args)) is t
    x = terms.Var(0)
    assert terms.Const("c", [x]) is terms.Const("c", (x,))
    assert terms.Const("c") is terms.Const("c", [])


def test_nodes_are_immutable(corpus):
    for t in corpus[:500]:
        for f in t._fields:
            before = getattr(t, f)
            with pytest.raises(AttributeError):
                setattr(t, f, before)
            with pytest.raises(AttributeError):
                delattr(t, f)
            assert getattr(t, f) is before
        with pytest.raises(AttributeError):
            t.extra = 1


# ---------------------------------------------------------------------------
# the intern table is bounded by the live terms
# ---------------------------------------------------------------------------


def _table_size():
    gc.collect()
    return len(terms._table)


def test_intern_table_frees_dropped_terms():
    """A freshly parsed signature fills its memos with new terms; once the
    signature and what was read from it are dropped, the table is back to
    its size before."""
    before = _table_size()
    sig = check.parse_signature(shipped_signature_text("itthpi"))
    for ctx in enumerate_framework_contexts(sig, 2):
        for ty in wanted_types(sig, ctx):
            enumerate_terms(sig, ctx, ty, 5)
    assert _table_size() > before
    del sig, ctx, ty
    assert _table_size() == before


def test_emptying_a_memo_frees_its_terms():
    """Emptying a signature's memos, as CACHE_LIMIT does, frees the terms
    only they held."""
    sig = check.parse_signature(shipped_signature_text("itth"))
    ctx = enumerate_framework_contexts(sig, 2)[-1]
    memos = sig.memos
    for memo in memos:
        memo.clear()
    emptied = _table_size()
    for ty in wanted_types(sig, ctx):
        enumerate_terms(sig, ctx, ty, 5)
    del ty
    assert _table_size() > emptied
    for memo in memos:
        memo.clear()
    assert _table_size() == emptied
