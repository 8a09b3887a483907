"""Differential tests for the per-signature substitution and typing memos.

The code they replaced is kept below verbatim: `reference_apply_subst`
(normalize after instantiate_many, as `kernel.contexts.apply_subst`
was) and `reference_infer_term` with the `_check_spine`, `check_term`
and `check_type` it called.  The references run on a freshly parsed
signature of their own, so they read none of the memos they are
compared with, and each memoised call is made twice, so that both the
miss and the hit are compared.  The corpus is every framework context
of depth <= 2 of the shipped signatures, with the types and terms the
enumerators give over it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmtt
from rmtt.kernel import (
    App,
    Const,
    KernelError,
    Lam,
    PiType,
    ScopeError,
    SortApp,
    TypeCheckError,
    Var,
    apply_subst,
    conv,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    infer_term,
    instantiate_many,
    normalize,
    pretty,
    shift,
)
from rmtt.kernel.check import is_rep_type
from rmtt.kernel.terms import subst

from test_enumeration import SIGNATURES, TERM_SIZE, fresh, wanted_types

# ---------------------------------------------------------------------------
# the reference: substitution and inference as they were
# ---------------------------------------------------------------------------


def reference_apply_subst(sig, terms, expr):
    """Instantiate an expression over the target context with the
    substitution's components and normalize."""
    return normalize(sig, instantiate_many(expr, tuple(terms)))


def reference_check_type(sig, ctx, ty):
    """ctx: tuple of TypeExpr outermost-first.  Raises on failure."""
    if isinstance(ty, SortApp):
        d = sig.decls.get(ty.head)
        if d is None or d.is_term:
            raise TypeCheckError(f"{ty.head!r} is not a sort")
        reference_check_spine(sig, ctx, ty.args, d.telescope)
        return
    if isinstance(ty, PiType):
        reference_check_type(sig, ctx, ty.dom)
        if not is_rep_type(sig, ty.dom):
            raise TypeCheckError(
                f"dependent product domain must be a representable sort, got {pretty(ty.dom)}"
            )
        reference_check_type(sig, ctx + (ty.dom,), ty.cod)
        return
    raise TypeCheckError(f"not a type: {ty!r}")


def reference_check_spine(sig, ctx, args, telescope):
    for k, arg in enumerate(args):
        expected = instantiate_many(telescope[k], tuple(args[:k]))
        reference_check_term(sig, ctx, arg, expected)


def reference_infer_term(sig, ctx, t):
    if isinstance(t, Var):
        if not (0 <= t.index < len(ctx)):
            raise ScopeError(f"variable index {t.index} out of scope")
        return shift(ctx[len(ctx) - 1 - t.index], t.index + 1)
    if isinstance(t, Const):
        d = sig.decls.get(t.head)
        if d is None:
            raise ScopeError(f"unbound constant {t.head!r}")
        if not d.is_term:
            raise TypeCheckError(f"{t.head!r} is a sort and cannot appear as a term")
        if len(t.args) != d.arity:
            raise TypeCheckError(f"{t.head!r} expects {d.arity} arguments")
        reference_check_spine(sig, ctx, t.args, d.telescope)
        return instantiate_many(d.target, t.args)
    if isinstance(t, App):
        tf = reference_infer_term(sig, ctx, t.fun)
        tf = normalize(sig, tf)
        if not isinstance(tf, PiType):
            raise TypeCheckError(f"applying a non-function of type {pretty(tf)}")
        reference_check_term(sig, ctx, t.arg, tf.dom)
        return subst(tf.cod, 0, t.arg)
    if isinstance(t, Lam):
        reference_check_type(sig, ctx, t.dom)
        if not is_rep_type(sig, t.dom):
            raise TypeCheckError("lambda domain must be a representable sort")
        cod = reference_infer_term(sig, ctx + (t.dom,), t.body)
        return PiType(t.dom, cod)
    raise TypeCheckError(f"not a term: {t!r}")


def reference_check_term(sig, ctx, t, expected):
    got = reference_infer_term(sig, ctx, t)
    if not conv(sig, got, expected):
        raise TypeCheckError(
            f"type mismatch: term {pretty(t)} has type {pretty(got)}, expected {pretty(expected)}"
        )


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

SOURCES = 3  # source contexts of the substitutions into each context
SUBS = 4  # substitutions taken from each source


@pytest.fixture(scope="module", params=SIGNATURES)
def corpus(request):
    """(name, signature, [(context, types, terms of size <= TERM_SIZE,
    normal or not, substitutions into the context)])."""
    sig = fresh(request.param)
    ctxs = enumerate_framework_contexts(sig, 2)
    out = []
    for ctx in ctxs:
        tys = wanted_types(sig, ctx)
        ts = [t for ty in tys for t in enumerate_terms(sig, ctx, ty, TERM_SIZE, normal_only=False)]
        subs = [s for src in ctxs[:SOURCES] for s in enumerate_substitutions(sig, src, ctx, 3)[:SUBS]]
        out.append((ctx, tys, ts, subs))
    return request.param, sig, out


def test_corpus_is_not_trivial(corpus):
    _, _, rows = corpus
    assert max(len(ctx) for ctx, *_ in rows) == 2
    assert sum(len(ts) for _, _, ts, _ in rows) >= 40
    assert sum(len(subs) for *_, subs in rows) >= 5


def test_apply_subst_matches_reference(corpus):
    name, sig, rows = corpus
    ref = fresh(name)
    compared = 0
    for ctx, tys, ts, subs in rows:
        for s in subs:
            for e in tys + ts:
                want = reference_apply_subst(ref, s, e)
                assert apply_subst(sig, s, e) is want
                assert apply_subst(sig, list(s), e) is want
                compared += 1
    assert compared >= 100


def _outcome(infer, sig, ctx, t):
    try:
        return infer(sig, ctx, t)
    except KernelError as e:
        return (type(e), str(e))


def test_infer_term_matches_reference(corpus):
    """Every corpus term, and each application of one corpus term to
    another over the same context, most of them ill-typed: the same type,
    or the same error, on both calls."""
    name, sig, rows = corpus
    ref = fresh(name)
    failures = 0
    for ctx, _, ts, _ in rows:
        candidates = ts + [App(a, b) for a in ts[:12] for b in ts[:12]]
        for t in candidates:
            want = _outcome(reference_infer_term, ref, ctx, t)
            assert _outcome(infer_term, sig, ctx, t) == want
            assert _outcome(infer_term, sig, ctx, t) == want
            if isinstance(want, tuple):
                failures += 1
                assert (ctx, t) not in sig._type_cache
    assert failures > 0


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------


def test_importing_the_cli_builds_no_term():
    """Every subcommand pays for importing `rmtt.cli`, so that import makes
    no kernel term: the intern table is still empty after it."""
    src = str(Path(rmtt.__file__).resolve().parents[1])
    code = "import rmtt.cli, rmtt.kernel.terms as t; print(len(t._table))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "0"
