"""Contexts, substitutions, and bounded enumeration.

A context is a telescope of types (outermost first); a substitution
from G to D lists one term per D-entry, each in G.  Morphism equality
is componentwise equality of normal forms.  Enumerations are exhaustive
within explicit size budgets and canonically ordered, so every consumer
downstream (initial models, lifting checks) is deterministic.
"""

from __future__ import annotations

from ..search import backtrack
from .check import (
    NormalizationBudget,
    Declaration,
    Signature,
    bounded,
    check_type,
    normalize,
)
from .terms import (
    App,
    Const,
    Lam,
    PiType,
    SortApp,
    Var,
    instantiate_many,
    shift,
    term_size,
)


# ---------------------------------------------------------------------------
# contexts and substitutions
# ---------------------------------------------------------------------------


def check_context(sig: Signature, ctx) -> None:
    acc = ()
    for ty in ctx:
        check_type(sig, acc, ty)
        acc = acc + (ty,)


def identity_subst(ctx):
    n = len(ctx)
    return tuple(Var(n - 1 - k) for k in range(n))


def apply_subst(sig: Signature, terms, expr):
    """Instantiate an expression over the target context with the
    substitution's components and normalize."""
    return normalize(sig, instantiate_many(expr, tuple(terms)))


def compose_subst(sig: Signature, first, second):
    """first : G -> D, second : D -> H; result G -> H."""
    return tuple(apply_subst(sig, first, t) for t in second)


def normalize_subst(sig: Signature, terms):
    return tuple(normalize(sig, t) for t in terms)


# ---------------------------------------------------------------------------
# bounded enumeration
# ---------------------------------------------------------------------------


def _key(t):
    return (term_size(t), repr(t))


# Terms are enumerated by exact size (as in Feat, Duregard, Jansson and
# Wang 2012) into the per-signature memo `sig._buckets`, which holds
#   ("terms", ctx, ty, n):  the terms of size n of the normalised type ty,
#   ("apps", ctx, n):       constant applications and variable-headed
#                           spines of size n, by normalised type,
#   ("spines", ctx, n):     the variable-headed spines of size n with their
#                           normalised types (bare variables at n = 1),
#   ("sorts", ctx, n):      sort applications of size n, normalised,
# and every <= n enumeration concatenates buckets 1..n.  An entry is
# stored only once complete, so a NormalizationBudget raised while one
# is built leaves nothing behind.


def _bucket(sig, ctx, ty, n):
    key = ("terms", ctx, ty, n)
    out = sig._buckets.get(key)
    if out is None:
        out = _applications(sig, ctx, n).get(ty, ())
        if isinstance(ty, PiType) and n > 1:
            body_ty = normalize(sig, ty.cod)
            out = tuple(Lam(ty.dom, b) for b in _bucket(sig, ctx + (ty.dom,), body_ty, n - 1)) + out
        sig._buckets[key] = out
    return out


def _applications(sig, ctx, n):
    key = ("apps", ctx, n)
    groups = sig._buckets.get(key)
    if groups is None:
        groups = {}
        for d in sig.term_decls:
            if d.arity < n:
                for args in _arguments(sig, ctx, d.telescope, (), n - 1):
                    ty = normalize(sig, instantiate_many(d.target, args))
                    groups.setdefault(ty, []).append(Const(d.name, args))
        for t, ty in _var_spines(sig, ctx, n):
            groups.setdefault(ty, []).append(t)
        groups = {ty: tuple(ts) for ty, ts in groups.items()}
        sig._buckets[key] = groups
    return groups


def _var_spines(sig, ctx, n):
    """A spine of size n > 1 is a shorter one of function type applied to
    one more argument."""
    key = ("spines", ctx, n)
    out = sig._buckets.get(key)
    if out is None:
        if n == 1:
            k = len(ctx)
            out = tuple((Var(i), normalize(sig, shift(ctx[k - 1 - i], i + 1))) for i in range(k))
        else:
            out = []
            for s in range(1, n):  # size of the last argument
                for head, head_ty in _var_spines(sig, ctx, n - s):
                    if isinstance(head_ty, PiType):
                        for a in _bucket(sig, ctx, normalize(sig, head_ty.dom), s):
                            out.append((App(head, a), normalize(sig, instantiate_many(head_ty.cod, (a,)))))
            out = tuple(out)
        sig._buckets[key] = out
    return out


def _arguments(sig, ctx, telescope, prefix, size):
    """Argument tuples for a telescope, after the arguments in prefix, of
    total size exactly `size` >= len(telescope): a sum over the size of
    the first argument."""
    if not telescope:
        if size == 0:
            yield ()
        return
    want = normalize(sig, instantiate_many(telescope[0], prefix))
    rest = telescope[1:]
    for s in range(1, size - len(rest) + 1) if rest else (size,):
        for a in _bucket(sig, ctx, want, s):
            for tail in _arguments(sig, ctx, rest, prefix + (a,), size - s):
                yield (a,) + tail


def _sort_applications(sig, ctx, n):
    key = ("sorts", ctx, n)
    out = sig._buckets.get(key)
    if out is None:
        out = tuple(
            (d, normalize(sig, SortApp(d.name, args)))
            for d in sig.sort_decls
            if d.arity < n
            for args in _arguments(sig, ctx, d.telescope, (), n - 1)
        )
        sig._buckets[key] = out
    return out


def enumerate_terms(sig: Signature, ctx, ty, size, normal_only=True):
    """All well-typed terms of the given type with size <= size, smallest
    first; with normal_only, only terms that are their own normal form
    (one representative per convertibility class the budget can see)."""
    ctx = tuple(ctx)
    ty = normalize(sig, ty)
    cache = bounded(sig._term_enum_cache)
    key = (ctx, ty, size, normal_only)
    if key in cache:
        return cache[key]
    bounded(sig._buckets)
    out = []
    seen = set()
    for n in range(1, size + 1):
        for t in _bucket(sig, ctx, ty, n):
            if normal_only:
                try:
                    if normalize(sig, t) != t:
                        continue
                except NormalizationBudget:
                    continue
            if t not in seen:
                seen.add(t)
                out.append(t)
    out.sort(key=_key)
    cache[key] = out
    return out


def enumerate_types(sig: Signature, ctx, size, rep_only=False):
    """Sort applications with enumerated spines, smallest first."""
    ctx = tuple(ctx)
    bounded(sig._buckets)
    out = []
    seen = set()
    for n in range(1, size + 1):
        for d, ty in _sort_applications(sig, ctx, n):
            if (d.is_rep_sort or not rep_only) and ty not in seen:
                seen.add(ty)
                out.append(ty)
    out.sort(key=_key)
    return out


def _substitutions(sig: Signature, src, tgt, size, keep=None):
    """Substitutions src -> tgt with componentwise size <= size, in
    canonical order: slot k takes each term of tgt[k], instantiated by
    slots 0..k-1, that `keep(k, t)` accepts (every one without keep)."""
    sub = [None] * len(tgt)

    def fill(k):
        want = normalize(sig, instantiate_many(tgt[k], tuple(sub[:k])))
        for t in enumerate_terms(sig, src, want, size):
            if keep is None or keep(k, t):
                sub[k] = t
                yield

    for _ in backtrack(0, len(tgt), fill):
        yield tuple(sub)


def enumerate_substitutions(sig: Signature, src, tgt, size):
    """All substitutions src -> tgt with componentwise size <= size, in
    canonical order, one representative per componentwise normal form."""
    return list(_substitutions(sig, src, tgt, size))


def contexts_iso_subs(sig: Signature, a, b, size=4):
    """Substitutions (f : a -> b, g : b -> a) composing to identities up
    to rule convertibility, or None: the first pair in canonical order.
    Exhaustive within the size budget.  Component k of g . f is g_k[f],
    so the search for g keeps g_k only when that is the variable the
    identity has there, and checks f . g once g is complete."""
    if len(a) != len(b):
        return None
    ident_a, ident_b = identity_subst(a), identity_subst(b)
    for f in _substitutions(sig, a, b, size):
        def keep(k, t):
            return apply_subst(sig, f, t) is ident_a[k]

        for g in _substitutions(sig, b, a, size, keep):
            if compose_subst(sig, g, f) == ident_b:
                return (f, g)
    return None


def contexts_isomorphic(sig: Signature, a, b, size=4) -> bool:
    """Are the contexts isomorphic within the size budget?"""
    return contexts_iso_subs(sig, a, b, size) is not None


def search_contexts(sig: Signature, depth, type_size=4, rep_only=True, iso_size=4):
    """Contexts up to the given length, grown one layer at a time and
    deduplicated up to isomorphism: each extension of a context kept in
    the last layer by a type of size <= type_size (a representable one
    with rep_only) is kept unless it is isomorphic, by substitutions of
    size <= iso_size, to one already kept in its layer.

    Returns the kept contexts in canonical order, the empty one first,
    and the map (kept index, extension type) -> (index of the kept
    representative, f, g) for every extension weighed, where
    f : extension -> representative and g back compose to identities
    (both identities when the extension was kept)."""
    kept = [()]
    ext = {}
    frontier = [0]
    for _ in range(depth):
        new = []
        for i in frontier:
            for ty in enumerate_types(sig, kept[i], type_size, rep_only=rep_only):
                cand = kept[i] + (ty,)
                for j in new:
                    subs = contexts_iso_subs(sig, cand, kept[j], iso_size)
                    if subs is not None:
                        ext[(i, ty)] = (j,) + subs
                        break
                else:
                    new.append(len(kept))
                    kept.append(cand)
                    ident = identity_subst(cand)
                    ext[(i, ty)] = (new[-1], ident, ident)
        frontier = new
    return kept, ext


def enumerate_contexts(sig: Signature, depth, type_size=4):
    """Contexts of representable types up to the given length, in
    canonical order, deduplicated up to isomorphism."""
    return search_contexts(sig, depth, type_size)[0]


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def slice_theory(sig: Signature, ctx, prefix="slice") -> Signature:
    """Extend the signature with a global section of the given context:
    one fresh constant per entry, telescope-unrolled.  Slicing at the
    empty context only adds a marker note."""
    check_context(sig, ctx)
    if not ctx:
        return sig.extended([], note=f"{prefix}: sliced at the empty context")
    items = []
    names = []
    used = set(sig.decls)
    for k, ty in enumerate(ctx):
        name = f"{prefix}{k}"
        while name in used:
            name += "'"
        used.add(name)
        inst = instantiate_many(ty, tuple(Const(n) for n in names))
        items.append(Declaration(name, (), inst))
        names.append(name)
    return sig.extended(items, note=f"{prefix}: sliced at a context of length {len(ctx)}")


# ---------------------------------------------------------------------------
# seeded random terms (for the health suite)
# ---------------------------------------------------------------------------


def term_pool(sig: Signature, depth=1, type_size=4, term_size_budget=6, max_contexts=6):
    """A deterministic pool of (context, term) pairs, including reducible
    terms, drawn from enumerated contexts and types."""
    pool = []
    ctxs = enumerate_contexts(sig, depth, type_size)[:max_contexts]
    for ctx in ctxs:
        tys = enumerate_types(sig, ctx, type_size)
        for ty in tys:
            for t in enumerate_terms(sig, ctx, ty, term_size_budget, normal_only=False):
                pool.append((ctx, ty, t))
    return pool


def enumerate_framework_contexts(sig: Signature, depth, type_size=4):
    """Contexts whose entries are sort or representable-sort applications
    (no product entries), up to the given length.  The internal-language
    and correspondence checks quantify over these."""
    return search_contexts(sig, depth, type_size, rep_only=False)[0]
