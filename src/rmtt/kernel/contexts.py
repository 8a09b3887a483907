"""Contexts, substitutions, and bounded enumeration.

A context is a telescope of types (outermost first); a substitution
from G to D lists one term per D-entry, each in G.  Morphism equality
is componentwise equality of normal forms.  Enumerations are exhaustive
within explicit size budgets and canonically ordered, so every consumer
downstream (initial models, lifting checks) is deterministic.
"""

from __future__ import annotations

from .check import (
    KernelError,
    NormalizationBudget,
    Declaration,
    Signature,
    TypeCheckError,
    bounded,
    check_term,
    check_type,
    is_rep_type,
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


class BudgetExhausted(KernelError):
    pass


# ---------------------------------------------------------------------------
# contexts and substitutions
# ---------------------------------------------------------------------------


def check_context(sig: Signature, ctx) -> None:
    acc = ()
    for ty in ctx:
        check_type(sig, acc, ty)
        acc = acc + (ty,)


def is_rep_context(sig: Signature, ctx) -> bool:
    return all(is_rep_type(sig, ty) for ty in ctx)


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


def check_subst(sig: Signature, src, tgt, terms) -> None:
    if len(terms) != len(tgt):
        raise TypeCheckError("substitution has wrong length")
    for k, t in enumerate(terms):
        expected = instantiate_many(tgt[k], tuple(terms[:k]))
        check_term(sig, tuple(src), t, expected)


def hom_equal(sig: Signature, s1, s2) -> bool:
    """Componentwise equality of normal forms."""
    if len(s1) != len(s2):
        return False
    return all(normalize(sig, a) == normalize(sig, b) for a, b in zip(s1, s2))


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


def enumerate_substitutions(sig: Signature, src, tgt, size):
    """All substitutions src -> tgt with componentwise size <= size, in
    canonical order, one representative per componentwise normal form."""
    results = []

    def go(prefix, k):
        if k == len(tgt):
            results.append(tuple(prefix))
            return
        want = normalize(sig, instantiate_many(tgt[k], tuple(prefix)))
        for t in enumerate_terms(sig, src, want, size):
            go(prefix + [t], k + 1)

    go([], 0)
    return results


def contexts_iso_subs(sig: Signature, a, b, size=4):
    """Substitutions (f : a -> b, g : b -> a) composing to identities up
    to rule convertibility, or None.  Exhaustive within the size
    budget."""
    if len(a) != len(b):
        return None
    for f in enumerate_substitutions(sig, a, b, size):
        for g in enumerate_substitutions(sig, b, a, size):
            if hom_equal(sig, compose_subst(sig, f, g), identity_subst(b)) and hom_equal(
                sig, compose_subst(sig, g, f), identity_subst(a)
            ):
                return (f, g)
    return None


def contexts_isomorphic(sig: Signature, a, b, size=4) -> bool:
    """Are the contexts isomorphic within the size budget?"""
    return contexts_iso_subs(sig, a, b, size) is not None


def enumerate_contexts(sig: Signature, depth, type_size=4):
    """Contexts of representable types up to the given length, in
    canonical order, deduplicated up to isomorphism."""
    layers = [[()]]
    for _ in range(depth):
        new = []
        for ctx in layers[-1]:
            for ty in enumerate_types(sig, ctx, type_size, rep_only=True):
                cand = ctx + (ty,)
                if any(contexts_isomorphic(sig, cand, kept) for kept in new):
                    continue
                new.append(cand)
        layers.append(new)
    out = []
    for layer in layers:
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# slices and the free-extension contexts
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


def slice_constant_names(sig: Signature, sliced: Signature):
    return [d.name for d in sliced.declarations() if d.name not in sig.decls]


def _require_base_universe(sig: Signature):
    ty = sig.decls.get("Ty")
    el = sig.decls.get("El")
    if (
        ty is None
        or el is None
        or not ty.is_sort
        or ty.arity != 0
        or not el.is_rep_sort
        or el.telescope != (SortApp("Ty"),)
    ):
        raise KernelError("signature must declare Ty : sort and El : (A : Ty) -> rep-sort")


def polynomial_object(sig: Signature, n: int, top: str):
    """The context presenting the n-fold free extension: a chain of n
    type families, optionally topped by one more family (top='Ty') or a
    family with a generic element (top='El')."""
    _require_base_universe(sig)
    if top not in ("unit", "Ty", "El"):
        raise ValueError("top must be one of 'unit', 'Ty', 'El'")

    def family_type(k):
        """Type of the k-th family entry (k >= 1): a product over the
        previous k-1 generic elements, valued in Ty."""

        def build(j):
            # j variables x_1..x_j already bound
            if j == k - 1:
                return SortApp("Ty")
            # bind x_{j+1} : El(A_{j+1}(x_1, ..., x_j))
            fam = Var((k - 1 - (j + 1)) + j)
            arg = fam
            for m in range(1, j + 1):
                arg = App(arg, Var(j - m))
            return PiType(SortApp("El", (arg,)), build(j + 1))

        return build(0)

    count = n if top == "unit" else n + 1
    ctx = tuple(family_type(k) for k in range(1, count + 1))
    if top == "El":
        def build_el(j):
            if j == n:
                fam = Var(n)  # the (n+1)-th family under n binders
                arg = fam
                for m in range(1, n + 1):
                    arg = App(arg, Var(n - m))
                return SortApp("El", (arg,))
            fam = Var((count - (j + 1)) + j)
            arg = fam
            for m in range(1, j + 1):
                arg = App(arg, Var(j - m))
            return PiType(SortApp("El", (arg,)), build_el(j + 1))

        ctx = ctx + (build_el(0),)
    check_context(sig, ctx)
    return ctx


def free_theory_on_context(sig: Signature, ctx, prefix="gen") -> Signature:
    """The presented theory freely generated by the context: the base
    signature extended by one constant per entry and nothing else."""
    return slice_theory(sig, ctx, prefix=prefix)


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
    layers = [[()]]
    for _ in range(depth):
        new = []
        for ctx in layers[-1]:
            for ty in enumerate_types(sig, ctx, type_size, rep_only=False):
                cand = ctx + (ty,)
                if any(contexts_isomorphic(sig, cand, kept) for kept in new):
                    continue
                new.append(cand)
        layers.append(new)
    out = []
    for layer in layers:
        out.extend(layer)
    return out
