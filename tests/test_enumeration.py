"""Differential tests for the exact-size term enumerator.

The generator-based enumerator it replaced is kept below verbatim
(`_raw_terms`, `_var_apps`, `_spines`, `_spines_after`, and the old
`enumerate_terms`, `enumerate_types` and `enumerate_substitutions` under
`reference_` names) and must give identical lists, in the same order,
on every framework context of depth <= 2 of the shipped signatures.
Each side runs on its own freshly parsed signature, so neither reads
the other's caches.
"""

import pytest

from rmtt.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    NormalizationBudget,
    PiType,
    SortApp,
    Var,
    conv,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    enumerate_types,
    instantiate_many,
    load_signature,
    normalize,
    parse_signature,
    shift,
    term_size,
)
from rmtt.kernel import check, contexts
from rmtt.kernel.check import bounded

from constructions import polynomial_object

# ---------------------------------------------------------------------------
# the reference: the generator enumerator as it was
# ---------------------------------------------------------------------------


def _key(t):
    return (term_size(t), repr(t))


def reference_enumerate_terms(sig, ctx, ty, size, normal_only=True):
    cache = getattr(sig, "_term_enum_cache", None)
    if cache is None:
        cache = sig._term_enum_cache = {}
    ty = normalize(sig, ty)
    key = (tuple(ctx), ty, size, normal_only)
    if key in cache:
        return cache[key]
    out = []
    seen = set()
    for t in _raw_terms(sig, tuple(ctx), ty, size):
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


def _raw_terms(sig, ctx, ty, size):
    if size <= 0:
        return
    # variables
    n = len(ctx)
    for i in range(n):
        vty = shift(ctx[n - 1 - i], i + 1)
        if conv(sig, vty, ty):
            yield Var(i)
    # lambda
    if isinstance(ty, PiType):
        for body in _raw_terms(sig, ctx + (ty.dom,), normalize(sig, ty.cod), size - 1):
            yield Lam(ty.dom, body)
    # constant heads
    for d in sig.declarations():
        if not d.is_term:
            continue
        min_size = 1 + d.arity
        if min_size > size:
            continue
        for args in _spines(sig, ctx, d.telescope, size - 1):
            result = normalize(sig, instantiate_many(d.target, args))
            if conv(sig, result, ty):
                yield Const(d.name, args)
    # variable-headed applications
    for i in range(n):
        vty = normalize(sig, shift(ctx[n - 1 - i], i + 1))
        yield from _var_apps(sig, ctx, Var(i), vty, ty, size - 1)


def _var_apps(sig, ctx, head, head_ty, want, size):
    if not isinstance(head_ty, PiType) or size <= 0:
        return
    for a in _raw_terms(sig, ctx, normalize(sig, head_ty.dom), size):
        out = App(head, a)
        out_ty = normalize(sig, instantiate_many(head_ty.cod, (a,)))
        rest = size - term_size(a)
        if conv(sig, out_ty, want):
            yield out
        yield from _var_apps(sig, ctx, out, out_ty, want, rest)


def _spines(sig, ctx, telescope, size):
    """All argument tuples for a telescope with total size <= size."""
    yield from _spines_after(sig, ctx, tuple(telescope), (), size)


def _spines_after(sig, ctx, telescope, prefix, size):
    if not telescope:
        yield ()
        return
    want = normalize(sig, instantiate_many(telescope[0], prefix))
    rest = telescope[1:]
    for a in _raw_terms(sig, ctx, want, size - len(rest)):
        for tail in _spines_after(sig, ctx, rest, prefix + (a,), size - term_size(a)):
            yield (a,) + tail


def reference_enumerate_types(sig, ctx, size, rep_only=False):
    """Sort applications with enumerated spines, smallest first."""
    out = []
    seen = set()
    for d in sig.declarations():
        if d.is_term:
            continue
        if rep_only and not d.is_rep_sort:
            continue
        if 1 + d.arity > size:
            continue
        for args in _spines(sig, tuple(ctx), d.telescope, size - 1):
            ty = normalize(sig, SortApp(d.name, args))
            if ty not in seen:
                seen.add(ty)
                out.append(ty)
    out.sort(key=_key)
    return out


def reference_enumerate_substitutions(sig, src, tgt, size):
    results = []

    def go(prefix, k):
        if k == len(tgt):
            results.append(tuple(prefix))
            return
        want = normalize(sig, instantiate_many(tgt[k], tuple(prefix)))
        for t in reference_enumerate_terms(sig, src, want, size):
            go(prefix + [t], k + 1)

    go([], 0)
    return results

# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

SIGNATURES = ("tthg", "etth1", "itth", "itthpi")
TERM_SIZE = 7
TYPE_SIZE = 4
SUBST_SIZE = 4


def fresh(name):
    sig = load_signature(name)
    if name == "tthg":  # no closed terms otherwise
        sig = sig.extended([
            Declaration("o", (), SortApp("Ty")),
            Declaration("c", (), SortApp("El", (Const("o"),))),
        ])
    return sig


@pytest.fixture(scope="module", params=SIGNATURES)
def pair(request):
    """(new signature, reference signature, [(context, term size)]): the
    framework contexts of depth <= 2 at TERM_SIZE, and the chain-and-
    element context of the one-stage free extension, whose function-typed
    entries give lambdas and variable-headed spines, at a smaller size
    that keeps the reference quick."""
    new, ref = fresh(request.param), fresh(request.param)
    ctxs = [(ctx, TERM_SIZE) for ctx in enumerate_framework_contexts(new, 2)]
    return new, ref, ctxs + [(polynomial_object(new, 1, "El"), 5)]


def wanted_types(sig, ctx):
    """The types of size <= TYPE_SIZE and the types of the variables."""
    own = [normalize(sig, shift(ty, len(ctx) - k)) for k, ty in enumerate(ctx)]
    return enumerate_types(sig, ctx, TYPE_SIZE) + own


def test_contexts_cover_every_case(pair):
    new, _, ctxs = pair
    assert max(len(c) for c, _ in ctxs) == 3
    found = set()
    for ctx, size in ctxs:
        for ty in wanted_types(new, ctx):
            for t in enumerate_terms(new, ctx, ty, size, normal_only=False):
                found |= {type(u).__name__ for u in subterms(t)}
    assert found == {"Var", "Const", "App", "Lam"}


def subterms(t):
    yield t
    if isinstance(t, Const):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, App):
        yield from subterms(t.fun)
        yield from subterms(t.arg)
    elif isinstance(t, Lam):
        yield from subterms(t.body)


@pytest.mark.parametrize("rep_only", [False, True])
def test_types_match_reference(pair, rep_only):
    new, ref, ctxs = pair
    for ctx, _ in ctxs:
        for size in range(1, TYPE_SIZE + 1):
            assert enumerate_types(new, ctx, size, rep_only) == reference_enumerate_types(
                ref, ctx, size, rep_only
            ), (ctx, size)


@pytest.mark.parametrize("normal_only", [False, True])
def test_terms_match_reference(pair, normal_only):
    """Every size from 1 up to the context's, against the reference at the
    largest size cut to the smaller one (its list is ordered by size)."""
    new, ref, ctxs = pair
    compared = 0
    for ctx, top in ctxs:
        for ty in wanted_types(new, ctx):
            expected = reference_enumerate_terms(ref, ctx, ty, top, normal_only)
            for size in range(1, top + 1):
                got = enumerate_terms(new, ctx, ty, size, normal_only)
                assert got == [t for t in expected if term_size(t) <= size], (ctx, ty, size)
            compared += len(got)
    assert compared


def test_substitutions_match_reference(pair):
    new, ref, ctxs = pair
    found = 0
    for src, _ in ctxs:
        for tgt, _ in ctxs:
            for size in range(1, SUBST_SIZE + 1):
                got = enumerate_substitutions(new, src, tgt, size)
                assert got == reference_enumerate_substitutions(ref, src, tgt, size), (src, tgt, size)
                found += len(got)
    assert found


# ---------------------------------------------------------------------------
# a budget escaping an enumeration leaves no truncated memo entry
# ---------------------------------------------------------------------------

# f loops, and g's result type mentions f(x), so building the size-2
# constant applications normalises a looping type
LOOPING = """
A : sort
B : (x : A) -> sort
a : A
f : (x : A) -> A
g : (x : A) -> B(f(x))
f(x) ~> f(x)
"""


@pytest.mark.parametrize("normal_only", [False, True])
def test_budget_escape_is_not_cached(normal_only):
    sig = parse_signature(LOOPING)
    ty = SortApp("A")
    assert enumerate_terms(sig, (), ty, 1, normal_only) == [Const("a")]
    for _ in range(3):
        with pytest.raises(NormalizationBudget):
            enumerate_terms(sig, (), ty, 2, normal_only)
    assert enumerate_terms(sig, (), ty, 1, normal_only) == [Const("a")]


def test_budget_escape_from_types_is_not_cached():
    sig = parse_signature(LOOPING + "C : (y : B(f(a))) -> sort\n")
    for _ in range(3):
        with pytest.raises(NormalizationBudget):
            enumerate_types(sig, (), 4)


# ---------------------------------------------------------------------------
# the memo limit
# ---------------------------------------------------------------------------


def test_cache_limit_keeps_results(monkeypatch):
    """With every memo emptied at the limit of 8 entries, the shipped
    signatures give the same enumerations and normal forms.  Every memo
    in `sig.memos` is checked against the limit, and those that check
    it before each store stay within it."""
    expected = {}
    for name in SIGNATURES:
        sig = fresh(name)
        expected[name] = _survey(sig)
    monkeypatch.setattr(check, "CACHE_LIMIT", 8)
    checked = {}

    def spy(cache):
        checked[id(cache)] = cache
        return bounded(cache)

    monkeypatch.setattr(check, "bounded", spy)
    monkeypatch.setattr(contexts, "bounded", spy)
    for name in SIGNATURES:
        sig = fresh(name)
        assert _survey(sig) == expected[name]
        assert all(id(memo) in checked for memo in sig.memos)
        for memo in (sig._term_enum_cache, sig._subst_cache, sig._type_cache):
            assert len(memo) <= 8


def _survey(sig):
    out = []
    for ctx in enumerate_framework_contexts(sig, 1) + [polynomial_object(sig, 1, "El")]:
        for ty in wanted_types(sig, ctx):
            terms = enumerate_terms(sig, ctx, ty, 4, normal_only=False)
            out.append((ctx, ty, terms, enumerate_terms(sig, ctx, ty, 4)))
            out.append([normalize(sig, t) for t in terms])
        out.append(enumerate_types(sig, ctx, TYPE_SIZE, rep_only=True))
    return out
