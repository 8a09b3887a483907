import pytest

from rmtt.homotopy import added_constants
from rmtt.kernel import (
    SHIPPED_SIGNATURES,
    Const,
    Declaration,
    Lam,
    SortApp,
    Var,
    check_context,
    check_signature,
    compose_subst,
    enumerate_contexts,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    enumerate_types,
    identity_subst,
    load_signature,
    parse_signature,
    pretty,
    print_signature,
    slice_theory,
)
from rmtt.kernel import contexts
from rmtt.kernel.contexts import contexts_iso_subs
from rmtt.kernel.terms import free_vars

from constructions import contexts_isomorphic, hom_equal, polynomial_object, unpruned_contexts_iso_subs


def ext(sig, name="o"):
    return sig.extended([Declaration(name, (), SortApp("Ty"))])


def test_enumerate_contexts_depth1(tthg):
    sig = ext(tthg)
    ctxs = enumerate_contexts(sig, 1)
    assert ctxs == [(), (SortApp("El", (Const("o"),)),)]
    assert enumerate_contexts(tthg, 1) == [()]
    assert enumerate_contexts(sig, 0) == [()]


def test_depth2_includes_identity_contexts(etth1):
    sig = ext(etth1)
    ctxs = enumerate_contexts(sig, 2, type_size=5)
    shapes = {tuple(pretty(t) for t in c) for c in ctxs}
    assert ("El(o)", "El(Id(o, tt, ?0))") not in shapes  # tt is not of type El(o)
    assert any(
        len(c) == 2 and "Id(o" in pretty(c[1]) for c in ctxs
    ), sorted(shapes)


def test_hom_equal_basics(itth):
    ctx = (SortApp("El", (Const("Unit"),)),)
    s = (Var(0),)
    assert hom_equal(itth, s, s)
    t = (Const("tt"),)
    assert not hom_equal(itth, s, t)


def test_hom_equal_rule_convertible(etth1):
    # two substitutions differing by surjective pairing are identified
    B = Lam(SortApp("El", (Const("Unit"),)), Const("Unit"))
    sigty = SortApp("El", (Const("Sig", (Const("Unit"), B)),))
    src = (sigty,)
    s1 = (Var(0),)
    s2 = (Const("pair", (Const("Unit"), B,
                         Const("fst", (Const("Unit"), B, Var(0))),
                         Const("snd", (Const("Unit"), B, Var(0))))),)
    assert hom_equal(etth1, s1, s2)


def test_substitution_composition_associative(itth):
    sig = ext(itth)
    A = (SortApp("El", (Const("o"),)),)
    subs = enumerate_substitutions(sig, A, A, 3)
    for f in subs:
        assert hom_equal(sig, compose_subst(sig, f, identity_subst(A)), f)
        assert hom_equal(sig, compose_subst(sig, identity_subst(A), f), f)


def test_slice_theory_unrolls_telescope(tthg):
    sl = slice_theory(tthg, (SortApp("Ty"),))
    names = [d.name for d in added_constants(tthg, sl)]
    assert len(names) == 1
    assert sl.decls[names[0]].target == SortApp("Ty")
    sl2 = slice_theory(tthg, (SortApp("Ty"), SortApp("El", (Var(0),))))
    names2 = [d.name for d in added_constants(tthg, sl2)]
    assert len(names2) == 2
    assert sl2.decls[names2[1]].target == SortApp("El", (Const(names2[0]),))


def test_slice_at_empty_context_is_marker_only(tthg):
    sl = slice_theory(tthg, ())
    assert sl.items == tthg.items
    assert any("empty context" in n for n in sl.notes)


def test_slice_twice_commutes_with_concatenation(tthg):
    a = (SortApp("Ty"),)
    b = (SortApp("Ty"), SortApp("El", (Var(0),)))
    once = slice_theory(slice_theory(tthg, a, prefix="p"),
                        (SortApp("El", (Const("p0"),)),), prefix="q")
    both = slice_theory(tthg, b, prefix="r")
    shapes = lambda sig: [
        (d.telescope, d.target if isinstance(d.target, str) else "term")
        for d in sig.declarations()
    ]
    assert len(shapes(once)) == len(shapes(both))


def test_slice_universal_property(tthg):
    # morphisms out of the slice correspond to (morphism, section) pairs
    from rmtt.homotopy import extension_morphisms

    sig = ext(tthg)
    sl = slice_theory(sig, (SortApp("El", (Const("o"),)),), prefix="s")
    theory = sig.extended([
        Declaration("c1", (), SortApp("El", (Const("o"),))),
        Declaration("c2", (), SortApp("El", (Const("o"),))),
    ])
    # maps out of the slice over sig = choices of a section of El(o)
    maps = extension_morphisms(sig, sl, theory, size=2)
    sections = enumerate_terms(theory, (), SortApp("El", (Const("o"),)), 2)
    assert len(maps) == len(sections)


def test_polynomial_object_shapes(tthg):
    assert polynomial_object(tthg, 0, "unit") == ()
    assert polynomial_object(tthg, 0, "Ty") == (SortApp("Ty"),)
    assert polynomial_object(tthg, 0, "El") == (
        SortApp("Ty"),
        SortApp("El", (Var(0),)),
    )
    ctx = polynomial_object(tthg, 2, "El")
    assert len(ctx) == 4
    check_context(tthg, ctx)
    # the theory freely generated by it validates
    free = slice_theory(tthg, ctx, prefix="gen")
    assert check_signature(print_signature(free)).ok


def test_polynomial_object_unit_equals_shifted_ty(tthg):
    assert polynomial_object(tthg, 1, "unit") == polynomial_object(tthg, 0, "Ty")


def test_framework_contexts_include_sort_entries(tthg):
    ctxs = enumerate_framework_contexts(tthg, 1)
    assert (SortApp("Ty"),) in ctxs


def test_context_isomorphism_detection(itth):
    sig = ext(itth)
    a = (SortApp("El", (Const("o"),)),)
    assert contexts_isomorphic(sig, a, a)
    b = (SortApp("El", (Const("Unit"),)),)
    assert not contexts_isomorphic(sig, a, b)


# ---------------------------------------------------------------------------
# contexts_iso_subs against the version that enumerated g once per f
# ---------------------------------------------------------------------------


def reference_contexts_iso_subs(sig, a, b, size=4):
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


def candidate_contexts(sig):
    """Every context enumerate_framework_contexts weighs at depth <= 2: its
    own, and the extensions it drops as isomorphic to one it kept."""
    kept = enumerate_framework_contexts(sig, 1)
    return [()] + [ctx + (ty,) for ctx in kept for ty in enumerate_types(sig, ctx, 4)]


# Box(A) is isomorphic to A only through box and unbox, so the only
# isomorphisms between (x : El(Box(o))) and (y : El(o)) have components
# that are not variables; pick drops one of its arguments once its
# selector is one or two, so fv(t[f]) can be smaller than the bound the
# prune uses.
BOX = """\
Ty : sort
El : (A : Ty) -> rep-sort
o : Ty
Box : (A : Ty) -> Ty
box : (A : Ty, x : El(A)) -> El(Box(A))
unbox : (A : Ty, y : El(Box(A))) -> El(A)
unbox(A, box(A, x)) ~> x
box(A, unbox(A, y)) ~> y
Two : Ty
one : El(Two)
two : El(Two)
pick : (A : Ty, s : El(Two), x : El(A), y : El(A)) -> El(A)
pick(A, one, x, y) ~> x
pick(A, two, x, y) ~> y
"""


def signature(name):
    return parse_signature(BOX) if name == "box" else load_signature(name)


@pytest.mark.parametrize("name", SHIPPED_SIGNATURES + ("box",))
def test_iso_subs_match_reference(name):
    """Same pair, or None, on every pair of those contexts at every size up
    to the default; each side runs on its own signature."""
    new, ref = signature(name), signature(name)
    ctxs = candidate_contexts(new)
    assert set(enumerate_framework_contexts(new, 2)) <= set(ctxs)
    found = 0
    for a in ctxs:
        for b in ctxs:
            for size in range(1, 5):
                got = contexts_iso_subs(new, a, b, size)
                assert got == reference_contexts_iso_subs(ref, a, b, size), (a, b, size)
                found += got is not None
    assert found


def passes_prune(f, n):
    """The free-variable prune's conditions on f : a -> b, len(a) = n:
    every component has a free variable, and together they have all n."""
    return all(t.loose > 0 for t in f) and set().union(*map(free_vars, f)) == set(range(n))


def test_iso_subs_searches_g_once_per_f(itth, monkeypatch):
    """No b -> a candidate is built when no a -> b substitution passes the
    free-variable prune, and the search for g runs once for each f that
    does."""
    searches = []
    search = contexts._substitutions

    def counted(sig, src, tgt, size, keep=None):
        searches.append((src, tgt))
        return search(sig, src, tgt, size, keep)

    monkeypatch.setattr(contexts, "_substitutions", counted)
    sig = ext(itth)
    a = (SortApp("El", (Const("o"),)),)
    b = (SortApp("El", (Const("Unit"),)),)
    ty = (SortApp("Ty"),)
    fs = enumerate_substitutions(sig, a, b, 4)
    assert fs and not any(passes_prune(f, 1) for f in fs)  # every f : a -> b is closed
    assert not enumerate_substitutions(sig, b, a, 4)
    open_fs = [f for f in enumerate_substitutions(sig, a, ty, 4) if passes_prune(f, 1)]
    assert open_fs == [(Const("Id", (Const("o"), Var(0), Var(0))),)]
    for src, tgt, expected in [
        (a, a, [(a, a), (a, a)]),  # the first f, the identity, has an inverse
        (a, b, [(a, b)]),
        (b, a, [(b, a)]),
        (a, ty, [(a, ty)] + [(ty, a)] * len(open_fs)),  # Id(o, x, x) has no inverse
    ]:
        searches.clear()
        found = contexts_iso_subs(sig, src, tgt)
        assert searches == expected, (src, tgt)
        assert (found is not None) == (src == tgt)


@pytest.mark.parametrize("depth", [
    1,
    2,
    pytest.param(3, marks=pytest.mark.scale),
])
@pytest.mark.parametrize("name", SHIPPED_SIGNATURES)
def test_search_contexts_matches_unpruned(name, depth, monkeypatch):
    """The same kept contexts, and the same representative and pair for
    every extension weighed, as the search before the free-variable prune;
    each search runs on its own signature."""
    for rep_only in (True, False):
        got = contexts.search_contexts(load_signature(name), depth, rep_only=rep_only)
        with monkeypatch.context() as m:
            m.setattr(contexts, "contexts_iso_subs", unpruned_contexts_iso_subs)
            want = contexts.search_contexts(load_signature(name), depth, rep_only=rep_only)
        assert got == want, rep_only


def test_iso_subs_with_non_variable_components():
    sig = signature("box")
    boxed, plain = (SortApp("El", (Const("Box", (Const("o"),)),)),), (SortApp("El", (Const("o"),)),)
    assert boxed in candidate_contexts(sig) and plain in candidate_contexts(sig)
    assert contexts_iso_subs(sig, boxed, plain) == (
        (Const("unbox", (Const("o"), Var(0))),),
        (Const("box", (Const("o"), Var(0))),),
    )


@pytest.mark.scale
@pytest.mark.parametrize("name", ["itth", "etth1"])
def test_framework_contexts_at_depth_4(name):
    """Depth 4 finishes, and keeps the depth-3 contexts as its contexts of
    length <= 3, in the same order."""
    sig = load_signature(name)
    deeper = enumerate_framework_contexts(sig, 4)
    shallow = enumerate_framework_contexts(load_signature(name), 3)
    assert [c for c in deeper if len(c) <= 3] == shallow
    assert len(deeper) > len(shallow)


@pytest.mark.parametrize("ctx", [
    pytest.param((SortApp("Ty"), SortApp("El", (Const("Unit"),))), id="Ty-ElUnit"),
    pytest.param((SortApp("Ty"), SortApp("Ty")), id="Ty-Ty", marks=pytest.mark.scale),
])
def test_iso_subs_match_reference_at_depth3(ctx):
    """Same pair, or None, on every pair of the extensions that
    enumerate_framework_contexts weighs at depth 3 on `itth` on top of
    ctx, a context it keeps at depth 2."""
    new, ref = load_signature("itth"), load_signature("itth")
    assert ctx in enumerate_framework_contexts(new, 2)
    ctxs = [ctx + (ty,) for ty in enumerate_types(new, ctx, 4)]
    found = 0
    for a in ctxs:
        for b in ctxs:
            got = contexts_iso_subs(new, a, b, 4)
            assert got == reference_contexts_iso_subs(ref, a, b, 4), (a, b)
            found += got is not None
    assert found >= len(ctxs)
