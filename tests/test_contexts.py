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
    contexts_isomorphic,
    enumerate_contexts,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    enumerate_types,
    identity_subst,
    load_signature,
    pretty,
    print_signature,
    slice_theory,
)
from rmtt.kernel import contexts
from rmtt.kernel.contexts import contexts_iso_subs

from constructions import hom_equal, polynomial_object


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


@pytest.mark.parametrize("name", SHIPPED_SIGNATURES)
def test_iso_subs_match_reference(name):
    """Same pair, or None, on every pair of those contexts at every size up
    to the default; each side runs on its own signature."""
    new, ref = load_signature(name), load_signature(name)
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


def test_iso_subs_searches_g_once_per_f(itth, monkeypatch):
    """No b -> a candidate is built when there is no a -> b substitution,
    and the search for g runs once for each f tried."""
    searches = []
    search = contexts._substitutions

    def counted(sig, src, tgt, size, keep=None):
        searches.append((src, tgt))
        return search(sig, src, tgt, size, keep)

    monkeypatch.setattr(contexts, "_substitutions", counted)
    sig = ext(itth)
    a = (SortApp("El", (Const("o"),)),)
    b = (SortApp("El", (Const("Unit"),)),)
    fs = enumerate_substitutions(sig, a, b, 4)
    assert fs and not enumerate_substitutions(sig, b, a, 4)
    for src, tgt, expected in [
        (a, a, [(a, a), (a, a)]),  # the first f, the identity, has an inverse
        (a, b, [(a, b)] + [(b, a)] * len(fs)),
        (b, a, [(b, a)]),
    ]:
        searches.clear()
        contexts_iso_subs(sig, src, tgt)
        assert searches == expected, (src, tgt)


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
