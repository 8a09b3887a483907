"""The one layered context search and the record-once `initial_model`
against the code they replaced, kept below verbatim as the reference:
the three context loops (`enumerate_contexts`,
`enumerate_framework_contexts` and the extension-recording loop of the
initial model) and the `initial_model` that composed every pair twice
and computed every action entry twice.  Kept contexts, extension maps,
model documents, construction extras and the composition table in its
insertion order (the morphism search compiles functor laws in it) must
all agree."""

import pytest

from rmtt.acceptance import SHIPPED
from rmtt.fincat import FiniteCategory
from rmtt.kernel import (
    SHIPPED_SIGNATURES,
    Const,
    Declaration,
    SortApp,
    Var,
    enumerate_contexts,
    enumerate_framework_contexts,
    load_signature,
    parse_signature,
    print_signature,
)
from rmtt.kernel.check import normalize
from rmtt.kernel.contexts import (
    compose_subst,
    contexts_iso_subs,
    enumerate_substitutions,
    enumerate_terms,
    enumerate_types,
    identity_subst,
    normalize_subst,
    search_contexts,
    slice_theory,
)
from rmtt.kernel.terms import instantiate_many
from rmtt.models import (
    ModelBudget,
    ModelData,
    ModelError,
    SortInterp,
    _te_to_terms,
    _term_to_raw,
    _weakening_subst,
    ctx_act,
    env_list,
    eval_type_fiber,
    initial_model,
    interpret_context,
    model_to_json,
    syntactic_model,
)
from rmtt.rfib import ComprehensionWitness, Presheaf, PshMap

from constructions import contexts_isomorphic


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------


def reference_enumerate_contexts(sig, depth, type_size=4):
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


def reference_enumerate_framework_contexts(sig, depth, type_size=4):
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


def reference_enumerate_contexts_with_isos(sig, depth, type_size, subst_size):
    """Representable contexts up to depth with, for every one-step
    extension of a kept context, its kept representative and the
    witnessing isomorphism pair."""
    kept = [()]
    layer_of = {0: 0}
    ext = {}  # (index, normalized extension type) -> (index, fwd, bwd)
    frontier = [0]
    for layer in range(depth):
        new = []
        for i in frontier:
            ctx = kept[i]
            for ty in enumerate_types(sig, ctx, type_size, rep_only=True):
                cand = ctx + (ty,)
                hit = None
                for j in new:
                    subs = contexts_iso_subs(sig, cand, kept[j], subst_size)
                    if subs is not None:
                        hit = (j, subs[0], subs[1])
                        break
                if hit is None:
                    kept.append(cand)
                    j = len(kept) - 1
                    layer_of[j] = layer + 1
                    new.append(j)
                    ident = identity_subst(cand)
                    hit = (j, ident, ident)
                ext[(i, ty)] = hit
        frontier = new
    return kept, ext


def reference_ctx_fiber_partial(model, ctx, c):
    """Like ctx_fiber but skipping environment branches that fall outside
    a truncated model's depth instead of failing the whole stage."""
    if not ctx:
        return [()]
    out = []
    for env in reference_ctx_fiber_partial(model, ctx[:-1], c):
        try:
            vals = eval_type_fiber(model, ctx[:-1], ctx[-1], c, env)
        except ModelBudget:
            continue
        for v in vals:
            out.append((env, v))
    return out


def reference_initial_model(sig, depth, type_size=5, subst_size=None, term_size=5,
                            max_arrows=3000, exposed_sig=None):
    """The syntactic model at a depth: objects are enumerated contexts of
    representable types, arrows are substitutions up to rule
    convertibility, sort fibers are enumerated terms.  Comprehension
    data at the depth boundary is partial; the model is depth-stamped."""
    if subst_size is None:
        subst_size = term_size  # mediating arrows are built from fiber terms
    ctxs, ext = reference_enumerate_contexts_with_isos(sig, depth, type_size, subst_size)
    obj_ids = [f"G{i}" for i in range(len(ctxs))]
    ctx_of = {obj_ids[i]: ctxs[i] for i in range(len(ctxs))}

    # arrows: substitution classes, closed under composition
    arrows = {}  # (i, j, subst) in normal form -> arrow id
    by_pair = {}

    def add_arrow(i, j, sub):
        key = (i, j, sub)
        if key in arrows:
            return arrows[key]
        if len(arrows) >= max_arrows:
            raise ModelBudget("arrow budget exhausted while closing under composition")
        aid = f"s{len(arrows)}"
        arrows[key] = aid
        by_pair.setdefault((i, j), []).append((aid, sub))
        return aid

    for i in range(len(ctxs)):
        for j in range(len(ctxs)):
            for sub in enumerate_substitutions(sig, ctxs[i], ctxs[j], subst_size):
                add_arrow(i, j, normalize_subst(sig, sub))
    # force the comprehension projections into the arrow set
    for (i, ty), (j, fwd, bwd) in ext.items():
        weaken = _weakening_subst(ctxs[i])
        proj_sub = normalize_subst(sig, compose_subst(sig, bwd, weaken))
        add_arrow(j, i, proj_sub)
    changed = True
    while changed:
        changed = False
        for (i, j, s1), a1 in list(arrows.items()):
            for (j2, k, s2), a2 in list(arrows.items()):
                if j2 != j:
                    continue
                comp = normalize_subst(sig, compose_subst(sig, s1, s2))
                if (i, k, comp) not in arrows:
                    add_arrow(i, k, comp)
                    changed = True

    arrow_list = [(aid, obj_ids[i], obj_ids[j]) for (i, j, _), aid in arrows.items()]
    arrow_sub = {aid: (i, j, s) for (i, j, s), aid in arrows.items()}
    identities = {}
    for i, ctx in enumerate(ctxs):
        identities[obj_ids[i]] = arrows[(i, i, identity_subst(ctx))]
    compose = {}
    for (i, j, s1), a1 in arrows.items():
        for (j2, k, s2), a2 in arrows.items():
            if j2 != j:
                continue
            comp = normalize_subst(sig, compose_subst(sig, s1, s2))
            compose[(arrows[(j, k, s2)], a1)] = arrows[(i, k, comp)]
    base = FiniteCategory(obj_ids, arrow_list, identities, compose)

    model = ModelData(base, obj_ids[0], sig, depth=depth, exposed_sig=exposed_sig)
    model.extras["contexts"] = ctxs
    model.extras["arrow_subst"] = arrow_sub
    model.extras["extensions"] = ext

    index_of = {obj_ids[i]: i for i in range(len(ctxs))}

    for d in sig.sort_decls:
        for ty in d.telescope:
            if not isinstance(ty, SortApp):
                raise ModelError("sort telescopes must be sort applications")
        tele_obj = interpret_context(model, d.telescope)
        fibers = {}
        for c in base.objects:
            i = index_of[c]
            elems = []
            for te in tele_obj.fibers[c]:
                args = tuple(raw[1] for raw in env_list(te, len(d.telescope)))
                want = normalize(sig, SortApp(d.name, args))
                for t in enumerate_terms(sig, ctxs[i], want, term_size):
                    elems.append((te, t))
            fibers[c] = elems
        # close fibers under the substitution action; `members` mirrors
        # each fiber list as a set
        members = {c: set(elems) for c, elems in fibers.items()}
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 50:
                raise ModelBudget("sort fibers failed to close under substitution")
            for aid, (i, j, sub) in arrow_sub.items():
                # arrow G_i -> G_j acts fibers[G_j] -> fibers[G_i]
                for (te, t) in list(fibers[obj_ids[j]]):
                    te2 = ctx_act(model, d.telescope, aid, te) if d.telescope else ()
                    t2 = normalize(sig, instantiate_many(t, sub))
                    if (te2, t2) not in members[obj_ids[i]]:
                        fibers[obj_ids[i]].append((te2, t2))
                        members[obj_ids[i]].add((te2, t2))
                        changed = True
        fibers = {c: tuple(sorted(fibers[c], key=lambda p: repr(p))) for c in base.objects}
        action = {}
        for aid, (i, j, sub) in arrow_sub.items():
            action[aid] = {
                (te, t): (
                    ctx_act(model, d.telescope, aid, te) if d.telescope else (),
                    normalize(sig, instantiate_many(t, sub)),
                )
                for (te, t) in fibers[obj_ids[j]]
            }
        total = Presheaf(base, fibers, action)
        family = PshMap(total, tele_obj,
                        {c: {(te, t): te for (te, t) in fibers[c]} for c in base.objects},
                        validate=False)
        witness = None
        if d.is_rep_sort:
            data = {}
            fiber_sets = {c: set(fibers[c]) for c in base.objects}
            for c in base.objects:
                i = index_of[c]
                for te in tele_obj.fibers[c]:
                    args = tuple(raw[1] for raw in env_list(te, len(d.telescope)))
                    ty = normalize(sig, SortApp(d.name, args))
                    hit = ext.get((i, ty))
                    if hit is None:
                        continue
                    j, fwd, bwd = hit
                    weaken = _weakening_subst(ctxs[i])
                    proj_sub = normalize_subst(sig, compose_subst(sig, bwd, weaken))
                    gen_term = normalize(sig, bwd[-1])
                    proj_aid = arrows.get((j, i, proj_sub))
                    if proj_aid is None:
                        continue
                    te_j = ctx_act(model, d.telescope, proj_aid, te) if d.telescope else ()
                    gen = (te_j, gen_term)
                    if gen not in fiber_sets[obj_ids[j]]:
                        continue
                    data[(c, te)] = (obj_ids[j], proj_aid, gen)
            witness = ComprehensionWitness(family, data)
        model.sorts[d.name] = SortInterp(d, tele_obj, total, family, witness)

    for d in sig.term_decls:
        table = {}
        for c in base.objects:
            i = index_of[c]
            for te in reference_ctx_fiber_partial(model, d.telescope, c):
                try:
                    args = _te_to_terms(model, d.telescope, te, i)
                    t = normalize(sig, Const(d.name, tuple(args)))
                    want = normalize(sig, instantiate_many(d.target, tuple(args)))
                    v = _term_to_raw(model, i, t, want)
                    table[(c, te)] = v
                except (ModelBudget, KeyError):
                    continue
        model.term_values[d.name] = table
    return model


def reference_syntactic_model(sig, ctx, depth, **kw):
    sliced = slice_theory(sig, ctx, prefix="sm")
    return reference_initial_model(sliced, depth, exposed_sig=sig, **kw)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def with_o(sig):
    return sig.extended([Declaration("o", (), SortApp("Ty"))])


def fresh(name):
    """A signature of its own for each side, so that no memo is shared."""
    if name == "tthg+o":
        return with_o(load_signature("tthg"))
    return load_signature(name)


NAMES = SHIPPED_SIGNATURES + ("tthg+o",)


def same_model(got, want):
    assert model_to_json(got) == model_to_json(want)
    assert got.extras == want.extras
    assert list(got.base.compose.items()) == list(want.base.compose.items())


def outcome(model_fn, *args, **kw):
    """The model, or the arrows added when the arrow budget ran out, in
    the order they were added, read from the frame that raised."""
    try:
        return model_fn(*args, **kw)
    except ModelBudget as e:
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return list(tb.tb_frame.f_locals["arrows"].items())


def same_outcome(got, want):
    if isinstance(want, list):
        assert got == want
    else:
        same_model(got, want)


# ---------------------------------------------------------------------------
# the context search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_context_search_matches_reference(name):
    new, ref = fresh(name), fresh(name)
    for depth in (0, 1, 2):
        for type_size in (4, 5):
            want = reference_enumerate_contexts(ref, depth, type_size)
            assert enumerate_contexts(new, depth, type_size) == want
            assert enumerate_framework_contexts(new, depth, type_size) == (
                reference_enumerate_framework_contexts(ref, depth, type_size)
            )
            for iso_size in (4, 5):
                got = search_contexts(new, depth, type_size, iso_size=iso_size)
                kept, ext = reference_enumerate_contexts_with_isos(ref, depth, type_size, iso_size)
                assert got == (kept, ext)
                assert list(got[1]) == list(ext)


def test_context_search_keeps_extensions_of_all_kinds():
    """The corpus above reaches both outcomes of the search: extensions
    kept, and extensions mapped to an isomorphic representative."""
    kept, ext = search_contexts(fresh("itth"), 2, 5)
    reps = [j for (i, ty), (j, f, g) in ext.items() if kept[i] + (ty,) != kept[j]]
    assert reps and len(kept) > 2


# ---------------------------------------------------------------------------
# initial and syntactic models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("term_size", [4, 5])
def test_initial_model_matches_reference(name, depth, term_size):
    new, ref = fresh(name), fresh(name)
    same_model(initial_model(new, depth, term_size=term_size),
               reference_initial_model(ref, depth, term_size=term_size))


@pytest.mark.parametrize("sizes", [{"type_size": 4, "term_size": 4}, {}], ids=["4-4", "default"])
def test_initial_model_itth_depth3_matches_reference(sizes):
    """At the default sizes the arrow budget runs out."""
    got = outcome(initial_model, fresh("itth"), 3, **sizes)
    same_outcome(got, outcome(reference_initial_model, fresh("itth"), 3, **sizes))
    assert isinstance(got, list) == (not sizes)


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion6_syntactic_models_match_reference(name):
    """Every syntactic model criterion 6 builds, at its own sizes."""
    new, ref = fresh(name), fresh(name)
    ctxs = enumerate_framework_contexts(new, 2, type_size=4)
    assert ctxs == reference_enumerate_framework_contexts(ref, 2, type_size=4)
    for A in ctxs:
        same_model(syntactic_model(new, A, 1, type_size=4, term_size=4),
                   reference_syntactic_model(ref, A, 1, type_size=4, term_size=4))


# ---------------------------------------------------------------------------
# the composition closure adding arrows
# ---------------------------------------------------------------------------

ENDO = "o : Ty\ng : (x : El(o)) -> El(o)\n"


def endo(extra=""):
    return parse_signature(print_signature(load_signature("tthg")) + ENDO + extra)


def build(model_fn, extra, **kw):
    return outcome(model_fn, endo(extra), 1, subst_size=2, term_size=2, **kw)


def test_closure_adds_composites_then_closes():
    """g after g has size 3, past subst_size 2, so the closure adds it;
    with g(g(g(x))) ~> g(x) every longer composite reduces to one the
    model has, and the closure stops.  The pass that adds g after g goes
    on to compose with it, so the table's order depends on which pairs
    each pass sees.  Below five arrows the budget runs out, at four
    inside the closure."""
    rule = "g(g(g(x))) ~> g(x)\n"
    got = build(initial_model, rule)
    same_model(got, build(reference_initial_model, rule))
    G1 = got.extras["contexts"][1]
    g = Const("g", (Var(0),))
    assert enumerate_substitutions(got.sig, G1, G1, 2) == [(Var(0),), (g,)]
    assert (1, 1, (Const("g", (g,)),)) in got.extras["arrow_subst"].values()
    assert len(got.base.arrows) == 5
    for max_arrows in range(1, 7):
        want = build(reference_initial_model, rule, max_arrows=max_arrows)
        assert isinstance(want, list) == (max_arrows < 5)
        same_outcome(build(initial_model, rule, max_arrows=max_arrows), want)


@pytest.mark.parametrize("max_arrows", [3, 4, 6, 10, 25, 60])
@pytest.mark.parametrize("more", ["", "h : (x : El(o)) -> El(o)\n"], ids=["g", "g-h"])
def test_closure_budget_runs_out_where_reference_does(more, max_arrows):
    """Without a rule the composites of g (and h) never close, and the
    arrow budget runs out inside the closure (from four arrows on), with
    the same arrows added in the same order.  With two generators that
    order depends on which arrows each pass composes with: a composite
    added in a pass is a first factor only from the next pass on."""
    got = build(initial_model, more, max_arrows=max_arrows)
    assert got == build(reference_initial_model, more, max_arrows=max_arrows)
    assert len(got) == max_arrows
