"""One definition of a valid model morphism.

`check_morphism` and the morphism search decide family images,
Beck-Chevalley and value preservation with the same per-entry
predicates.  The `check_morphism` that kept its own copy of each
condition is kept below verbatim as the reference: both must give the
same clauses, details included, on every morphism the morphism-search
tests find, on criterion 8's canonical morphisms, and on mutants of
them with one component, one arrow image or one object image
changed.  The search itself must never call `check_morphism`, so it
checks the naturality square at a fixed point of an endomorphism
itself."""

import pytest

import rmtt.models
from rmtt.acceptance import SHIPPED, _model_corpus
from rmtt.corpus import span_category
from rmtt.fincat import (
    FiniteCategory,
    FunctorData,
    chain_poset,
    delta1,
    terminal_category,
    validate_category,
    validate_functor,
)
from rmtt.kernel import Signature, load_signature, parse_signature
from rmtt.models import (
    ModelBudget,
    ModelData,
    ModelMorphism,
    ModelReport,
    SortInterp,
    check_morphism,
    classifier_model,
    enumerate_model_morphisms,
    heart_inclusion,
    identity_morphism,
    initial_model,
    map_env,
    map_value,
    unique_morphism_from_initial,
)
from rmtt.rfib import Presheaf, RfibError, bang, terminal_psh

BASES = {"terminal": terminal_category, "delta1": delta1,
         "chain2": lambda: chain_poset(2), "span": span_category}


def reference_check_morphism(sig: Signature, m: ModelMorphism) -> ModelReport:
    """Terminal preservation, naturality across the base functor, family
    compatibility, the Beck-Chevalley comparison at representable sorts,
    and value preservation where environments are mappable."""
    rep = ModelReport()
    M, N = m.source, m.target
    fr = validate_functor(M.base, N.base, m.functor)
    ft = m.functor.object_map.get(M.terminal)
    terminal_ok = fr.ok and ft is not None and all(
        len(N.base.hom(x, ft)) == 1 for x in N.base.objects
    )
    rep.clauses.append(("functor", terminal_ok,
                        "functor laws fail" if not fr.ok else f"image of terminal is {ft!r}"))
    if not fr.ok:
        return rep

    nat_bad = []
    for name, comp in m.components.items():
        siM, siN = M.sorts[name], N.sorts[name]
        for c in M.base.objects:
            for x in siM.total.fibers[c]:
                if x not in comp[c]:
                    nat_bad.append(f"{name}: missing component at {c!r}")
                    break
        for a in M.base.arrow_ids:
            s, t = M.base.src[a], M.base.tgt[a]
            fa = m.functor.arrow_map[a]
            for x in siM.total.fibers[t]:
                lhs = comp[s][siM.total.action[a][x]]
                rhs = siN.total.action[fa][comp[t][x]]
                if lhs != rhs:
                    nat_bad.append(f"{name}: naturality fails along {a!r}")
                    break
    rep.clauses.append(("naturality", not nat_bad, "; ".join(nat_bad[:3])))

    fam_bad = []
    for name, comp in m.components.items():
        siM, siN = M.sorts[name], N.sorts[name]
        for c in M.base.objects:
            fc = m.functor.object_map[c]
            for x in siM.total.fibers[c]:
                want = map_env(m, siM.tele_ctx, c, siM.family.components[c][x])
                if siN.family.components[fc][comp[c][x]] != want:
                    fam_bad.append(f"{name}: family compatibility fails at {c!r}")
                    break
    rep.clauses.append(("family", not fam_bad, "; ".join(fam_bad[:3])))

    bc_bad = []
    bc_skipped = 0
    for name, comp in m.components.items():
        siM, siN = M.sorts[name], N.sorts[name]
        if not siM.rep or siM.witness is None:
            continue
        for (c, te), (obj, proj, gen) in siM.witness.data.items():
            fc = m.functor.object_map[c]
            te_n = map_env(m, siM.tele_ctx, c, te)
            if siN.witness is None or (fc, te_n) not in siN.witness.data:
                bc_skipped += 1
                continue
            fobj = m.functor.object_map[obj]
            fproj = m.functor.arrow_map[proj]
            gen_n = comp[obj][gen]
            try:
                h = siN.witness.mediate(fc, te_n, fobj, fproj, gen_n)
            except RfibError:
                bc_bad.append(f"{name}: no comparison arrow at {c!r}")
                continue
            if N.base.inverse(h) is None:
                bc_bad.append(f"{name}: comparison not invertible at {c!r}")
    rep.clauses.append(("beck-chevalley", not bc_bad,
                        "; ".join(bc_bad[:3]) + (f" ({bc_skipped} skipped at depth)" if bc_skipped else "")))

    val_bad = []
    if not bc_bad:
        for d in sig.term_decls:
            tabM = M.term_values.get(d.name, {})
            tabN = N.term_values.get(d.name, {})
            for (c, te), v in tabM.items():
                fc = m.functor.object_map[c]
                try:
                    te_n = map_env(m, d.telescope, c, te)
                    if (fc, te_n) not in tabN:
                        continue
                    v_n = map_value(m, d.telescope, d.target, c, te, v)
                except ModelBudget:
                    continue
                if v_n != tabN[(fc, te_n)]:
                    val_bad.append(f"{d.name}: value not preserved at {c!r}")
    rep.clauses.append(("values", not val_bad, "; ".join(val_bad[:3])))
    return rep


def same_verdict(sig, m):
    expected = reference_check_morphism(sig, m).clauses
    assert check_morphism(sig, m).clauses == expected
    return expected


def spread(items, n):
    """At most n of items, evenly spaced."""
    return items[::max(1, len(items) // n)][:n]


def mutants(m, per_kind=4):
    """Copies of m with one sort component, one arrow image or one object
    image changed, at most per_kind of each, spread over m."""
    M, N = m.source, m.target
    omap, amap = m.functor.object_map, m.functor.arrow_map

    def copy(omap=omap, amap=amap):
        return ModelMorphism(M, N, FunctorData(dict(omap), dict(amap)),
                             {n: {c: dict(v) for c, v in comp.items()} for n, comp in m.components.items()})

    out = []
    components = [(name, c, x, y2) for name, comp in m.components.items() for c, table in comp.items()
                  for x, y in table.items() for y2 in N.sorts[name].total.fibers[omap[c]] if y2 != y]
    for name, c, x, y2 in spread(components, per_kind):
        mut = copy()
        mut.components[name][c][x] = y2
        out.append(mut)
    arrows = [(a, fa2) for a, fa in amap.items() for fa2 in N.base.arrow_ids if fa2 != fa]
    out += [copy(amap={**amap, a: fa2}) for a, fa2 in spread(arrows, per_kind)]
    objects = [(o, n2) for o, n in omap.items() for n2 in N.base.objects if n2 != n]
    out += [copy(omap={**omap, o: n2}) for o, n2 in spread(objects, per_kind)]
    return out


@pytest.fixture(scope="module")
def classifiers():
    return {(s, b): classifier_model(load_signature(s), make())
            for s in ("tthg", "itth") for b, make in BASES.items()}


@pytest.fixture(scope="module")
def searched(classifiers):
    """(signature, morphism) for every morphism the morphism-search tests
    find, plus heart inclusions and identities."""
    out = []

    def search(sig, M, N):
        out.extend((sig, m) for m in enumerate_model_morphisms(sig, M, N))

    for s in ("tthg", "itth"):
        sig = load_signature(s)
        for a in BASES:
            for b in BASES:
                search(sig, classifiers[s, a], classifiers[s, b])
    tthg = load_signature("tthg")
    for b in BASES:
        N = classifiers["tthg", b]
        inc = heart_inclusion(N)
        out += [(tthg, inc), (tthg, identity_morphism(N))]
        search(tthg, inc.source, N)
        for a in ("terminal", "delta1"):
            search(tthg, classifiers["tthg", a], inc.source)
    for s in SHIPPED:
        sig = load_signature(s)
        initial = initial_model(sig, 2, type_size=4, term_size=4)
        for make in BASES.values():
            search(sig, initial, classifier_model(sig, make()))
    itth = load_signature("itth")
    search(itth, initial_model(itth, 3, type_size=4, term_size=4), classifier_model(itth, delta1()))
    itth_1 = initial_model(itth, 1, type_size=4, term_size=4)
    search(itth, itth_1, itth_1)
    return out


@pytest.fixture(scope="module")
def canonical():
    """Criterion 8's canonical morphisms."""
    out = []
    for name in SHIPPED:
        sig, targets = _model_corpus(name)
        initial = initial_model(sig, 2, type_size=4, term_size=4)
        for target in targets:
            morphism, _, _ = unique_morphism_from_initial(sig, 2, target, initial=initial, verify_unique=False)
            out.append((sig, morphism))
    return out


def test_found_morphisms(searched):
    assert len(searched) > 100
    for sig, m in searched:
        clauses = same_verdict(sig, m)
        assert all(ok for _, ok, _ in clauses)


def test_canonical_morphisms(canonical):
    assert len(canonical) == 2 * len(SHIPPED)
    for sig, m in canonical:
        assert all(ok for _, ok, _ in same_verdict(sig, m))


def test_mutants(searched, canonical):
    failed = set()
    for sig, m in searched + canonical:
        for mut in mutants(m):
            failed.update(c for c, ok, _ in same_verdict(sig, mut) if not ok)
    # the mutants reach every clause
    assert failed == {"functor", "naturality", "family", "beck-chevalley", "values"}


def test_search_never_calls_check_morphism(monkeypatch, classifiers):
    def refuse(*args):
        raise AssertionError("the morphism search called check_morphism")

    monkeypatch.setattr(rmtt.models, "check_morphism", refuse)
    tthg, itth = load_signature("tthg"), load_signature("itth")
    assert enumerate_model_morphisms(tthg, classifiers["tthg", "span"], classifiers["tthg", "chain2"])
    assert enumerate_model_morphisms(itth, classifiers["itth", "delta1"], classifiers["itth", "delta1"])
    initial = initial_model(itth, 1, type_size=4, term_size=4)
    assert len(enumerate_model_morphisms(itth, initial, initial)) == 1


def test_fixed_point_squares_are_checked_in_the_search():
    """Over a base with an idempotent e, a point p of the source that e
    fixes may only go to a point that the image of e fixes; nothing after
    the search checks that square again."""
    base = FiniteCategory(
        ["0", "t"],
        [("id0", "0", "0"), ("e", "0", "0"), ("idt", "t", "t"), ("!", "0", "t")],
        {"0": "id0", "t": "idt"},
        {("id0", "id0"): "id0", ("id0", "e"): "e", ("e", "id0"): "e", ("e", "e"): "e",
         ("idt", "idt"): "idt", ("!", "id0"): "!", ("!", "e"): "!", ("idt", "!"): "!"},
    )
    assert validate_category(base).ok
    sig = parse_signature("A : sort\n")

    def model(fibre, e):
        m = ModelData(base, "t", sig)
        total = Presheaf(base, {"0": fibre, "t": ()}, {"id0": {x: x for x in fibre}, "e": e, "idt": {}, "!": {}})
        m.sorts["A"] = SortInterp(sig.decls["A"], terminal_psh(base), total, bang(total))
        return m

    M, N = model(("p",), {"p": "p"}), model(("a", "b"), {"a": "a", "b": "a"})
    found = enumerate_model_morphisms(sig, M, N)
    assert [(m.functor.arrow_map["e"], m.components["A"]["0"]) for m in found] == [
        ("id0", {"p": "a"}), ("id0", {"p": "b"}), ("e", {"p": "a"})]
    assert all(check_morphism(sig, m).ok for m in found)
