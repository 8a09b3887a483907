"""The compiled-constraint morphism search against the generate-then-filter
search it replaced, kept below verbatim as the reference: the same
morphisms in the same order, the same outcome at small budgets and the
same number of candidate images tried.  The reference keeps its own copy
of `map_te`, the sort-only environment map that `models.map_env` has
replaced."""

import pytest

from rmtt.acceptance import SHIPPED, _model_corpus
from rmtt.corpus import span_category
from rmtt.fincat import chain_poset, delta1, terminal_category
from rmtt.kernel import Signature, SortApp, load_signature
from rmtt.models import (
    FunctorData,
    ModelData,
    ModelError,
    ModelMorphism,
    check_morphism,
    classifier_model,
    enumerate_model_morphisms,
    heart_inclusion,
    initial_model,
    unique_morphism_from_initial,
)
from rmtt.search import Budget, Inconclusive

BASES = {"terminal": terminal_category, "delta1": delta1,
         "chain2": lambda: chain_poset(2), "span": span_category}


def map_te(m: ModelMorphism, tele_ctx, c, te):
    """Map a telescope environment through the morphism (telescope
    entries must be sort applications)."""
    out = ()
    for ty, v in zip(tele_ctx, te):
        if not isinstance(ty, SortApp):
            raise ModelError("cannot map a product-typed environment entry")
        out += (m.on(ty.head, c, v),)
    return out


def reference_enumerate_model_morphisms(sig: Signature, M: ModelData, N: ModelData, budget=2000000):
    """All valid morphisms M -> N by guided backtracking: object images,
    then arrow images constrained by functor laws, then sort components
    constrained by naturality and family compatibility; candidates are
    confirmed by the full validity check."""
    steps = [0]
    out = []
    baseM, baseN = M.base, N.base
    terminals_N = [o for o in baseN.objects if all(len(baseN.hom(x, o)) == 1 for x in baseN.objects)]
    objs = list(baseM.objects)
    sorts = [d.name for d in sig.declarations() if not d.is_term]

    def tick():
        steps[0] += 1
        if steps[0] > budget:
            from rmtt.search import Inconclusive
            raise Inconclusive("morphism search exceeded its budget")

    def assign_objects(i, omap):
        if i == len(objs):
            yield dict(omap)
            return
        o = objs[i]
        pool = terminals_N if o == M.terminal else baseN.objects
        for n in pool:
            tick()
            ok = True
            for o2, n2 in omap.items():
                if baseM.hom(o2, o) and not baseN.hom(n2, n):
                    ok = False
                    break
                if baseM.hom(o, o2) and not baseN.hom(n, n2):
                    ok = False
                    break
            if not ok:
                continue
            omap[o] = n
            yield from assign_objects(i + 1, omap)
            del omap[o]

    def assign_arrows(omap):
        arrows = list(baseM.arrow_ids)

        def rec(k, amap):
            if k == len(arrows):
                yield dict(amap)
                return
            a = arrows[k]
            s, t = baseM.src[a], baseM.tgt[a]
            if baseM.is_identity(a):
                pool = [baseN.id_of(omap[s])]
            else:
                pool = baseN.hom(omap[s], omap[t])
            for fa in pool:
                tick()
                good = True
                for (f, g), h in baseM.compose.items():
                    vals = [amap.get(f) if f != a else fa, amap.get(g) if g != a else fa,
                            amap.get(h) if h != a else fa]
                    if None in vals:
                        continue
                    if baseN.comp(vals[0], vals[1]) != vals[2]:
                        good = False
                        break
                if not good:
                    continue
                amap[a] = fa
                yield from rec(k + 1, amap)
                del amap[a]

        yield from rec(0, {})

    def assign_components(omap, amap):
        # declaration order: earlier sorts fix the telescope mapping of later ones
        slots = []
        for name in sorts:
            for c in objs:
                for x in M.sorts[name].total.fibers[c]:
                    slots.append((name, c, x))

        comp = {name: {c: {} for c in objs} for name in sorts}
        partial = ModelMorphism(M, N, FunctorData(omap, amap), comp)

        def candidates(name, c, x):
            siM, siN = M.sorts[name], N.sorts[name]
            try:
                want = map_te(partial, siM.tele_ctx, c, siM.family.components[c][x])
            except KeyError:
                return None  # telescope mapping not decided yet (cannot happen in decl order)
            fc = omap[c]
            return [y for y in siN.total.fibers[fc] if siN.family.components[fc][y] == want]

        def natural_ok(name, c, x, y):
            siM, siN = M.sorts[name], N.sorts[name]
            for a in baseM.arrow_ids:
                if baseM.tgt[a] == c:
                    s = baseM.src[a]
                    x2 = siM.total.action[a][x]
                    if x2 in comp[name][s]:
                        if comp[name][s][x2] != siN.total.action[amap[a]][y]:
                            return False
                if baseM.src[a] == c:
                    t = baseM.tgt[a]
                    for up, down in ((u, siM.total.action[a][u]) for u in siM.total.fibers[t]):
                        if down == x and up in comp[name][t]:
                            if siN.total.action[amap[a]][comp[name][t][up]] != y:
                                return False
            return True

        def rec(k):
            if k == len(slots):
                yield ModelMorphism(M, N, FunctorData(dict(omap), dict(amap)),
                                    {n: {c: dict(comp[n][c]) for c in objs} for n in sorts})
                return
            name, c, x = slots[k]
            pool = candidates(name, c, x)
            if pool is None:
                return
            for y in pool:
                tick()
                if not natural_ok(name, c, x, y):
                    continue
                comp[name][c][x] = y
                yield from rec(k + 1)
                del comp[name][c][x]

        yield from rec(0)

    for omap in assign_objects(0, {}):
        for amap in assign_arrows(omap):
            for cand in assign_components(omap, amap):
                if check_morphism(sig, cand).ok:
                    out.append(cand)
    return out


def key(m):
    return (m.functor.object_map, m.functor.arrow_map, m.components)


def bounded(sig, M, N, budget):
    """The search under test, given a fresh Budget of `budget` steps."""
    return enumerate_model_morphisms(sig, M, N, budget=Budget("morphism search", budget))


def outcome(search, sig, M, N, budget=2000000):
    try:
        return [key(m) for m in search(sig, M, N, budget=budget)]
    except Inconclusive:
        return "inconclusive"


def same_search(sig, M, N, budget=2000000):
    """The outcome of both searches, required to be the same."""
    expected = outcome(reference_enumerate_model_morphisms, sig, M, N, budget)
    assert outcome(bounded, sig, M, N, budget) == expected
    return expected


def steps_to_finish(search, sig, M, N):
    """The least budget at which the search finishes: the number of
    candidate images it tries."""
    lo, hi = 0, 1  # inconclusive at lo, finished at hi
    while outcome(search, sig, M, N, hi) == "inconclusive":
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if outcome(search, sig, M, N, mid) == "inconclusive":
            lo = mid
        else:
            hi = mid
    return hi


@pytest.fixture(scope="module")
def classifiers():
    return {(s, b): classifier_model(load_signature(s), make())
            for s in ("tthg", "itth") for b, make in BASES.items()}


@pytest.fixture(scope="module")
def initials():
    return {s: initial_model(load_signature(s), 2, type_size=4, term_size=4) for s in SHIPPED}


@pytest.mark.parametrize("s", ["tthg", "itth"])
def test_classifier_pairs(classifiers, s):
    sig = load_signature(s)
    for a in BASES:
        for b in BASES:
            found = same_search(sig, classifiers[s, a], classifiers[s, b])
            assert 1 <= len(found) <= 9


def test_heart_sources(classifiers):
    sig = load_signature("tthg")
    for b in BASES:
        N = classifiers["tthg", b]
        H = heart_inclusion(N).source
        assert same_search(sig, H, N)
        for a in ("terminal", "delta1"):
            same_search(sig, classifiers["tthg", a], H)


@pytest.mark.parametrize("s", SHIPPED)
def test_initial_models_depth_2(initials, s):
    sig = load_signature(s)
    for make in BASES.values():
        assert len(same_search(sig, initials[s], classifier_model(sig, make()))) == 1


def test_initial_model_depth_3():
    sig = load_signature("itth")
    initial = initial_model(sig, 3, type_size=4, term_size=4)
    assert len(same_search(sig, initial, classifier_model(sig, delta1()))) == 1


@pytest.fixture(scope="module")
def itth_depth_1():
    return initial_model(load_signature("itth"), 1, type_size=4, term_size=4)


def test_initial_model_into_itself(itth_depth_1):
    """The targets above lie over posets, where every functor law holds;
    this base has parallel arrows."""
    assert len(same_search(load_signature("itth"), itth_depth_1, itth_depth_1)) == 1


@pytest.mark.parametrize("budget", [0, 1, 10, 100, 1000])
def test_budget_outcomes(classifiers, initials, itth_depth_1, budget):
    for s, a, b in [("tthg", "chain2", "chain2"), ("tthg", "span", "chain2"), ("itth", "span", "span")]:
        same_search(load_signature(s), classifiers[s, a], classifiers[s, b], budget)
    for s in SHIPPED:
        sig = load_signature(s)
        same_search(sig, initials[s], classifier_model(sig, delta1()), budget)
    same_search(load_signature("itth"), itth_depth_1, itth_depth_1, budget)


def test_same_number_of_steps(classifiers, initials, itth_depth_1):
    """The reference is inconclusive one step before the search finishes
    and finishes with it."""
    etth1, itth = load_signature("etth1"), load_signature("itth")
    searches = [(load_signature("tthg"), classifiers["tthg", "chain2"], classifiers["tthg", "chain2"]),
                (etth1, initials["etth1"], classifier_model(etth1, delta1())),
                (itth, itth_depth_1, itth_depth_1)]
    for sig, M, N in searches:
        n = steps_to_finish(bounded, sig, M, N)
        assert outcome(reference_enumerate_model_morphisms, sig, M, N, n - 1) == "inconclusive"
        assert same_search(sig, M, N, n) != "inconclusive"


def test_budget_exceeded_names_the_search(classifiers):
    M = N = classifiers["tthg", "chain2"]
    with pytest.raises(Inconclusive, match=r"^morphism search exceeded its budget of 100 steps$"):
        bounded(load_signature("tthg"), M, N, 100)


@pytest.mark.scale
@pytest.mark.parametrize("name", ["itth", "etth1"])
def test_unique_morphism_from_depth_3(name):
    """Criterion 8's check at depth 3 with the default sizes (39 objects
    and 7144 arrows): the component search has more slots than Python's
    recursion limit."""
    sig, targets = _model_corpus(name)
    initial = initial_model(sig, 3, max_arrows=12000)
    for target in targets:
        _, report, found = unique_morphism_from_initial(sig, 3, target, initial=initial)
        assert report.ok, report.failed()
        assert len(found) == 1
