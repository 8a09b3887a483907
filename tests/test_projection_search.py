"""The projection-narrowed searches against the generate-and-test ones.

By Yoneda, pulling a representable map back along an element is its
comprehension projection, so `find_structure`, `classify` and
`is_univalent` compare projections in the base instead of searching all
maps.  The references below are the earlier implementations, kept
verbatim: `find_structure`, `_classified_by` and `_unit_closure` of
`structures`, and `classify` and `is_univalent` of `rfib`
(`_classified_by` and `classify` are one function now).  Each finishes
within its budget on every case here, and the new code must return the
identical verdict and the identical first witness.
"""

import itertools

import pytest

from rmtt.corpus import corpus_bases, corpus_presheaves, corpus_representable_maps, two_element_group
from rmtt.fincat import FiniteCategory, chain_poset
from rmtt.rfib import (
    ClassifierData,
    ComprehensionWitness,
    NotRepresentable,
    PshMap,
    Unclassifiable,
    UnivalenceResult,
    arrows_iso_over,
    classify,
    element_map,
    enumerate_maps,
    equalizer_of_maps,
    find_iso_over,
    is_representable_map,
    is_univalent,
    pullback_of_maps,
    pushforward,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)
from rmtt.search import Budget
from rmtt.structures import (
    KINDS,
    TypeStructure,
    _commutes,
    _generic_two_stage,
    check_structure,
    find_structure,
    id_plus_problem,
    structure_criteria,
    structure_shape,
)

BUDGET = 200000  # the CLI's default --iso-budget


def fresh(limit):
    """A Budget of its own for one search a reference starts: the
    references gave each nested search a count of its own."""
    return Budget("reference search", limit)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_find_structure(typeof: PshMap, kind: str, w: ComprehensionWitness = None, budget=500000):
    """First verified structure of the given kind in lexicographic
    candidate order (bottom map, then top map, then eliminator), or None
    after exhausting the finite search space.  Budget overrun raises
    Inconclusive."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("structures live on representable maps")
    sh = structure_shape(typeof, w, kind)
    for bottom in enumerate_maps(sh["cod"], typeof.target, budget=fresh(budget)):
        for top in enumerate_maps(sh["dom"], typeof.source, budget=fresh(budget)):
            cand = TypeStructure(kind, bottom, top)
            if kind == "IdPlus":
                if not _commutes(typeof, sh, bottom, top):
                    continue
                compare, P, Q = id_plus_problem(typeof, w, bottom, top)

                def preimages(o, x):
                    return [p for p in P.fibers[o] if compare.components[o][p] == x]

                for elim in enumerate_maps(Q, P, candidates=preimages, budget=fresh(budget)):
                    cand2 = TypeStructure(kind, bottom, top, elim)
                    ok, _ = check_structure(typeof, cand2, w)
                    if ok:
                        return cand2
                continue
            ok, _ = check_structure(typeof, cand, w)
            if ok:
                return cand
    return None


def reference_classified_by(typeof: PshMap, w, g: PshMap, budget=500000):
    """Is g a pullback of typeof?  Search for a map of its target into Ty
    whose pullback of typeof is isomorphic to g over the target."""
    Ty = typeof.target
    for chi in enumerate_maps(g.target, Ty, budget=fresh(budget)):
        P, p_chi_src, p_el = pullback_of_maps(chi, typeof)
        left = PshMap(
            P,
            g.target,
            {o: {(x, e): x for (x, e) in P.fibers[o]} for o in g.base.objects},
            validate=False,
        )
        if find_iso_over(left, g, budget=fresh(budget)) is not None:
            return chi
    return None


def reference_unit_closure(typeof: PshMap, w, budget) -> bool:
    """Are identity arrows pullbacks of t?  Decided at the terminal
    identity: a global section of Ty with singleton comprehension fibers."""
    base = typeof.base
    Ty = typeof.target
    one = terminal_psh(base)
    for chi in enumerate_maps(one, Ty, budget=fresh(budget)):
        good = True
        for c in base.objects:
            T = chi.components[c][()]
            fib = [e for e in typeof.source.fibers[c] if typeof.components[c][e] == T]
            if len(fib) != 1:
                good = False
                break
        if good:
            return True
    return False


def reference_classify(f: PshMap, cls: ClassifierData, wf: ComprehensionWitness = None, budget=500000) -> PshMap:
    """A map into the classifier whose pullback of the generic map is
    isomorphic to f over its target.

    Raises Unclassifiable when some comprehension projection is not
    pullback-stable in the base (so no classifying element exists)."""
    if wf is None:
        wf = is_representable_map(f)
        if wf is None:
            raise NotRepresentable("only representable maps are classified")
    base = cls.base
    F = f.target
    stable = {c: set(cls.omega.fibers[c]) for c in base.objects}
    cand = {}
    for c in base.objects:
        for x in F.fibers[c]:
            proj = wf.proj(c, x)
            if proj not in stable[c]:
                raise Unclassifiable(
                    f"comprehension projection {proj!r} of {x!r} at {c!r} is not pullback-stable"
                )
            cand[(c, x)] = [a for a in cls.omega.fibers[c] if arrows_iso_over(base, proj, a)]

    for chi in enumerate_maps(F, cls.omega, candidates=lambda o, x: cand[(o, x)], budget=fresh(budget)):
        P, top, left = pullback_of_maps(cls.generic, chi)
        if find_iso_over(left, f, budget=fresh(budget)) is not None:
            return chi
    raise Unclassifiable("no classifying map reproduces the given map up to isomorphism")


def reference_is_univalent(f: PshMap, wf: ComprehensionWitness = None, budget=200000) -> UnivalenceResult:
    """Is classification by f injective?  For every object c and distinct
    elements y1, y2 of the target fiber, the pullbacks of f along them
    must not be isomorphic over y(c)."""
    if wf is None:
        wf = is_representable_map(f)
        if wf is None:
            raise NotRepresentable("univalence is defined for representable maps")
    base = f.base
    B = f.target
    for c in base.objects:
        ys = B.fibers[c]
        qs = {}
        for y in ys:
            P, _, _ = pullback_of_maps(f, element_map(B, c, y))
            qs[y] = PshMap(
                P,
                yoneda(base, c),
                {o: {(x, g): g for (x, g) in P.fibers[o]} for o in base.objects},
                validate=False,
            )
        for i, y1 in enumerate(ys):
            for y2 in ys[i + 1 :]:
                iso = find_iso_over(qs[y1], qs[y2], budget=fresh(budget))
                if iso is not None:
                    return UnivalenceResult(False, collision=(c, y1, y2, iso.components))
    return UnivalenceResult(True)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def fork():
    """0 -> a ⇉ b: f and g share their source but are not isomorphic over
    b, and both are pullback-stable, so the classifier's projections at b
    cannot be told apart by their domains.  The corpus bases are
    preorders, where arrows into one object with one source coincide."""
    arrows = [("id0", "0", "0"), ("ida", "a", "a"), ("idb", "b", "b"),
              ("i", "0", "a"), ("f", "a", "b"), ("g", "a", "b"), ("j", "0", "b")]
    compose = {}
    for x, xs, xt in arrows:
        for y, ys, yt in arrows:
            if ys == xt:  # y after x; f.i = g.i = j
                compose[(y, x)] = y if x.startswith("id") else x if y.startswith("id") else "j"
    return FiniteCategory(["0", "a", "b"], arrows, {"0": "id0", "a": "ida", "b": "idb"}, compose)


def _bases():
    return corpus_bases(0) + [("chain3", chain_poset(3)), ("fork", fork())]


@pytest.fixture(scope="module")
def classifiers():
    return [(name, rep_map_classifier(base)) for name, base in _bases()]


def _outcome(fn, *args, **kw):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kw)
    except (Unclassifiable, NotRepresentable) as e:
        return type(e)


def _same_structure(s1, s2):
    if s1 is None or s2 is None:
        return s1 is s2
    return (s1.kind, s1.bottom, s1.top, s1.elim) == (s2.kind, s2.bottom, s2.top, s2.elim)


def _generic_instances(typeof, w):
    """The maps whose classification decides the Sigma, Id and Pi closures,
    built as the earlier closure functions built them."""
    alpha, walpha, beta, wbeta = _generic_two_stage(typeof, w)
    I, p1, p2 = pullback_of_maps(typeof, typeof)
    Eq, inc = equalizer_of_maps(p1, p2)
    return {"Sigma": beta.then(alpha), "Id": inc, "Pi": pushforward(alpha, beta, walpha)}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def _univalent_maps(cls):
    """The generic map and the univalent corpus maps over a classifier's base."""
    maps = [(cls.generic, cls.witness)] + corpus_representable_maps(cls.base, cls, seed=0, limit=3)
    return [(f, wf) for f, wf in maps if reference_is_univalent(f, wf).ok]


def test_first_structures_match_reference(classifiers):
    for name, cls in classifiers:
        for f, wf in _univalent_maps(cls):
            for kind in KINDS:
                want = reference_find_structure(f, kind, wf)
                got = find_structure(f, kind, wf)
                assert _same_structure(got, want), (name, kind)


def test_closures_match_reference(classifiers):
    verdicts = set()
    for name, cls in classifiers:
        for f, wf in _univalent_maps(cls):
            rep = structure_criteria(f, wf)
            assert rep.verdicts["Unit"]["closure"] == reference_unit_closure(f, wf, BUDGET), name
            for kind, g in _generic_instances(f, wf).items():
                want = reference_classified_by(f, wf, g)
                got = _outcome(classify, g, (f, wf))
                if want is None:
                    assert got in (Unclassifiable, NotRepresentable), (name, kind)
                else:
                    assert got == want, (name, kind)
                assert rep.verdicts[kind]["closure"] == (want is not None), (name, kind)
                verdicts.add(want is not None)
    assert verdicts == {True, False}


def test_classify_matches_reference(classifiers):
    compared = 0
    for name, cls in classifiers + [("group2", rep_map_classifier(two_element_group()))]:
        maps = [(cls.generic, cls.witness)]
        for F in corpus_presheaves(cls.base, seed=0, max_total=6, limit=6):
            for chi in list(enumerate_maps(F, cls.omega))[:3]:
                P, _, left = pullback_of_maps(cls.generic, chi)
                maps.append((left, None))
        for f, wf in maps:
            want = _outcome(reference_classify, f, cls, wf, budget=BUDGET)
            assert _outcome(classify, f, cls, wf, budget=Budget("classification", BUDGET)) == want, name
            compared += 1
    assert compared >= 50


def test_univalence_matches_reference(classifiers):
    cases = []
    for name, cls in classifiers + [("group2", rep_map_classifier(two_element_group()))]:
        cases.append((name, cls.generic, cls.witness))
        for f, wf in corpus_representable_maps(cls.base, cls, seed=0):
            cases.append((name, f, wf))
    verdicts = set()
    for name, f, wf in cases:
        want = reference_is_univalent(f, wf, budget=BUDGET)
        assert is_univalent(f, wf, budget=Budget("univalence search", BUDGET)) == want, name
        verdicts.add(want.ok)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# object order
# ---------------------------------------------------------------------------


def _poset(less, order):
    """The poset with strict order `less`, objects and arrows listed in `order`."""
    rank = {o: k for k, o in enumerate(order)}
    rel = [(o, o) for o in order] + sorted(less, key=lambda p: (rank[p[0]], rank[p[1]]))
    aid = {(s, t): f"id{s}" if s == t else f"a{s}_{t}" for s, t in rel}
    return FiniteCategory(
        [str(o) for o in order],
        [(aid[(s, t)], str(s), str(t)) for s, t in rel],
        {str(o): aid[(o, o)] for o in order},
        {(aid[(b, c)], aid[(a, b)]): aid[(a, c)] for a, b in rel for b2, c in rel if b == b2},
    )


@pytest.mark.parametrize(
    "less",
    [
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],  # 0 < 1 < {2, 3}
        [(a, b) for a in range(4) for b in range(a + 1, 4)],  # the chain [4]
    ],
)
def test_verdict_does_not_depend_on_listing(less):
    verdicts = set()
    for order in itertools.permutations(range(4)):
        cls = rep_map_classifier(_poset(less, order))
        rep = structure_criteria(cls.generic, cls.witness, budget=Budget("structure search", BUDGET))  # never Inconclusive
        verdicts.add(tuple((k, v["closure"], v["found"] is not None) for k, v in rep.verdicts.items()))
    assert len(verdicts) == 1


def test_pi_decided_on_chain5():
    cls = rep_map_classifier(chain_poset(5))
    rep = structure_criteria(cls.generic, cls.witness, kinds=("Pi",), budget=Budget("structure search", BUDGET))
    assert rep.verdicts["Pi"]["agree"]
    assert rep.verdicts["Pi"]["closure"]
    assert check_structure(cls.generic, rep.verdicts["Pi"]["found"], cls.witness) == (True, "ok")

