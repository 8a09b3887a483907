"""The one backtracking engine for presheaf-map searches against the
hand-written searches it replaced, kept below verbatim as references:
the same maps in the same order with the same budget outcomes, the same
chosen pullback squares and the same pseudo-classifications.  The
squares are also compared with the search that rechecked every pasting
at each cone, kept in `constructions`.  The
references miss a naturality square whose two slots coincide, at a
fixed point of an endomorphism; on the two-element group the new output
is the reference output filtered to natural maps."""

import re

import pytest

from rmtt.acceptance import _pseudo_classifications
from rmtt.corpus import corpus_bases, corpus_presheaves, two_element_group
from rmtt import rfib
from rmtt.fincat import chain_poset, pullback_cones
from rmtt.rfib import (
    ClassifierChoiceError,
    Presheaf,
    PshMap,
    RfibError,
    _choose_squares,
    _cospan_cones,
    _stable_arrows,
    arrows_iso_over,
    enumerate_maps,
    find_iso,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)
from rmtt.search import Budget, Inconclusive

from constructions import chaotic_category, rechecking_choose_squares, reference_stable_arrows

BASES = corpus_bases(0)
BUDGETS = [None, 0, 1, 5, 20]


def reference_enumerate_maps(X: Presheaf, Y: Presheaf, candidates=None, bijective=False, budget=None):
    """All natural maps X -> Y, lexicographic in (object order, element
    order, target fiber order).

    `candidates(o, x)` may narrow the images tried for element x at o.
    With bijective=True only isomorphism candidates are produced.
    `budget` caps the number of search steps; exceeding it raises
    Inconclusive rather than yielding a partial answer.
    """
    base = X.base
    if Y.base != base:
        raise RfibError("maps need a common base")
    if bijective and any(len(X.fibers[o]) != len(Y.fibers[o]) for o in base.objects):
        return
    slots = [(o, x) for o in base.objects for x in X.fibers[o]]
    index = {s: i for i, s in enumerate(slots)}
    # For each slot, the naturality constraints touching it and earlier slots.
    in_arrows = {o: [a for a in base.arrow_ids if base.tgt[a] == o] for o in base.objects}
    preimage = {
        a: {} for a in base.arrow_ids
    }
    for a in base.arrow_ids:
        t = base.tgt[a]
        for x in X.fibers[t]:
            preimage[a].setdefault(X.action[a][x], []).append(x)

    assign = {}
    used = {o: set() for o in base.objects}
    steps = 0

    def consistent(o, x, y):
        # arrows into o: image of x transports down and must match earlier slots
        for a in in_arrows[o]:
            s = base.src[a]
            key = (s, X.action[a][x])
            if key in assign and assign[key] != Y.action[a][y]:
                return False
        # arrows out of... x may be a transport of later/earlier elements upstairs
        for a in base.arrow_ids:
            if base.src[a] != o:
                continue
            for up in preimage[a].get(x, ()):
                key = (base.tgt[a], up)
                if key in assign and Y.action[a][assign[key]] != y:
                    return False
        return True

    def rec(i):
        nonlocal steps
        if i == len(slots):
            comps = {o: {} for o in base.objects}
            for (o, x), y in assign.items():
                comps[o][x] = y
            yield PshMap(X, Y, comps, validate=False)
            return
        o, x = slots[i]
        pool = Y.fibers[o] if candidates is None else candidates(o, x)
        for y in pool:
            steps += 1
            if budget is not None and steps > budget:
                raise Inconclusive(f"map enumeration exceeded budget {budget}")
            if bijective and y in used[o]:
                continue
            if not consistent(o, x, y):
                continue
            assign[(o, x)] = y
            if bijective:
                used[o].add(y)
            yield from rec(i + 1)
            del assign[(o, x)]
            if bijective:
                used[o].discard(y)

    yield from rec(0)



def reference_choose_squares(base, stable):
    """A strictly functorial choice of pullback squares for the stable
    arrows: identity arrows get identity squares and chosen squares paste
    on the nose.  Found by backtracking over universal cones."""
    pairs = []
    for c in base.objects:
        for u in base.arrows_into(c):
            if base.is_identity(u):
                continue
            for a in stable[c]:
                pairs.append((u, a))
    candidates = {}
    for (u, a) in pairs:
        c = base.tgt[u]
        cones = [
            (apex, top, left)
            for (apex, top, left) in pullback_cones(base, a, u)
            if left in stable[base.src[u]]
        ]
        if not cones:
            raise ClassifierChoiceError(f"stable arrow {a!r} lost stability along {u!r}")
        candidates[(u, a)] = cones

    choice = {}

    def square(u, a):
        if base.is_identity(u):
            return (base.src[a], base.id_of(base.src[a]), a)
        return choice.get((u, a))

    def compatible():
        # Every committed pasting must agree with the committed square for
        # the composite; unknowns are skipped until assigned.
        for (u, a), sq in list(choice.items()):
            c = base.tgt[u]
            apex_u, top_u, left_u = sq
            d = base.src[u]
            for v in base.arrow_ids:
                if base.tgt[v] != d:
                    continue
                inner = square(v, left_u)
                if inner is None:
                    continue
                apex_v, top_v, left_v = inner
                uv = base.comp(u, v)
                outer = square(uv, a)
                if outer is None:
                    continue
                pasted = (apex_v, base.comp(top_u, top_v), left_v)
                if outer != pasted:
                    return False
        return True

    order = sorted(pairs, key=lambda ua: (base.arr_index(ua[0]), base.arr_index(ua[1])))

    def rec(i):
        if i == len(order):
            return True
        key = order[i]
        for cone in candidates[key]:
            choice[key] = cone
            if compatible() and rec(i + 1):
                return True
            del choice[key]
        return False

    if not rec(0):
        raise ClassifierChoiceError("no strictly functorial choice of pullback squares")
    squares = {}
    for c in base.objects:
        for u in base.arrows_into(c):
            for a in stable[c]:
                squares[(u, a)] = square(u, a)
    return squares


def reference_pseudo_classifications(base, cls, F):
    """Families of pullback-stable arrows per element, natural up to
    isomorphism over each stage; the finite rendering of isomorphism
    classes of classifiable representable maps over F."""
    slots = [(c, x) for c in base.objects for x in F.fibers[c]]
    results = []

    def rec(k, assign):
        if k == len(slots):
            results.append(dict(assign))
            return
        c, x = slots[k]
        for a in cls.omega.fibers[c]:
            ok = True
            for u in base.arrow_ids:
                if base.tgt[u] != c:
                    continue
                d = base.src[u]
                key = (d, F.action[u][x])
                if key in assign:
                    moved = cls.omega.action[u][a]
                    if not arrows_iso_over(base, assign[key], moved):
                        ok = False
                        break
            if not ok:
                continue
            # also check arrows out of c against already assigned slots
            for u in base.arrow_ids:
                if base.src[u] != c:
                    continue
                t = base.tgt[u]
                for y in F.fibers[t]:
                    if F.action[u][y] == x and (t, y) in assign:
                        moved = cls.omega.action[u][assign[(t, y)]]
                        if not arrows_iso_over(base, a, moved):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                continue
            assign[(c, x)] = a
            rec(k + 1, assign)
            del assign[(c, x)]

    rec(0, {})
    # quotient by pointwise isomorphism-over
    classes = []
    for r in results:
        if not any(
            all(arrows_iso_over(base, r[s], q[s]) for s in slots) for q in classes
        ):
            classes.append(r)
    return classes


def bounded(limit):
    """A fresh Budget of `limit` steps for the search under test, or None."""
    return None if limit is None else Budget("map search", limit)


def run(search, limit=None):
    """Components of each map yielded, then ("stopped on its budget",
    limit) if the search stopped on its budget with a message naming
    that limit.  The references word their message their own way."""
    out = []
    try:
        for m in search:
            out.append(m.components)
    except Inconclusive as e:
        assert re.search(rf"\b{limit}\b", str(e)), str(e)
        out.append(("stopped on its budget", limit))
    return out


def pairs(base):
    pool = corpus_presheaves(base) + [rep_map_classifier(base).omega]
    return [(X, Y) for X in pool for Y in pool]


@pytest.mark.parametrize("name,base", BASES, ids=[n for n, _ in BASES])
def test_same_maps_order_and_budget_outcomes(name, base):
    for X, Y in pairs(base):
        for bijective in (False, True):
            for budget in BUDGETS:
                new = run(enumerate_maps(X, Y, bijective=bijective, budget=bounded(budget)), budget)
                old = run(reference_enumerate_maps(X, Y, bijective=bijective, budget=budget), budget)
                assert new == old, (bijective, budget)


@pytest.mark.parametrize("name,base", BASES, ids=[n for n, _ in BASES])
def test_same_maps_with_narrowed_candidates(name, base):
    for X, Y in pairs(base):

        def cand(o, x):
            return Y.fibers[o][::-1][: max(1, len(Y.fibers[o]) - 1)]

        for budget in (None, 5):
            new = run(enumerate_maps(X, Y, candidates=cand, budget=bounded(budget)), budget)
            assert new == run(reference_enumerate_maps(X, Y, candidates=cand, budget=budget), budget)


@pytest.mark.parametrize("name,base", BASES, ids=[n for n, _ in BASES])
def test_same_chosen_squares(name, base):
    stable = {c: reference_stable_arrows(base, c) for c in base.objects}
    assert rep_map_classifier(base).squares == reference_choose_squares(base, stable)


# chain posets have one universal cone per square; the chaotic
# categories' squares have several, and only some choices paste
SQUARE_BASES = (
    BASES
    + [("group2", two_element_group()), ("chaotic2", chaotic_category(2)), ("chaotic3", chaotic_category(3))]
    + [(f"chain{n}", chain_poset(n)) for n in range(3, 9)]
)


@pytest.mark.parametrize("name,base", SQUARE_BASES, ids=[n for n, _ in SQUARE_BASES])
def test_same_stable_arrows_as_first_cone_scan(name, base):
    cones = _cospan_cones(base)
    assert _stable_arrows(base, cones) == {c: reference_stable_arrows(base, c) for c in base.objects}
    for (a, u), found in cones.items():
        assert found == tuple(pullback_cones(base, a, u))


def test_classifier_computes_each_cospans_cones_once(monkeypatch):
    base = chain_poset(8)
    calls = []

    def counted(cat, f, g):
        calls.append((f, g))
        return pullback_cones(cat, f, g)

    monkeypatch.setattr(rfib, "pullback_cones", counted)
    rep_map_classifier(base)
    assert len(calls) == len(set(calls)) == sum(len(base.arrows_into(c)) ** 2 for c in base.objects)


@pytest.mark.parametrize("name,base", SQUARE_BASES, ids=[n for n, _ in SQUARE_BASES])
def test_same_squares_as_rechecking_every_pasting(name, base):
    """Checking each pasting once, when its last square is chosen, finds
    the squares the search that rechecks every pasting finds."""
    cones = _cospan_cones(base)
    stable = _stable_arrows(base, cones)
    assert _choose_squares(base, stable, cones) == rechecking_choose_squares(base, stable)


@pytest.mark.parametrize("name,base", BASES, ids=[n for n, _ in BASES])
def test_same_pseudo_classifications(name, base):
    cls = rep_map_classifier(base)
    for F in corpus_presheaves(base, max_total=6, limit=6):
        assert _pseudo_classifications(base, cls, F) == reference_pseudo_classifications(base, cls, F)


def group_pairs():
    G = two_element_group()
    pool = corpus_presheaves(G) + [rep_map_classifier(G).omega, trivial_g_set(G)]
    return [(X, Y) for X in pool for Y in pool]


def trivial_g_set(G):
    """Two points, each fixed by the generator."""
    return Presheaf(G, {"*": ("a", "b")}, {"id*": {"a": "a", "b": "b"}, "s": {"a": "a", "b": "b"}})


def test_group_output_is_the_reference_filtered_to_natural_maps():
    for X, Y in group_pairs():
        for bijective in (False, True):
            old = reference_enumerate_maps(X, Y, bijective=bijective)
            natural = [m.components for m in old if not m.violations()]
            assert run(enumerate_maps(X, Y, bijective=bijective)) == natural


def test_no_point_of_the_free_g_set():
    G = two_element_group()
    assert list(enumerate_maps(terminal_psh(G), yoneda(G, "*"))) == []


def test_trivial_g_set_is_not_the_free_one():
    G = two_element_group()
    assert find_iso(trivial_g_set(G), yoneda(G, "*")) is None
