from hypothesis import given, settings, strategies as st

from rmtt.fincat import (
    FiniteCategory,
    FunctorData,
    delta1,
    find_terminal,
    pullback_cones,
    validate_category,
    validate_functor,
)

from constructions import discrete_category, reference_is_pullback_cone


def test_delta1_valid():
    assert validate_category(delta1()).ok


def test_identity_law_violation_reported():
    # composing u with the identity must give u back; rerouting it to a
    # parallel arrow breaks the right identity law at u
    bad = FiniteCategory(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("u", "0", "1"), ("v", "0", "1")],
        {"0": "id0", "1": "id1"},
        {("id0", "id0"): "id0", ("id1", "id1"): "id1",
         ("u", "id0"): "v", ("id1", "u"): "u",
         ("v", "id0"): "v", ("id1", "v"): "v"},
    )
    rep = validate_category(bad)
    assert not rep.ok
    assert any("identity law" in i.message and "u" in i.witnesses for i in rep.issues if i.kind == "law")
    assert all(i.kind == "law" for i in rep.issues)


def test_missing_composite_is_structural():
    cat = FiniteCategory(
        ["0", "1", "2"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("id2", "2", "2"),
         ("f", "0", "1"), ("g", "1", "2")],
        {"0": "id0", "1": "id1", "2": "id2"},
        {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("id2", "id2"): "id2",
         ("f", "id0"): "f", ("id1", "f"): "f",
         ("g", "id1"): "g", ("id2", "g"): "g"},
    )
    rep = validate_category(cat)
    assert any(
        i.kind == "structural" and i.message == "composable pair without composite" and i.witnesses == ("g", "f")
        for i in rep.issues
    )



def test_composite_of_unknown_arrow_is_structural():
    # delta1 with its arrow u dropped from the arrow list but not from
    # the composition table
    d = delta1()
    cat = FiniteCategory(d.objects, [a for a in d.arrows if a[0] != "u"], d.identities, d.compose)
    rep = validate_category(cat)
    assert ("composite of an unknown arrow", ("id1", "u")) in {
        (i.message, i.witnesses) for i in rep.issues if i.kind == "structural"
    }

def test_find_terminal_delta1():
    assert find_terminal(delta1()) == "1"


def test_find_terminal_discrete_absent():
    assert find_terminal(discrete_category(2)) is None


def test_find_terminal_tie_break_least_index():
    # two isomorphic terminal candidates; every hom-set to either is a singleton
    cat = FiniteCategory(
        ["a", "b"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("f", "a", "b"), ("g", "b", "a")],
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb",
         ("f", "ida"): "f", ("idb", "f"): "f",
         ("g", "idb"): "g", ("ida", "g"): "g",
         ("f", "g"): "idb", ("g", "f"): "ida"},
    )
    assert validate_category(cat).ok
    # oracle: enumerate hom-sets directly
    for t in ("a", "b"):
        assert all(len(list(cat.hom(x, t))) == 1 for x in cat.objects)
    assert find_terminal(cat) == "a"


def test_hom_sets_delta1():
    cat = delta1()
    assert list(cat.hom("0", "1")) == ["u"]
    assert list(cat.hom("1", "0")) == []
    assert list(cat.hom("0", "0")) == ["id0"]


def test_pullback_of_id1_along_u():
    cat = delta1()
    apex, pf, pg = next(pullback_cones(cat, "u", "id1"))
    assert (apex, pf, pg) == ("0", "id0", "u")
    assert reference_is_pullback_cone(cat, "u", "id1", apex, pf, pg)


def test_pullback_of_u_along_u():
    cat = delta1()
    assert next(pullback_cones(cat, "u", "u")) == ("0", "id0", "id0")


def test_pullback_absent_in_span():
    from rmtt.corpus import span_category

    cat = span_category()
    assert next(pullback_cones(cat, "f", "g"), None) is None


def test_pullback_deterministic():
    cat = delta1()
    runs = {tuple(pullback_cones(cat, "u", "id1")) for _ in range(5)}
    assert len(runs) == 1


@st.composite
def relabelings(draw):
    objs = ["0", "1"]
    arrs = ["id0", "id1", "u"]
    o_new = draw(st.permutations(["x", "y"]))
    a_new = draw(st.permutations(["p", "q", "r"]))
    return dict(zip(objs, o_new)), dict(zip(arrs, a_new))


@settings(max_examples=20, deadline=None)
@given(relabelings())
def test_validation_presentation_invariant(maps):
    omap, amap = maps
    cat = delta1()
    relabeled = FiniteCategory(
        [omap[o] for o in cat.objects],
        [(amap[a], omap[s], omap[t]) for (a, s, t) in cat.arrows],
        {omap[o]: amap[i] for o, i in cat.identities.items()},
        {(amap[f], amap[g]): amap[h] for (f, g), h in cat.compose.items()},
    )
    assert validate_category(relabeled).ok


def test_functor_validation():
    cat = delta1()
    ok = FunctorData({"0": "0", "1": "1"}, {a: a for a in cat.arrow_ids})
    assert validate_functor(cat, cat, ok).ok
    collapse = FunctorData({"0": "1", "1": "1"},
                           {"id0": "id1", "id1": "id1", "u": "id1"})
    assert validate_functor(cat, cat, collapse).ok
    broken = FunctorData({"0": "1", "1": "1"},
                         {"id0": "id0", "id1": "id1", "u": "id1"})
    assert not validate_functor(cat, cat, broken).ok


def test_json_round_trip():
    cat = delta1()
    again = FiniteCategory.from_json(cat.to_json())
    assert again == cat
    assert again.content_hash() == cat.content_hash()
