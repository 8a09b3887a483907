import pytest

from rmtt.fincat import terminal_category
from rmtt.rfib import (
    enumerate_maps,
    identity_map,
    is_representable_map,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)
from rmtt.structures import (
    NotUnivalent,
    ShapeMismatch,
    TypeStructure,
    check_left_exact_universe,
    check_structure,
    find_structure,
    forced_id_plus_section,
    id_plus_problem,
    structure_criteria,
    structure_shape,
    uniqueness_check,
)


def test_unit_found_over_delta1_picks_the_identity(d1, d1_cls):
    s = find_structure(d1_cls.generic, "Unit", d1_cls.witness)
    assert s is not None
    assert s.bottom.components["1"][()] == "id1"
    ok, why = check_structure(d1_cls.generic, s, d1_cls.witness)
    assert ok, why


def test_unit_with_non_section_element_fails(d1, d1_cls):
    s = find_structure(d1_cls.generic, "Unit", d1_cls.witness)
    one = terminal_psh(d1)
    # keep the bottom, break the top: there is only one point per fiber,
    # so instead reroute the bottom to the section-less element
    bad_bottom = {o: dict(s.bottom.components[o]) for o in d1.objects}
    bad_bottom["1"][()] = "u"
    from rmtt.rfib import PshMap

    cand = TypeStructure("Unit", PshMap(one, d1_cls.omega, bad_bottom), s.top)
    ok, why = check_structure(d1_cls.generic, cand, d1_cls.witness)
    assert not ok
    assert "commute" in why


def test_shape_mismatch_distinct_from_failure(d1, d1_cls):
    s = find_structure(d1_cls.generic, "Unit", d1_cls.witness)
    wrong = TypeStructure("Sigma", s.bottom, s.top)
    with pytest.raises(ShapeMismatch):
        check_structure(d1_cls.generic, wrong, d1_cls.witness)


def test_id_on_isomorphism_is_constant_at_unit():
    # the diagonal of an isomorphism is an isomorphism, so an identity
    # former exists with the bottom constant at the unit-like element
    base = terminal_category()
    cls = rep_map_classifier(base)
    s = find_structure(cls.generic, "Id", cls.witness)
    assert s is not None
    u = find_structure(cls.generic, "Unit", cls.witness)
    assert s.bottom.components["*"][(("id*", "id*"), ("id*", "id*"))] == u.bottom.components["*"][()]


def test_all_structures_over_terminal_base():
    cls = rep_map_classifier(terminal_category())
    for kind in ("Unit", "Sigma", "Id", "Pi", "IdPlus"):
        assert find_structure(cls.generic, kind, cls.witness) is not None, kind


def test_criteria_match_search_over_delta1(d1_cls):
    rep = structure_criteria(d1_cls.generic, d1_cls.witness)
    assert rep.agrees()
    for kind in ("Unit", "Sigma", "Id", "Pi"):
        assert rep.verdicts[kind]["closure"] is True
        assert rep.verdicts[kind]["found"] is not None


def test_criteria_match_search_over_chain2(chain2):
    cls = rep_map_classifier(chain2)
    rep = structure_criteria(cls.generic, cls.witness)
    assert rep.agrees()


def test_criteria_reject_non_univalent(d1):
    from rmtt.rfib import coproduct_psh

    y1 = yoneda(d1, "1")
    C, _, _ = coproduct_psh(y1, y1)
    f = identity_map(C)
    with pytest.raises(NotUnivalent):
        structure_criteria(f, is_representable_map(f))


@pytest.mark.parametrize(
    "decide",
    [
        lambda cls: structure_criteria(cls.generic, cls.witness, kinds=("Unit",), budget=1234),
        lambda cls: check_left_exact_universe(cls.generic, cls.witness, budget=1234),
    ],
    ids=["structure_criteria", "check_left_exact_universe"],
)
def test_criteria_bound_the_univalence_search(d1_cls, monkeypatch, decide):
    import rmtt.structures as structures

    budgets = []
    real = structures.is_univalent

    def spy(f, wf=None, budget=200000):
        budgets.append(budget)
        return real(f, wf, budget=budget)

    monkeypatch.setattr(structures, "is_univalent", spy)
    decide(d1_cls)
    assert budgets == [1234]


def test_uniqueness_of_unit(d1_cls):
    one_candidates = [
        s
        for s in [find_structure(d1_cls.generic, "Unit", d1_cls.witness)]
        if s is not None
    ]
    s = one_candidates[0]
    assert uniqueness_check(d1_cls.generic, s, s, d1_cls.witness)


def test_unit_structures_all_share_bottom(d1, d1_cls):
    # exhaustive: every verified unit square has the same classifying map
    sh = structure_shape(d1_cls.generic, d1_cls.witness, "Unit")
    bottoms = set()
    for bottom in enumerate_maps(sh["cod"], d1_cls.generic.target):
        for top in enumerate_maps(sh["dom"], d1_cls.generic.source):
            cand = TypeStructure("Unit", bottom, top)
            ok, _ = check_structure(d1_cls.generic, cand, d1_cls.witness)
            if ok:
                bottoms.add(tuple(sorted((o, v) for o in d1.objects for v in [bottom.components[o][()]])))
    assert len(bottoms) == 1


def test_id_extends_to_id_plus(d1_cls):
    s = find_structure(d1_cls.generic, "Id", d1_cls.witness)
    compare, P, Q = id_plus_problem(d1_cls.generic, d1_cls.witness, s.bottom, s.top)
    assert compare.is_iso()
    elim = forced_id_plus_section(compare)
    cand = TypeStructure("IdPlus", s.bottom, s.top, elim)
    ok, why = check_structure(d1_cls.generic, cand, d1_cls.witness)
    assert ok, why


def test_id_plus_found_directly(d1_cls):
    s = find_structure(d1_cls.generic, "IdPlus", d1_cls.witness)
    assert s is not None and s.elim is not None


def test_left_exact_universe(d1_cls):
    ok, cert = check_left_exact_universe(d1_cls.generic, d1_cls.witness)
    assert ok
    assert cert["univalent"].ok
    for kind in ("Unit", "Sigma", "Id"):
        assert cert[kind] is not None


def test_left_exact_universe_fails_on_doubled(d1):
    from rmtt.rfib import coproduct_psh

    y1 = yoneda(d1, "1")
    C, _, _ = coproduct_psh(y1, y1)
    ok, cert = check_left_exact_universe(identity_map(C))
    assert not ok
    assert not cert["univalent"].ok
    assert cert["univalent"].collision is not None


def test_structure_transport_along_classifier_iso(d1, d1_cls):
    # relabeling the base transports a verified structure to a verified
    # structure
    from rmtt.fincat import FiniteCategory
    from rmtt.rfib import rep_map_classifier as rmc

    omap = {"0": "a", "1": "b"}
    amap = {"id0": "i", "id1": "j", "u": "k"}
    relabeled = FiniteCategory(
        [omap[o] for o in d1.objects],
        [(amap[a], omap[s], omap[t]) for (a, s, t) in d1.arrows],
        {omap[o]: amap[i] for o, i in d1.identities.items()},
        {(amap[f], amap[g]): amap[h] for (f, g), h in d1.compose.items()},
    )
    cls2 = rmc(relabeled)
    for kind in ("Unit", "Sigma", "Id"):
        s1 = find_structure(d1_cls.generic, kind, d1_cls.witness)
        s2 = find_structure(cls2.generic, kind, cls2.witness)
        assert (s1 is None) == (s2 is None)
        if s2 is not None:
            ok, why = check_structure(cls2.generic, s2, cls2.witness)
            assert ok, why
