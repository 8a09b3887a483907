import pytest

from rmtt.corpus import boundary_bases, corpus_bases, span_category
from rmtt.fincat import terminal_category
from rmtt.rfib import (
    ComprehensionWitness,
    Unclassifiable,
    classify,
    enumerate_maps,
    find_iso_over,
    identity_map,
    is_representable_map,
    is_univalent,
    pullback_of_maps,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)

from constructions import yoneda_map


def test_omega_fibers_delta1(d1_cls, d1):
    assert {o: d1_cls.omega.fibers[o] for o in d1.objects} == {
        "0": ("id0",),
        "1": ("id1", "u"),
    }
    assert {o: [a for (a, s) in d1_cls.omega_pt.fibers[o]] for o in d1.objects} == {
        "0": ["id0"],
        "1": ["id1"],  # u has no section
    }


def test_classifier_terminal_base():
    from rmtt.rfib import find_iso

    cls = rep_map_classifier(terminal_category())
    one = terminal_psh(terminal_category())
    assert find_iso(cls.omega, one) is not None
    assert find_iso(cls.omega_pt, one) is not None
    assert cls.generic.is_iso()


def test_generic_comprehensions(d1_cls):
    assert d1_cls.witness.data[("1", "id1")][0] == "1"
    assert d1_cls.witness.data[("1", "u")][0] == "0"


def test_classifier_presheaf_laws_hold(d1_cls):
    assert not d1_cls.omega.violations()
    assert not d1_cls.omega_pt.violations()
    assert not d1_cls.generic.violations()
    assert not d1_cls.witness.violations()


def test_generic_univalent_on_corpus():
    for name, base in corpus_bases(0):
        cls = rep_map_classifier(base)
        assert is_univalent(cls.generic, cls.witness).ok, name


def test_generic_not_univalent_on_boundary():
    # a nontrivial automorphism makes two arrows classify isomorphic
    # families: the set-level truncation of the classifier is coarser
    # than the fibered one there
    for name, base in boundary_bases():
        cls = rep_map_classifier(base)
        res = is_univalent(cls.generic, cls.witness)
        assert not res.ok, name
        assert res.collision is not None


def test_generic_classifies_itself(d1_cls):
    chi = classify(d1_cls.generic, d1_cls, d1_cls.witness)
    assert chi == identity_map(d1_cls.omega)


def test_global_sections_match_representables(d1, d1_cls):
    one = terminal_psh(d1)
    sections = list(enumerate_maps(one, d1_cls.omega))
    assert len(sections) == 2
    picked = sorted(m.components["1"][()] for m in sections)
    assert picked == ["id1", "u"]
    # their generic pullbacks are the two representables
    doms = []
    for m in sections:
        P, _, left = pullback_of_maps(d1_cls.generic, m)
        doms.append({o: len(P.fibers[o]) for o in d1.objects})
    assert {tuple(sorted(d.items())) for d in doms} == {
        tuple(sorted({"0": 1, "1": 1}.items())),  # y(1)
        tuple(sorted({"0": 1, "1": 0}.items())),  # y(0)
    }


def test_classify_identity_constant_at_identities(d1, d1_cls):
    F = yoneda(d1, "1")
    chi = classify(identity_map(F), d1_cls)
    for o in d1.objects:
        for x in F.fibers[o]:
            assert d1_cls.base.is_identity(chi.components[o][x])


def test_classify_round_trip(d1, d1_cls):
    q = yoneda_map(d1, "u")
    chi = classify(q, d1_cls)
    P, _, left = pullback_of_maps(d1_cls.generic, chi)
    assert find_iso_over(left, q) is not None


def test_projections_of_representable_maps_are_stable():
    # representability at transported elements forces every comprehension
    # projection to admit all base pullbacks, so a lawful witness can
    # never trip the stability precondition: over the span, the only
    # representable map into the terminal is the one with stable
    # projections
    from rmtt.fincat import pullback_cones
    from rmtt.rfib import bang

    base = span_category()
    q = bang(yoneda(base, "c"))
    w = is_representable_map(q)
    assert w is not None
    for (c, y), (obj, proj, gen) in w.data.items():
        for u in base.arrows_into(c):
            assert next(pullback_cones(base, proj, u), None) is not None
    assert is_representable_map(bang(yoneda(base, "a"))) is None


def test_unclassifiable_error_path():
    # the stability precondition still guards classify against corrupted
    # comprehension data pointing at an arrow without base pullbacks
    base = span_category()
    cls = rep_map_classifier(base)
    q = identity_map(yoneda(base, "c"))
    w = is_representable_map(q)
    corrupted = ComprehensionWitness(q, {**w.data, ("c", "idc"): ("a", "f", "f")})
    with pytest.raises(Unclassifiable):
        classify(q, cls, corrupted)


def test_classifier_split_choice_strict_on_group():
    # even where univalence fails, the chosen squares still paste on the
    # nose, so the classifier data is lawful
    for _, base in boundary_bases():
        cls = rep_map_classifier(base)
        assert not cls.omega.violations()
        assert not cls.omega_pt.violations()
