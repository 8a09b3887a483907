import pytest

from rmtt.corpus import span_category
from rmtt.fincat import delta1, terminal_category, validate_category
from rmtt.kernel import Const, Declaration, SortApp, Var, load_signature, pretty
from rmtt.models import (
    ModelError,
    check_model,
    check_morphism,
    classifier_model,
    compose_model_morphisms,
    contextual_objects,
    enumerate_model_morphisms,
    heart,
    heart_inclusion,
    identity_morphism,
    initial_model,
    internal_language,
    interpret_context,
    is_democratic,
    model_from_json,
    model_to_json,
    syntactic_model,
    unique_morphism_from_initial,
)
from rmtt.rfib import find_iso, is_representable, terminal_psh


def with_o(sig):
    return sig.extended([Declaration("o", (), SortApp("Ty"))])


def omega_model_with_o(sig, base=None):
    base = base or delta1()
    return classifier_model(with_o(sig), base, constants={"o": {"0": "id0", "1": "u"}})


def test_classifier_model_validates(tthg, d1):
    m = classifier_model(tthg, d1)
    rep = check_model(tthg, m)
    assert rep.ok, rep.failed()


def test_classifier_model_missing_terminal():
    from constructions import discrete_category

    with pytest.raises(ModelError):
        classifier_model(load_signature("tthg"), discrete_category(2))


def test_witness_deletion_detected(tthg, d1):
    m = classifier_model(tthg, d1)
    m.sorts["El"].witness.data.clear()
    rep = check_model(tthg, m)
    assert not rep.ok
    assert any(c == "comprehension" for c, _ in rep.failed())


def test_interpret_empty_context_terminal(tthg, d1):
    m = classifier_model(tthg, d1)
    assert find_iso(interpret_context(m, ()), terminal_psh(d1)) is not None


def test_interpret_ty_context_is_classifier(tthg, d1, d1_cls):
    m = classifier_model(tthg, d1, classifier=d1_cls)
    p = interpret_context(m, (SortApp("Ty"),))
    assert find_iso(p, d1_cls.omega) is not None


def test_interpret_section_comprehension(tthg, d1):
    m = omega_model_with_o(tthg)
    p = interpret_context(m, (SortApp("El", (Const("o"),)),))
    rep = is_representable(p)
    assert rep is not None and rep[0] == "0"


def test_itth_model_equations_hold(itth, d1):
    m = classifier_model(itth, d1)
    rep = check_model(itth, m)
    assert rep.ok, rep.failed()


def test_itthpi_model_over_delta1(itthpi, d1):
    m = classifier_model(itthpi, d1)
    rep = check_model(itthpi, m)
    assert rep.ok, rep.failed()


def test_etth1_model_over_delta1(etth1, d1):
    m = classifier_model(etth1, d1)
    rep = check_model(etth1, m)
    assert rep.ok, rep.failed()


def test_contextual_objects_and_democracy(tthg, d1):
    m = classifier_model(tthg, d1)
    assert contextual_objects(m) == {"0", "1"}
    assert is_democratic(m)
    point_model = classifier_model(tthg, terminal_category())
    assert contextual_objects(point_model) == {"*"}


def test_span_model_not_democratic(tthg):
    m = classifier_model(tthg, span_category())
    assert contextual_objects(m) == {"c"}
    assert not is_democratic(m)
    h = heart(m)
    assert list(h.base.objects) == ["c"]
    assert check_model(tthg, h).ok
    assert is_democratic(h)


def test_heart_of_democratic_is_identity(tthg, d1):
    m = classifier_model(tthg, d1)
    h = heart(m)
    assert h.base.objects == m.base.objects
    inc = heart_inclusion(m)
    assert check_morphism(tthg, inc).ok


def test_internal_language_sizes(tthg, d1, d1_cls):
    m = classifier_model(tthg, d1, classifier=d1_cls)
    il = internal_language(m, 1)
    sizes = {tuple(pretty(t) for t in ctx): len(il.values[i]) for i, ctx in enumerate(il.contexts)}
    assert sizes[()] == 1
    assert sizes[("Ty",)] == 2  # the classifier fiber over the terminal object


def test_il_functorial_on_enumerated_substitutions(tthg, d1):
    m = omega_model_with_o(tthg)
    il = internal_language(m, 1)
    # identity substitutions act as identities
    for (i, j, sub), table in il.action.items():
        if i == j and all(isinstance(t, Var) for t in sub):
            assert all(table[e] == e for e in il.values[i])


def test_initial_model_tthg_plus_o(tthg):
    sig = with_o(tthg)
    m = initial_model(sig, 1)
    assert len(m.base.objects) == 2
    assert validate_category(m.base).ok
    assert check_model(sig, m).ok
    assert is_democratic(m)
    # interpretation of the sort over the empty context: one normal form
    assert m.sorts["Ty"].total.fibers["G0"] == (((), Const("o")),)


def test_initial_model_pure_tthg(tthg):
    m = initial_model(tthg, 1)
    assert len(m.base.objects) == 1


def test_initial_model_itth_depth2(itth):
    m = initial_model(itth, 2, type_size=4, term_size=4)
    assert validate_category(m.base).ok
    rep = check_model(itth, m)
    assert rep.ok, rep.failed()
    assert is_democratic(m)


def test_unique_morphism_example(tthg):
    sig = with_o(tthg)
    target = omega_model_with_o(tthg)
    mor, rep, found = unique_morphism_from_initial(sig, 1, target)
    assert rep.ok, rep.failed()
    # the extended context lands on the comprehension of the chosen section
    assert mor.functor.object_map == {"G0": "1", "G1": "0"}
    assert len(found) == 1


def test_identity_into_initial_is_unique(tthg):
    sig = with_o(tthg)
    m = initial_model(sig, 1)
    mor, rep, found = unique_morphism_from_initial(sig, 1, m)
    assert rep.ok
    assert len(found) == 1
    assert mor.functor.object_map == {o: o for o in m.base.objects}


def test_morphism_validation_catches_broken_component(tthg, d1):
    m = classifier_model(tthg, d1)
    idm = identity_morphism(m)
    idm.components["Ty"]["1"]["u"] = "id1"  # breaks naturality/injectivity
    rep = check_morphism(tthg, idm)
    assert not rep.ok


def test_syntactic_model_of_empty_slice_is_initial(tthg):
    sig = with_o(tthg)
    sm = syntactic_model(sig, (), 1)
    im = initial_model(sig, 1)
    assert sm.base.objects == im.base.objects
    assert sm.sorts["Ty"].total.fibers == im.sorts["Ty"].total.fibers


def test_syntactic_model_extends_base(tthg):
    sm = syntactic_model(tthg, (SortApp("Ty"),), 1)
    ctxs = sm.extras["contexts"]
    assert any(
        any("sm0" in pretty(t) for t in ctx) for ctx in ctxs
    )  # extensions by elements of the sliced type


def test_heart_coreflection_bijection(tthg):
    M = classifier_model(tthg, terminal_category())
    N = classifier_model(tthg, span_category())
    inc = heart_inclusion(N)
    into_heart = enumerate_model_morphisms(tthg, M, inc.source)
    into_full = enumerate_model_morphisms(tthg, M, N)
    assert len(into_heart) == len(into_full) >= 1
    composed_obj_maps = sorted(
        str(sorted(compose_model_morphisms(f, inc).functor.object_map.items()))
        for f in into_heart
    )
    full_obj_maps = sorted(str(sorted(f.functor.object_map.items())) for f in into_full)
    assert composed_obj_maps == full_obj_maps


def test_model_json_round_trip(itth, d1):
    m = classifier_model(itth, d1)
    again = model_from_json(model_to_json(m))
    assert check_model(itth, again).ok
    il1, il2 = internal_language(m, 1), internal_language(again, 1)
    assert [len(il1.values[i]) for i in range(len(il1.contexts))] == [
        len(il2.values[i]) for i in range(len(il2.contexts))
    ]


def test_classifier_model_functoriality_on_posets(tthg):
    # a terminal- and meet-preserving monotone map of poset bases induces
    # a morphism between the classifier models
    from rmtt.fincat import FunctorData, chain_poset
    from rmtt.models import ModelMorphism
    from rmtt.rfib import rep_map_classifier

    d1 = delta1()
    c2 = chain_poset(2)
    fun = FunctorData(
        {"0": "1", "1": "2"},
        {"id0": "id1", "id1": "id2", "u": "a12"},
    )
    M = classifier_model(tthg, d1)
    N = classifier_model(tthg, c2)
    cls_m = M.extras["classifier"]
    cls_n = N.extras["classifier"]
    ty_comp = {}
    el_comp = {}
    for c in d1.objects:
        fc = fun.object_map[c]
        ty_comp[c] = {a: fun.arrow_map[a] for a in cls_m.omega.fibers[c]}
        el_comp[c] = {
            (a, s): (fun.arrow_map[a], fun.arrow_map[s])
            for (a, s) in cls_m.omega_pt.fibers[c]
        }
        assert all(v in set(cls_n.omega.fibers[fc]) for v in ty_comp[c].values())
    mor = ModelMorphism(M, N, fun, {"Ty": ty_comp, "El": el_comp})
    rep = check_morphism(tthg, mor)
    assert rep.ok, rep.failed()


def test_il_conservativity_on_democratic_models(tthg):
    # a morphism of democratic models whose internal language is bijective
    # at every enumerated context is an isomorphism on the enumerated
    # fragment; one with a non-bijective internal language is not
    sig = with_o(tthg)
    im = initial_model(sig, 1)
    target = omega_model_with_o(tthg)
    mor, rep, _ = unique_morphism_from_initial(sig, 1, target, initial=im, verify_unique=False)
    il_src = internal_language(im, 1)
    il_tgt = internal_language(target, 1)
    sizes_src = [len(il_src.values[i]) for i in range(len(il_src.contexts))]
    sizes_tgt = [len(il_tgt.values[i]) for i in range(len(il_tgt.contexts))]
    assert sizes_src != sizes_tgt  # internal language not bijective...
    assert any(  # ...and indeed some component is not bijective
        len(set(mor.components[name][c].values())) != len(target.sorts[name].total.fibers[mor.functor.object_map[c]])
        for name in mor.components
        for c in im.base.objects
    )
    # bijective internal language: the identity morphism, trivially an iso
    ident = identity_morphism(im)
    assert all(
        len(set(ident.components[n][c].values())) == len(im.sorts[n].total.fibers[c])
        for n in ident.components
        for c in im.base.objects
    )
