from rmtt.fincat import delta1
from rmtt.homotopy import (
    Attachment,
    CofibrationPresentation,
    added_constants,
    extension_morphisms,
    is_trivial_fibration,
    pushout_cofibration,
    rlp_against_generating,
    type_term_lifting,
    weak_equivalence,
)
from rmtt.kernel import Const, Declaration, SortApp, load_signature
from rmtt.models import (
    classifier_model,
    heart_inclusion,
    identity_morphism,
    initial_model,
    is_democratic,
    unique_morphism_from_initial,
)


def with_o(sig, names=("o",)):
    return sig.extended([Declaration(n, (), SortApp("Ty")) for n in names])


def test_weak_equivalence_identity_and_unit_comprehension(itth, d1):
    m = classifier_model(itth, d1)
    assert weak_equivalence(m, "id1").status == "yes"
    # the comprehension projection of the unit type is an equivalence:
    # over this base it is an identity arrow; a non-invertible projection
    # with no section is decisively not one
    assert weak_equivalence(m, "u").status == "no"


def test_weak_equivalence_projection_with_two_rule_distinct_points(itth):
    # a context projection forgetting a type with two closed terms and no
    # identification between them fails decisively
    sig = with_o(itth)
    sig = sig.extended([
        Declaration("c1", (), SortApp("El", (Const("o"),))),
        Declaration("c2", (), SortApp("El", (Const("o"),))),
    ])
    m = initial_model(sig, 1, type_size=4, term_size=4)
    ctxs = m.extras["contexts"]
    idx = next(i for i, c in enumerate(ctxs) if c == (SortApp("El", (Const("o"),)),))
    proj = None
    for aid, (i, j, sub) in m.extras["arrow_subst"].items():
        if i == idx and j == 0:
            proj = aid
    verdict = weak_equivalence(m, proj)
    assert verdict.status == "no"


def test_pushout_single_attachments(tthg):
    base = with_o(tthg)
    p = pushout_cofibration(base, CofibrationPresentation.of(Attachment(0, "Ty", ())))
    (d,) = added_constants(base, p)
    assert d.target == SortApp("Ty") and d.telescope == ()
    p2 = pushout_cofibration(
        base, CofibrationPresentation.of(Attachment(0, "El", (Const("o"),)))
    )
    (d2,) = added_constants(base, p2)
    assert d2.target == SortApp("El", (Const("o"),))


def test_pushout_empty_is_identity(tthg):
    base = with_o(tthg)
    assert pushout_cofibration(base, CofibrationPresentation.of()).items == base.items


def test_pushout_adds_no_equations(itth):
    base = with_o(itth)
    cof = CofibrationPresentation.of(Attachment(0, "Ty", ()), Attachment(0, "El", (Const("o"),)))
    p = pushout_cofibration(base, cof)
    assert len(p.rules()) == len(base.rules())
    assert len(added_constants(base, p)) == 2


def test_pushout_universal_property_enumerated(itth):
    base = with_o(itth)
    cof = CofibrationPresentation.of(
        Attachment(0, "Ty", ()),
        Attachment(0, "El", (Const("o"),)),
    )
    P = pushout_cofibration(base, cof)
    K = base.extended([Declaration("k", (), SortApp("El", (Const("o"),)))])
    both = extension_morphisms(base, P, K, size=3)
    only_ty = extension_morphisms(
        base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[0])), K, size=3
    )
    only_el = extension_morphisms(
        base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[1])), K, size=3
    )
    assert len(both) == len(only_ty) * len(only_el)


def test_pushout_order_independent_for_independent_attachments(itth):
    base = with_o(itth)
    a1 = Attachment(0, "Ty", ())
    a2 = Attachment(0, "El", (Const("o"),))
    p12 = pushout_cofibration(base, CofibrationPresentation.of(a1, a2))
    p21 = pushout_cofibration(base, CofibrationPresentation.of(a2, a1))
    shapes = lambda sig: sorted(
        (repr(d.telescope), repr(d.target)) for d in added_constants(base, sig)
    )
    assert shapes(p12) == shapes(p21)


def test_identity_is_trivial_fibration(itth):
    m = initial_model(itth, 2, type_size=4, term_size=4)
    res = is_trivial_fibration(identity_morphism(m), 2)
    assert res["trivial_fibration"] and res["agree"]


def test_heart_inclusion_passes_lifting(itth, d1):
    hi = heart_inclusion(classifier_model(itth, d1))
    res = is_trivial_fibration(hi, 2)
    assert res["trivial_fibration"] and res["agree"]


def test_unhit_type_fails_type_lifting(itth):
    # canonical morphism into a model with a type not in the image
    sig = load_signature("itth")
    im = initial_model(sig, 1, type_size=4, term_size=4)
    target = classifier_model(sig, delta1())
    mor, rep, _ = unique_morphism_from_initial(sig, 1, target, initial=im, verify_unique=False)
    assert rep.ok
    res = is_trivial_fibration(mor, 1)
    assert not res["direct"]["type_lifting"]
    assert res["agree"]


def test_rlp_matches_direct_on_democratic_sources(itth):
    im = initial_model(itth, 1, type_size=4, term_size=4)
    assert is_democratic(im)
    for m in (identity_morphism(im),):
        direct = type_term_lifting(m)
        brute = rlp_against_generating(m, 1)
        assert (direct["type_lifting"] and direct["term_lifting"]) == brute["rlp"]


def test_cofibration_category_axioms_on_presentations(itth):
    # the axioms a category with weak equivalences and cofibrations
    # imposes, read off the presented corpus: presentations compose, the
    # empty extension is a unit, and pushouts of free extensions exist
    # along arbitrary attachment data and stay free
    base = with_o(itth)
    a1 = Attachment(0, "Ty", ())
    a2 = Attachment(0, "El", (Const("o"),))
    one = pushout_cofibration(base, CofibrationPresentation.of(a1))
    two = pushout_cofibration(one, CofibrationPresentation.of(a2))
    both = pushout_cofibration(base, CofibrationPresentation.of(a1, a2))
    shapes = lambda sig, b: sorted(
        (repr(d.telescope), repr(d.target)) for d in added_constants(b, sig)
    )
    # composition of extensions equals the composite presentation
    assert shapes(two, base) == shapes(both, base)
    # unit
    assert pushout_cofibration(base, CofibrationPresentation.of()).items == base.items
    # pushout along a different attachment point exists and is free
    other = pushout_cofibration(
        base, CofibrationPresentation.of(Attachment(0, "El", (Const("Unit"),)))
    )
    assert len(other.rules()) == len(base.rules())
    assert len(added_constants(base, other)) == 1
