import random

import pytest

from rmtt.kernel import (
    Const,
    Declaration,
    Lam,
    NormalizationBudget,
    SortApp,
    Var,
    check_signature,
    conv,
    infer_term,
    load_signature,
    normalize,
    parse_and_check,
    parse_signature,
    parse_term_text,
    print_signature,
    shipped_signature_text,
    term_pool,
)
from rmtt.kernel.terms import free_vars

ElU = SortApp("El", (Const("Unit"),))


def test_tthg_parses():
    sig = load_signature("tthg")
    assert sig.decls["Ty"].target == "sort"
    assert sig.decls["El"].is_rep_sort
    assert sig.decls["El"].telescope == (SortApp("Ty"),)


def test_empty_signature():
    sig = parse_signature("")
    assert sig.items == ()


def test_unbound_identifier_scope_error():
    rep = check_signature("T : sort\nc : (x : S) -> T\n")
    assert not rep.ok
    assert any("unbound identifier 'S'" in i.message for i in rep.issues)


def test_all_shipped_signatures_valid():
    for name in ("tthg", "itth", "etth1", "itthpi", "tthr1"):
        rep = check_signature(shipped_signature_text(name))
        assert rep.ok, (name, [f"{i.where}: {i.message}" for i in rep.issues])


def test_mistyped_rule_rejected(itth):
    # corrupt the eliminator's computation rule: the right side gets a
    # wrong type
    text = shipped_signature_text("itth").replace(
        "J(A, C, d, x, x, refl(A, x)) ~> d(x)",
        "J(A, C, d, x, x, refl(A, x)) ~> x",
    )
    rep = check_signature(text)
    assert not rep.ok
    assert any("preserve types" in i.message for i in rep.issues)


def test_rule_with_a_variable_only_on_its_right_side_rejected():
    """Every variable of a rule's right side occurs on its left, so
    rewriting adds no free variable: the isomorphism search's prune rests
    on it."""
    text = "Ty : sort\nEl : (A : Ty) -> rep-sort\nc : (A : Ty, x : El(A)) -> El(A)\nc(A, x) ~> {}\n"
    assert check_signature(text.format("x")).ok
    rep = check_signature(text.format("y"))
    assert [i.message for i in rep.issues] == [
        "cannot infer a type for a rule variable; it must occur as a direct argument"
    ]
    for name in ("tthg", "itth", "etth1", "itthpi", "tthr1"):
        for rule in load_signature(name).rules():
            assert free_vars(rule.rhs) <= free_vars(rule.lhs), (name, rule)


def test_normalize_variable_and_identity(itth):
    v = Var(0)
    ctx = (ElU,)
    assert normalize(itth, v) == v
    # identity substitution on a term is the term
    t = Const("refl", (Const("Unit"), Const("tt")))
    assert normalize(itth, t) == t


def test_eliminator_beta_step(itth):
    C = Lam(ElU, Lam(ElU, Lam(SortApp("Id", (Const("Unit"), Var(1), Var(0))), Const("Unit"))))
    d = Lam(ElU, Const("tt"))
    j = Const("J", (Const("Unit"), C, d, Const("tt"), Const("tt"),
                    Const("refl", (Const("Unit"), Const("tt")))))
    assert normalize(itth, j) == Const("tt")


def test_surjective_pairing(itth):
    B = Lam(ElU, Const("Unit"))
    ctx = (SortApp("El", (Const("Sig", (Const("Unit"), B)),)),)
    p = Var(0)
    eta = Const("pair", (Const("Unit"), B, Const("fst", (Const("Unit"), B, p)),
                         Const("snd", (Const("Unit"), B, p))))
    assert normalize(itth, eta) == p
    assert infer_term(itth, ctx, eta) == infer_term(itth, ctx, p)


def test_k_rule_fires(etth1):
    C = Lam(SortApp("Id", (Const("Unit"), Const("tt"), Const("tt"))), Const("Unit"))
    k = Const("K", (Const("Unit"), Const("tt"), C, Const("tt"),
                    Const("refl", (Const("Unit"), Const("tt")))))
    assert normalize(etth1, k) == Const("tt")


def test_pi_beta_eta(itthpi):
    B = Lam(ElU, Const("Unit"))
    f = Lam(ElU, Var(0))
    app = Const("app", (Const("Unit"), B, Const("lam", (Const("Unit"), B, f)), Const("tt")))
    assert normalize(itthpi, app) == Const("tt")
    ctx = (SortApp("El", (Const("Pi", (Const("Unit"), B)),)),)
    eta = Const("lam", (Const("Unit"), B,
                        Lam(ElU, Const("app", (Const("Unit"),
                                               Lam(ElU, Const("Unit")), Var(1), Var(0))))))
    assert normalize(itthpi, eta) == Var(0)


def test_fuel_exhaustion_reported():
    text = "T : sort\nc : T\nloop : (x : T) -> T\nloop(x) ~> loop(loop(x))\n"
    sig, rep = parse_and_check(text)
    # the rule is type-preserving, so it is accepted; running it diverges
    assert rep.ok
    with pytest.raises(NormalizationBudget):
        normalize(sig, Const("loop", (Const("c"),)), fuel=50)


def test_pi_domain_restricted_to_representable_sorts():
    text = "T : sort\nbad : (F : (x : T) -> T) -> T\n"
    rep = check_signature(text)
    assert not rep.ok
    assert any("representable sort" in i.message for i in rep.issues)


def test_printer_round_trips(itth):
    text = print_signature(itth)
    again = parse_signature(text)
    assert again.items == itth.items
    assert print_signature(again) == text


def test_parse_term_text_round_trip(itth):
    t = parse_term_text(itth, "pair(Unit, \\(x : El(Unit)) => Unit, tt, tt)")
    assert t == Const("pair", (Const("Unit"), Lam(ElU, Const("Unit")),
                               Const("tt"), Const("tt")))


def test_subject_reduction_idempotence_substitution(itth):
    # the kernel-health property triple on a deterministic pool; the
    # probe extension supplies closed generators to enumerate under
    from rmtt.kernel import enumerate_substitutions, instantiate_many

    probe = itth.extended([
        Declaration("o", (), SortApp("Ty")),
        Declaration("c", (), SortApp("El", (Const("o"),))),
    ])
    pool = term_pool(probe, depth=1, type_size=5, max_term_size=7, max_contexts=4)
    assert len(pool) >= 100
    itth = probe
    for ctx, ty, t in pool:
        before = infer_term(itth, ctx, t)
        nf = normalize(itth, t)
        after = infer_term(itth, ctx, nf)
        assert conv(itth, before, after)
        assert normalize(itth, nf) == nf
        for s in enumerate_substitutions(itth, (), ctx, 4)[:2]:
            assert normalize(itth, instantiate_many(t, s)) == normalize(
                itth, instantiate_many(nf, s)
            )
