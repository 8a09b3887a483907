"""The acceptance suite: every headline property instantiated as an
exactly checkable run over the generated corpus.

Each criterion function returns a dict with at least {"ok": bool,
"detail": ...}; `run_all` stamps seeds, budgets and timings.  All checks
are discrete and tolerance-zero; time limits are asserted by the
callers that care (the test suite), not here.
"""

from __future__ import annotations

import random
import time

from .corpus import corpus_bases, corpus_presheaves, corpus_representable_maps
from .fincat import delta1, terminal_category
from .homotopy import (
    Attachment,
    CofibrationPresentation,
    added_constants,
    extension_morphisms,
    is_trivial_fibration,
    pushout_cofibration,
)
from .kernel import (
    Declaration,
    SortApp,
    Const,
    NormalizationBudget,
    conv,
    enumerate_framework_contexts,
    enumerate_substitutions,
    infer_term,
    instantiate_many,
    load_signature,
    normalize,
    term_pool,
)
from .models import (
    ModelData,
    classifier_model,
    compose_model_morphisms,
    enumerate_model_morphisms,
    eval_term,
    heart_inclusion,
    identity_morphism,
    initial_model,
    interpret_context,
    is_democratic,
    syntactic_model,
    unique_morphism_from_initial,
)
from .rfib import (
    arrows_iso_over,
    classify,
    enumerate_maps,
    find_iso,
    find_iso_over,
    is_representable_map,
    is_univalent,
    naturality_squares,
    polynomial_apply,
    polynomial_compose,
    pullback_of_maps,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)
from .search import backtrack
from .structures import structure_criteria


SHIPPED = ("tthg", "etth1", "itth", "itthpi")


def _poly_bases(seed):
    return [(n, b) for n, b in corpus_bases(seed) if len(b.objects) <= 3]


def criterion_1(seed=0, min_pairs=100) -> dict:
    """Composite polynomials evaluate like composed polynomials, up to a
    found natural isomorphism, on every corpus pair."""
    pairs = 0
    checked = 0
    failures = []
    for name, base in _poly_bases(seed):
        cls = rep_map_classifier(base)
        maps = corpus_representable_maps(base, cls, seed=seed, limit=5)
        tests = [terminal_psh(base)] + [yoneda(base, c) for c in base.objects[:2]]
        tests = [X for X in tests if X.total_size() <= 6]
        for f, wf in maps:
            for g, wg in maps:
                pairs += 1
                tensor, wt = polynomial_compose(f, g, wf, wg)
                for X in tests:
                    checked += 1
                    lhs = polynomial_apply(tensor, X, wt)
                    rhs = polynomial_apply(f, polynomial_apply(g, X, wg), wf)
                    if find_iso(lhs, rhs) is None:
                        failures.append((name, X.total_size()))
    return {
        "ok": pairs >= min_pairs and not failures,
        "detail": {"pairs": pairs, "evaluations": checked, "failures": failures[:3]},
    }


def _pseudo_classifications(base, cls, F):
    """Families of pullback-stable arrows per element, natural up to
    isomorphism over each stage; the finite rendering of isomorphism
    classes of classifiable representable maps over F."""
    slots = [(c, x) for c in base.objects for x in F.fibers[c]]
    slot = {c: {} for c in base.objects}
    for k, (c, x) in enumerate(slots):
        slot[c][x] = k
    squares = naturality_squares(F, slot)
    img = [None] * len(slots)
    results = []

    def fill(k):
        c = slots[k][0]
        for a in cls.omega.fibers[c]:
            img[k] = a
            if all(
                arrows_iso_over(base, img[j], cls.omega.action[u][img[i]])
                for i, j, u in squares.get(k, ())
            ):
                yield

    for _ in backtrack(0, len(slots), fill):
        results.append(dict(zip(slots, img)))
    # quotient by pointwise isomorphism-over
    classes = []
    for r in results:
        if not any(
            all(arrows_iso_over(base, r[s], q[s]) for s in slots) for q in classes
        ):
            classes.append(r)
    return classes


def criterion_2(seed=0) -> dict:
    """Maps into the classifier biject with pseudo-natural classifications
    (isomorphism classes of classifiable representable maps), and the
    generic pullback realizes the bijection."""
    failures = []
    cases = 0
    for name, base in corpus_bases(seed):
        cls = rep_map_classifier(base)
        for F in corpus_presheaves(base, seed=seed, max_total=6, limit=6):
            cases += 1
            chis = list(enumerate_maps(F, cls.omega))
            # injectivity: distinct maps pull the generic back to
            # non-isomorphic families
            for i in range(len(chis)):
                Pi_, _, li = pullback_of_maps(cls.generic, chis[i])
                for j in range(i + 1, len(chis)):
                    Pj_, _, lj = pullback_of_maps(cls.generic, chis[j])
                    if find_iso_over(li, lj) is not None:
                        failures.append((name, "injectivity", i, j))
            # surjectivity onto the pseudo-classifications
            pseudo = _pseudo_classifications(base, cls, F)
            if len(pseudo) != len(chis):
                failures.append((name, "count", len(chis), len(pseudo)))
            # round trip through classify on a sample
            for chi in chis[:2]:
                P, _, left = pullback_of_maps(cls.generic, chi)
                wit = is_representable_map(left)
                chi2 = classify(left, cls, wit)
                P2, _, left2 = pullback_of_maps(cls.generic, chi2)
                if find_iso_over(left2, left) is None:
                    failures.append((name, "roundtrip"))
    return {"ok": not failures, "detail": {"cases": cases, "failures": failures[:5]}}


def criterion_3(seed=0) -> dict:
    """The generic map over every corpus base is univalent."""
    rows = []
    for name, base in corpus_bases(seed):
        cls = rep_map_classifier(base)
        res = is_univalent(cls.generic, cls.witness)
        rows.append((name, res.ok))
    return {"ok": all(ok for _, ok in rows), "detail": rows}


def criterion_4(seed=0) -> dict:
    """For univalent representable corpus maps, structure search succeeds
    exactly when the closure property holds, per kind."""
    rows = []
    bad = []
    for name, base in corpus_bases(seed):
        cls = rep_map_classifier(base)
        candidates = [(cls.generic, cls.witness)]
        candidates += corpus_representable_maps(base, cls, seed=seed, limit=3)
        seen = 0
        for f, w in candidates:
            if f.target.total_size() > 6:
                continue
            if not is_univalent(f, w).ok:
                continue
            seen += 1
            rep = structure_criteria(f, w)
            for kind, v in rep.verdicts.items():
                rows.append((name, kind, v["closure"], v["found"] is not None))
                if not v["agree"]:
                    bad.append((name, kind))
        if seen == 0:
            bad.append((name, "no univalent candidates"))
    return {"ok": not bad, "detail": {"checked": len(rows), "failures": bad[:5]}}


def criterion_5(seed=0, per_signature=1000) -> dict:
    """Shipped signatures validate; generated well-typed terms satisfy
    subject reduction, normalization idempotence and the substitution
    lemma."""
    from .kernel import check_signature, shipped_signature_text

    failures = []
    counts = {}
    rng = random.Random(seed)
    for name in SHIPPED + ("tthr1",):
        rep = check_signature(shipped_signature_text(name))
        if not rep.ok:
            failures.append((name, "signature invalid"))
    for name in SHIPPED:
        sig = load_signature(name)
        probe = sig
        if name == "tthg":  # no closed terms otherwise
            probe = sig.extended(
                [Declaration("o", (), SortApp("Ty")),
                 Declaration("c", (), SortApp("El", (Const("o"),)))]
            )
        pool = term_pool(probe, depth=1, type_size=4, term_size_budget=6, max_contexts=4)
        if len(pool) == 0:
            failures.append((name, "empty pool"))
            continue
        picks = [pool[rng.randrange(len(pool))] for _ in range(per_signature)]
        counts[name] = len(picks)
        for ctx, ty, t in picks:
            try:
                before = infer_term(probe, ctx, t)
                nf = normalize(probe, t)
                after = infer_term(probe, ctx, nf)
                if not conv(probe, before, after):
                    failures.append((name, "subject reduction", t))
                    break
                if normalize(probe, nf) != nf:
                    failures.append((name, "idempotence", t))
                    break
                # substitution lemma against an enumerated substitution
                subs = enumerate_substitutions(probe, (), ctx, 4)
                if subs:
                    s = subs[rng.randrange(len(subs))]
                    lhs = normalize(probe, instantiate_many(t, s))
                    rhs = normalize(probe, instantiate_many(nf, s))
                    if lhs != rhs:
                        failures.append((name, "substitution lemma", t))
                        break
            except NormalizationBudget:
                failures.append((name, "budget", t))
                break
    return {"ok": not failures, "detail": {"counts": counts, "failures": failures[:5]}}


def criterion_6(seed=0, depth=2, type_size=4, term_size=4, sm_depth=1) -> dict:
    """For every enumerated context A, the syntactic model it generates
    has internal language fibers and substitution action matching the
    enumerated hom-sets out of A."""
    failures = []
    checked = 0
    for name in SHIPPED:
        sig = load_signature(name)
        ctxs = enumerate_framework_contexts(sig, depth, type_size=type_size)
        for A in ctxs:
            sm = syntactic_model(sig, A, sm_depth, type_size=type_size, term_size=term_size)
            slice_consts = [d.name for d in sm.sig.declarations() if d.name not in sig.decls]
            closing = tuple(Const(n) for n in slice_consts)

            def close(t):
                return normalize(sm.sig, instantiate_many(t, closing))

            def env_of(B, s):
                env = ()
                for k, t in enumerate(s):
                    env = (env, eval_term(sm, B[:k], close(t), sm.terminal, env))
                return env

            pshs = {B: interpret_context(sm, B) for B in ctxs}
            hom_envs = {}
            for B in ctxs:
                checked += 1
                homs = enumerate_substitutions(sig, A, B, term_size)
                envs = [env_of(B, s) for s in homs]
                hom_envs[B] = (homs, envs)
                fiber = set(pshs[B].fibers[sm.terminal])
                if len(set(envs)) != len(homs) or set(envs) != fiber:
                    failures.append((name, "bijection", len(homs), len(fiber)))
            for B in ctxs:
                homs, envs = hom_envs[B]
                for B2 in ctxs:
                    for tau in enumerate_substitutions(sig, B, B2, 3)[:3]:
                        for s, env in zip(homs, envs):
                            composed = tuple(
                                normalize(sig, instantiate_many(t2, s)) for t2 in tau
                            )
                            syntactic = env_of(B2, composed)
                            semantic = ()
                            for t2 in tau:
                                semantic = (semantic, eval_term(sm, B, t2, sm.terminal, env))
                            if syntactic != semantic:
                                failures.append((name, "action", str(B2)[:40]))
                                break
    return {"ok": not failures, "detail": {"checked": checked, "failures": failures[:5]}}


def _model_corpus(sig_name, seed=0):
    """Exact classifier models of a shipped signature over suitable
    bases, with deterministic extension values where needed."""
    sig = load_signature(sig_name)
    out = []
    for base in (terminal_category(), delta1()):
        out.append(classifier_model(sig, base))
    return sig, out


def criterion_7(seed=0) -> dict:
    """Morphisms from a democratic model into a heart biject with
    morphisms into the ambient model, by composition with the
    inclusion."""
    from .corpus import span_category

    sig = load_signature("tthg")
    failures = []
    democratic_sources = [
        classifier_model(sig, terminal_category()),
        classifier_model(sig, delta1()),
    ]
    targets = [
        classifier_model(sig, span_category()),  # not democratic
        classifier_model(sig, delta1()),
    ]

    def key(c):
        return (
            tuple(sorted(c.functor.object_map.items())),
            tuple(sorted((n, o, str(x), str(y)) for n in c.components
                         for o in c.components[n] for x, y in c.components[n][o].items())),
        )

    cases = 0
    for M in democratic_sources:
        if not is_democratic(M):
            failures.append(("source not democratic",))
            continue
        for N in targets:
            cases += 1
            inc = heart_inclusion(N)
            into_heart = enumerate_model_morphisms(sig, M, inc.source)
            into_full = enumerate_model_morphisms(sig, M, N)
            composed = [compose_model_morphisms(m, inc) for m in into_heart]
            keys = {key(c) for c in composed}
            full_keys = {key(c) for c in into_full}
            if len(keys) != len(into_heart) or keys != full_keys:
                failures.append(("bijection", len(into_heart), len(into_full)))
    return {"ok": not failures, "detail": {"cases": cases, "failures": failures}}


def criterion_8(seed=0, depth=2) -> dict:
    """Exactly one morphism from the depth-bounded initial model into
    every corpus model, under exhaustive search."""
    failures = []
    rows = []
    for name in SHIPPED:
        sig, targets = _model_corpus(name, seed)
        if not targets:
            failures.append((name, "no corpus models"))
            continue
        initial = initial_model(sig, depth, type_size=4, term_size=4)
        for target in targets:
            morphism, report, found = unique_morphism_from_initial(
                sig, depth, target, initial=initial
            )
            rows.append((name, len(target.base.objects), len(found)))
            if not report.ok or len(found) != 1:
                failures.append((name, report.failed(), len(found)))
    return {"ok": not failures, "detail": {"rows": rows, "failures": failures[:3]}}


def criterion_9(seed=0, depth=2) -> dict:
    """The type/term-lifting verdict equals the brute-force lifting
    verdict on every corpus morphism of democratic models."""
    sig = load_signature("itth")
    failures = []
    rows = []
    morphisms = []

    im = initial_model(sig, depth, type_size=4, term_size=4)
    morphisms.append(("identity", identity_morphism(im), depth))

    target = classifier_model(sig, delta1())
    mor, rep, _found = unique_morphism_from_initial(sig, depth, target, initial=im, verify_unique=False)
    morphisms.append(("initial-to-classifier", mor, depth))

    # a surjective-on-generators morphism: collapse a doubled extension
    ext1 = sig.extended([Declaration("o", (), SortApp("Ty"))])
    ext2 = sig.extended([
        Declaration("o", (), SortApp("Ty")),
        Declaration("o2", (), SortApp("Ty")),
    ])
    im1 = initial_model(ext1, depth, type_size=4, term_size=4)
    im1_as_ext2 = _reinterpret(im1, ext2, {"o2": "o"})
    im2 = initial_model(ext2, 1, type_size=4, term_size=4)
    mor2, rep2, _ = unique_morphism_from_initial(ext2, 1, im1_as_ext2, initial=im2, verify_unique=False)
    morphisms.append(("collapse", mor2, 1))

    hi = heart_inclusion(classifier_model(sig, delta1()))
    morphisms.append(("heart-inclusion", hi, depth))

    for tag, m, d in morphisms:
        if not is_democratic(m.source):
            failures.append((tag, "source not democratic"))
            continue
        res = is_trivial_fibration(m, d)
        rows.append((tag, res["trivial_fibration"], res["rlp"]["rlp"], res["agree"]))
        if not res["agree"]:
            failures.append((tag, "verdicts disagree"))
    # the collapse is type-surjective but cannot lift terms of merged
    # identity types, so it is decisively not a trivial fibration; the
    # verdict agreement on it exercises both failure paths
    expect = {"identity": True, "heart-inclusion": True, "collapse": False,
              "initial-to-classifier": False}
    for tag, tf, rlp, agree in rows:
        if tag in expect and tf != expect[tag]:
            failures.append((tag, "unexpected verdict", tf))
    return {"ok": not failures, "detail": {"rows": rows, "failures": failures[:3]}}


def _reinterpret(model: ModelData, sig, alias):
    """View a model of a smaller signature as one of a larger signature by
    aliasing extra constants to existing value tables."""
    out = ModelData(model.base, model.terminal, sig, model.depth, model.exposed_sig)
    out.sorts = model.sorts
    out.term_values = dict(model.term_values)
    out.extras = model.extras
    for new, old in alias.items():
        out.term_values[new] = model.term_values[old]
    return out


def criterion_10(seed=0) -> dict:
    """Pushouts of free extensions are generator-only signature
    extensions and satisfy the enumerated mapping-out property."""
    failures = []
    base = load_signature("itth").extended([Declaration("o", (), SortApp("Ty"))])

    # structural: one generator per attachment, no new rules
    cof = CofibrationPresentation.of(
        Attachment(0, "Ty", ()),
        Attachment(0, "El", (Const("o"),)),
    )
    P = pushout_cofibration(base, cof)
    added = added_constants(base, P)
    if len(added) != 2 or any(len(d.telescope) != 0 for d in added):
        failures.append(("shape", [d.name for d in added]))
    if len(P.rules()) != len(base.rules()):
        failures.append(("new equations",))

    # universal property: maps out of the pushout correspond to pairs of
    # assignments, enumerated at a small size
    K = base.extended([Declaration("k", (), SortApp("El", (Const("o"),)))])
    homs_P = extension_morphisms(base, P, K, size=3)
    single_ty = extension_morphisms(base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[0])), K, size=3)
    single_el = extension_morphisms(base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[1])), K, size=3)
    if len(homs_P) != len(single_ty) * len(single_el):
        failures.append(("ump-count", len(homs_P), len(single_ty), len(single_el)))

    # independent attachments in either order give structurally equal
    # signatures up to the fresh names
    P2 = pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[1], cof.attachments[0]))
    shapes = lambda sig_: sorted(
        (repr(d.telescope), repr(d.target)) for d in added_constants(base, sig_)
    )
    if shapes(P) != shapes(P2):
        failures.append(("order-independence",))
    return {"ok": not failures, "detail": {"failures": failures}}


CRITERIA = [
    (1, "polynomial composition", criterion_1),
    (2, "classifier bijection", criterion_2),
    (3, "generic map univalence", criterion_3),
    (4, "structure criteria iff", criterion_4),
    (5, "kernel health", criterion_5),
    (6, "correspondence at representables", criterion_6),
    (7, "heart coreflection", criterion_7),
    (8, "initial model uniqueness", criterion_8),
    (9, "lifting lemma iff", criterion_9),
    (10, "cofibration pushouts", criterion_10),
]


def run_all(seed=0, only=None) -> dict:
    results = {}
    for num, name, fn in CRITERIA:
        if only is not None and num not in only:
            continue
        t0 = time.monotonic()
        res = fn(seed=seed)
        res["elapsed_s"] = round(time.monotonic() - t0, 2)
        res["name"] = name
        results[str(num)] = res
    results["ok"] = all(r["ok"] for k, r in results.items() if k != "ok")
    return results
