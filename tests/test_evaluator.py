"""`models.eval_subst` and `ComprehensionWitness.entry_violations`
against the code they replaced, kept below verbatim as references:
criterion 6's private `close`/`env_of` and `semantic` loops, which
evaluated a substitution term by term, and `_partial_witness_violations`,
the universal-property check of a truncated model's witness.  Criterion
6 is compared with its reference on correct syntactic models and on
models with one value changed."""

import itertools

import pytest

from rmtt import acceptance, models
from rmtt.acceptance import SHIPPED, _model_corpus
from rmtt.kernel import (
    Const,
    compose_subst,
    enumerate_framework_contexts,
    enumerate_substitutions,
    instantiate_many,
    load_signature,
    normalize,
)
from rmtt.models import (
    SortInterp,
    eval_subst,
    eval_term,
    initial_model,
    interpret_context,
    syntactic_model,
)
from rmtt.rfib import ComprehensionWitness, RfibError


# ---------------------------------------------------------------------------
# criterion 6's evaluation loops
# ---------------------------------------------------------------------------


def reference_criterion_6(seed=0, depth=2, type_size=4, term_size=4, sm_depth=1, signatures=SHIPPED) -> dict:
    """For every enumerated context A, the syntactic model it generates
    has internal language fibers and substitution action matching the
    enumerated hom-sets out of A."""
    failures = []
    checked = 0
    for name in signatures:
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
                    env += (eval_term(sm, B[:k], close(t), sm.terminal, env),)
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
                                semantic += (eval_term(sm, B, t2, sm.terminal, env),)
                            if syntactic != semantic:
                                failures.append((name, "action", str(B2)[:40]))
                                break
    return {"ok": not failures, "detail": {"checked": checked, "failures": failures[:5]}}


@pytest.mark.parametrize("name", SHIPPED)
def test_substitution_values_match_reference(name):
    """On criterion 6's corpus at depth 2: each hom out of A evaluates,
    closed by the slice's global section and in the empty context, to
    the environment the old `env_of` built in B's prefixes; and each
    action check evaluates tau by `eval_subst` as the `semantic` loop
    did, on the composites the old code built inline."""
    sig = load_signature(name)
    ctxs = enumerate_framework_contexts(sig, 2, type_size=4)
    homs_checked = actions_checked = 0
    for A in ctxs:
        sm = syntactic_model(sig, A, 1, type_size=4, term_size=4)
        closing = tuple(Const(d.name) for d in sm.sig.declarations() if d.name not in sig.decls)

        def close(t):
            return normalize(sm.sig, instantiate_many(t, closing))

        def env_of(B, s):
            env = ()
            for k, t in enumerate(s):
                env += (eval_term(sm, B[:k], close(t), sm.terminal, env),)
            return env

        def new_env_of(s):
            return eval_subst(sm, (), compose_subst(sm.sig, closing, s), sm.terminal, ())

        for B in ctxs:
            homs = enumerate_substitutions(sig, A, B, 4)
            for s in homs:
                assert new_env_of(s) == env_of(B, s), (A, B, s)
                homs_checked += 1
            for B2 in ctxs:
                for tau in enumerate_substitutions(sig, B, B2, 3)[:3]:
                    for s in homs:
                        env = env_of(B, s)
                        composed = tuple(normalize(sig, instantiate_many(t2, s)) for t2 in tau)
                        assert compose_subst(sig, s, tau) == composed
                        assert new_env_of(composed) == env_of(B2, composed)
                        semantic = ()
                        for t2 in tau:
                            semantic += (eval_term(sm, B, t2, sm.terminal, env),)
                        assert eval_subst(sm, B, tau, sm.terminal, env) == semantic
                        actions_checked += 1
    assert homs_checked and actions_checked


def test_criterion_6_matches_reference():
    for name in SHIPPED:
        assert acceptance.criterion_6(signatures=(name,)) == reference_criterion_6(signatures=(name,))


def _one_value_changed(k, const):
    """`syntactic_model`, except that in the k-th model it builds, the
    first entry of `const`'s value table takes another element of the
    same fibre of its sort, where that fibre has another element."""
    calls = itertools.count()

    def build(*args, **kwargs):
        sm = models.syntactic_model(*args, **kwargs)
        table = sm.term_values[const]
        if next(calls) == k and table:
            (c, te), old = next(iter(table.items()))
            si = sm.sort(sm.sig.decls[const].target.head)
            over = si.family.components[c][old]
            table[(c, te)] = next(
                (x for x in si.total.fibers[c] if x != old and si.family.components[c][x] == over), old
            )
        return sm

    return build


def _outcome(check, **kwargs):
    """The report, or "raised" where a mutant is too broken to evaluate."""
    try:
        return check(**kwargs)
    except (models.ModelError, RfibError):
        return "raised"


@pytest.mark.parametrize("name", ["itth", "itthpi"])
def test_criterion_6_matches_reference_on_mutated_models(name, monkeypatch):
    """Evaluating each substitution out of A once hides no failure: with
    one value changed in one syntactic model, criterion 6 and its
    reference return the same report."""
    sig = load_signature(name)
    consts = [d.name for d in sig.declarations() if d.is_term]
    reports = []
    for k in range(len(enumerate_framework_contexts(sig, 1, type_size=4))):
        for const in consts:
            monkeypatch.setattr(acceptance, "syntactic_model", _one_value_changed(k, const))
            new = _outcome(acceptance.criterion_6, signatures=(name,), depth=1)
            monkeypatch.setitem(globals(), "syntactic_model", _one_value_changed(k, const))
            old = _outcome(reference_criterion_6, signatures=(name,), depth=1)
            monkeypatch.undo()
            assert (new == "raised") == (old == "raised"), (k, const)
            if new != "raised":
                assert new == old, (k, const)
                reports.append(new)
    assert any(not r["ok"] for r in reports)


# ---------------------------------------------------------------------------
# the comprehension-entry check
# ---------------------------------------------------------------------------


def reference_partial_witness_violations(si: SortInterp):
    """Universal-property check restricted to the entries that exist."""
    out = []
    w = si.witness
    f = w.map
    base = f.base
    E, B = f.source, f.target
    for (c, y), (obj, proj, gen) in w.data.items():
        if base.src.get(proj) != obj or base.tgt.get(proj) != c:
            out.append(f"projection endpoints wrong at {c!r}")
            continue
        if f.components[obj][gen] != B.action[proj][y]:
            out.append(f"generic element does not lie over its instance at {c!r}")
            continue
        for d in base.objects:
            for g in base.hom(d, c):
                want = B.action[g][y]
                for x in E.fibers[d]:
                    if f.components[d][x] != want:
                        continue
                    hits = [
                        u for u in base.hom(d, obj)
                        if base.comp(proj, u) == g and E.action[u][gen] == x
                    ]
                    if len(hits) != 1:
                        out.append(f"universal property fails at {c!r}")
    return out


@pytest.fixture(scope="module")
def witnessed_sorts():
    """Every representable sort, with its witness, of the classifier
    models of criterion 8's corpus and of the shipped initial models at
    depths 1 and 2."""
    models = []
    for name in SHIPPED:
        sig, targets = _model_corpus(name)
        models += targets
        models += [initial_model(sig, depth, type_size=4, term_size=4) for depth in (1, 2)]
    return [si for m in models for si in m.sorts.values() if si.rep and si.witness is not None]


def _broken(si, key, entry):
    data = dict(si.witness.data)
    data[key] = entry
    wit = ComprehensionWitness(si.witness.map, data)
    return SortInterp(si.decl, si.tele_obj, si.total, si.family, wit)


def _one_entry_broken(si, entries=3, choices=3):
    """Witnesses that differ from si's in one entry: another generic
    element of the same fibre, another projection with the same
    endpoints, or a projection with other endpoints."""
    base = si.witness.map.base
    E = si.witness.map.source
    for key, (obj, proj, gen) in list(si.witness.data.items())[:entries]:
        c = key[0]
        for g2 in [x for x in E.fibers[obj] if x != gen][:choices]:
            yield _broken(si, key, (obj, proj, g2))
        for p2 in [a for a in base.hom(obj, c) if a != proj][:choices]:
            yield _broken(si, key, (obj, p2, gen))
        other = next((a for a in base.arrow_ids if base.tgt[a] != c or base.src[a] != obj), None)
        if other is not None:
            yield _broken(si, key, (obj, other, gen))


def test_entry_violations_match_reference_on_corpus(witnessed_sorts):
    assert witnessed_sorts
    for si in witnessed_sorts:
        assert reference_partial_witness_violations(si) == []
        assert si.witness.entry_violations() == []


def test_entry_violations_match_reference_with_one_entry_broken(witnessed_sorts):
    broken = 0
    for si in witnessed_sorts:
        for bad in _one_entry_broken(si):
            clean = not reference_partial_witness_violations(bad)
            assert (not bad.witness.entry_violations()) == clean
            broken += not clean
    assert broken


def test_violations_are_missing_entries_then_entry_violations(witnessed_sorts):
    si = next(si for si in witnessed_sorts if len(si.witness.data) > 1 and not si.witness.violations())
    (c, y), entry = next(iter(si.witness.data.items()))
    data = dict(si.witness.data)
    del data[(c, y)]
    wit = ComprehensionWitness(si.witness.map, data)
    assert wit.violations() == [f"no comprehension for {y!r} at {c!r}"] + wit.entry_violations()
