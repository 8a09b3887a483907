"""The subpresheaf and extension-morphism searches, which run on
`search.backtrack`, against the code they replaced, kept below verbatim
as references: the same results in the same order."""

import pytest

from rmtt.corpus import corpus_bases
from rmtt.homotopy import (
    Attachment,
    CofibrationPresentation,
    _subst_constants,
    added_constants,
    extension_morphisms,
    pushout_cofibration,
)
from rmtt.kernel import Const, Declaration, SortApp, enumerate_terms, load_signature, slice_theory
from rmtt.models import ModelError
from rmtt.rfib import Presheaf, enumerate_subpresheaves, rep_map_classifier, terminal_psh, yoneda


def reference_enumerate_subpresheaves(X: Presheaf, max_size=None):
    """All subpresheaves of X (fiberwise subsets closed under the action),
    smallest first by total size."""
    base = X.base
    slots = [(o, x) for o in base.objects for x in X.fibers[o]]
    results = []

    def closed(sel):
        for a in base.arrow_ids:
            s, t = base.src[a], base.tgt[a]
            for y in X.fibers[t]:
                if (t, y) in sel and (s, X.action[a][y]) not in sel:
                    return False
        return True

    import itertools

    for r in range(len(slots) + 1):
        if max_size is not None and r > max_size:
            break
        for combo in itertools.combinations(slots, r):
            sel = set(combo)
            if not closed(sel):
                continue
            fibers = {o: tuple(x for x in X.fibers[o] if (o, x) in sel) for o in base.objects}
            action = {
                a: {
                    y: X.action[a][y]
                    for y in X.fibers[base.tgt[a]]
                    if (base.tgt[a], y) in sel
                }
                for a in base.arrow_ids
            }
            results.append(Presheaf(base, fibers, action, validate=False))
    return results


def reference_extension_morphisms(base, ext, theory, size=5):
    """Morphisms of presented theories over the base: assignments of each
    added generator to a term of the translated type in the target
    presentation.  Exhaustive within the size budget."""
    added = added_constants(base, ext)
    results = []

    def go(mapping, k):
        if k == len(added):
            results.append(dict(mapping))
            return
        d = added[k]
        tele = tuple(_subst_constants(t, mapping) for t in d.telescope)
        target = d.target if isinstance(d.target, str) else _subst_constants(d.target, mapping)
        if isinstance(target, str):
            raise ModelError("free extensions only add term generators")
        for t in enumerate_terms(theory, tele, target, size):
            mapping[d.name] = t  # an open term over the generator's telescope
            go(mapping, k + 1)
            del mapping[d.name]

    go({}, 0)
    return results


# ---------------------------------------------------------------------------
# subpresheaves
# ---------------------------------------------------------------------------


def subpresheaf_inputs():
    """The classifier's two presheaves, the terminal presheaf and every
    representable over each corpus base of seeds 0..2."""
    out = []
    for seed in range(3):
        for name, base in corpus_bases(seed):
            cls = rep_map_classifier(base)
            out += [(f"{seed}-{name}-omega", cls.omega), (f"{seed}-{name}-omega_pt", cls.omega_pt),
                    (f"{seed}-{name}-terminal", terminal_psh(base))]
            out += [(f"{seed}-{name}-y{c}", yoneda(base, c)) for c in base.objects]
    return out


@pytest.mark.parametrize("max_size", [None, 2, 4])
@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in subpresheaf_inputs()])
def test_subpresheaves_match_reference(X, max_size):
    got = enumerate_subpresheaves(X, max_size)
    assert got == reference_enumerate_subpresheaves(X, max_size)
    assert all(not S.violations() for S in got)


# ---------------------------------------------------------------------------
# extension morphisms
# ---------------------------------------------------------------------------


def extension_inputs():
    """Criterion 10's three pushouts into K, and the slice of `tthg` at
    El(o) into a theory with two sections of it."""
    base = load_signature("itth").extended([Declaration("o", (), SortApp("Ty"))])
    cof = CofibrationPresentation.of(Attachment(0, "Ty", ()), Attachment(0, "El", (Const("o"),)))
    K = base.extended([Declaration("k", (), SortApp("El", (Const("o"),)))])
    out = [
        ("pushout", base, pushout_cofibration(base, cof), K, 3),
        ("pushout-ty", base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[0])), K, 3),
        ("pushout-el", base, pushout_cofibration(base, CofibrationPresentation.of(cof.attachments[1])), K, 3),
    ]
    sig = load_signature("tthg").extended([Declaration("o", (), SortApp("Ty"))])
    el_o = SortApp("El", (Const("o"),))
    theory = sig.extended([Declaration("c1", (), el_o), Declaration("c2", (), el_o)])
    out.append(("slice", sig, slice_theory(sig, (el_o,), prefix="s"), theory, 2))
    return out


@pytest.mark.parametrize("base,ext,theory,size", [pytest.param(*args, id=name) for name, *args in extension_inputs()])
def test_extension_morphisms_match_reference(base, ext, theory, size):
    got = extension_morphisms(base, ext, theory, size)
    assert got
    assert got == reference_extension_morphisms(base, ext, theory, size)
    assert all(list(m) == [d.name for d in added_constants(base, ext)] for m in got)
