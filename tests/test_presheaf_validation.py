"""`Presheaf.violations` against the quadratic check it replaced.

The reference below is the earlier implementation, kept verbatim.  The
position-map version must return the identical list of messages, on
every presheaf that classification and context interpretation build
over the corpus bases, and on mutants of them that break one law each.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rmtt.corpus import corpus_bases
from rmtt.kernel import enumerate_framework_contexts, load_signature
from rmtt.models import ModelError, classifier_model, interpret_context
from rmtt.rfib import Presheaf, rep_map_classifier


def reference_violations(self):
    out = []
    base = self.base
    for a in base.arrow_ids:
        s, t = base.src[a], base.tgt[a]
        table = self.action[a]
        if set(table.keys()) != set(self.fibers[t]):
            out.append(f"action of {a!r} not total on fiber of {t!r}")
            continue
        for y, x in table.items():
            if x not in set(self.fibers[s]):
                out.append(f"action of {a!r} leaves fiber of {s!r}")
    if out:
        return out
    for o in base.objects:
        i = base.id_of(o)
        for x in self.fibers[o]:
            if self.action[i][x] != x:
                out.append(f"identity action fails at {o!r}/{x!r}")
    for (f, g), h in base.compose.items():
        for y in self.fibers[base.tgt[f]]:
            if self.action[h][y] != self.action[g][self.action[f][y]]:
                out.append(f"functoriality fails on ({f!r},{g!r})")
                break
    return out


@pytest.fixture(scope="module")
def built():
    """Every presheaf constructed while classifying each corpus base and
    interpreting the `tthg` contexts of depth <= 3 in its classifier
    model (bases without a terminal object have no such model)."""
    out = []
    init = Presheaf.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        out.append(self)

    sig = load_signature("tthg")
    ctxs = enumerate_framework_contexts(sig, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Presheaf, "__init__", recording_init)
        for _, base in corpus_bases(0):
            cls = rep_map_classifier(base)
            try:
                model = classifier_model(sig, base, classifier=cls)
            except ModelError:
                continue
            for ctx in ctxs:
                interpret_context(model, ctx)
    return out


def test_identical_on_built_presheaves(built):
    assert len(built) >= 50
    for p in built:
        assert p.violations() == reference_violations(p)


def _copy(p):
    return Presheaf(p.base, p.fibers, p.action, validate=False)


def _mutation_sites(p):
    """(kind, object or arrow, key) for each single-entry mutation of p."""
    base = p.base
    ids = set(base.identities.values())
    sites = []
    for a in base.arrow_ids:
        s = base.src[a]
        for y in p.action[a]:
            sites.append(("drop", a, y))
            sites.append(("rekey", a, y))
            sites.append(("escape", a, y))
            if len(p.fibers[s]) >= 2:
                sites.append(("identity" if a in ids else "composite", a, y))
    for o in base.objects:
        for x in p.fibers[o]:
            sites.append(("repeat", o, x))
    return sites


def _mutate(p, site, other):
    """Apply one mutation to a copy of p; `other` picks the element an
    entry is redirected to."""
    q = _copy(p)
    kind, where, key = site
    if kind == "drop":
        del q.action[where][key]
    elif kind == "rekey":
        q.action[where][("outside", key)] = q.action[where].pop(key)
    elif kind == "escape":
        q.action[where][key] = ("outside", key)
    elif kind == "repeat":
        q.fibers[where] = q.fibers[where] + (key,)
    else:
        # identity or composite: send the entry to another element of
        # the source fibre
        fib = [x for x in q.fibers[q.base.src[where]] if x != q.action[where][key]]
        q.action[where][key] = fib[other % len(fib)]
    return q


MUTANT_KINDS = ("drop", "rekey", "escape", "identity", "composite", "repeat")


def test_every_mutation_kind_has_sites(built):
    kinds = {site[0] for p in built for site in _mutation_sites(p)}
    assert kinds == set(MUTANT_KINDS)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_identical_on_mutants(built, data):
    kind = data.draw(st.sampled_from(MUTANT_KINDS))
    p = data.draw(st.sampled_from([p for p in built if any(s[0] == kind for s in _mutation_sites(p))]))
    site = data.draw(st.sampled_from([s for s in _mutation_sites(p) if s[0] == kind]))
    q = _mutate(p, site, data.draw(st.integers(0, 10)))
    want = reference_violations(q)
    assert q.violations() == want
    if kind in ("drop", "rekey", "escape", "identity"):
        assert want
