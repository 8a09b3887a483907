"""Deterministic test corpus: small bases, presheaves over them, and
representable maps.

Bases mix pinned categories (the walking arrow, the two-step chain, the
terminal category, a span, parallel arrows, a two-element group) with
seeded random preorders; everything passes validation by construction
or is filtered by the validator.  Representable maps are drawn as
pullbacks of the generic map along enumerated classifying maps, which
by construction exhausts the classifiable ones over each carrier.
"""

from __future__ import annotations

import itertools
import random

from .fincat import (
    FiniteCategory,
    chain_poset,
    delta1,
    terminal_category,
    validate_category,
)
from .rfib import (
    enumerate_maps,
    enumerate_subpresheaves,
    product_psh,
    pullback_witness,
    rep_map_classifier,
    terminal_psh,
    yoneda,
)


def span_category() -> FiniteCategory:
    return FiniteCategory(
        ["a", "b", "c"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("idc", "c", "c"),
         ("f", "a", "c"), ("g", "b", "c")],
        {"a": "ida", "b": "idb", "c": "idc"},
        {
            ("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idc", "idc"): "idc",
            ("f", "ida"): "f", ("idc", "f"): "f",
            ("g", "idb"): "g", ("idc", "g"): "g",
        },
    )


def parallel_pair() -> FiniteCategory:
    return FiniteCategory(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("u", "0", "1"), ("v", "0", "1")],
        {"0": "id0", "1": "id1"},
        {
            ("id0", "id0"): "id0", ("id1", "id1"): "id1",
            ("u", "id0"): "u", ("id1", "u"): "u",
            ("v", "id0"): "v", ("id1", "v"): "v",
        },
    )


def two_element_group() -> FiniteCategory:
    return FiniteCategory(
        ["*"],
        [("id*", "*", "*"), ("s", "*", "*")],
        {"*": "id*"},
        {("id*", "id*"): "id*", ("id*", "s"): "s", ("s", "id*"): "s", ("s", "s"): "id*"},
    )


def _preorder_category(objs, rel, tag):
    """Category of a reflexive-transitive relation; at most one arrow per
    hom-set, so composition is forced."""
    arrows = []
    identities = {}
    name = {}
    for i, o in enumerate(objs):
        identities[o] = f"id{o}"
    for (s, t) in sorted(rel):
        aid = f"id{s}" if s == t else f"{tag}{s}{t}"
        arrows.append((aid, s, t))
        name[(s, t)] = aid
    compose = {}
    for (f, fs, ft) in arrows:
        for (g, gs, gt) in arrows:
            if fs == gt:
                compose[(f, g)] = name[(gs, ft)]
    return FiniteCategory(objs, arrows, identities, compose)


def random_preorder(rng: random.Random, n_objects: int, max_arrows=8) -> FiniteCategory:
    objs = [str(i) for i in range(n_objects)]
    rel = {(o, o) for o in objs}
    pairs = [(a, b) for a in objs for b in objs if a != b]
    rng.shuffle(pairs)
    for (a, b) in pairs:
        if rng.random() < 0.4 and (b, a) not in rel:
            rel.add((a, b))
    # transitive closure; a cycle through distinct objects has no
    # antisymmetric closure, so the caller draws again
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    if (d, a) in rel:
                        return None
                    rel.add((a, d))
                    changed = True
    if len(rel) > max_arrows:
        return None
    return _preorder_category(objs, rel, "r")


def corpus_bases(seed=0, random_count=3):
    """Pinned small categories plus seeded random preorders, all valid.

    The corpus sticks to bases whose slices carry no nontrivial
    automorphisms over their targets, where the arrows-as-elements
    classifier is a faithful truncation.  `boundary_bases` holds the
    cases that demonstrate where the truncation stops being faithful."""
    rng = random.Random(seed)
    bases = [
        ("delta1", delta1()),
        ("chain2", chain_poset(2)),
        ("terminal", terminal_category()),
        ("span", span_category()),
        ("parallel", parallel_pair()),
    ]
    tries = 0
    while random_count > 0 and tries < 50:
        tries += 1
        cat = random_preorder(rng, rng.choice([2, 3]))
        if cat is None or not validate_category(cat).ok:
            continue
        if any(cat == b for _, b in bases):
            continue
        bases.append((f"rand{len(bases)}", cat))
        random_count -= 1
    for name, b in bases:
        assert validate_category(b).ok, name
    return bases


def boundary_bases():
    """Bases on which the set-level classifier is knowingly coarser than
    the fibered one: a nontrivial automorphism makes distinct arrows
    classify isomorphic families, so the generic map fails the
    injectivity form of univalence.  Kept out of the acceptance corpus,
    exercised by dedicated boundary tests."""
    return [("group2", two_element_group())]


def corpus_presheaves(base: FiniteCategory, seed=0, max_total=6, limit=10):
    """Deterministic presheaves over a base: terminal, representables,
    small products, and seeded subpresheaves of products, all within the
    size bound."""
    rng = random.Random((seed, base.content_hash()).__repr__())
    out = [terminal_psh(base)]
    for c in base.objects:
        y = yoneda(base, c)
        if y.total_size() <= max_total:
            out.append(y)
    reps = [yoneda(base, c) for c in base.objects]
    for a, b in itertools.combinations_with_replacement(range(len(reps)), 2):
        prod, _, _ = product_psh(reps[a], reps[b])
        if prod.total_size() <= max_total:
            out.append(prod)
    subs = []
    for p in out[1 : 1 + len(base.objects)]:
        subs.extend(enumerate_subpresheaves(p, max_size=max_total))
    rng.shuffle(subs)
    for s in subs:
        if len(out) >= limit:
            break
        if 0 < s.total_size() <= max_total and all(s != q for q in out):
            out.append(s)
    dedup = []
    for p in out:
        if p.total_size() <= max_total and all(p != q for q in dedup):
            dedup.append(p)
    return dedup[:limit]


def corpus_representable_maps(base: FiniteCategory, cls=None, seed=0, max_carrier=6,
                              per_carrier=4, limit=12):
    """Representable maps over corpus carriers, with witnesses: pullbacks
    of the generic map along enumerated classifying maps, plus
    identities."""
    if cls is None:
        cls = rep_map_classifier(base)
    out = []
    rng = random.Random((seed, base.content_hash()).__repr__())
    for F in corpus_presheaves(base, seed=seed, max_total=max_carrier):
        chis = list(enumerate_maps(F, cls.omega))
        rng.shuffle(chis)
        for chi in chis[:per_carrier]:
            P, top, left, wit = pullback_witness(cls.generic, cls.witness, chi)
            out.append((left, wit))
            if len(out) >= limit:
                return out
    return out


def corpus_generate(seed=0, random_count=3):
    """The reproducible corpus as JSON documents; one seed gives the same
    documents every time."""
    docs = {}
    bases = corpus_bases(seed, random_count)
    for name, b in bases:
        docs[f"base_{name}.json"] = b.to_json()
        for i, p in enumerate(corpus_presheaves(b, seed=seed)):
            docs[f"psh_{name}_{i}.json"] = p.to_json()
    return docs
