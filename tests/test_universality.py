"""The one table of the arrows into an apex, `FiniteCategory.legs`,
against the mediator scans it replaced.

The references in `constructions` are the earlier bodies, kept verbatim;
each counts the mediators of every competitor.  Every candidate is
compared, not only the first found: each object as a terminal object,
each cone of each cospan, each (object, element) pair of a presheaf and
each (obj, proj, gen) over each element of a map's target.  Each
mediator lookup is compared too, with the same result or the same
error.  On `group2`, the two-element group, two arrows into its one
object share a leg, so its tables have collisions.  Witnesses with one
entry's projection or generic element changed (to another arrow with
the same endpoints, or another element of the same fibre, the shape a
model document's witness rows are checked for) are compared as well.
The last test keeps the scans out of the package.
"""

import ast
import pathlib

import pytest

from rmtt.corpus import boundary_bases, corpus_bases, corpus_presheaves, corpus_representable_maps
from rmtt.fincat import chain_poset, find_terminal, pullback_cones, universal
from rmtt.rfib import (
    ComprehensionWitness,
    RfibError,
    _competitors,
    _comprehension,
    _comprehension_legs,
    bang,
    element_legs,
    enumerate_maps,
    is_representable,
    is_representable_map,
    rep_map_classifier,
)

from constructions import (
    chaotic_category,
    discrete_category,
    reference_comprehension,
    reference_find_terminal,
    reference_is_representable,
    reference_is_terminal_pair,
    reference_mediate,
    reference_pullback_in_base,
    reference_section_transport,
    reference_universal_squares,
)

REPO = pathlib.Path(__file__).resolve().parents[1]

CHAINS = [(f"chain{n}", chain_poset(n)) for n in range(2, 7)]
BASES = corpus_bases(0) + boundary_bases() + CHAINS + [
    ("chaotic2", chaotic_category(2)),
    ("discrete2", discrete_category(2)),
]


@pytest.fixture(scope="module")
def classifiers():
    return {name: rep_map_classifier(base) for name, base in BASES}


@pytest.fixture(scope="module")
def maps(classifiers):
    """Per base, maps to decide representability of: the generic map,
    maps to the terminal presheaf and classifying maps (mostly not
    representable), and on the corpus and boundary bases the corpus's
    representable maps."""
    out = []
    small = {name for name, _ in corpus_bases(0) + boundary_bases()}
    for name, base in BASES:
        cls = classifiers[name]
        presheaves = corpus_presheaves(base)
        fs = [cls.generic] + [bang(X) for X in presheaves[:4]]
        fs += [chi for F in presheaves[:4] for chi in list(enumerate_maps(F, cls.omega))[:2]]
        if name in small:
            fs += [left for left, _ in corpus_representable_maps(base, cls, limit=6)]
        out.append((name, base, fs))
    return out


def outcome(fn, *args):
    """What fn(*args) returns, or the class and text of the RfibError it raises."""
    try:
        return ("value", fn(*args))
    except RfibError as e:
        return (type(e), str(e))


def test_arrows_into_is_the_scan_in_declared_order():
    for name, base in BASES:
        for o in base.objects:
            assert base.arrows_into(o) == tuple(a for a in base.arrow_ids if base.tgt[a] == o), (name, o)
        assert base.arrows_into("not an object") == ()


def test_terminal_objects_match_the_scan():
    found = 0
    for name, base in BASES:
        for o in base.objects:
            assert base.is_terminal(o) == all(len(base.hom(x, o)) == 1 for x in base.objects), (name, o)
        assert find_terminal(base) == reference_find_terminal(base), name
        found += find_terminal(base) is not None
    assert 0 < found < len(BASES)
    group2 = dict(BASES)["group2"]
    # both arrows of the group come from its one object: a collision
    assert group2.legs("*", group2.src.get) == {"*": None}
    assert not group2.is_terminal("*")


def test_pullback_cones_match_reference():
    cospans = cones = 0
    for name, base in BASES:
        for f in base.arrow_ids:
            for g in base.arrow_ids:
                if base.tgt[f] != base.tgt[g]:
                    with pytest.raises(ValueError):
                        next(pullback_cones(base, f, g))
                    with pytest.raises(ValueError):
                        reference_pullback_in_base(base, f, g)
                    continue
                # every candidate cone, in order: the reference tries each
                new = list(pullback_cones(base, f, g))
                assert new == reference_universal_squares(base, f, g), (name, f, g)
                assert next(iter(new), None) == reference_pullback_in_base(base, f, g)
                cospans += 1
                cones += len(new)
    assert cospans >= 390 and cones >= 400


def test_universal_elements_and_their_lookups_match_the_scan():
    compared = universals = collisions = 0
    for name, base in BASES:
        presheaves = corpus_presheaves(base)
        for X in presheaves:
            elements = {(d, x) for d in base.objects for x in X.fibers[d]}
            for c in base.objects:
                for e in X.fibers[c]:
                    legs = element_legs(X, c, e)
                    every_one = True
                    for d in base.objects:
                        for x in X.fibers[d]:
                            hits = [u for u in base.hom(d, c) if X.action[u][e] == x]
                            assert legs.get((d, x)) == (hits[0] if len(hits) == 1 else None), (name, c, e, d, x)
                            every_one &= len(hits) == 1
                    assert universal(legs, elements) == every_one, (name, c, e)
                    universals += every_one
                    collisions += None in legs.values()
                    compared += 1
            assert is_representable(X) == reference_is_representable(X), name
    assert compared >= 230 and 100 <= universals < compared
    assert collisions  # on group2 the terminal presheaf's one element


def test_comprehension_candidates_match_reference(maps):
    candidates = terminal = 0
    for name, base, fs in maps:
        for f in fs:
            B = f.target
            for c in base.objects:
                for y in B.fibers[c]:
                    competitors = _competitors(f, c, y)
                    for obj in base.objects:
                        for proj in base.hom(obj, c):
                            for gen in f.over(obj, B.action[proj][y]):
                                new = universal(_comprehension_legs(f, obj, proj, gen), competitors)
                                assert new == reference_is_terminal_pair(f, c, y, obj, proj, gen), (name, c, y, obj)
                                candidates += 1
                                terminal += new
                    assert _comprehension(f, c, y) == reference_comprehension(f, c, y)
    assert candidates >= 1800 and 0 < terminal < candidates


def mutants(w):
    """w itself and, for each entry, the witnesses with that entry's
    projection changed to another arrow between the same objects, or its
    generic element to another element of the same fibre."""
    f, base = w.map, w.map.base
    yield None, w
    for key, (obj, proj, gen) in w.data.items():
        c = key[0]
        changed = [(obj, p, gen) for p in base.hom(obj, c) if p != proj]
        changed += [(obj, proj, e) for e in f.source.fibers[obj] if e != gen]
        for entry in changed:
            yield key, ComprehensionWitness(f, {**w.data, key: entry})


def test_mediators_and_verdicts_match_reference_on_changed_witnesses(maps):
    lookups = failures = changed = 0
    for name, base, fs in maps:
        for f in fs:
            w = is_representable_map(f)
            if w is None:
                continue
            for key, v in mutants(w):
                if key is not None:
                    changed += 1
                    c, y = key
                    obj, proj, gen = v.data[key]
                    lies_over = f.components[obj][gen] == f.target.action[proj][y]
                    terminal = lies_over and reference_is_terminal_pair(f, c, y, obj, proj, gen)
                    if lies_over:
                        assert universal(v.legs(c, y), _competitors(f, c, y)) == terminal
                        expected = [] if terminal else [f"universal property fails for {y!r} at {c!r}"]
                    else:
                        expected = [f"generic element of {y!r} at {c!r} does not lie over it"]
                    assert v.entry_violations() == expected, (name, key)
                for (c, y) in [key] if key is not None else v.data:
                    for g in base.arrows_into(c):
                        d = base.src[g]
                        for x in f.source.fibers[d]:
                            new = outcome(v.mediate, c, y, d, g, x)
                            assert new == outcome(reference_mediate, v, c, y, d, g, x), (name, c, y, g, x)
                            lookups += 1
                            failures += new[0] != "value"
    assert changed >= 100 and lookups >= 3000 and 0 < failures < lookups


def test_section_transport_matches_reference(classifiers):
    for name, base in BASES:
        cls = classifiers[name]
        expected = reference_section_transport(base, cls.squares, cls.omega_pt.fibers)
        for u in base.arrow_ids:
            assert list(cls.omega_pt.action[u].items()) == list(expected[u].items()), (name, u)


def test_no_mediator_scan_in_the_package():
    """Universal properties are decided by `FiniteCategory.legs`: no
    `hits` or `mediators` list and no count of a hom-set is left."""
    for path in (REPO / "src" / "rmtt").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                assert node.id not in ("hits", "mediators"), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len":
                arg = node.args[0] if node.args else None
                is_hom = isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute) and arg.func.attr == "hom"
                assert not is_hom, f"{path.name}:{node.lineno} counts a hom-set"
