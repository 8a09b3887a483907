"""`PshMap.over` and the constructions that read fibres through it,
against the fibre scans they replaced.

The references in `constructions` are the earlier bodies of
`pullback_of_maps`, `pushforward`, `polynomial_compose` and
`is_representable_map`, kept verbatim.  On every map here the new code
must build the same presheaves (fibres in the same order, the same
action tables), the same components and the same witness data, and
`over` must return what a scan of the source fibre in order returns.
The last test keeps that scan out of the package.
"""

import ast
import pathlib

import pytest

from rmtt.corpus import corpus_bases, corpus_presheaves, corpus_representable_maps, two_element_group
from rmtt.fincat import chain_poset
from rmtt.rfib import (
    NotRepresentable,
    bang,
    enumerate_maps,
    identity_map,
    is_representable_map,
    polynomial_compose,
    product_psh,
    pullback_of_maps,
    pushforward,
    rep_map_classifier,
)

from constructions import (
    chaotic_category,
    reference_is_representable_map,
    reference_polynomial_compose,
    reference_pullback_of_maps,
    reference_pushforward,
)

REPO = pathlib.Path(__file__).resolve().parents[1]

EXTRA_BASES = [(f"chain{n}", chain_poset(n)) for n in (3, 4, 5)] + [
    ("group2", two_element_group()),
    ("chaotic2", chaotic_category(2)),
]


@pytest.fixture(scope="module")
def cases():
    """Per base: its classifier, the corpus presheaves, maps classifying
    some of them into the classifier, and representable maps (the
    generic map, and pullbacks of it over the corpus bases)."""
    out = []
    for name, base in corpus_bases(0) + EXTRA_BASES:
        cls = rep_map_classifier(base)
        presheaves = corpus_presheaves(base)
        chis = [chi for F in presheaves for chi in list(enumerate_maps(F, cls.omega))[:2]]
        reps = [cls.generic]
        if name not in dict(EXTRA_BASES):
            reps += [left for left, _ in corpus_representable_maps(base, cls, limit=6)]
        out.append((name, cls, presheaves, chis, reps))
    return out


def scan(f, o, y):
    """The elements of f's source at o that f sends to y, in fibre order."""
    return tuple(x for x in f.source.fibers[o] if f.components[o][x] == y)


def assert_over_is_scan(f):
    for o in f.base.objects:
        for y in f.target.fibers[o]:
            assert f.over(o, y) == scan(f, o, y)
        assert f.over(o, ("not", "an element")) == ()


def assert_same_presheaf(P, Q):
    assert P.base == Q.base
    assert P.fibers == Q.fibers
    for a in P.base.arrow_ids:
        assert list(P.action[a].items()) == list(Q.action[a].items())


def assert_same_map(f, g):
    assert_same_presheaf(f.source, g.source)
    assert_same_presheaf(f.target, g.target)
    for o in f.base.objects:
        assert list(f.components[o].items()) == list(g.components[o].items())
    assert_over_is_scan(f)


def assert_same_witness(w, v):
    assert (w is None) == (v is None)
    if w is not None:
        assert list(w.data.items()) == list(v.data.items())


def test_pullbacks_match_reference(cases):
    compared = 0
    for name, cls, presheaves, chis, reps in cases:
        pairs = [(cls.generic, chi) for chi in chis] + [(chi, cls.generic) for chi in chis]
        pairs += [(bang(X), bang(Y)) for X in presheaves[:4] for Y in presheaves[:4]]
        pairs += [(f, f) for f in reps]
        for f, g in pairs:
            assert_over_is_scan(f)
            assert_over_is_scan(g)
            new, old = pullback_of_maps(f, g), reference_pullback_of_maps(f, g)
            assert_same_presheaf(new[0], old[0])
            assert_same_map(new[1], old[1])
            assert_same_map(new[2], old[2])
            compared += 1
    assert compared >= 300


def test_witnesses_match_reference(cases):
    found = missing = 0
    for name, cls, presheaves, chis, reps in cases:
        # the classifying maps and the maps to the terminal are mostly not
        # representable; the rest are
        for f in reps + chis + [bang(X) for X in presheaves]:
            assert_over_is_scan(f)
            w = is_representable_map(f)
            assert_same_witness(w, reference_is_representable_map(f))
            found += w is not None
            missing += w is None
    assert found >= 50 and missing >= 20


def test_pushforwards_match_reference(cases):
    compared = 0
    for name, cls, presheaves, chis, reps in cases:
        for f in reps:
            legs = [identity_map(f.source), pullback_of_maps(f, f)[1]]
            legs += [product_psh(f.source, Y)[1] for Y in presheaves[:3]]
            legs += [pullback_of_maps(f, chi)[1] for chi in chis[:3] if chi.target == f.target]
            for g in legs:
                assert_over_is_scan(g)
                assert_same_map(pushforward(f, g), reference_pushforward(f, g))
                compared += 1
        for chi in chis:
            if reference_is_representable_map(chi) is None:
                with pytest.raises(NotRepresentable):
                    pushforward(chi, identity_map(chi.source))
    assert compared >= 100


def test_polynomial_compositions_match_reference(cases):
    compared = 0
    for name, cls, presheaves, chis, reps in cases:
        for f in reps[:3]:
            for g in (f, cls.generic):
                tensor, wt = polynomial_compose(f, g)
                old, old_wt = reference_polynomial_compose(f, g)
                assert_same_map(tensor, old)
                assert_same_witness(wt, old_wt)
                compared += 1
    assert compared >= 30


def _fibre_scans(tree):
    """Loops and comprehensions that pick the elements of `<P>.fibers[<o>]`
    a map sends to one element: `<f>.components[<o>][x] == y` or `!= y`
    on the loop variable x, with y not depending on x.  Their source
    lines, outside `PshMap.over`."""

    def component_of(node, x):
        return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Name) and node.slice.id == x
                and isinstance(node.value, ast.Subscript) and isinstance(node.value.value, ast.Attribute)
                and node.value.value.attr == "components")

    def mentions(node, x):
        return any(isinstance(n, ast.Name) and n.id == x for n in ast.walk(node))

    def filters(conditions, x):
        return any(
            isinstance(n, ast.Compare) and len(n.ops) == 1 and isinstance(n.ops[0], (ast.Eq, ast.NotEq))
            and any(component_of(a, x) and not mentions(b, x)
                    for a, b in ((n.left, n.comparators[0]), (n.comparators[0], n.left)))
            for cond in conditions for n in ast.walk(cond)
        )

    def over_fibre(it):
        return isinstance(it, ast.Subscript) and isinstance(it.value, ast.Attribute) and it.value.attr == "fibers"

    skip = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "PshMap"
            for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "over" for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and over_fibre(node.iter):
            # an `if` anywhere in the body, `continue` on a mismatch included
            conditions = [n.test for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.If)]
            if filters(conditions, node.target.id):
                found.append(node.lineno)
        elif isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name) and over_fibre(node.iter):
            if filters(node.ifs, node.target.id):
                found.append(node.iter.lineno)
    return found


def test_fibres_are_read_through_over():
    """Only `PshMap.over` finds the elements of a fibre that a map sends
    to one element; no call site scans a fibre for them."""
    package = REPO / "src" / "rmtt"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        offenders += [(where, line) for line in _fibre_scans(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_scan_guard_sees_each_form():
    """The guard finds the forms the package used to write."""
    forms = [
        "[s for s in si.total.fibers[c] if si.family.components[c][s] == te]",
        "for x in E.fibers[d]:\n    if f.components[d][x] != over:\n        continue\n    hits = 0",
        "for gen in f.source.fibers[obj]:\n    if f.components[obj][gen] == over and ok(gen):\n        pass",
    ]
    for form in forms:
        assert _fibre_scans(ast.parse(form)) == [1]
    # an equalizer compares two maps at one element: not a fibre over an element
    assert _fibre_scans(ast.parse("[x for x in X.fibers[o] if f.components[o][x] == g.components[o][x]]")) == []
