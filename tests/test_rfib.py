import pytest

from rmtt.corpus import corpus_bases, corpus_presheaves
from rmtt.fincat import terminal_category
from rmtt.rfib import (
    Presheaf,
    PshMap,
    RfibError,
    element_map,
    enumerate_maps_over,
    enumerate_subpresheaves,
    equalizer_of_maps,
    find_iso,
    find_iso_over,
    identity_map,
    is_representable,
    is_representable_map,
    product_psh,
    pullback_of_maps,
    pullback_witness,
    pushforward,
    terminal_psh,
    yoneda,
)

from constructions import (
    coproduct_psh,
    presheaf_from_json,
    psh_limit,
    transpose_from_pushforward,
    transpose_to_pushforward,
    yoneda_map,
)


def constant_two(base):
    fibers = {o: ("a", "b") for o in base.objects}
    action = {ar: {"a": "a", "b": "b"} for ar in base.arrow_ids}
    return Presheaf(base, fibers, action)


def test_presheaf_laws_checked(d1):
    fibers = {"0": ("a", "b"), "1": ("a", "b")}
    action = {"id0": {"a": "a", "b": "b"}, "id1": {"a": "b", "b": "a"},
              "u": {"a": "a", "b": "b"}}
    with pytest.raises(RfibError):
        Presheaf(d1, fibers, action)


def test_limit_empty_diagram_is_terminal(d1):
    lim, _ = psh_limit(d1, [])
    assert all(lim.fibers[o] == ((),) for o in d1.objects)


def test_terminal_and_product_match_the_limit_construction():
    """The terminal presheaf and the product, built directly and as a
    pullback over the terminal, against the pointwise limits of the empty
    and the two-node diagram: the same element ids, fibre order, action
    and projections."""
    for _, base in corpus_bases(0):
        assert terminal_psh(base) == psh_limit(base, [])[0]
        pshs = corpus_presheaves(base)
        for X in pshs:
            for Y in pshs:
                prod, pl, pr = product_psh(X, Y)
                lim, proj = psh_limit(base, [("l", X), ("r", Y)])
                assert prod == lim
                assert (pl, pr) == (proj["l"], proj["r"])


def test_limit_product_pointwise(d1):
    X = yoneda(d1, "1")
    prod, pl, pr = product_psh(X, X)
    for o in d1.objects:
        assert len(prod.fibers[o]) == len(X.fibers[o]) ** 2


def test_limit_equalizer_fiberwise(d1):
    X = constant_two(d1)
    f = identity_map(X)
    swap = {o: {"a": "b", "b": "a"} for o in d1.objects}
    g = PshMap(X, X, swap)
    eq, inc = equalizer_of_maps(f, g)
    # oracle: pointwise set computation
    for o in d1.objects:
        expected = tuple(x for x in X.fibers[o] if f.components[o][x] == g.components[o][x])
        assert eq.fibers[o] == expected
    assert all(len(eq.fibers[o]) == 0 for o in d1.objects)


def test_yoneda_fibers(d1):
    y1, y0 = yoneda(d1, "1"), yoneda(d1, "0")
    assert y1.fibers == {"0": ("u",), "1": ("id1",)}
    assert y0.fibers == {"0": ("id0",), "1": ()}


def test_yoneda_of_terminal_is_terminal(d1):
    assert find_iso(yoneda(d1, "1"), terminal_psh(d1)) is not None


def test_is_representable(d1):
    assert is_representable(yoneda(d1, "1")) == ("1", "id1")
    assert is_representable(constant_two(d1)) is None
    empty = Presheaf(d1, {o: () for o in d1.objects}, {a: {} for a in d1.arrow_ids})
    assert is_representable(empty) is None


def test_identity_map_representable(d1):
    X = yoneda(d1, "1")
    w = is_representable_map(identity_map(X))
    assert w is not None
    for (c, y), (obj, proj, gen) in w.data.items():
        assert obj == c and proj == d1.id_of(c) and gen == y


def test_yoneda_map_comprehension(d1):
    q = yoneda_map(d1, "u")
    w = is_representable_map(q)
    assert w.data[("1", "id1")] == ("0", "u", "id0")
    assert w.data[("0", "u")] == ("0", "id0", "id0")
    assert not w.violations()


def test_constant_two_to_terminal_not_representable(d1):
    X = constant_two(d1)
    f = PshMap(X, terminal_psh(d1), {o: {x: () for x in X.fibers[o]} for o in d1.objects})
    assert is_representable_map(f) is None
    # the counterexample element is the terminal's only element, over the
    # first object, and the pullback over it is the non-representable
    # constant-2 itself
    c, y = "0", ()
    P, _, _ = pullback_of_maps(f, element_map(f.target, c, y))
    assert is_representable(P) is None


def test_pushforward_along_identity(d1):
    y0 = yoneda(d1, "0")
    g = yoneda_map(d1, "u")
    idm = identity_map(g.target)
    w = is_representable_map(idm)
    pf = pushforward(idm, g, w)
    assert find_iso_over(pf, g) is not None


def test_pushforward_preserves_terminal(d1):
    # the slice terminal over the source is the identity; its pushforward
    # is the slice terminal over the target
    q = yoneda_map(d1, "u")
    w = is_representable_map(q)
    pf = pushforward(q, identity_map(q.source), w)
    assert find_iso_over(pf, identity_map(q.target)) is not None


def test_adjunction_bijection_and_naturality(d1):
    q = yoneda_map(d1, "u")
    w = is_representable_map(q)
    y0 = q.source
    g = identity_map(y0)
    pf = pushforward(q, g, w)
    for h_sub in enumerate_subpresheaves(q.target, max_size=4):
        h = PshMap(h_sub, q.target,
                   {o: {x: x for x in h_sub.fibers[o]} for o in d1.objects})
        P, ph, pq = pullback_of_maps(h, q)
        lhs = list(enumerate_maps_over(pq, g))
        rhs = list(enumerate_maps_over(h, pf))
        assert len(lhs) == len(rhs)
        for phi in lhs:
            psi = transpose_to_pushforward(q, w, g, h, phi, pf)
            assert psi in rhs
            assert transpose_from_pushforward(q, w, g, h, psi) == phi


def test_transpose_natural_in_carrier(d1):
    # naturality: transposing after restricting along a subobject matches
    # restricting the transpose
    q = yoneda_map(d1, "u")
    w = is_representable_map(q)
    g = identity_map(q.source)
    pf = pushforward(q, g, w)
    h_sub = yoneda(d1, "1")
    h = identity_map(h_sub)
    subs = [s for s in enumerate_subpresheaves(h_sub) if s.total_size() == 1]
    for small in subs:
        inc = PshMap(small, h_sub, {o: {x: x for x in small.fibers[o]} for o in d1.objects})
        P, ph, pq = pullback_of_maps(h, q)
        for phi in enumerate_maps_over(pq, g):
            psi = transpose_to_pushforward(q, w, g, h, phi, pf)
            P2, ph2, pq2 = pullback_of_maps(inc.then(h), q)
            lift = PshMap(P2, P, {o: {(x, e): (x, e) for (x, e) in P2.fibers[o]}
                                  for o in d1.objects})
            psi2 = transpose_to_pushforward(q, w, g, inc.then(h), lift.then(phi), pf)
            assert psi2 == inc.then(psi)


def test_pullback_witness_transport_valid(d1, d1_cls):
    # stability of representability under pullback, checked at the level
    # of the transported witness
    chi = element_map(d1_cls.omega, "1", "u")
    P, top, left, w = pullback_witness(d1_cls.generic, d1_cls.witness, chi)
    assert not w.violations()


def test_univalence_doubled_classifier(d1):
    from rmtt.rfib import is_univalent

    y1 = yoneda(d1, "1")
    C, _, _ = coproduct_psh(y1, y1)
    res = is_univalent(identity_map(C))
    assert not res.ok
    assert res.collision is not None


def test_univalence_vacuous_over_empty(d1):
    from rmtt.rfib import is_univalent

    empty = Presheaf(d1, {o: () for o in d1.objects}, {a: {} for a in d1.arrow_ids})
    res = is_univalent(identity_map(empty))
    assert res.ok


def test_univalence_presentation_invariant(d1):
    # relabeling the base does not change the verdict
    from rmtt.fincat import FiniteCategory
    from rmtt.rfib import is_univalent, rep_map_classifier

    omap = {"0": "zero", "1": "one"}
    amap = {"id0": "i", "id1": "j", "u": "k"}
    relabeled = FiniteCategory(
        [omap[o] for o in d1.objects],
        [(amap[a], omap[s], omap[t]) for (a, s, t) in d1.arrows],
        {omap[o]: amap[i] for o, i in d1.identities.items()},
        {(amap[f], amap[g]): amap[h] for (f, g), h in d1.compose.items()},
    )
    cls = rep_map_classifier(relabeled)
    assert is_univalent(cls.generic, cls.witness).ok


def test_presheaf_json_round_trip(d1):
    X = yoneda(d1, "1")
    doc = X.to_json()
    again = presheaf_from_json(d1, doc)
    assert find_iso(X, again) is not None
    with pytest.raises(RfibError):
        presheaf_from_json(terminal_category(), doc)
    repeated = dict(doc, fibers={o: fib + fib[:1] for o, fib in doc["fibers"].items()})
    with pytest.raises(RfibError, match="twice"):
        presheaf_from_json(d1, repeated)
