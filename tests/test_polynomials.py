from rmtt.rfib import (
    enumerate_maps,
    find_iso,
    find_iso_over,
    identity_map,
    is_representable_map,
    polynomial_apply,
    polynomial_compose,
    product_psh,
    pullback_of_maps,
    element_map,
    terminal_psh,
    yoneda,
)

from constructions import yoneda_map


def q_map(d1):
    q = yoneda_map(d1, "u")
    return q, is_representable_map(q)


def test_polynomial_of_identity(d1):
    X = yoneda(d1, "1")
    idm = identity_map(X)
    w = is_representable_map(idm)
    for Y in (terminal_psh(d1), X, product_psh(X, X)[0]):
        assert find_iso(polynomial_apply(idm, Y, w), Y) is not None


def test_polynomial_on_terminal(d1):
    q, w = q_map(d1)
    P1 = polynomial_apply(q, terminal_psh(d1), w)
    assert find_iso(P1, yoneda(d1, "1")) is not None


def test_polynomial_vs_section_counting(d1):
    # independent oracle: the fiber of the polynomial over y counts the
    # natural maps from the comprehension pullback into the argument
    q, w = q_map(d1)
    X = yoneda(d1, "1")
    P = polynomial_apply(q, X, w)
    B = q.target
    for c in d1.objects:
        expected = 0
        for y in B.fibers[c]:
            pull, _, _ = pullback_of_maps(q, element_map(B, c, y))
            expected += len(list(enumerate_maps(pull, X)))
        assert len(P.fibers[c]) == expected


def _map_iso(tensor, f):
    """Isomorphism of arrows: an iso of codomains making the triangles
    close with some iso of domains."""
    for beta in enumerate_maps(tensor.target, f.target, bijective=True):
        if find_iso_over(tensor.then(beta), f) is not None:
            return True
    return False


def test_unit_laws(d1):
    # the unit of composition is the identity on the terminal carrier
    q, w = q_map(d1)
    unit = identity_map(terminal_psh(d1))
    wu = is_representable_map(unit)
    right, _ = polynomial_compose(q, unit, w, wu)
    assert _map_iso(right, q)
    left, _ = polynomial_compose(unit, q, wu, w)
    assert _map_iso(left, q)


def _test_presheaves(d1, max_total=6):
    out = [terminal_psh(d1), yoneda(d1, "0"), yoneda(d1, "1")]
    prod, _, _ = product_psh(yoneda(d1, "1"), yoneda(d1, "1"))
    out.append(prod)
    return [X for X in out if X.total_size() <= max_total]


def test_composite_evaluates_like_composition(d1):
    q, w = q_map(d1)
    tensor, wt = polynomial_compose(q, q, w, w)
    for X in _test_presheaves(d1):
        lhs = polynomial_apply(tensor, X, wt)
        rhs = polynomial_apply(q, polynomial_apply(q, X, w), w)
        assert {o: len(lhs.fibers[o]) for o in d1.objects} == {
            o: len(rhs.fibers[o]) for o in d1.objects
        }
        assert find_iso(lhs, rhs) is not None


def test_associativity_instance(d1):
    q, w = q_map(d1)
    idm = identity_map(q.target)
    wid = is_representable_map(idm)
    triples = [(q, w), (idm, wid), (q, w)]
    (f, wf), (g, wg), (h, wh) = triples
    gh, wgh = polynomial_compose(g, h, wg, wh)
    f_gh, wf_gh = polynomial_compose(f, gh, wf, wgh)
    fg, wfg = polynomial_compose(f, g, wf, wg)
    fg_h, wfg_h = polynomial_compose(fg, h, wfg, wh)
    for X in _test_presheaves(d1):
        assert (
            find_iso(
                polynomial_apply(f_gh, X, wf_gh), polynomial_apply(fg_h, X, wfg_h)
            )
            is not None
        )


def test_composite_carries_valid_witness(d1):
    q, w = q_map(d1)
    tensor, wt = polynomial_compose(q, q, w, w)
    assert not wt.violations()
