"""Constructions only the tests use: small categories and presheaves to
test against, reading a presheaf back from its JSON, the inverse of a
presheaf isomorphism, the pushforward's adjunction transposes, the
context presenting a chain of type families, equality of substitutions
up to normal form, isomorphism of contexts and the isomorphism search
before its free-variable prune, the classifier's stable arrows and
choice of pullback squares by rechecking every pasting, the fibre scans
that `PshMap.over` replaced, and the mediator scans that
`FiniteCategory.legs` replaced.  They decide no claim of the package, so
they live here rather than in `rmtt`."""

from rmtt.fincat import FiniteCategory, pullback_cones
from rmtt.kernel import (
    App,
    Declaration,
    KernelError,
    PiType,
    Signature,
    SortApp,
    Var,
    apply_subst,
    check_context,
    compose_subst,
    identity_subst,
    normalize,
)
from rmtt.kernel.contexts import _substitutions, contexts_iso_subs
from rmtt.rfib import (
    ClassifierChoiceError,
    ComprehensionWitness,
    NotRepresentable,
    Presheaf,
    PshMap,
    RfibError,
    _transport,
    polynomial_apply,
    pullback_of_maps,
    pushforward,
    require_distinct_fibers,
    yoneda,
)
from rmtt.search import backtrack


# ---------------------------------------------------------------------------
# categories and presheaves
# ---------------------------------------------------------------------------


def discrete_category(n: int) -> FiniteCategory:
    objects = [str(i) for i in range(n)]
    arrows = [(f"id{i}", str(i), str(i)) for i in range(n)]
    identities = {str(i): f"id{i}" for i in range(n)}
    compose = {(f"id{i}", f"id{i}"): f"id{i}" for i in range(n)}
    return FiniteCategory(objects, arrows, identities, compose)


def chaotic_category(n: int) -> FiniteCategory:
    """One arrow between any two of n objects, so every arrow is an
    isomorphism and every pullback has several universal cones."""
    objects = [str(i) for i in range(n)]
    arrows = [(f"{i}{j}", i, j) for i in objects for j in objects]
    identities = {i: f"{i}{i}" for i in objects}
    compose = {(f"{j}{k}", f"{i}{j}"): f"{i}{k}" for i in objects for j in objects for k in objects}
    return FiniteCategory(objects, arrows, identities, compose)


def coproduct_psh(X: Presheaf, Y: Presheaf):
    base = X.base
    fibers = {
        o: tuple(("l", x) for x in X.fibers[o]) + tuple(("r", y) for y in Y.fibers[o])
        for o in base.objects
    }
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        table = {}
        for tag, v in fibers[t]:
            src_psh = X if tag == "l" else Y
            table[(tag, v)] = (tag, src_psh.action[a][v])
        action[a] = table
    C = Presheaf(base, fibers, action, validate=False)
    inl = PshMap(X, C, {o: {x: ("l", x) for x in X.fibers[o]} for o in base.objects}, validate=False)
    inr = PshMap(Y, C, {o: {y: ("r", y) for y in Y.fibers[o]} for o in base.objects}, validate=False)
    return C, inl, inr


def psh_limit(base: FiniteCategory, nodes, edges=()):
    """Pointwise limit of a finite diagram.

    nodes: ordered list of (name, Presheaf); edges: (src_name, tgt_name,
    PshMap).  Element ids of the limit are tuples of input ids in node
    order.  Returns (limit presheaf, {name: projection PshMap}).  The
    reference for `rmtt.rfib`'s terminal presheaf and binary product.
    """
    names = [n for n, _ in nodes]
    by_name = dict(nodes)
    for n, X in nodes:
        if X.base != base:
            raise RfibError("diagram leg over a different base")
    import itertools

    fibers = {}
    for o in base.objects:
        pool = [by_name[n].fibers[o] for n in names]
        elems = []
        for combo in itertools.product(*pool) if names else [()]:
            vals = dict(zip(names, combo))
            if all(e.components[o][vals[s]] == vals[t] for (s, t, e) in edges):
                elems.append(tuple(combo))
        fibers[o] = tuple(elems)
    action = {}
    for a in base.arrow_ids:
        s, t = base.src[a], base.tgt[a]
        table = {}
        for combo in fibers[t]:
            table[combo] = tuple(by_name[n].action[a][x] for n, x in zip(names, combo))
        action[a] = table
    lim = Presheaf(base, fibers, action, validate=False)
    projections = {}
    for i, n in enumerate(names):
        comps = {o: {combo: combo[i] for combo in fibers[o]} for o in base.objects}
        projections[n] = PshMap(lim, by_name[n], comps, validate=False)
    return lim, projections


def presheaf_from_json(base: FiniteCategory, doc: dict) -> Presheaf:
    """The presheaf over base that `Presheaf.to_json` wrote as doc."""
    if doc.get("base_hash") != base.content_hash():
        raise RfibError("presheaf refers to a different base (hash mismatch)")
    fibers = {o: tuple(doc["fibers"].get(str(o), ())) for o in base.objects}
    require_distinct_fibers(fibers)
    action = {a: dict(doc["action"].get(str(a), {})) for a in base.arrow_ids}
    return Presheaf(base, fibers, action)


def pshmap_inverse(f: PshMap) -> PshMap:
    """The inverse of a presheaf isomorphism."""
    if not f.is_iso():
        raise RfibError("not invertible")
    comps = {o: {y: x for x, y in f.components[o].items()} for o in f.base.objects}
    return PshMap(f.target, f.source, comps, validate=False)


def yoneda_map(base: FiniteCategory, f) -> PshMap:
    """y(src f) -> y(tgt f), postcomposition with f."""
    ya, yb = yoneda(base, base.src[f]), yoneda(base, base.tgt[f])
    comps = {d: {g: base.comp(f, g) for g in ya.fibers[d]} for d in base.objects}
    return PshMap(ya, yb, comps, validate=False)


# ---------------------------------------------------------------------------
# the adjunction of pushforward, which polynomial_apply relies on
# ---------------------------------------------------------------------------


def transpose_to_pushforward(f: PshMap, wf, g: PshMap, h: PshMap, phi: PshMap,
                             q: PshMap = None) -> PshMap:
    """Adjunction transpose: phi : h*-pullback -> X over dom(f) gives
    dom(h) -> f_*X over the target of f.

    Here the pullback of h along f is taken with (h-side, f-side) ids."""
    if q is None:
        q = pushforward(f, g, wf)
    base = f.base
    H = h.source
    comps = {}
    for c in base.objects:
        comps[c] = {}
        for w in H.fibers[c]:
            y = h.components[c][w]
            obj, proj, gen = wf.data[(c, y)]
            comps[c][w] = (y, phi.components[obj][(H.action[proj][w], gen)])
    return PshMap(H, q.source, comps)


def transpose_from_pushforward(f: PshMap, wf, g: PshMap, h: PshMap, psi: PshMap) -> PshMap:
    """Inverse transpose: psi : dom(h) -> f_*X over B gives a map from the
    pullback of h along f (ids (h-side, f-side)) to X over dom(f)."""
    base = f.base
    P, ph, pf = pullback_of_maps(h, f)
    X = g.source
    comps = {}
    for c in base.objects:
        comps[c] = {}
        for (w, e) in P.fibers[c]:
            y, s = psi.components[c][w]
            sigma = wf.unit_section(c, e)
            comps[c][(w, e)] = X.action[sigma][s]
    return PshMap(P, X, comps)


# ---------------------------------------------------------------------------
# the context of a chain of type families
# ---------------------------------------------------------------------------


def _require_base_universe(sig: Signature):
    if sig.decls.get("Ty") != Declaration("Ty", (), "sort") or sig.decls.get("El") != Declaration(
        "El", (SortApp("Ty"),), "rep-sort"
    ):
        raise KernelError("signature must declare Ty : sort and El : (A : Ty) -> rep-sort")


def polynomial_object(sig: Signature, n: int, top: str):
    """The context presenting the n-fold free extension: a chain of n
    type families, optionally topped by one more family (top='Ty') or a
    family with a generic element (top='El')."""
    _require_base_universe(sig)
    if top not in ("unit", "Ty", "El"):
        raise ValueError("top must be one of 'unit', 'Ty', 'El'")

    def family_type(k):
        """Type of the k-th family entry (k >= 1): a product over the
        previous k-1 generic elements, valued in Ty."""

        def build(j):
            # j variables x_1..x_j already bound
            if j == k - 1:
                return SortApp("Ty")
            # bind x_{j+1} : El(A_{j+1}(x_1, ..., x_j))
            fam = Var((k - 1 - (j + 1)) + j)
            arg = fam
            for m in range(1, j + 1):
                arg = App(arg, Var(j - m))
            return PiType(SortApp("El", (arg,)), build(j + 1))

        return build(0)

    count = n if top == "unit" else n + 1
    ctx = tuple(family_type(k) for k in range(1, count + 1))
    if top == "El":
        def build_el(j):
            if j == n:
                fam = Var(n)  # the (n+1)-th family under n binders
                arg = fam
                for m in range(1, n + 1):
                    arg = App(arg, Var(n - m))
                return SortApp("El", (arg,))
            fam = Var((count - (j + 1)) + j)
            arg = fam
            for m in range(1, j + 1):
                arg = App(arg, Var(j - m))
            return PiType(SortApp("El", (arg,)), build_el(j + 1))

        ctx = ctx + (build_el(0),)
    check_context(sig, ctx)
    return ctx


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------


def hom_equal(sig: Signature, s1, s2) -> bool:
    """Componentwise equality of normal forms."""
    if len(s1) != len(s2):
        return False
    return all(normalize(sig, a) == normalize(sig, b) for a, b in zip(s1, s2))


def contexts_isomorphic(sig: Signature, a, b, size=4) -> bool:
    """Are the contexts isomorphic within the size budget?"""
    return contexts_iso_subs(sig, a, b, size) is not None


# The reference for `rmtt.kernel.contexts.contexts_iso_subs`: its body
# before candidates were pruned by their free variables, kept verbatim.


def unpruned_contexts_iso_subs(sig: Signature, a, b, size=4):
    """Substitutions (f : a -> b, g : b -> a) composing to identities up
    to rule convertibility, or None: the first pair in canonical order.
    Exhaustive within the size budget.  Component k of g . f is g_k[f],
    so the search for g keeps g_k only when that is the variable the
    identity has there, and checks f . g once g is complete."""
    if len(a) != len(b):
        return None
    ident_a, ident_b = identity_subst(a), identity_subst(b)
    for f in _substitutions(sig, a, b, size):
        def keep(k, t):
            return apply_subst(sig, f, t) is ident_a[k]

        for g in _substitutions(sig, b, a, size, keep):
            if compose_subst(sig, g, f) == ident_b:
                return (f, g)
    return None


# ---------------------------------------------------------------------------
# the classifier's choice of pullback squares
# ---------------------------------------------------------------------------

# The references for the stable arrows and the squares
# `rmtt.rfib.rep_map_classifier` chooses: the stable arrows as found
# before the cones of each cospan were computed once and shared, and the
# same square search, but at every candidate cone it rechecks every
# pasting among the squares chosen so far.


def reference_stable_arrows(base: FiniteCategory, c):
    """Arrows into c whose pullback along every arrow into c exists."""
    out = []
    for a in base.arrows_into(c):
        if all(next(pullback_cones(base, a, u), None) for u in base.arrows_into(c)):
            out.append(a)
    return out


def rechecking_choose_squares(base, stable):
    """A strictly functorial choice of pullback squares for the stable
    arrows: identity arrows get identity squares and chosen squares paste
    on the nose.  Found by backtracking over universal cones."""
    pairs = []
    for c in base.objects:
        for u in base.arrows_into(c):
            if base.is_identity(u):
                continue
            for a in stable[c]:
                pairs.append((u, a))
    candidates = {}
    for (u, a) in pairs:
        c = base.tgt[u]
        cones = [
            (apex, top, left)
            for (apex, top, left) in pullback_cones(base, a, u)
            if left in stable[base.src[u]]
        ]
        if not cones:
            raise ClassifierChoiceError(f"stable arrow {a!r} lost stability along {u!r}")
        candidates[(u, a)] = cones

    choice = {}

    def square(u, a):
        if base.is_identity(u):
            return (base.src[a], base.id_of(base.src[a]), a)
        return choice.get((u, a))

    def compatible():
        # Every committed pasting must agree with the committed square for
        # the composite; unknowns are skipped until assigned.
        for (u, a), sq in list(choice.items()):
            c = base.tgt[u]
            apex_u, top_u, left_u = sq
            d = base.src[u]
            for v in base.arrow_ids:
                if base.tgt[v] != d:
                    continue
                inner = square(v, left_u)
                if inner is None:
                    continue
                apex_v, top_v, left_v = inner
                uv = base.comp(u, v)
                outer = square(uv, a)
                if outer is None:
                    continue
                pasted = (apex_v, base.comp(top_u, top_v), left_v)
                if outer != pasted:
                    return False
        return True

    order = sorted(pairs, key=lambda ua: (base.arr_index(ua[0]), base.arr_index(ua[1])))

    def fill(k):
        key = order[k]
        for cone in candidates[key]:
            choice[key] = cone
            if compatible():
                yield
        choice.pop(key, None)

    for _ in backtrack(0, len(order), fill):
        return {
            (u, a): square(u, a)
            for c in base.objects
            for u in base.arrows_into(c)
            for a in stable[c]
        }
    raise ClassifierChoiceError("no strictly functorial choice of pullback squares")


# ---------------------------------------------------------------------------
# fibre scans
# ---------------------------------------------------------------------------

# The references for `rmtt.rfib`'s `pullback_of_maps`, `pushforward`,
# `polynomial_compose` and `is_representable_map`, which read the fibre
# of a map over an element with `PshMap.over`: the earlier bodies, kept
# verbatim, each scanning a whole fibre for the elements over one
# element.  Calls among them go to the references.


def reference_pullback_of_maps(f: PshMap, g: PshMap):
    """Pointwise pullback of the cospan f : X -> B <- Y : g.

    Elements are pairs (x, y) with f(x) == g(y), in (f-side, g-side)
    order.  Returns (P, to_dom_f, to_dom_g)."""
    if f.target != g.target:
        raise RfibError("cospan legs must share their target")
    base = f.base
    X, Y = f.source, g.source
    fibers = {}
    for o in base.objects:
        fibers[o] = tuple(
            (x, y)
            for x in X.fibers[o]
            for y in Y.fibers[o]
            if f.components[o][x] == g.components[o][y]
        )
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        action[a] = {
            (x, y): (X.action[a][x], Y.action[a][y]) for (x, y) in fibers[t]
        }
    P = Presheaf(base, fibers, action, validate=False)
    p1 = PshMap(P, X, {o: {(x, y): x for (x, y) in fibers[o]} for o in base.objects}, validate=False)
    p2 = PshMap(P, Y, {o: {(x, y): y for (x, y) in fibers[o]} for o in base.objects}, validate=False)
    return P, p1, p2


def reference_is_representable_map(f: PshMap):
    """Comprehension witness for f, or None.

    The witness is chosen deterministically: representing data is
    searched in (object order, arrow order, fiber order)."""
    data = {}
    for c in f.base.objects:
        for y in f.target.fibers[c]:
            data[(c, y)] = reference_comprehension(f, c, y)
            if data[(c, y)] is None:
                return None
    return ComprehensionWitness(f, data)


def reference_comprehension(f, c, y):
    """The first terminal (obj, proj, gen) over y at c, or None."""
    base = f.base
    for obj in base.objects:
        for proj in base.hom(obj, c):
            over = f.target.action[proj][y]
            for gen in f.source.fibers[obj]:
                if f.components[obj][gen] == over and reference_is_terminal_pair(f, c, y, obj, proj, gen):
                    return (obj, proj, gen)
    return None


def reference_is_terminal_pair(f, c, y, obj, proj, gen):
    base = f.base
    E, B = f.source, f.target
    for d in base.objects:
        for g in base.hom(d, c):
            over = B.action[g][y]
            for x in E.fibers[d]:
                if f.components[d][x] != over:
                    continue
                hits = 0
                for u in base.hom(d, obj):
                    if base.comp(proj, u) == g and E.action[u][gen] == x:
                        hits += 1
                        if hits > 1:
                            return False
                if hits != 1:
                    return False
    return True


def reference_pushforward(f: PshMap, g: PshMap, wf: ComprehensionWitness = None) -> PshMap:
    """Pushforward of g : X -> dom(f) along a representable f : E -> B.

    The fiber over y in B(c) is the set of elements of X over the
    comprehension of y that lie over its generic element; equivalently,
    sections of g pulled back over the comprehension.  Element ids are
    (y, x) pairs.  Returns the structure map pf_*X -> B."""
    if wf is None:
        wf = reference_is_representable_map(f)
        if wf is None:
            raise NotRepresentable("pushforward along a non-representable map")
    if g.target != f.source:
        raise RfibError("pushforward: g must land in the source of f")
    base = f.base
    B = f.target
    X = g.source
    fibers = {}
    for c in base.objects:
        elems = []
        for y in B.fibers[c]:
            obj, proj, gen = wf.data[(c, y)]
            for x in X.fibers[obj]:
                if g.components[obj][x] == gen:
                    elems.append((y, x))
        fibers[c] = tuple(elems)
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        action[a] = {
            (y, x): _transport(f, wf, a, t, y, x, X) for (y, x) in fibers[t]
        }
    T = Presheaf(base, fibers, action)
    q = PshMap(T, B, {o: {(y, x): y for (y, x) in fibers[o]} for o in base.objects}, validate=False)
    return q


def reference_polynomial_compose(f: PshMap, g: PshMap, wf=None, wg=None):
    """The composite polynomial map f (x) g with its witness.

    cod = P_f(cod g); dom consists of tuples (y, b, e, e2): an index y
    for f, a g-index b over its comprehension, an f-source element e
    over y, and a g-source element e2 over b evaluated at e.  Satisfies
    P_{f (x) g} iso P_f . P_g on every presheaf."""
    if wf is None:
        wf = reference_is_representable_map(f)
    if wg is None:
        wg = reference_is_representable_map(g)
    if wf is None or wg is None:
        raise NotRepresentable("polynomial composition needs representable maps")
    base = f.base
    B1, E1 = f.target, f.source
    B2, E2 = g.target, g.source
    cod = polynomial_apply(f, B2, wf)

    def ev(c, y, b, e):
        sigma = wf.unit_section(c, e)
        return B2.action[sigma][b]

    fibers = {}
    for c in base.objects:
        elems = []
        for (y, b) in cod.fibers[c]:
            for e in E1.fibers[c]:
                if f.components[c][e] != y:
                    continue
                target_b = ev(c, y, b, e)
                for e2 in E2.fibers[c]:
                    if g.components[c][e2] == target_b:
                        elems.append((y, b, e, e2))
        fibers[c] = tuple(elems)
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        table = {}
        for (y, b, e, e2) in fibers[t]:
            y2, b2 = _transport(f, wf, a, t, y, b, B2)
            table[(y, b, e, e2)] = (y2, b2, E1.action[a][e], E2.action[a][e2])
        action[a] = table
    dom = Presheaf(base, fibers, action)
    tensor = PshMap(
        dom,
        cod,
        {o: {(y, b, e, e2): (y, b) for (y, b, e, e2) in fibers[o]} for o in base.objects},
    )
    wt = reference_is_representable_map(tensor)
    if wt is None:
        raise RfibError("composite polynomial map unexpectedly not representable")
    return tensor, wt


# ---------------------------------------------------------------------------
# mediator scans
# ---------------------------------------------------------------------------

# The references for the universal properties `rmtt` now decides with one
# table of the arrows into an apex (`FiniteCategory.legs`): the earlier
# bodies of `fincat.find_terminal`, `fincat.is_pullback_cone`,
# `fincat.pullback_in_base`, `rfib._universal_squares`,
# `rfib.is_representable`, `ComprehensionWitness.mediate` (as a function
# of the witness, without its memo) and the section transport of
# `rfib.rep_map_classifier`, kept verbatim, each counting the mediators
# of every competitor.  `reference_is_terminal_pair` above is the
# comprehension's.  Calls among them go to the references.


def reference_find_terminal(cat: FiniteCategory):
    """Least-index object receiving exactly one arrow from every object."""
    for t in cat.objects:
        if all(len(cat.hom(x, t)) == 1 for x in cat.objects):
            return t
    return None


def reference_is_pullback_cone(cat: FiniteCategory, f, g, apex, pf, pg) -> bool:
    """Exhaustively verify that (apex, pf, pg) is universal for the cospan (f, g)."""
    if cat.comp(f, pf) != cat.comp(g, pg):
        return False
    for q in cat.objects:
        for qf in cat.hom(q, cat.src[f]):
            for qg in cat.hom(q, cat.src[g]):
                if cat.comp(f, qf) != cat.comp(g, qg):
                    continue
                mediators = [
                    u
                    for u in cat.hom(q, apex)
                    if cat.comp(pf, u) == qf and cat.comp(pg, u) == qg
                ]
                if len(mediators) != 1:
                    return False
    return True


def reference_pullback_in_base(cat: FiniteCategory, f, g):
    """First universal cone (apex, pf, pg) for the cospan f, g, or None.

    pf : apex -> src(f) and pg : apex -> src(g).  Deterministic: objects
    and arrows are scanned in declared order, so repeated runs agree.
    """
    if cat.tgt[f] != cat.tgt[g]:
        raise ValueError("pullback_in_base: arrows must share their target")
    for apex in cat.objects:
        for pf in cat.hom(apex, cat.src[f]):
            for pg in cat.hom(apex, cat.src[g]):
                if reference_is_pullback_cone(cat, f, g, apex, pf, pg):
                    return (apex, pf, pg)
    return None


def reference_universal_squares(base, a, u):
    """All universal cones for the cospan (a, u), as (apex, top, left)."""
    cones = []
    for apex in base.objects:
        for top in base.hom(apex, base.src[a]):
            for left in base.hom(apex, base.src[u]):
                if reference_is_pullback_cone(base, a, u, apex, top, left):
                    cones.append((apex, top, left))
    return cones


def reference_is_representable(X: Presheaf):
    """Deterministically chosen representing pair (object, element), or None.

    The pair is terminal in the category of elements: every element of X
    is the transport of it along exactly one base arrow."""
    base = X.base
    for c in base.objects:
        for e in X.fibers[c]:
            good = True
            for d in base.objects:
                for x in X.fibers[d]:
                    hits = [u for u in base.hom(d, c) if X.action[u][e] == x]
                    if len(hits) != 1:
                        good = False
                        break
                if not good:
                    break
            if good:
                return (c, e)
    return None


def reference_mediate(self: ComprehensionWitness, c, y, d, g, x):
    """The unique u : d -> obj(c,y) with proj . u = g and E(u)(gen) = x."""
    base = self.map.base
    obj, proj, gen = self.data[(c, y)]
    E = self.map.source
    hits = [
        u
        for u in base.hom(d, obj)
        if base.comp(proj, u) == g and E.action[u][gen] == x
    ]
    if len(hits) != 1:
        raise RfibError(f"comprehension of {y!r} at {c!r} is not terminal")
    return hits[0]


def reference_section_transport(base, squares, pt_fibers):
    """The action of the classifier's pointed presheaf, {u: {(a, s): (left, s2)}}."""
    pt_action = {}
    for u in base.arrow_ids:
        t = base.tgt[u]
        d = base.src[u]
        table = {}
        for (a, s) in pt_fibers[t]:
            apex, top, left = squares[(u, a)]
            hits = [
                s2
                for s2 in base.hom(d, apex)
                if base.comp(top, s2) == base.comp(s, u) and base.comp(left, s2) == base.id_of(d)
            ]
            if len(hits) != 1:
                raise ClassifierChoiceError("section transport is not unique")
            table[(a, s)] = (left, hits[0])
        pt_action[u] = table
    return pt_action
