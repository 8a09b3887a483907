"""Constructions only the tests use: small categories and presheaves to
test against, the pushforward's adjunction transposes, the context
presenting a chain of type families, and equality of substitutions up
to normal form.  They decide no claim of the package, so they live here
rather than in `rmtt`."""

from rmtt.fincat import FiniteCategory
from rmtt.kernel import App, KernelError, PiType, Signature, SortApp, Var, check_context, normalize
from rmtt.rfib import Presheaf, PshMap, pullback_of_maps, pushforward, yoneda


# ---------------------------------------------------------------------------
# categories and presheaves
# ---------------------------------------------------------------------------


def discrete_category(n: int) -> FiniteCategory:
    objects = [str(i) for i in range(n)]
    arrows = [(f"id{i}", str(i), str(i)) for i in range(n)]
    identities = {str(i): f"id{i}" for i in range(n)}
    compose = {(f"id{i}", f"id{i}"): f"id{i}" for i in range(n)}
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
    ty = sig.decls.get("Ty")
    el = sig.decls.get("El")
    if (
        ty is None
        or el is None
        or not ty.is_sort
        or ty.arity != 0
        or not el.is_rep_sort
        or el.telescope != (SortApp("Ty"),)
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
