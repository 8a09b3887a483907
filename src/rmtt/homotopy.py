"""Homotopy equivalences, free extensions and the lifting calculus for
models and presented theories.

Presented theories are signature extensions of a shipped base; a free
extension attaches one generator per step (a chain of type families,
one more family, or a generic element) with no equations, so pushouts
of such extensions are plain generator additions.  A morphism between
models is detected as a trivial fibration either directly, by type and
term lifting, or by brute force against the enumerated lifting problems
of the free extensions; the two verdicts are compared on democratic
sources.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel.check import Declaration, Signature, check_context, normalize
from .kernel.contexts import enumerate_terms
from .kernel.terms import App, Const, Lam, PiType, SortApp, Var, instantiate_many
from .models import (
    ModelBudget,
    ModelData,
    ModelError,
    ModelMorphism,
)
from .search import backtrack


# ---------------------------------------------------------------------------
# homotopies in a model
# ---------------------------------------------------------------------------


def _chain_presentations(model: ModelData, max_len):
    """Comprehension chains from the terminal object: lists of
    (stage, type value) whose comprehension tower presents each stage."""
    chains = {model.terminal: []}
    frontier = [model.terminal]
    for _ in range(max_len):
        new = []
        for c in frontier:
            for t, obj, proj, gen in _chain_steps(model, c):
                if obj not in chains:
                    chains[obj] = chains[c] + [(c, t, proj, gen)]
                    new.append(obj)
        frontier = new
    return chains


def _chain_steps(model: ModelData, c):
    """One step of a comprehension chain up from c for each type value t
    at c whose El comprehension the model has, in fibre order: (t, the
    representing object, the projection, the generic element)."""
    el = model.sorts.get("El")
    if el is None or el.witness is None:
        raise ModelError("homotopy calculus needs the El comprehension data")
    steps = []
    for t in _ty_values(model, c):
        hit = el.witness.data.get((c, (t,)))
        if hit is not None:
            steps.append((t,) + hit)
    return steps


def _ty_values(model: ModelData, c):
    return model.sorts["Ty"].family.over(c, ())


def _el_values(model: ModelData, c, ty_value):
    return model.sorts["El"].family.over(c, (ty_value,))


@dataclass
class Verdict:
    status: str  # "yes" | "no" | "inconclusive"
    certificate: object = None

    def __bool__(self):
        return self.status == "yes"


def homotopic_arrows(model: ModelData, u, v, chains=None):
    """Componentwise identity-type witnesses between parallel arrows into
    a chain-presented stage.  Components whose types disagree after
    reindexing cannot be compared without transport: inconclusive."""
    base = model.base
    if base.src[u] != base.src[v] or base.tgt[u] != base.tgt[v]:
        raise ModelError("homotopy needs parallel arrows")
    if "Id" not in model.term_values:
        raise ModelError("homotopy needs an identity former")
    if chains is None:
        chains = _chain_presentations(model, len(base.objects))
    c = base.tgt[u]
    if c not in chains:
        return Verdict("inconclusive", f"{c!r} is not presented by a comprehension chain")
    d = base.src[u]
    el = model.sorts["El"]
    ty = model.sorts["Ty"]
    witnesses = []
    uu, vv = u, v
    for (stage, tval, proj, gen) in reversed(chains[c]):
        xu = el.total.action[uu][gen]
        xv = el.total.action[vv][gen]
        uu2, vv2 = base.comp(proj, uu), base.comp(proj, vv)
        tu = ty.total.action[uu2][tval]
        tv = ty.total.action[vv2][tval]
        if tu != tv:
            return Verdict("inconclusive", "component types differ; transport not attempted")
        if xu != xv:
            try:
                id_val = model.value("Id", d, (tu, xu, xv))
            except ModelBudget:
                return Verdict("inconclusive", "identity value missing within depth")
            found = _el_values(model, d, id_val)
            if not found:
                return Verdict("no", (stage, xu, xv))
            witnesses.append((stage, found[0]))
        uu, vv = uu2, vv2
    return Verdict("yes", witnesses)


def weak_equivalence(model: ModelData, f) -> Verdict:
    """Is the base arrow a homotopy equivalence for the model's identity
    types?  Exhaustive over inverse candidates; 'no' only when every
    candidate failed decisively."""
    base = model.base
    d, c = base.src[f], base.tgt[f]
    chains = _chain_presentations(model, len(base.objects))
    saw_inconclusive = False
    for g in base.hom(c, d):
        h1 = homotopic_arrows(model, base.comp(g, f), base.id_of(d), chains)
        if h1.status == "inconclusive":
            saw_inconclusive = True
            continue
        if not h1:
            continue
        h2 = homotopic_arrows(model, base.comp(f, g), base.id_of(c), chains)
        if h2.status == "inconclusive":
            saw_inconclusive = True
            continue
        if h2:
            return Verdict("yes", (g, h1.certificate, h2.certificate))
    return Verdict("inconclusive" if saw_inconclusive else "no", None)


# ---------------------------------------------------------------------------
# free extensions of presented theories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attachment:
    length: int
    top: str  # "Ty" | "El"
    terms: tuple  # instantiation of the source context in the accumulated theory


@dataclass(frozen=True)
class CofibrationPresentation:
    attachments: tuple

    @staticmethod
    def of(*attachments):
        return CofibrationPresentation(tuple(attachments))


def _subst_constants(expr, mapping):
    """Replace fully applied constants by assigned open terms."""
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Const):
        args = tuple(_subst_constants(a, mapping) for a in expr.args)
        if expr.head in mapping:
            return instantiate_many(mapping[expr.head], args) if args else mapping[expr.head]
        return Const(expr.head, args)
    if isinstance(expr, App):
        return App(_subst_constants(expr.fun, mapping), _subst_constants(expr.arg, mapping))
    if isinstance(expr, Lam):
        return Lam(_subst_constants(expr.dom, mapping), _subst_constants(expr.body, mapping))
    if isinstance(expr, SortApp):
        return SortApp(expr.head, tuple(_subst_constants(a, mapping) for a in expr.args))
    if isinstance(expr, PiType):
        return PiType(_subst_constants(expr.dom, mapping), _subst_constants(expr.cod, mapping))
    raise ModelError(f"bad expression {expr!r}")


def pushout_cofibration(base: Signature, cof: CofibrationPresentation, prefix="att") -> Signature:
    """Push a composite of free extensions out along its attachments:
    one fresh generator per attachment, with boundary types given by the
    substituted attaching data and no new equations."""
    sig = base
    counter = 0
    for att in cof.attachments:
        n, top = att.length, att.top
        if top == "Ty":
            families = att.terms
            if len(families) != n:
                raise ModelError("attachment must instantiate the source chain")
            target = SortApp("Ty")
        elif top == "El":
            if len(att.terms) != n + 1:
                raise ModelError("attachment must instantiate the chain and its top family")
            families = att.terms[:-1]
            b = att.terms[-1]
            arg = b
            for k in range(1, n + 1):
                arg = App(arg, Var(n - k))
            target = SortApp("El", (arg,))
        else:
            raise ModelError("attachment top must be 'Ty' or 'El'")
        tele = []
        for k, a in enumerate(families):
            arg = a
            for m in range(1, k + 1):
                arg = App(arg, Var(k - m))
            tele.append(normalize(sig, SortApp("El", (arg,))))
        target = normalize(sig, target)
        name = f"{prefix}{counter}"
        while name in sig.decls:
            name += "'"
        counter += 1
        decl = Declaration(name, tuple(tele), target)
        probe = sig.extended([decl], note=f"pushout attachment {name}")
        check_context(probe, decl.telescope + (decl.target,))
        sig = probe
    return sig


def added_constants(base: Signature, ext: Signature):
    return [d for d in ext.declarations() if d.name not in base.decls]


def extension_morphisms(base: Signature, ext: Signature, theory: Signature, size=5):
    """Morphisms of presented theories over the base: assignments of each
    added generator to a term of the translated type in the target
    presentation.  Exhaustive within the size budget."""
    added = added_constants(base, ext)
    mapping = {}

    def fill(k):
        d = added[k]
        tele = tuple(_subst_constants(t, mapping) for t in d.telescope)
        target = d.target if isinstance(d.target, str) else _subst_constants(d.target, mapping)
        if isinstance(target, str):
            raise ModelError("free extensions only add term generators")
        for t in enumerate_terms(theory, tele, target, size):
            mapping[d.name] = t  # an open term over the generator's telescope
            yield
            del mapping[d.name]

    return [dict(mapping) for _ in backtrack(0, len(added), fill)]


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def type_term_lifting(m: ModelMorphism) -> dict:
    """The two lifting conditions, checked fiberwise over every source
    object."""
    M, N = m.source, m.target
    F = m.functor
    type_ok, type_bad = True, None
    for c in M.base.objects:
        fc = F.object_map[c]
        image = {m.on("Ty", c, x) for x in _ty_values(M, c)}
        for y in _ty_values(N, fc):
            if y not in image:
                type_ok, type_bad = False, (c, y)
                break
        if not type_ok:
            break
    term_ok, term_bad = True, None
    for c in M.base.objects:
        fc = F.object_map[c]
        for x in _ty_values(M, c):
            g_image = {m.on("El", c, e) for e in _el_values(M, c, x)}
            for e in _el_values(N, fc, m.on("Ty", c, x)):
                if e not in g_image:
                    term_ok, term_bad = False, (c, x, e)
                    break
            if not term_ok:
                break
        if not term_ok:
            break
    return {
        "type_lifting": type_ok,
        "term_lifting": term_ok,
        "counterexample": type_bad or term_bad,
    }


def _chains_of_length(model: ModelData, depth):
    """All comprehension chains from the terminal object with length <=
    depth, each as (the object it ends at, the list of (stage, type
    value, projection))."""
    frontier = [(model.terminal, [])]
    out = list(frontier)
    for _ in range(depth):
        new = []
        for (c, chain) in frontier:
            for t, obj, proj, gen in _chain_steps(model, c):
                new.append((obj, chain + [(c, t, proj)]))
        out += new
        frontier = new
    return out


def rlp_against_generating(m: ModelMorphism, depth) -> dict:
    """Brute-force right lifting property against the free-extension
    inclusions, enumerated as comprehension chains of length <= depth
    with a type or a term to lift at the top."""
    M, N = m.source, m.target
    F = m.functor
    for c, chain in _chains_of_length(M, depth):
        fc = F.object_map[c]
        image_ty = {m.on("Ty", c, x) for x in _ty_values(M, c)}
        for y in _ty_values(N, fc):
            if y not in image_ty:
                return {"rlp": False, "counterexample": ("Ty", chain, y)}
        for x in _ty_values(M, c):
            image_el = {m.on("El", c, e) for e in _el_values(M, c, x)}
            for e in _el_values(N, fc, m.on("Ty", c, x)):
                if e not in image_el:
                    return {"rlp": False, "counterexample": ("El", chain, x, e)}
    return {"rlp": True, "counterexample": None}


def is_trivial_fibration(m: ModelMorphism, depth) -> dict:
    """Type/term lifting decided fiberwise, together with the brute-force
    lifting verdict at the given depth; for democratic sources the two
    must agree."""
    direct = type_term_lifting(m)
    brute = rlp_against_generating(m, depth)
    return {
        "trivial_fibration": direct["type_lifting"] and direct["term_lifting"],
        "direct": direct,
        "rlp": brute,
        "agree": (direct["type_lifting"] and direct["term_lifting"]) == brute["rlp"],
    }
