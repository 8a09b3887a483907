"""Models of a signature over a finite base.

A model assigns each sort constant a total presheaf with a family map
onto the interpretation of its telescope (representable, with a
comprehension witness, for representable sorts) and each term constant
a value on every telescope instance.  Interpretation of contexts,
types and terms is computed pointwise: the value of a dependent
product is its value at the generic point of the comprehension of its
domain, application transports along the section picking the argument,
and context interpretation is the presheaf of environments.

Two constructions produce models.  `classifier_model` interprets the
universe sorts by the classifier of the base and derives term values
from verified type structures.  `initial_model` builds the syntactic
model at a depth: objects are enumerated contexts, arrows are
substitution classes, and fibers are enumerated terms; comprehension
data at the depth boundary is partial and operations that need it
report a budget error instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .fincat import (
    FiniteCategory,
    FunctorData,
    find_terminal,
    full_subcategory,
    require_shape,
    table,
    validate_functor,
)
from .rfib import (
    ComprehensionWitness,
    Presheaf,
    PshMap,
    RfibError,
    bang,
    element_legs,
    is_representable,
    naturality_squares,
    require_distinct_fibers,
    terminal_psh,
)
from .search import Inconclusive, backtrack
from .structures import find_structure, structure_shape
from .kernel.check import MAX_NESTING, REP_SORT, SORT, Declaration, Signature, apply_subst, infer_term, normalize
from .kernel.terms import App, Const, Lam, PiType, SortApp, Var, shift, term_size
from .kernel.contexts import (
    compose_subst,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    identity_subst,
    normalize_subst,
    search_contexts,
    slice_theory,
)


class ModelError(Exception):
    pass


class ModelBudget(ModelError, Inconclusive):
    """Data missing at the depth boundary of a truncated model, or a
    construction past its limit."""


@dataclass
class SortInterp:
    decl: Declaration  # the sort's telescope and representability
    tele_obj: Presheaf
    total: Presheaf
    family: PshMap  # total -> tele_obj
    witness: ComprehensionWitness = None  # rep-sorts; may be partial

    @property
    def tele_ctx(self):
        """The declaration's telescope, as a context."""
        return self.decl.telescope

    @property
    def rep(self):
        return self.decl.is_rep_sort


class ModelData:
    def __init__(self, base: FiniteCategory, terminal, sig: Signature, depth=None, exposed_sig=None):
        self.base = base
        self.terminal = terminal
        self.sig = sig
        self.exposed_sig = exposed_sig or sig
        self.depth = depth
        self.sorts = {}
        self.term_values = {}
        self.extras = {}  # construction artifacts kept for diagnostics

    def sort(self, name) -> SortInterp:
        return self.sorts[name]

    def value(self, name, c, te):
        table = self.term_values[name]
        if (c, te) not in table:
            raise ModelBudget(f"no value for {name!r} at stage {c!r} within depth")
        return table[(c, te)]


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------


def env_list(env, n):
    out = []
    for _ in range(n):
        env, v = env
        out.append(v)
    out.reverse()
    return out


def ctx_fiber(model: ModelData, ctx, c, partial=False):
    """Environments for the context at stage c, as nested pairs.  An
    environment branch that falls outside a truncated model's depth
    raises ModelBudget, or with partial is skipped."""
    if not ctx:
        return [()]
    out = []
    for env in ctx_fiber(model, ctx[:-1], c, partial):
        try:
            vals = eval_type_fiber(model, ctx[:-1], ctx[-1], c, env)
        except ModelBudget:
            if partial:
                continue
            raise
        out.extend((env, v) for v in vals)
    return out


def ctx_act(model: ModelData, ctx, u, env):
    """Transport an environment along a base arrow u : d -> c."""
    if not ctx:
        return ()
    prev, v = env
    prev2 = ctx_act(model, ctx[:-1], u, prev)
    v2 = eval_type_act(model, ctx[:-1], ctx[-1], u, prev, v)
    return (prev2, v2)


def eval_subst(model, ctx, terms, c, env):
    """Evaluate each term over ctx at (c, env) into a nested-pair
    environment: the value of a substitution, or of a spine of
    telescope arguments.  Every substitution the package evaluates in a
    model goes through here."""
    te = ()
    for t in terms:
        te = (te, eval_term(model, ctx, t, c, env))
    return te


def eval_type_fiber(model: ModelData, ctx, ty, c, env):
    ty = normalize(model.sig, ty)
    if isinstance(ty, SortApp):
        si = model.sort(ty.head)
        te = eval_subst(model, ctx, ty.args, c, env)
        return si.family.over(c, te)
    if isinstance(ty, PiType):
        _, _, obj, env2 = _generic_extension(model, ctx, ty.dom, c, env)
        return eval_type_fiber(model, ctx + (ty.dom,), ty.cod, obj, env2)
    raise ModelError(f"cannot interpret type {ty!r}")


def _comprehension(si: SortInterp, c, te):
    """The comprehension (obj, proj, gen) of the instance te at c of a
    representable sort with interpretation si.  Raises ModelBudget where
    a truncated model has none."""
    if si.witness is None or (c, te) not in si.witness.data:
        raise ModelBudget(f"no comprehension for a {si.decl.name!r} instance at {c!r} within depth")
    return si.witness.data[(c, te)]


def _generic_extension(model, ctx, dom, c, env):
    """The comprehension of a representable-sort domain at (c, env): the
    sort's interpretation, the domain's instance, the representing stage
    and the extended environment there, env moved along the projection
    with the generic value added."""
    dom = normalize(model.sig, dom)
    if not isinstance(dom, SortApp):
        raise ModelError("dependent product over a non-sort domain")
    si = model.sort(dom.head)
    if si.witness is None:
        raise ModelError(f"sort {dom.head!r} has no comprehension data")
    te = eval_subst(model, ctx, dom.args, c, env)
    obj, proj, gen = _comprehension(si, c, te)
    return si, te, obj, (ctx_act(model, ctx, proj, env), gen)


def eval_type_act(model: ModelData, ctx, ty, u, env, v):
    """Transport a value of ty at (c, env) along u : d -> c."""
    ty = normalize(model.sig, ty)
    if isinstance(ty, SortApp):
        return model.sort(ty.head).total.action[u][v]
    if isinstance(ty, PiType):
        base = model.base
        c = base.tgt[u]
        d = base.src[u]
        si, te, _, env2 = _generic_extension(model, ctx, ty.dom, c, env)
        obj2, proj2, gen2 = _comprehension(si, d, si.tele_obj.action[u][te])
        m = si.witness.mediate(c, te, obj2, base.comp(u, proj2), gen2)
        return eval_type_act(model, ctx + (ty.dom,), ty.cod, m, env2, v)
    raise ModelError(f"cannot transport along type {ty!r}")


def eval_term(model: ModelData, ctx, t, c, env):
    sig = model.sig
    t = normalize(sig, t)
    if isinstance(t, Var):
        vals = env_list(env, len(ctx))
        return vals[len(ctx) - 1 - t.index]
    if isinstance(t, Const):
        te = eval_subst(model, ctx, t.args, c, env)
        return model.value(t.head, c, te)
    if isinstance(t, Lam):
        _, _, obj, env2 = _generic_extension(model, ctx, t.dom, c, env)
        return eval_term(model, ctx + (t.dom,), t.body, obj, env2)
    if isinstance(t, App):
        fty = normalize(sig, infer_term(sig, tuple(ctx), t.fun))
        if not isinstance(fty, PiType):
            raise ModelError("application of a non-function")
        vf = eval_term(model, ctx, t.fun, c, env)
        va = eval_term(model, ctx, t.arg, c, env)
        si, te, _, env2 = _generic_extension(model, ctx, fty.dom, c, env)
        sigma = si.witness.mediate(c, te, c, model.base.id_of(c), va)
        return eval_type_act(model, ctx + (fty.dom,), fty.cod, sigma, env2, vf)
    raise ModelError(f"cannot evaluate {t!r}")


def interpret_context(model: ModelData, ctx) -> Presheaf:
    """The presheaf of environments; the empty context is terminal."""
    base = model.base
    fibers = {c: tuple(ctx_fiber(model, ctx, c)) for c in base.objects}
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        action[a] = {env: ctx_act(model, ctx, a, env) for env in fibers[t]}
    return Presheaf(base, fibers, action)


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


@dataclass
class ModelReport:
    clauses: list = field(default_factory=list)  # (clause, ok, detail)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.clauses)

    def __bool__(self):
        return self.ok

    def failed(self):
        return [(c, d) for c, ok, d in self.clauses if not ok]


def check_model(sig: Signature, model: ModelData) -> ModelReport:
    """Per-condition verdicts: terminal base object, lawful presheaf data,
    equations, comprehension witnesses, and value coherence."""
    rep = ModelReport()
    term = find_terminal(model.base)
    rep.clauses.append(("terminal", term is not None and term == model.terminal,
                        f"terminal={term!r}, declared={model.terminal!r}"))

    bad = []
    for name, si in model.sorts.items():
        bad += [f"{name}: {v}" for v in si.total.violations()]
        bad += [f"{name} family: {v}" for v in si.family.violations()]
    rep.clauses.append(("fibration-data", not bad, "; ".join(bad[:3])))

    eq_bad = []
    eq_skipped = 0
    for rule in sig.rules():
        ctx = rule.context
        try:
            # the first stage where the two sides differ, or None
            fails_at = next((c for c in model.base.objects for env in ctx_fiber(model, ctx, c)
                             if eval_term(model, ctx, rule.lhs, c, env) != eval_term(model, ctx, rule.rhs, c, env)),
                            None)
        except ModelBudget:
            eq_skipped += 1
            continue
        if fails_at is not None:
            eq_bad.append(f"rule for {rule.head!r} fails at {fails_at!r}")
    rep.clauses.append(("equations", not eq_bad,
                        "; ".join(eq_bad[:3]) + (f" ({eq_skipped} skipped at depth)" if eq_skipped else "")))

    wit_bad = []
    for name, si in model.sorts.items():
        if not si.rep:
            continue
        if si.witness is None:
            wit_bad.append(f"{name}: no comprehension witness")
            continue
        # a truncated model's witness may miss the entries past its depth
        probs = si.witness.violations() if model.depth is None else si.witness.entry_violations()
        wit_bad += [f"{name}: {p}" for p in probs[:2]]
    rep.clauses.append(("comprehension", not wit_bad, "; ".join(wit_bad[:3])))

    val_bad = []
    for d in sig.term_decls:
        if d.name not in model.term_values:
            val_bad.append(f"{d.name}: no value table")
            continue
        table = model.term_values[d.name]
        stage_fibers = {
            c: tuple(ctx_fiber(model, d.telescope, c, partial=True)) for c in model.base.objects
        }
        for c in model.base.objects:
            for te in stage_fibers[c]:
                if (c, te) not in table:
                    if model.depth is None:
                        val_bad.append(f"{d.name}: missing value at {c!r}")
                    continue
                v = table[(c, te)]
                try:
                    fib = eval_type_fiber(model, d.telescope, d.target, c, te)
                except ModelBudget:
                    continue
                if v not in fib:
                    val_bad.append(f"{d.name}: value at {c!r} has the wrong type")
        # naturality of the value table
        for a in model.base.arrow_ids:
            tgt = model.base.tgt[a]
            for te in stage_fibers[tgt]:
                if (tgt, te) not in table:
                    continue
                try:
                    te2 = ctx_act(model, d.telescope, a, te)
                    if (model.base.src[a], te2) not in table:
                        continue
                    moved = eval_type_act(model, d.telescope, d.target, a, te, table[(tgt, te)])
                except ModelBudget:
                    continue
                if moved != table[(model.base.src[a], te2)]:
                    val_bad.append(f"{d.name}: value table not natural along {a!r}")
    rep.clauses.append(("values", not val_bad, "; ".join(val_bad[:3])))
    return rep


# ---------------------------------------------------------------------------
# classifier models
# ---------------------------------------------------------------------------

_STRUCTURE_CONSTANTS = {
    "Unit": ("Unit", "tt"),
    "Sigma": ("Sig", "pair", "fst", "snd"),
    "Id": ("Id", "refl", "J", "K"),
    "Pi": ("Pi", "lam", "app", "funext"),
}


def _needed_kinds(sig: Signature):
    names = set(sig.decls)
    out = []
    for kind, consts in _STRUCTURE_CONSTANTS.items():
        if names & set(consts):
            out.append(kind)
    return out


def classifier_model(sig: Signature, base: FiniteCategory, constants=None, classifier=None) -> ModelData:
    """Interpret the universe sorts by the classifier of the base and the
    structure constants by verified type structures; extension constants
    (closed terms added to a shipped signature) get caller-chosen values.

    Raises ModelError when the base lacks a structure the signature
    needs."""
    from .rfib import rep_map_classifier

    cls = classifier or rep_map_classifier(base)
    t, w = cls.generic, cls.witness
    term = find_terminal(base)
    if term is None:
        raise ModelError("base category has no terminal object")
    model = ModelData(base, term, sig)
    one = terminal_psh(base)

    ty_decl, el_decl = sig.decls.get("Ty"), sig.decls.get("El")
    if ty_decl != Declaration("Ty", (), SORT) or el_decl != Declaration("El", (SortApp("Ty"),), REP_SORT):
        raise ModelError("classifier models need the Ty/El universe sorts")
    model.sorts["Ty"] = SortInterp(ty_decl, one, cls.omega, bang(cls.omega))
    tele_el = interpret_context(model, (SortApp("Ty"),))
    fam_el = PshMap(
        cls.omega_pt,
        tele_el,
        {c: {s: ((), t.components[c][s]) for s in cls.omega_pt.fibers[c]} for c in base.objects},
    )
    el_witness = ComprehensionWitness(
        fam_el,
        {(c, ((), y)): w.data[(c, y)] for (c, y) in w.data},
    )
    model.sorts["El"] = SortInterp(el_decl, tele_el, cls.omega_pt, fam_el, el_witness)

    structures = {}
    for kind in _needed_kinds(sig):
        s = find_structure(t, kind, w)
        if s is None:
            raise ModelError(f"base carries no {kind} structure for its classifier")
        structures[kind] = s
    model.extras["structures"] = structures
    model.extras["classifier"] = cls

    # the inverse of each verified pullback square's comparison map
    inverses = {}
    for kind, s in structures.items():
        sh = structure_shape(t, w, kind)
        inverses[kind] = {(c, (sh["left"].components[c][x], s.top.components[c][x])): x
                          for c in base.objects for x in sh["dom"].fibers[c]}

    for d in sig.term_decls:
        name = d.name
        if any(name in consts for consts in _STRUCTURE_CONSTANTS.values()):
            model.term_values[name] = _structure_value_table(model, d, structures, inverses)
        else:
            if not constants or name not in constants:
                raise ModelError(f"no interpretation supplied for constant {name!r}")
            model.term_values[name] = _extension_value_table(model, d, constants[name])
    return model


def _extension_value_table(model, decl, values):
    """Closed extension constants: values is {base object: raw}."""
    if decl.telescope != ():
        raise ModelError(f"extension constant {decl.name!r} must be closed")
    return {(c, ()): values[c] for c in model.base.objects}


def _structure_value_table(model, decl, structures, inverses):
    base = model.base
    el = model.sort("El")
    tele_psh = interpret_context(model, decl.telescope)
    table = {}
    name = decl.name

    for c in base.objects:
        for te in tele_psh.fibers[c]:
            args = env_list(te, len(decl.telescope))
            if name == "Unit":
                v = structures["Unit"].bottom.components[c][()]
            elif name == "tt":
                v = structures["Unit"].top.components[c][()]
            elif name == "Sig":
                A, B = args[0], args[1]
                v = structures["Sigma"].bottom.components[c][(A, B)]
            elif name == "pair":
                A, B, a, b = args
                v = structures["Sigma"].top.components[c][(A, B, a, b)]
            elif name in ("fst", "snd"):
                A, B, p = args
                quad = inverses["Sigma"][(c, ((A, B), p))]
                v = quad[2] if name == "fst" else quad[3]
            elif name == "Id":
                A, x, y = args
                v = structures["Id"].bottom.components[c][(x, y)]
            elif name == "refl":
                A, x = args
                v = structures["Id"].top.components[c][x]
            elif name == "J":
                A, C, d_val, x, y, p = args
                e = inverses["Id"][(c, ((x, y), p))]
                v = el.total.action[el.witness.unit_section(c, e)][d_val]
            elif name == "K":
                A, x, C, d_val, p = args
                e = inverses["Id"][(c, ((x, x), p))]
                if e != x:
                    raise ModelError("identity fiber does not collapse at its reflexivity point")
                v = d_val
            elif name == "Pi":
                A, B = args
                v = structures["Pi"].bottom.components[c][(A, B)]
            elif name == "lam":
                A, B, f = args
                v = structures["Pi"].top.components[c][(A, f)]
            elif name == "app":
                A, B, g, a = args
                fel = inverses["Pi"][(c, ((A, B), g))][1]
                v = el.total.action[el.witness.unit_section(c, a)][fel]
            elif name == "funext":
                A, B, f, g, h = args
                if f != g:
                    raise ModelError("function extensionality witness without equal functions")
                v = structures["Id"].top.components[c][f]
            else:
                raise ModelError(f"unknown structure constant {name!r}")
            table[(c, te)] = v
    return table


# ---------------------------------------------------------------------------
# contextual objects, heart, democracy
# ---------------------------------------------------------------------------


def _iso_classes(base: FiniteCategory):
    iso = {o: {o} for o in base.objects}
    for a in base.arrow_ids:
        if base.inverse(a) is not None:
            s, t = base.src[a], base.tgt[a]
            iso[s].add(t)
            iso[t].add(s)
    return iso


def contextual_objects(model: ModelData):
    """Least class containing the terminal object, closed under the
    comprehension of representable-sort instances and isomorphism."""
    base = model.base
    iso = _iso_classes(base)
    ctx = set(iso[model.terminal])
    changed = True
    while changed:
        changed = False
        for name, si in model.sorts.items():
            if not si.rep or si.witness is None:
                continue
            for (c, te), (obj, _, _) in si.witness.data.items():
                if c in ctx:
                    new = iso[obj] - ctx
                    if new:
                        ctx |= new
                        changed = True
    return ctx


def is_democratic(model: ModelData) -> bool:
    return contextual_objects(model) == set(model.base.objects)


def heart(model: ModelData) -> ModelData:
    """Restrict the base to the contextual objects; fibers, witnesses and
    value tables restrict along the inclusion."""
    keep = contextual_objects(model)
    sub = full_subcategory(model.base, [o for o in model.base.objects if o in keep])
    out = ModelData(sub, model.terminal, model.sig, model.depth, model.exposed_sig)
    for name, si in model.sorts.items():
        tele = si.tele_obj.restrict(sub)
        total = si.total.restrict(sub)
        fam = PshMap(total, tele, {o: dict(si.family.components[o]) for o in sub.objects}, validate=False)
        wit = None
        if si.witness is not None:
            wit = ComprehensionWitness(
                fam, {(c, te): v for (c, te), v in si.witness.data.items() if c in keep}
            )
        out.sorts[name] = SortInterp(si.decl, tele, total, fam, wit)
    for name, table in model.term_values.items():
        out.term_values[name] = {(c, te): v for (c, te), v in table.items() if c in keep}
    return out


def heart_inclusion(model: ModelData) -> "ModelMorphism":
    return replace(identity_morphism(heart(model)), target=model)


# ---------------------------------------------------------------------------
# internal language
# ---------------------------------------------------------------------------


@dataclass
class TheoryData:
    """Value sets on enumerated contexts with the substitution action;
    depth-stamped, honest truncation of a full theory.  Action entries a
    truncated model cannot evaluate are counted, not guessed."""

    contexts: list
    values: dict  # index -> tuple of environments over the terminal stage
    action: dict  # (src index, tgt index, subst) -> {env: env}
    depth: int
    skipped_actions: int = 0

    def to_json(self):
        return {
            "depth": self.depth,
            "sizes": [len(self.values[i]) for i in range(len(self.contexts))],
            "actions": len(self.action),
            "skipped_actions": self.skipped_actions,
        }


def internal_language(model: ModelData, depth, type_size=5, subst_size=4) -> TheoryData:
    """Fibers of interpreted contexts over the terminal base object,
    with the action of enumerated substitutions.

    Fibers at the terminal stage never need comprehension data, so they
    are exact even for truncated models; evaluating a substitution can
    fall outside the depth, in which case that action entry is skipped
    and counted."""
    sig = model.exposed_sig
    ctxs = enumerate_framework_contexts(sig, depth, type_size)
    values = {}
    for i, ctx in enumerate(ctxs):
        values[i] = tuple(ctx_fiber(model, ctx, model.terminal))
    action = {}
    skipped = 0
    for i, src in enumerate(ctxs):
        for j, tgt in enumerate(ctxs):
            tgt_set = set(values[j])
            for sub in enumerate_substitutions(sig, src, tgt, subst_size):
                try:
                    table = {}
                    for env in values[i]:
                        out = eval_subst(model, src, sub, model.terminal, env)
                        if out not in tgt_set:
                            raise ModelError("substitution image escapes the enumerated fiber")
                        table[env] = out
                except ModelBudget:
                    skipped += 1
                    continue
                action[(i, j, sub)] = table
    return TheoryData(ctxs, values, action, depth, skipped)

# ---------------------------------------------------------------------------
# initial and syntactic models
# ---------------------------------------------------------------------------


def _weakening_subst(ctx):
    n = len(ctx)
    return tuple(Var(n - k) for k in range(n))


def _subst_size(sub):
    """The largest term_size among a substitution's components: a bound
    on how deeply they nest outside lambda domains, which term_size does
    not count."""
    return max(map(term_size, sub), default=0)


def initial_model(sig: Signature, depth, type_size=5, subst_size=None, term_size=5,
                  max_arrows=3000, exposed_sig=None) -> ModelData:
    """The syntactic model at a depth: objects are enumerated contexts of
    representable types, arrows are substitutions up to rule
    convertibility, sort fibers are enumerated terms.  Comprehension
    data at the depth boundary is partial; the model is depth-stamped.

    Each composite, projection and action entry is computed once and
    recorded; the tables are read off the records."""
    if subst_size is None:
        subst_size = term_size  # mediating arrows are built from fiber terms
    ctxs, ext = search_contexts(sig, depth, type_size, iso_size=subst_size)
    obj_ids = [f"G{i}" for i in range(len(ctxs))]

    # arrows: substitution classes, closed under composition
    arrows = {}  # (i, j, subst) in normal form -> arrow id
    leaving = [[] for _ in ctxs]  # i -> [(j, subst, arrow id)] in arrow order
    size = {}  # arrow id -> _subst_size of its substitution

    def add_arrow(i, j, sub):
        key = (i, j, sub)
        if key in arrows:
            return arrows[key]
        if len(arrows) >= max_arrows:
            raise ModelBudget(f"arrow budget of max_arrows={max_arrows} exhausted while closing under composition")
        aid = f"s{len(arrows)}"
        arrows[key] = aid
        leaving[i].append((j, sub, aid))
        size[aid] = _subst_size(sub)
        return aid

    for i in range(len(ctxs)):
        for j in range(len(ctxs)):
            for sub in enumerate_substitutions(sig, ctxs[i], ctxs[j], subst_size):
                add_arrow(i, j, normalize_subst(sig, sub))
    # force the comprehension projections into the arrow set
    projections = {}  # (i, ty) -> (j, projection G_j -> G_i, generic term)
    for (i, ty), (j, fwd, bwd) in ext.items():
        proj_sub = normalize_subst(sig, compose_subst(sig, bwd, _weakening_subst(ctxs[i])))
        projections[(i, ty)] = (j, add_arrow(j, i, proj_sub), normalize(sig, bwd[-1]))
    # a pass over every composable pair, until one adds no arrow; that
    # pass leaves the whole table in `compose`.  An arrow added during a
    # pass is a second factor from the next first factor on, and a first
    # factor from the next pass on (the order of arrow ids depends on it)
    composite = {}  # (a2, a1) -> a2 after a1, recorded when first computed
    while True:
        count = len(arrows)
        compose = {}
        for (i, j, s1), a1 in list(arrows.items()):
            for k, s2, a2 in list(leaving[j]):
                if (a2, a1) not in composite:
                    # s2 after s1 nests at most as deep as both together;
                    # deeper, instantiating it could run out of stack
                    if size[a1] + size[a2] > MAX_NESTING:
                        raise ModelBudget(f"composite substitutions would nest past {MAX_NESTING} levels "
                                          "while closing under composition")
                    composite[(a2, a1)] = add_arrow(i, k, normalize_subst(sig, compose_subst(sig, s1, s2)))
                compose[(a2, a1)] = composite[(a2, a1)]
        if len(arrows) == count:
            break

    arrow_list = [(aid, obj_ids[i], obj_ids[j]) for (i, j, _), aid in arrows.items()]
    arrow_sub = {aid: (i, j, s) for (i, j, s), aid in arrows.items()}
    identities = {obj_ids[i]: arrows[(i, i, identity_subst(ctx))] for i, ctx in enumerate(ctxs)}
    base = FiniteCategory(obj_ids, arrow_list, identities, compose)

    model = ModelData(base, obj_ids[0], sig, depth=depth, exposed_sig=exposed_sig)
    model.extras["contexts"] = ctxs
    model.extras["arrow_subst"] = arrow_sub
    model.extras["extensions"] = ext

    index_of = {obj_ids[i]: i for i in range(len(ctxs))}

    for d in sig.sort_decls:
        for ty in d.telescope:
            if not isinstance(ty, SortApp):
                raise ModelError("sort telescopes must be sort applications")
        tele_obj = interpret_context(model, d.telescope)
        fibers = {}
        instance = {}  # (c, te) -> the normalised sort instance over te
        for c in base.objects:
            elems = []
            for te in tele_obj.fibers[c]:
                args = tuple(raw[1] for raw in env_list(te, len(d.telescope)))
                want = instance[(c, te)] = normalize(sig, SortApp(d.name, args))
                elems.extend((te, t) for t in enumerate_terms(sig, ctxs[index_of[c]], want, term_size))
            fibers[c] = elems
        # close fibers under the substitution action, recording each image
        # when first computed; `members` mirrors each fiber list as a set
        members = {c: set(elems) for c, elems in fibers.items()}
        images = {aid: {} for aid in arrow_sub}
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 50:
                raise ModelBudget("sort fibers failed to close under substitution")
            for aid, (i, j, sub) in arrow_sub.items():
                # arrow G_i -> G_j acts fibers[G_j] -> fibers[G_i]
                image = images[aid]
                for x in list(fibers[obj_ids[j]]):
                    if x in image:
                        continue
                    te, t = x
                    y = image[x] = (
                        ctx_act(model, d.telescope, aid, te) if d.telescope else (),
                        apply_subst(sig, sub, t),
                    )
                    if y not in members[obj_ids[i]]:
                        fibers[obj_ids[i]].append(y)
                        members[obj_ids[i]].add(y)
                        changed = True
        fibers = {c: tuple(sorted(fibers[c], key=lambda p: repr(p))) for c in base.objects}
        action = {aid: {x: images[aid][x] for x in fibers[base.tgt[aid]]} for aid in arrow_sub}
        total = Presheaf(base, fibers, action)
        family = PshMap(total, tele_obj,
                        {c: {(te, t): te for (te, t) in fibers[c]} for c in base.objects},
                        validate=False)
        witness = None
        if d.is_rep_sort:
            data = {}
            for (c, te), ty in instance.items():
                hit = projections.get((index_of[c], ty))
                if hit is None:
                    continue
                j, proj_aid, gen_term = hit
                gen = (ctx_act(model, d.telescope, proj_aid, te) if d.telescope else (), gen_term)
                if gen in members[obj_ids[j]]:
                    data[(c, te)] = (obj_ids[j], proj_aid, gen)
            witness = ComprehensionWitness(family, data)
        model.sorts[d.name] = SortInterp(d, tele_obj, total, family, witness)

    for d in sig.term_decls:
        table = {}
        for c in base.objects:
            i = index_of[c]
            for te in ctx_fiber(model, d.telescope, c, partial=True):
                try:
                    args = _te_to_terms(model, d.telescope, te, i)
                    t = normalize(sig, Const(d.name, tuple(args)))
                    want = apply_subst(sig, args, d.target)
                    v = _term_to_raw(model, i, t, want)
                    table[(c, te)] = v
                except ModelBudget:
                    continue
        model.term_values[d.name] = table
    return model


def _te_to_terms(model: ModelData, tele, te, ctx_index):
    """Recover syntactic arguments from a telescope environment of the
    syntactic model."""
    raws = env_list(te, len(tele))
    out = []
    for k, ty in enumerate(tele):
        out.append(_raw_to_term(model, apply_subst(model.sig, out, ty), raws[k], ctx_index))
    return out


def _raw_to_term(model: ModelData, ty, raw, ctx_index):
    sig = model.sig
    if isinstance(ty, SortApp):
        return raw[1]
    if isinstance(ty, PiType):
        ext = model.extras["extensions"]
        dom = normalize(sig, ty.dom)
        hit = ext.get((ctx_index, dom))
        if hit is None:
            raise ModelBudget("no extension for a product domain within depth")
        j, fwd, bwd = hit
        cod_rep = apply_subst(sig, bwd, ty.cod)
        body_rep = _raw_to_term(model, cod_rep, raw, j)
        # body over the representative; translate to the literal extension
        body = apply_subst(sig, fwd, body_rep)
        return Lam(dom, body)
    raise ModelError(f"cannot read back a value of type {ty!r}")


def _term_to_raw(model: ModelData, ctx_index, t, ty):
    sig = model.sig
    ty = normalize(sig, ty)
    if isinstance(ty, SortApp):
        si = model.sort(ty.head)
        te = ()
        args_sofar = []
        for k, tel_ty in enumerate(si.tele_ctx):
            want = apply_subst(sig, args_sofar, tel_ty)
            te = (te, _term_to_raw(model, ctx_index, ty.args[k], want))
            args_sofar.append(ty.args[k])
        elem = (te, normalize(sig, t))
        obj = f"G{ctx_index}"
        if elem not in si.family.components[obj]:
            raise ModelBudget("term outside the enumerated fiber")
        return elem
    if isinstance(ty, PiType):
        ext = model.extras["extensions"]
        dom = normalize(sig, ty.dom)
        hit = ext.get((ctx_index, dom))
        if hit is None:
            raise ModelBudget("no extension for a product domain within depth")
        j, fwd, bwd = hit
        # the value at the generic point: apply to the new variable, then
        # translate along the representative iso
        body = App(shift(t, 1), Var(0)) if not isinstance(t, Lam) else t.body
        body_rep = apply_subst(sig, bwd, body)
        cod_rep = apply_subst(sig, bwd, ty.cod)
        return _term_to_raw(model, j, body_rep, cod_rep)
    raise ModelError(f"cannot interpret a term at type {ty!r}")


def syntactic_model(sig: Signature, ctx, depth, **kw) -> ModelData:
    """The model presented by slicing at a context and taking the initial
    model of the slice, exposed over the original signature."""
    sliced = slice_theory(sig, ctx, prefix="sm")
    return initial_model(sliced, depth, exposed_sig=sig, **kw)

# ---------------------------------------------------------------------------
# model morphisms
# ---------------------------------------------------------------------------


@dataclass
class ModelMorphism:
    source: ModelData
    target: ModelData
    functor: FunctorData
    components: dict  # sort name -> {object -> {raw -> raw}}

    def on(self, name, c, x):
        return self.components[name][c][x]


def map_value(m: ModelMorphism, ctx, ty, c, env, v):
    """Map a value of a type through the morphism.  Sort values map by
    the components; a product value is its value at the generic point,
    which maps recursively and then transports along the (invertible)
    comparison between the image of the source comprehension and the
    target comprehension."""
    M, N = m.source, m.target
    ty = normalize(M.sig, ty)
    if isinstance(ty, SortApp):
        return m.on(ty.head, c, v)
    if isinstance(ty, PiType):
        si, te, obj, env2 = _generic_extension(M, ctx, ty.dom, c, env)
        inverse = N.base.inverse(_comparison(m, si.decl.name, c, te))
        if inverse is None:
            raise ModelError("comparison arrow is not invertible")
        v_img = map_value(m, ctx + (ty.dom,), ty.cod, obj, env2, v)
        env_n = map_env(m, ctx + (ty.dom,), obj, env2)
        return eval_type_act(N, ctx + (ty.dom,), ty.cod, inverse, env_n, v_img)
    raise ModelError(f"cannot map a value of type {ty!r}")


def map_env(m: ModelMorphism, tele_ctx, c, te):
    """Map a telescope environment entrywise, products included."""
    raws = env_list(te, len(tele_ctx))
    out = ()
    for k, (ty, v) in enumerate(zip(tele_ctx, raws)):
        out = (out, map_value(m, tuple(tele_ctx[:k]), ty, c, te_prefix(te, len(tele_ctx), k), v))
    return out


def te_prefix(te, n, k):
    """The first k entries of an n-entry environment."""
    for _ in range(n - k):
        te = te[0]
    return te


def compose_model_morphisms(m1: ModelMorphism, m2: ModelMorphism) -> ModelMorphism:
    if m1.target is not m2.source and m1.target.base != m2.source.base:
        raise ModelError("composition mismatch")
    fun = FunctorData(
        {o: m2.functor.object_map[m1.functor.object_map[o]] for o in m1.source.base.objects},
        {a: m2.functor.arrow_map[m1.functor.arrow_map[a]] for a in m1.source.base.arrow_ids},
    )
    comps = {}
    for name in m1.components:
        comps[name] = {}
        for c in m1.source.base.objects:
            fc = m1.functor.object_map[c]
            comps[name][c] = {
                x: m2.components[name][fc][y] for x, y in m1.components[name][c].items()
            }
    return ModelMorphism(m1.source, m2.target, fun, comps)


def _family_image(m: ModelMorphism, name, c, x):
    """The target telescope instance over which the image of x, an
    element of sort `name` at c, must lie: x's own instance, mapped."""
    siM = m.source.sorts[name]
    return map_env(m, siM.tele_ctx, c, siM.family.components[c][x])


# what `_beck_chevalley` returns where a truncated target has no
# comprehension for the image of an instance
SKIPPED = "skipped at depth"


def _comparison(m: ModelMorphism, name, c, te):
    """The comparison arrow from the image of the comprehension of sort
    `name`'s instance te over c to the target's comprehension of the
    image instance.  Raises ModelBudget where a truncated model has no
    comprehension for either, and RfibError where the target's is not
    terminal."""
    siM, siN = m.source.sorts[name], m.target.sorts[name]
    obj, proj, gen = _comprehension(siM, c, te)
    fc = m.functor.object_map[c]
    te_n = map_env(m, siM.tele_ctx, c, te)
    _comprehension(siN, fc, te_n)  # present, or ModelBudget; mediate reads it
    fobj = m.functor.object_map[obj]
    return siN.witness.mediate(fc, te_n, fobj, m.functor.arrow_map[proj], m.on(name, obj, gen))


def _beck_chevalley(m: ModelMorphism, name, c, te):
    """The Beck-Chevalley condition at the comprehension of sort `name`'s
    instance te over c: None when the comparison arrow is invertible, a
    failure message when it is missing or not invertible, or SKIPPED."""
    try:
        h = _comparison(m, name, c, te)
    except ModelBudget:
        return SKIPPED
    except RfibError:
        return f"{name}: no comparison arrow at {c!r}"
    if m.target.base.inverse(h) is None:
        return f"{name}: comparison not invertible at {c!r}"
    return None


def _value_preserved(m: ModelMorphism, d, c, te, v):
    """Does term constant d's value v at (c, te) map to the target's value
    at the image?  True where either falls outside a truncated model."""
    tabN = m.target.term_values.get(d.name, {})
    fc = m.functor.object_map[c]
    try:
        te_n = map_env(m, d.telescope, c, te)
        if (fc, te_n) not in tabN:
            return True
        v_n = map_value(m, d.telescope, d.target, c, te, v)
    except ModelBudget:
        return True
    return v_n == tabN[(fc, te_n)]


def _comprehensions(M: ModelData, names):
    """(sort, stage, instance) for each comprehension of the representable
    sorts among names: where Beck-Chevalley is checked."""
    return [(name, c, te) for name in names if M.sorts[name].rep and M.sorts[name].witness is not None
            for c, te in M.sorts[name].witness.data]


def _values(sig: Signature, M: ModelData):
    """(declaration, stage, instance, value) for each term value of M."""
    return [(d, c, te, v) for d in sig.term_decls for (c, te), v in M.term_values.get(d.name, {}).items()]


def check_morphism(sig: Signature, m: ModelMorphism) -> ModelReport:
    """Terminal preservation, naturality across the base functor, family
    compatibility, the Beck-Chevalley comparison at representable sorts,
    and value preservation where environments are mappable.  Family
    images and the last two conditions are the ones the morphism search
    decides by."""
    rep = ModelReport()
    M, N = m.source, m.target
    fr = validate_functor(M.base, N.base, m.functor)
    ft = m.functor.object_map.get(M.terminal)
    terminal_ok = fr.ok and ft is not None and N.base.is_terminal(ft)
    rep.clauses.append(("functor", terminal_ok,
                        "functor laws fail" if not fr.ok else f"image of terminal is {ft!r}"))
    if not fr.ok:
        return rep

    nat_bad = []
    for name, comp in m.components.items():
        siM, siN = M.sorts[name], N.sorts[name]
        for c in M.base.objects:
            for x in siM.total.fibers[c]:
                if x not in comp[c]:
                    nat_bad.append(f"{name}: missing component at {c!r}")
                    break
        for a in M.base.arrow_ids:
            s, t = M.base.src[a], M.base.tgt[a]
            fa = m.functor.arrow_map[a]
            for x in siM.total.fibers[t]:
                lhs = comp[s][siM.total.action[a][x]]
                rhs = siN.total.action[fa][comp[t][x]]
                if lhs != rhs:
                    nat_bad.append(f"{name}: naturality fails along {a!r}")
                    break
    rep.clauses.append(("naturality", not nat_bad, "; ".join(nat_bad[:3])))

    fam_bad = []
    for name, comp in m.components.items():
        siM, siN = M.sorts[name], N.sorts[name]
        for c in M.base.objects:
            fc = m.functor.object_map[c]
            for x in siM.total.fibers[c]:
                if siN.family.components[fc][comp[c][x]] != _family_image(m, name, c, x):
                    fam_bad.append(f"{name}: family compatibility fails at {c!r}")
                    break
    rep.clauses.append(("family", not fam_bad, "; ".join(fam_bad[:3])))

    bc_bad = []
    bc_skipped = 0
    for name, c, te in _comprehensions(M, m.components):
        verdict = _beck_chevalley(m, name, c, te)
        if verdict is SKIPPED:
            bc_skipped += 1
        elif verdict:
            bc_bad.append(verdict)
    rep.clauses.append(("beck-chevalley", not bc_bad,
                        "; ".join(bc_bad[:3]) + (f" ({bc_skipped} skipped at depth)" if bc_skipped else "")))

    val_bad = []
    if not bc_bad:
        val_bad = [f"{d.name}: value not preserved at {c!r}"
                   for d, c, te, v in _values(sig, M) if not _value_preserved(m, d, c, te, v)]
    rep.clauses.append(("values", not val_bad, "; ".join(val_bad[:3])))
    return rep


def identity_morphism(model: ModelData) -> ModelMorphism:
    fun = FunctorData(
        {o: o for o in model.base.objects}, {a: a for a in model.base.arrow_ids}
    )
    comps = {
        name: {c: {x: x for x in si.total.fibers[c]} for c in model.base.objects}
        for name, si in model.sorts.items()
    }
    return ModelMorphism(model, model, fun, comps)


def enumerate_model_morphisms(sig: Signature, M: ModelData, N: ModelData, budget=None):
    """All valid morphisms M -> N by guided backtracking: object images,
    then arrow images, then sort components drawn from the images that
    family compatibility allows.  Each functor law and each naturality
    square of M is compiled once per call, under whichever of its arrows
    or component slots is assigned last, and is checked only when that
    one is assigned.  A complete assignment is kept when every
    Beck-Chevalley comparison and every value is preserved, by the
    predicates `check_morphism` reads.  `budget`, a search.Budget or
    None, is charged once per candidate image tried and raises
    `Inconclusive` past its limit."""
    out = []
    baseM, baseN = M.base, N.base
    terminals_N = [o for o in baseN.objects if baseN.is_terminal(o)]
    objs = list(baseM.objects)
    arrows = baseM.arrow_ids
    sorts = [d.name for d in sig.sort_decls]
    omap, amap = {}, {}
    comp = {name: {c: {} for c in objs} for name in sorts}
    partial = ModelMorphism(M, N, FunctorData(omap, amap), comp)
    comprehensions, values = _comprehensions(M, sorts), _values(sig, M)

    # the law f.g = h under the last of f, g and h in arrow order
    laws = [[] for _ in arrows]
    for fg, h in baseM.compose.items():
        laws[max(baseM.arr_index(fg[0]), baseM.arr_index(fg[1]), baseM.arr_index(h))].append(fg)

    # declaration order: earlier sorts fix the telescope mapping of later ones
    slots, squares = [], {}
    for si, name in enumerate(sorts):
        total = M.sorts[name].total
        slot = {}
        for c in objs:
            slot[c] = {x: len(slots) + n for n, x in enumerate(total.fibers[c])}
            slots += [(name, c, x) for x in total.fibers[c]]
        # the arrow of a square as its index in acts
        for k, sq in naturality_squares(total, slot).items():
            squares[k] = [(i, j, si * len(arrows) + baseM.arr_index(a)) for i, j, a in sq]
    img = [None] * len(slots)

    def fill_object(i):
        o = objs[i]
        for n in terminals_N if o == M.terminal else baseN.objects:
            if budget is not None:
                budget.charge()
            if all((not baseM.hom(o2, o) or baseN.hom(n2, n)) and (not baseM.hom(o, o2) or baseN.hom(n, n2))
                   for o2, n2 in omap.items()):
                omap[o] = n
                yield
                del omap[o]

    def fill_arrow(k):
        a = arrows[k]
        s, t = baseM.src[a], baseM.tgt[a]
        for fa in [baseN.id_of(omap[s])] if baseM.is_identity(a) else baseN.hom(omap[s], omap[t]):
            if budget is not None:
                budget.charge()
            amap[a] = fa
            if all(baseN.compose[amap[f], amap[g]] == amap[baseM.compose[f, g]] for f, g in laws[k]):
                yield
        amap.pop(a, None)

    def fill_component(k):
        name, c, x = slots[k]
        siN = N.sorts[name]
        want = _family_image(partial, name, c, x)
        fc = omap[c]
        checks = squares.get(k, ())
        for y in siN.family.over(fc, want):
            if budget is not None:
                budget.charge()
            img[k] = y
            if all(img[j] == acts[a][img[i]] for i, j, a in checks):
                comp[name][c][x] = y
                yield
                del comp[name][c][x]

    for _ in backtrack(0, len(objs), fill_object):
        for _ in backtrack(0, len(arrows), fill_arrow):
            acts = [N.sorts[name].total.action[amap[a]] for name in sorts for a in arrows]
            for _ in backtrack(0, len(slots), fill_component):
                if all(_beck_chevalley(partial, *entry) in (None, SKIPPED) for entry in comprehensions) \
                        and all(_value_preserved(partial, *entry) for entry in values):
                    out.append(ModelMorphism(M, N, FunctorData(dict(omap), dict(amap)),
                                             {n: {c: dict(comp[n][c]) for c in objs} for n in sorts}))
    return out


def unique_morphism_from_initial(sig: Signature, depth, target: ModelData,
                                 initial: ModelData = None, verify_unique=True):
    """The canonical morphism built by sending each enumerated context to
    its interpretation's representing object, plus the confirmation that
    the exhaustive search finds exactly one morphism."""
    if initial is None:
        initial = initial_model(sig, depth)
    ctxs = initial.extras["contexts"]
    obj_ids = list(initial.base.objects)
    omap, gens = {}, {}
    for i, ctx in enumerate(ctxs):
        P = interpret_context(target, ctx)
        rep = is_representable(P)
        if rep is None and target.depth is not None:
            raise ModelBudget(f"interpretation of an enumerated context is not representable "
                              f"in a target truncated at depth {target.depth}")
        if rep is None:
            raise ModelError(f"interpretation of an enumerated context is not representable")
        omap[obj_ids[i]] = rep[0]
        gens[obj_ids[i]] = (P, rep[1])
    amap = {}
    arrow_sub = initial.extras["arrow_subst"]
    for aid, (i, j, sub) in arrow_sub.items():
        Pj, gen_j = gens[obj_ids[j]]
        Pi, gen_i = gens[obj_ids[i]]
        delta = eval_subst(target, ctxs[i], sub, omap[obj_ids[i]], gen_i)
        u = element_legs(Pj, omap[obj_ids[j]], gen_j).get((omap[obj_ids[i]], delta))
        if u is None:
            raise ModelError("no unique base arrow for a substitution image")
        amap[aid] = u
    comps = {}
    for d in sig.sort_decls:
        name = d.name
        comps[name] = {}
        siM = initial.sorts[name]
        for c in obj_ids:
            i = int(c[1:])
            Pi, gen_i = gens[c]
            comps[name][c] = {}
            for (te, t) in siM.total.fibers[c]:
                comps[name][c][(te, t)] = eval_term(target, ctxs[i], t, omap[c], gen_i)
    morphism = ModelMorphism(initial, target, FunctorData(omap, amap), comps)
    report = check_morphism(sig, morphism)
    found = None
    if verify_unique:
        found = enumerate_model_morphisms(sig, initial, target)
    return morphism, report, found

# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _enc(x):
    """Element ids: tuples nest, kernel expressions tag themselves, and
    atoms go through as strings."""
    from .kernel.terms import expr_to_data, Var as _V, Const as _C, App as _A, Lam as _L, SortApp as _S, PiType as _P

    if isinstance(x, tuple):
        return {"t": [_enc(v) for v in x]}
    if isinstance(x, (_V, _C, _A, _L, _S, _P)):
        return {"e": expr_to_data(x)}
    return str(x)


def _dec(x):
    """Inverse of _enc; raises ValueError on anything it does not write."""
    from .kernel.terms import expr_from_data

    if isinstance(x, str):
        return x
    if isinstance(x, dict) and isinstance(x.get("t"), list):
        return tuple(_dec(v) for v in x["t"])
    if isinstance(x, dict) and "e" in x:
        return expr_from_data(x["e"])
    raise ValueError(f"bad element id: {x!r}")


def _psh_to_doc(p: Presheaf):
    return {
        "fibers": {str(o): [_enc(x) for x in p.fibers[o]] for o in p.base.objects},
        "action": {
            str(a): [[_enc(y), _enc(x)] for y, x in p.action[a].items()]
            for a in p.base.arrow_ids
        },
    }


def _psh_from_doc(base, doc):
    fibers = {o: tuple(_dec(x) for x in doc["fibers"][str(o)]) for o in base.objects}
    require_distinct_fibers(fibers)
    action = {
        a: {_dec(y): _dec(x) for y, x in doc["action"][str(a)]} for a in base.arrow_ids
    }
    return Presheaf(base, fibers, action)


def model_to_json(model: ModelData) -> dict:
    from .kernel.check import print_signature
    from .kernel.terms import expr_to_data

    doc = {
        "depth": model.depth,
        "terminal": str(model.terminal),
        "base": model.base.to_json(),
        "signature": print_signature(model.sig),
        "sorts": {},
        "terms": {},
    }
    if model.exposed_sig is not model.sig:
        doc["exposed_signature"] = print_signature(model.exposed_sig)
    for name, si in model.sorts.items():
        doc["sorts"][name] = {
            "rep": si.rep,
            "tele": [expr_to_data(t) for t in si.tele_ctx],
            "total": _psh_to_doc(si.total),
            "tele_obj": _psh_to_doc(si.tele_obj),
            "family": {
                str(c): [[_enc(x), _enc(te)] for x, te in si.family.components[c].items()]
                for c in model.base.objects
            },
            "witness": None
            if si.witness is None
            else [
                [str(c), _enc(te), str(obj), str(proj), _enc(gen)]
                for (c, te), (obj, proj, gen) in sorted(
                    si.witness.data.items(), key=lambda kv: repr(kv)
                )
            ],
        }
    for name, table in model.term_values.items():
        doc["terms"][name] = [
            [str(c), _enc(te), _enc(v)]
            for (c, te), v in sorted(table.items(), key=lambda kv: repr(kv))
        ]
    return doc


def _rows(n):
    """A check for a JSON list of n-element lists."""
    return lambda x: isinstance(x, list) and all(isinstance(r, list) and len(r) == n for r in x)


def _psh_doc_ok(doc) -> bool:
    return (
        isinstance(doc, dict)
        and table(doc.get("fibers"), lambda fibre: isinstance(fibre, list))
        and table(doc.get("action"), _rows(2))
    )


def _sort_doc_ok(sdoc, base) -> bool:
    """Also: witness rows name objects and arrows of the base."""
    return (
        isinstance(sdoc, dict)
        and isinstance(sdoc.get("tele"), list)
        and _psh_doc_ok(sdoc.get("total"))
        and _psh_doc_ok(sdoc.get("tele_obj"))
        and table(sdoc.get("family"), _rows(2))
        and (sdoc.get("witness", "missing") is None or _rows(5)(sdoc.get("witness")) and all(
            c in base.objects and obj in base.objects and proj in base.arrow_ids
            for c, _, obj, proj, _ in sdoc["witness"]
        ))
    )


def _witness_rows_ok(base, witness) -> bool:
    """Each row's projection goes from its object to its stage, its
    instance lies in the telescope fibre at the stage and its generic
    element in the total fibre at the object."""
    total, tele = witness.map.source, witness.map.target
    totals = {o: set(total.fibers[o]) for o in base.objects}
    teles = {o: set(tele.fibers[o]) for o in base.objects}
    return all(
        base.src[proj] == obj and base.tgt[proj] == c and y in teles[c] and gen in totals[obj]
        for (c, y), (obj, proj, gen) in witness.data.items()
    )


def model_from_json(doc: dict) -> ModelData:
    """Raises ValueError when doc does not have the shape model_to_json
    writes, element ids, kernel expressions and witness rows included,
    or when a sort's `rep` or `tele` differs from its declaration."""
    from .kernel.check import parse_signature
    from .kernel.terms import expr_from_data

    doc = doc if isinstance(doc, dict) else {}  # then every field is bad
    base = FiniteCategory.from_json(doc.get("base"))
    depth = doc.get("depth", "missing")
    require_shape("model", {
        "depth": depth is None or (type(depth) is int and depth >= 0),
        "terminal": doc.get("terminal") in base.objects,
        "signature": isinstance(doc.get("signature"), str),
        "exposed_signature": isinstance(doc.get("exposed_signature", ""), str),
        "sorts": table(doc.get("sorts"), lambda sdoc: _sort_doc_ok(sdoc, base)),
        "terms": table(doc.get("terms"), _rows(3)),
    })
    sig = parse_signature(doc["signature"])
    require_shape("model", {"sorts": set(doc["sorts"]) == {d.name for d in sig.sort_decls},
                            "terms": set(doc["terms"]) == {d.name for d in sig.term_decls}})
    exposed = parse_signature(doc["exposed_signature"]) if "exposed_signature" in doc else None
    model = ModelData(base, doc["terminal"], sig, doc["depth"], exposed)
    for name, sdoc in doc["sorts"].items():
        decl = sig.decls[name]
        require_shape("model", {f"{name} rep": sdoc.get("rep") is decl.is_rep_sort,
                                f"{name} tele": tuple(map(expr_from_data, sdoc["tele"])) == decl.telescope})
        total = _psh_from_doc(base, sdoc["total"])
        tele_obj = _psh_from_doc(base, sdoc["tele_obj"])
        family = PshMap(
            total,
            tele_obj,
            {c: {_dec(x): _dec(te) for x, te in sdoc["family"][str(c)]} for c in base.objects},
        )
        witness = None
        if sdoc["witness"] is not None:
            witness = ComprehensionWitness(
                family,
                {
                    (c, _dec(te)): (obj, proj, _dec(gen))
                    for c, te, obj, proj, gen in sdoc["witness"]
                },
            )
            require_shape("model", {f"{name} witness rows": _witness_rows_ok(base, witness)})
        model.sorts[name] = SortInterp(decl, tele_obj, total, family, witness)
    for name, rows in doc["terms"].items():
        model.term_values[name] = {(c, _dec(te)): _dec(v) for c, te, v in rows}
    return model
