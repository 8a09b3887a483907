"""Presheaves of finite sets over a finite category, and the calculus of
representable maps between them.

A presheaf stands in for a discrete fibration over the base: fibers are
finite sets, arrows act contravariantly.  A map of presheaves is read
through its fibre over an element, `PshMap.over`.  It is representable
when every element of its target has a comprehension: a representing
object, projection arrow and generic element that are terminal among
pairs (base arrow, source element) lying over the element.
`is_representable_map` finds these as a `ComprehensionWitness`, and
`require_witness` does the same where a construction cannot go on
without one.  Terminality, like every universal property here, is read
off one table of the arrows into the candidate object keyed by their
legs (`FiniteCategory.legs`): the candidate is universal when the table
has no collision and its keys are exactly the competitors, and a
mediator is a lookup in it.  Representability gives pushforwards
(pullback along the comprehension right adjoint), polynomial functors
and their composition, a classifier built from pullback-stable arrows
of the base, classification narrowed by Yoneda
(`classifying_candidates`), and a univalence test for representable
maps.

All operations are pure, deterministic and exhaustive.  The searches
(`enumerate_maps` and everything built on it) take an optional
`search.Budget`; one handed down to a nested search is shared with it,
and a search past its limit raises `search.Inconclusive` instead of
silently passing.  Without a Budget a search is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FiniteCategory, cone_legs, pullback_cones, universal
from .search import backtrack


class RfibError(Exception):
    pass


class NotRepresentable(RfibError):
    pass


class Unclassifiable(RfibError):
    pass


class ClassifierChoiceError(RfibError):
    """No strictly functorial choice of pullback squares exists."""


# ---------------------------------------------------------------------------
# presheaves and their maps
# ---------------------------------------------------------------------------


class Presheaf:
    """fiber: object -> ordered tuple of element ids;
    action: arrow (a : c -> d) -> function fiber(d) -> fiber(c).
    """

    def __init__(self, base: FiniteCategory, fibers, action, validate=True):
        self.base = base
        self.fibers = {o: tuple(fibers.get(o, ())) for o in base.objects}
        self.action = {a: dict(action.get(a, {})) for a in base.arrow_ids}
        if validate:
            problems = self.violations()
            if problems:
                raise RfibError("invalid presheaf: " + "; ".join(problems[:3]))

    def total_size(self) -> int:
        return sum(len(f) for f in self.fibers.values())

    def violations(self):
        """Messages for every failure of totality, closure, identity and
        functoriality; empty when the data is a presheaf.

        Cost: linear in the total size of the action tables, plus the
        composable pairs times the fibre sizes.  Each element is hashed
        once into its fibre's position map and at most twice for each
        action entry it appears in; the identity and functoriality laws
        then compare lists of integer positions.
        """
        out = []
        base = self.base
        # position of each element in its fibre; an element listed twice
        # (JSON input can do that) gets its last position
        pos = {o: {x: i for i, x in enumerate(fib)} for o, fib in self.fibers.items()}
        # rows[a][k]: position in fiber(src a) of the action of a on the
        # k-th element of fiber(tgt a), or -1 outside that fibre
        rows = {}
        for a in base.arrow_ids:
            s, t = base.src[a], base.tgt[a]
            table, pos_s = self.action[a], pos[s]
            if table.keys() != pos[t].keys():
                out.append(f"action of {a!r} not total on fiber of {t!r}")
                continue
            rows[a] = [pos_s.get(table[y], -1) for y in self.fibers[t]]
            if -1 in rows[a]:
                for x in table.values():
                    if x not in pos_s:
                        out.append(f"action of {a!r} leaves fiber of {s!r}")
        if out:
            return out
        for o in base.objects:
            fib, row = self.fibers[o], rows[base.id_of(o)]
            if row != list(range(len(fib))):
                for k, j in enumerate(row):
                    # j != k also when fib[k] is listed again later
                    if j != k and fib[j] != fib[k]:
                        out.append(f"identity action fails at {o!r}/{fib[k]!r}")
        for (f, g), h in base.compose.items():
            G = rows[g]
            if rows[h] != [G[j] for j in rows[f]]:
                out.append(f"functoriality fails on ({f!r},{g!r})")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.base == other.base
            and self.fibers == other.fibers
            and self.action == other.action
        )

    def __hash__(self):
        return hash(tuple((o, self.fibers[o]) for o in self.base.objects))

    def restrict(self, subbase: FiniteCategory) -> "Presheaf":
        """Restriction along a full subcategory inclusion."""
        fibers = {o: self.fibers[o] for o in subbase.objects}
        action = {a: dict(self.action[a]) for a in subbase.arrow_ids}
        return Presheaf(subbase, fibers, action, validate=False)

    def canonical(self):
        """Relabel element ids to stable per-fiber ordinals ("e0", "e1", ...).

        Returns (presheaf, mapping object -> {old id -> new id}).  Fiber
        order is preserved, so the relabeling is a deterministic
        function of the construction.
        """
        ren = {o: {x: f"e{i}" for i, x in enumerate(self.fibers[o])} for o in self.base.objects}
        fibers = {o: tuple(ren[o][x] for x in self.fibers[o]) for o in self.base.objects}
        action = {}
        for a in self.base.arrow_ids:
            s, t = self.base.src[a], self.base.tgt[a]
            action[a] = {ren[t][y]: ren[s][x] for y, x in self.action[a].items()}
        return Presheaf(self.base, fibers, action, validate=False), ren

    def to_json(self) -> dict:
        canon, _ = self.canonical()
        return {
            "base_hash": self.base.content_hash(),
            "fibers": {str(o): list(canon.fibers[o]) for o in self.base.objects},
            "action": {
                str(a): {str(y): str(x) for y, x in sorted(canon.action[a].items())}
                for a in self.base.arrow_ids
            },
        }


def require_distinct_fibers(fibers):
    """Raise RfibError if a fibre lists an element twice.  Serialized
    presheaves are checked with this where they are read: violations()
    takes a fibre as the list it is and does not look for repeats."""
    for o, fib in fibers.items():
        if len(set(fib)) != len(fib):
            raise RfibError(f"fibre at {o!r} lists an element twice")


class PshMap:
    """Natural transformation between presheaves on one base."""

    def __init__(self, source: Presheaf, target: Presheaf, components, validate=True):
        self.source = source
        self.target = target
        self.components = {o: dict(components.get(o, {})) for o in source.base.objects}
        self._fibres = None  # o -> {y: elements over y}, built by `over`
        if validate:
            problems = self.violations()
            if problems:
                raise RfibError("invalid presheaf map: " + "; ".join(problems[:3]))

    @property
    def base(self):
        return self.source.base

    def over(self, o, y):
        """The elements of the source at o that this map sends to y, as a
        tuple in fibre order: the fibre of the map over y.

        The index of every fibre is built on the first call and kept on
        the map, which is sound because maps are not changed after they
        are built."""
        if self._fibres is None:
            self._fibres = {}
            for c, fib in self.source.fibers.items():
                comp, at = self.components[c], {}
                for x in fib:
                    at.setdefault(comp[x], []).append(x)
                self._fibres[c] = {z: tuple(xs) for z, xs in at.items()}
        return self._fibres[o].get(y, ())

    def violations(self):
        out = []
        base = self.source.base
        if self.target.base != base:
            return ["source and target live over different bases"]
        for o in base.objects:
            comp = self.components[o]
            if set(comp.keys()) != set(self.source.fibers[o]):
                out.append(f"component at {o!r} not total")
                continue
            tgt = set(self.target.fibers[o])
            for x, y in comp.items():
                if y not in tgt:
                    out.append(f"component at {o!r} leaves the target fiber")
        if out:
            return out
        for a in base.arrow_ids:
            s, t = base.src[a], base.tgt[a]
            for x in self.source.fibers[t]:
                lhs = self.components[s][self.source.action[a][x]]
                rhs = self.target.action[a][self.components[t][x]]
                if lhs != rhs:
                    out.append(f"naturality fails at arrow {a!r} on {x!r}")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PshMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self):
        return hash(tuple(sorted((str(o), str(x), str(y)) for o in self.components for x, y in self.components[o].items())))

    def then(self, other: "PshMap") -> "PshMap":
        """other after self."""
        if other.source != self.target:
            raise RfibError("composition mismatch")
        comps = {
            o: {x: other.components[o][y] for x, y in self.components[o].items()}
            for o in self.base.objects
        }
        return PshMap(self.source, other.target, comps, validate=False)

    def is_iso(self) -> bool:
        return all(
            len(set(self.components[o].values())) == len(self.source.fibers[o]) == len(self.target.fibers[o])
            for o in self.base.objects
        )


def identity_map(X: Presheaf) -> PshMap:
    return PshMap(X, X, {o: {x: x for x in X.fibers[o]} for o in X.base.objects}, validate=False)


# ---------------------------------------------------------------------------
# enumeration of maps and isomorphisms
# ---------------------------------------------------------------------------


def naturality_squares(X: Presheaf, slot):
    """The naturality squares of a map out of X, each filed once under
    the slot assigned last: {k: [(i, j, a), ...]}.

    `slot[o][x]` numbers the elements of X.  The square of a
    non-identity arrow a : s -> t at an element u over t joins the slot
    i of u to the slot j of its transport a.u; a map m is natural there
    when m(a.u) is a applied to m(u).  At a fixed point of an
    endomorphism i == j, and the square is filed under that one slot."""
    base = X.base
    squares = {}
    for a in base.arrow_ids:
        if base.is_identity(a):
            continue
        below, table = slot[base.src[a]], X.action[a]
        for u, i in slot[base.tgt[a]].items():
            j = below[table[u]]
            squares.setdefault(max(i, j), []).append((i, j, a))
    return squares


def enumerate_maps(X: Presheaf, Y: Presheaf, candidates=None, bijective=False, budget=None):
    """All natural maps X -> Y, lexicographic in (object order, element
    order, target fiber order).

    `candidates(o, x)` may narrow the images tried for element x at o.
    With bijective=True only isomorphism candidates are produced.
    `budget`, a search.Budget or None, is charged once per candidate
    image tried and raises Inconclusive past its limit rather than
    yielding a partial answer.  Each naturality square is checked when
    the last of its slots is filled.
    """
    base = X.base
    if Y.base != base:
        raise RfibError("maps need a common base")
    if bijective and any(len(X.fibers[o]) != len(Y.fibers[o]) for o in base.objects):
        return
    slots, slot, first = [], {}, {}
    for o in base.objects:
        first[o] = len(slots)
        slot[o] = {x: len(slots) + n for n, x in enumerate(X.fibers[o])}
        slots += [(o, x) for x in X.fibers[o]]
    squares = {
        k: [(i, j, Y.action[a]) for i, j, a in sq] for k, sq in naturality_squares(X, slot).items()
    }
    img = [None] * len(slots)

    def fill(k):
        o, x = slots[k]
        checks = squares.get(k, ())
        for y in Y.fibers[o] if candidates is None else candidates(o, x):
            if budget is not None:
                budget.charge()
            # the slots of o are first[o]..k-1, filled already
            if bijective and y in img[first[o] : k]:
                continue
            img[k] = y
            if all(img[j] == act[img[i]] for i, j, act in checks):
                yield

    for _ in backtrack(0, len(slots), fill):
        comps = {o: {x: img[k] for x, k in slot[o].items()} for o in base.objects}
        yield PshMap(X, Y, comps, validate=False)


def enumerate_maps_over(q1: PshMap, q2: PshMap, bijective=False, budget=None):
    """Natural maps phi : dom(q1) -> dom(q2) with q2 . phi = q1."""

    def cand(o, x):
        return q2.over(o, q1.components[o][x])

    yield from enumerate_maps(q1.source, q2.source, candidates=cand, bijective=bijective, budget=budget)


def find_iso(X: Presheaf, Y: Presheaf, budget=None):
    """First natural isomorphism X -> Y, or None when the exhaustive
    search finishes empty.  Budget overrun raises Inconclusive."""
    for m in enumerate_maps(X, Y, bijective=True, budget=budget):
        return m
    return None


def find_iso_over(q1: PshMap, q2: PshMap, budget=None):
    for m in enumerate_maps_over(q1, q2, bijective=True, budget=budget):
        return m
    return None


def enumerate_subpresheaves(X: Presheaf, max_size=None):
    """All subpresheaves of X (fiberwise subsets closed under the action),
    smallest first by total size.  Each element is a keep/drop slot,
    keep tried first; u kept forces a.u kept, a constraint checked at the
    later of the two slots, as for a naturality square."""
    base = X.base
    slot, n = {}, 0
    for o in base.objects:
        slot[o] = {x: n + i for i, x in enumerate(X.fibers[o])}
        n += len(slot[o])
    squares = naturality_squares(X, slot)
    kept = [False] * n
    count = 0

    def fill(k):
        nonlocal count
        for keep in (True, False) if max_size is None or count < max_size else (False,):
            kept[k] = keep
            if all(kept[j] or not kept[i] for i, j, _ in squares.get(k, ())):
                count += keep
                yield
                count -= keep

    results = []
    for _ in backtrack(0, n, fill):
        fibers = {o: tuple(x for x in X.fibers[o] if kept[slot[o][x]]) for o in base.objects}
        action = {a: {y: X.action[a][y] for y in fibers[base.tgt[a]]} for a in base.arrow_ids}
        results.append(Presheaf(base, fibers, action, validate=False))
    results.sort(key=Presheaf.total_size)  # stable: sets of one size stay in lexicographic order
    return results


# ---------------------------------------------------------------------------
# limits, Yoneda, representability
# ---------------------------------------------------------------------------


def terminal_psh(base: FiniteCategory) -> Presheaf:
    """The one-point presheaf: its element at every object is ()."""
    return Presheaf(base, {o: ((),) for o in base.objects}, {a: {(): ()} for a in base.arrow_ids},
                    validate=False)


def bang(X: Presheaf) -> PshMap:
    """The unique map X -> terminal."""
    one = terminal_psh(X.base)
    return PshMap(X, one, {o: {x: () for x in X.fibers[o]} for o in X.base.objects}, validate=False)


def product_psh(X: Presheaf, Y: Presheaf):
    """X x Y with its projections: the pullback over the terminal."""
    return pullback_of_maps(bang(X), bang(Y))


def pullback_of_maps(f: PshMap, g: PshMap):
    """Pointwise pullback of the cospan f : X -> B <- Y : g.

    Elements are pairs (x, y) with f(x) == g(y), in (f-side, g-side)
    order.  Returns (P, to_dom_f, to_dom_g)."""
    if f.target != g.target:
        raise RfibError("cospan legs must share their target")
    base = f.base
    X, Y = f.source, g.source
    fibers = {}
    for o in base.objects:
        fibers[o] = tuple((x, y) for x in X.fibers[o] for y in g.over(o, f.components[o][x]))
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


def equalizer_of_maps(f: PshMap, g: PshMap):
    """Fiberwise equalizer of parallel maps, as a subpresheaf of the source."""
    if f.source != g.source or f.target != g.target:
        raise RfibError("equalizer needs a parallel pair")
    X = f.source
    base = X.base
    fibers = {
        o: tuple(x for x in X.fibers[o] if f.components[o][x] == g.components[o][x])
        for o in base.objects
    }
    action = {
        a: {y: X.action[a][y] for y in fibers[base.tgt[a]]} for a in base.arrow_ids
    }
    E = Presheaf(base, fibers, action, validate=False)
    inc = PshMap(E, X, {o: {x: x for x in fibers[o]} for o in base.objects}, validate=False)
    return E, inc


def yoneda(base: FiniteCategory, c) -> Presheaf:
    fibers = {d: tuple(base.hom(d, c)) for d in base.objects}
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        action[a] = {g: base.comp(g, a) for g in fibers[t]}
    return Presheaf(base, fibers, action, validate=False)


def element_map(X: Presheaf, c, x) -> PshMap:
    """The map y(c) -> X classifying the element x in the fiber over c."""
    yc = yoneda(X.base, c)
    comps = {d: {g: X.action[g][x] for g in yc.fibers[d]} for d in X.base.objects}
    return PshMap(yc, X, comps, validate=False)


def element_legs(X: Presheaf, c, e):
    """The arrows u : d -> c keyed by (d, e.u), the element of X they
    transport e to: the mediators of the element e over c."""
    base = X.base
    return base.legs(c, lambda u: (base.src[u], X.action[u][e]))


def is_representable(X: Presheaf):
    """Deterministically chosen representing pair (object, element), or None.

    The pair is terminal in the category of elements: every element of X
    is the transport of it along exactly one base arrow."""
    base = X.base
    elements = {(d, x) for d in base.objects for x in X.fibers[d]}
    for c in base.objects:
        if len(base.arrows_into(c)) != len(elements):
            continue
        for e in X.fibers[c]:
            if universal(element_legs(X, c, e), elements):
                return (c, e)
    return None


# ---------------------------------------------------------------------------
# representable maps: comprehension witnesses
# ---------------------------------------------------------------------------


class ComprehensionWitness:
    """Right-adjoint data for a representable map f : E -> B.

    For each object c and element y of B(c): a representing object, a
    projection arrow into c and a generic element of E over it, terminal
    among pairs (base arrow into c, E-element) lying over y."""

    def __init__(self, f: PshMap, data):
        self.map = f
        self.data = dict(data)  # (c, y) -> (obj, proj, gen)
        self._legs = {}  # (c, y) -> its mediators, at most one per entry

    def obj(self, c, y):
        return self.data[(c, y)][0]

    def proj(self, c, y):
        return self.data[(c, y)][1]

    def legs(self, c, y):
        """The mediators of the entry for (c, y), from `_comprehension_legs`,
        built on the first call and kept (witnesses are not changed after
        they are built)."""
        table = self._legs.get((c, y))
        if table is None:
            table = self._legs[(c, y)] = _comprehension_legs(self.map, *self.data[(c, y)])
        return table

    def mediate(self, c, y, d, g, x):
        """The unique u : d -> obj(c,y) with proj . u = g and E(u)(gen) = x."""
        u = self.legs(c, y).get((g, x))
        if u is None:
            raise RfibError(f"comprehension of {y!r} at {c!r} is not terminal")
        return u

    def unit_section(self, c, e):
        """For e in E(c): the section s : c -> obj(c, f(e)) with E(s)(gen) = e."""
        y = self.map.components[c][e]
        return self.mediate(c, y, c, self.map.base.id_of(c), e)

    def violations(self):
        B = self.map.target
        missing = [f"no comprehension for {y!r} at {c!r}"
                   for c in self.map.base.objects for y in B.fibers[c] if (c, y) not in self.data]
        return missing + self.entry_violations()

    def entry_violations(self):
        """Problems with the entries present, in entry order: projection
        endpoints, the instance and generic element in their fibres with
        the generic element over the instance, and the universal
        property.  A truncated model's partial witness is checked by
        this alone."""
        out = []
        f, base = self.map, self.map.base
        E, B = f.source, f.target
        E_sets = {o: set(E.fibers[o]) for o in base.objects}
        B_sets = {o: set(B.fibers[o]) for o in base.objects}
        for (c, y), (obj, proj, gen) in self.data.items():
            if base.src.get(proj) != obj or base.tgt.get(proj) != c:
                out.append(f"projection of {y!r} at {c!r} has wrong endpoints")
            elif y not in B_sets[c]:
                out.append(f"instance {y!r} at {c!r} is not in its fibre")
            elif gen not in E_sets[obj] or f.components[obj][gen] != B.action[proj][y]:
                out.append(f"generic element of {y!r} at {c!r} does not lie over it")
            elif not universal(self.legs(c, y), _competitors(f, c, y)):
                out.append(f"universal property fails for {y!r} at {c!r}")
        return out


def is_representable_map(f: PshMap):
    """Comprehension witness for f, or None.

    The witness is chosen deterministically: representing data is
    searched in (object order, arrow order, fiber order)."""
    data = {}
    for c in f.base.objects:
        for y in f.target.fibers[c]:
            data[(c, y)] = _comprehension(f, c, y)
            if data[(c, y)] is None:
                return None
    return ComprehensionWitness(f, data)


def require_witness(f: PshMap, why: str) -> ComprehensionWitness:
    """The comprehension witness of f; raises NotRepresentable(why) when f
    is not representable."""
    wf = is_representable_map(f)
    if wf is None:
        raise NotRepresentable(why)
    return wf


def _comprehension(f, c, y):
    """The first terminal (obj, proj, gen) over y at c, or None.  Only an
    obj receiving as many arrows as y has competitors is tried."""
    base = f.base
    competitors = _competitors(f, c, y)
    for obj in base.objects:
        if len(base.arrows_into(obj)) != len(competitors):
            continue
        for proj in base.hom(obj, c):
            for gen in f.over(obj, f.target.action[proj][y]):
                if universal(_comprehension_legs(f, obj, proj, gen), competitors):
                    return (obj, proj, gen)
    return None


def _competitors(f, c, y):
    """The pairs (g : d -> c, x) with x over y.g: what a comprehension of
    y at c must mediate to, each by exactly one arrow."""
    base = f.base
    return {(g, x) for g in base.arrows_into(c) for x in f.over(base.src[g], f.target.action[g][y])}


def _comprehension_legs(f, obj, proj, gen):
    """The arrows u into obj keyed by (proj . u, E(u)(gen)): the mediators
    of the candidate comprehension (obj, proj, gen) of f : E -> B."""
    base, E = f.base, f.source
    return base.legs(obj, lambda u: (base.comp(proj, u), E.action[u][gen]))


def pullback_witness(f: PshMap, wf: ComprehensionWitness, g: PshMap):
    """Pull f back along g and transport the witness.

    Returns (P, top : P -> dom f, left : P -> dom g, witness for left).
    Comprehension data transports on the nose, which is the on-the-nose
    form of the Beck-Chevalley condition for the square."""
    P, top, left = pullback_of_maps(f, g)
    F = g.source
    data = {}
    for c in f.base.objects:
        for x in F.fibers[c]:
            y = g.components[c][x]
            obj, proj, gen = wf.data[(c, y)]
            data[(c, x)] = (obj, proj, (gen, F.action[proj][x]))
    return P, top, left, ComprehensionWitness(left, data)


# ---------------------------------------------------------------------------
# pushforward and polynomial functors
# ---------------------------------------------------------------------------


def _transport(f, wf, g_arrow, c, y, x, X):
    """Action of the pushforward: move (y, x) along u : d -> c."""
    base = f.base
    B = f.target
    u = g_arrow
    d = base.src[u]
    y2 = B.action[u][y]
    obj2, proj2, gen2 = wf.data[(d, y2)]
    v = wf.mediate(c, y, obj2, base.comp(u, proj2), gen2)
    return (y2, X.action[v][x])


def pushforward(f: PshMap, g: PshMap, wf: ComprehensionWitness = None) -> PshMap:
    """Pushforward of g : X -> dom(f) along a representable f : E -> B.

    The fiber over y in B(c) is the set of elements of X over the
    comprehension of y that lie over its generic element; equivalently,
    sections of g pulled back over the comprehension.  Element ids are
    (y, x) pairs.  Returns the structure map pf_*X -> B."""
    if wf is None:
        wf = require_witness(f, "pushforward along a non-representable map")
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
            for x in g.over(obj, gen):
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


def polynomial_apply(f: PshMap, X: Presheaf, wf: ComprehensionWitness = None) -> Presheaf:
    """The polynomial functor of a representable f : E -> B applied to X:
    pull back along dom, push forward along f, forget to the base.
    Fibers are pairs (y in B(c), x in X over the comprehension of y)."""
    if wf is None:
        wf = require_witness(f, "polynomial of a non-representable map")
    base = f.base
    B = f.target
    fibers = {}
    for c in base.objects:
        elems = []
        for y in B.fibers[c]:
            obj = wf.obj(c, y)
            for x in X.fibers[obj]:
                elems.append((y, x))
        fibers[c] = tuple(elems)
    action = {}
    for a in base.arrow_ids:
        t = base.tgt[a]
        action[a] = {(y, x): _transport(f, wf, a, t, y, x, X) for (y, x) in fibers[t]}
    return Presheaf(base, fibers, action)


def polynomial_on_map(f: PshMap, wf, phi: PshMap, PX: Presheaf = None, PY: Presheaf = None) -> PshMap:
    """Action of the polynomial functor on a map phi : X -> Y."""
    if PX is None:
        PX = polynomial_apply(f, phi.source, wf)
    if PY is None:
        PY = polynomial_apply(f, phi.target, wf)
    comps = {}
    for c in f.base.objects:
        comps[c] = {}
        for (y, x) in PX.fibers[c]:
            obj = wf.obj(c, y)
            comps[c][(y, x)] = (y, phi.components[obj][x])
    return PshMap(PX, PY, comps)


def polynomial_canonical_projection(f: PshMap, X: Presheaf, wf) -> PshMap:
    """P_f(X) -> B remembering the indexing element."""
    PX = polynomial_apply(f, X, wf)
    return PshMap(PX, f.target, {o: {(y, x): y for (y, x) in PX.fibers[o]} for o in f.base.objects}, validate=False)


def polynomial_compose(f: PshMap, g: PshMap, wf=None, wg=None):
    """The composite polynomial map f (x) g with its witness.

    cod = P_f(cod g); dom consists of tuples (y, b, e, e2): an index y
    for f, a g-index b over its comprehension, an f-source element e
    over y, and a g-source element e2 over b evaluated at e.  Satisfies
    P_{f (x) g} iso P_f . P_g on every presheaf."""
    if wf is None:
        wf = require_witness(f, "polynomial composition needs representable maps")
    if wg is None:
        wg = require_witness(g, "polynomial composition needs representable maps")
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
            for e in f.over(c, y):
                for e2 in g.over(c, ev(c, y, b, e)):
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
    wt = is_representable_map(tensor)
    if wt is None:
        raise RfibError("composite polynomial map unexpectedly not representable")
    return tensor, wt


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


@dataclass
class ClassifierData:
    base: FiniteCategory
    omega: Presheaf
    omega_pt: Presheaf
    generic: PshMap
    witness: ComprehensionWitness
    squares: dict  # (arrow, classified arrow) -> (apex, top, left)


def _cospan_cones(base: FiniteCategory):
    """{(a, u): the universal cones of the cospan a, u}, for every two
    arrows a, u with one target, each computed once."""
    return {
        (a, u): tuple(pullback_cones(base, a, u))
        for c in base.objects
        for a in base.arrows_into(c)
        for u in base.arrows_into(c)
    }


def _stable_arrows(base: FiniteCategory, cones):
    """{c: the arrows into c whose pullback along every arrow into c
    exists}, read from the cones of `_cospan_cones`."""
    return {
        c: [a for a in base.arrows_into(c) if all(cones[(a, u)] for u in base.arrows_into(c))]
        for c in base.objects
    }


def _choose_squares(base, stable, cones):
    """A strictly functorial choice of pullback squares for the stable
    arrows, among the cones of `_cospan_cones`: identity arrows get
    identity squares and chosen squares paste on the nose.  Found by
    backtracking over universal cones."""
    pairs = []
    for c in base.objects:
        for u in base.arrows_into(c):
            if base.is_identity(u):
                continue
            for a in stable[c]:
                pairs.append((u, a))
    candidates = {}
    for (u, a) in pairs:
        kept = [
            (apex, top, left)
            for (apex, top, left) in cones[(a, u)]
            if left in stable[base.src[u]]
        ]
        if not kept:
            raise ClassifierChoiceError(f"stable arrow {a!r} lost stability along {u!r}")
        candidates[(u, a)] = kept

    order = sorted(pairs, key=lambda ua: (base.arr_index(ua[0]), base.arr_index(ua[1])))
    position = {key: k for k, key in enumerate(order)}
    # A pasting: while (u, a) has the square `cone`, the square of
    # (u v, a) is the square of (v, left) pasted under it, for each v into
    # u's source.  Each is filed under the last of its three squares in
    # `order`, and checked once, when that square is chosen; identity
    # squares are fixed.
    pastings = {}
    for key, kept in candidates.items():
        u, a = key
        for v in base.arrows_into(base.src[u]):
            outer = (base.comp(u, v), a)
            at_least = max(position[key], position.get(outer, -1))
            for cone in kept:
                inner = (v, cone[2])
                last = max(at_least, position.get(inner, -1))
                pastings.setdefault(last, []).append((key, cone, inner, outer))

    choice = {}

    def square(u, a):
        if base.is_identity(u):
            return (base.src[a], base.id_of(base.src[a]), a)
        return choice[(u, a)]

    def pastes(key, cone, inner, outer):
        if choice[key] != cone:
            return True
        apex_v, top_v, left_v = square(*inner)
        return square(*outer) == (apex_v, base.comp(cone[1], top_v), left_v)

    def fill(k):
        key = order[k]
        for cone in candidates[key]:
            choice[key] = cone
            if all(pastes(*p) for p in pastings.get(k, ())):
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


def rep_map_classifier(base: FiniteCategory) -> ClassifierData:
    """The classifier over a base: fibers of the classifying presheaf at c
    are the pullback-stable arrows into c, acting by a strictly
    functorial choice of pullbacks; the pointed variant adds a section,
    and the generic map between them is representable."""
    cones = _cospan_cones(base)
    stable = _stable_arrows(base, cones)
    squares = _choose_squares(base, stable, cones)
    omega_fibers = {c: tuple(stable[c]) for c in base.objects}
    omega_action = {}
    for u in base.arrow_ids:
        t = base.tgt[u]
        omega_action[u] = {a: squares[(u, a)][2] for a in stable[t]}
    omega = Presheaf(base, omega_fibers, omega_action)

    pt_fibers = {}
    for c in base.objects:
        elems = []
        for a in stable[c]:
            for s in base.hom(c, base.src[a]):
                if base.comp(a, s) == base.id_of(c):
                    elems.append((a, s))
        pt_fibers[c] = tuple(elems)
    pt_action = {}
    for u in base.arrow_ids:
        t = base.tgt[u]
        d = base.src[u]
        table = {}
        for (a, s) in pt_fibers[t]:
            apex, top, left = squares[(u, a)]
            s2 = cone_legs(base, apex, top, left).get((base.comp(s, u), base.id_of(d)))
            if s2 is None:
                raise ClassifierChoiceError("section transport is not unique")
            table[(a, s)] = (left, s2)
        pt_action[u] = table
    omega_pt = Presheaf(base, pt_fibers, pt_action)
    generic = PshMap(
        omega_pt,
        omega,
        {c: {(a, s): a for (a, s) in pt_fibers[c]} for c in base.objects},
    )
    witness = is_representable_map(generic)
    if witness is None:
        raise RfibError("generic map unexpectedly not representable")
    return ClassifierData(base, omega, omega_pt, generic, witness, squares)


def arrows_iso_over(base: FiniteCategory, a, b) -> bool:
    """Are the arrows a, b (same target) isomorphic over their target?"""
    if base.tgt[a] != base.tgt[b]:
        return False
    for j in base.hom(base.src[a], base.src[b]):
        if base.comp(b, j) != a:
            continue
        for k in base.hom(base.src[b], base.src[a]):
            if (
                base.comp(a, k) == b
                and base.comp(j, k) == base.id_of(base.src[b])
                and base.comp(k, j) == base.id_of(base.src[a])
            ):
                return True
    return False


def classifying_candidates(wf: ComprehensionWitness, wt: ComprehensionWitness):
    """The Yoneda narrowing of a map classifying wf's map f by wt's map t:
    {(c, x): the elements T of t's target at c whose projection
    wt.proj(c, T) is isomorphic over c to wf.proj(c, x)}, for each x in
    f's target at c.  Only those T can classify x, since the pullbacks of
    f along x and of t along T are these projections."""
    base = wf.map.base
    return {
        (c, x): [T for T in wt.map.target.fibers[c] if arrows_iso_over(base, wf.proj(c, x), wt.proj(c, T))]
        for c in base.objects
        for x in wf.map.target.fibers[c]
    }


def classify(f: PshMap, cls, wf: ComprehensionWitness = None, budget=None) -> PshMap:
    """A map chi : F -> Ty whose pullback of a representable t : El -> Ty
    is isomorphic to f over F, the target of f.

    `cls` is t with its witness wt, as a pair (t, wt) or as ClassifierData
    (its generic map).  By Yoneda the pullbacks of f along x and of t
    along T are the projections wf.proj(c, x) and wt.proj(c, T), so chi
    may send x only to a T whose projection is isomorphic over c to that
    of x; find_iso_over decides each such chi.  Raises Unclassifiable when
    none passes or some x has no such T."""
    if isinstance(cls, ClassifierData):
        cls = (cls.generic, cls.witness)
    t, wt = cls
    if wf is None:
        wf = require_witness(f, "only representable maps are classified")
    cand = classifying_candidates(wf, wt)
    for (c, x), types in cand.items():
        if not types:
            raise Unclassifiable(
                f"comprehension projection {wf.proj(c, x)!r} of {x!r} at {c!r} is isomorphic to "
                "no projection of the classifying map"
            )

    for chi in enumerate_maps(f.target, t.target, candidates=lambda o, x: cand[(o, x)], budget=budget):
        P, top, left = pullback_of_maps(t, chi)
        if find_iso_over(left, f, budget=budget) is not None:
            return chi
    raise Unclassifiable("no classifying map reproduces the given map up to isomorphism")


# ---------------------------------------------------------------------------
# equivalences and univalence
# ---------------------------------------------------------------------------


def _pullback_along_element(f: PshMap, c, y) -> PshMap:
    """The pullback of f along the element y of its target over c, as a
    map to y(c)."""
    base = f.base
    P, _, _ = pullback_of_maps(f, element_map(f.target, c, y))
    return PshMap(
        P,
        yoneda(base, c),
        {o: {(x, g): g for (x, g) in P.fibers[o]} for o in base.objects},
        validate=False,
    )


@dataclass
class UnivalenceResult:
    ok: bool
    # when ok: per object, the list of distinct element pairs certified
    # non-isomorphic; when not ok: the collision (c, y1, y2, iso components)
    table: dict = None
    collision: tuple = None

    def __bool__(self):
        return self.ok


def is_univalent(f: PshMap, wf: ComprehensionWitness = None, budget=None) -> UnivalenceResult:
    """Is classification by f injective?  For every object c and distinct
    elements y1, y2 of the target fiber, the pullbacks of f along them
    must not be isomorphic over y(c).

    By Yoneda those pullbacks are isomorphic exactly when the projections
    wf.proj(c, y1) and wf.proj(c, y2) are isomorphic over c, so each pair
    is decided in the base, with no search.  A colliding pair is
    certified by an isomorphism of its two pullbacks, found by
    find_iso_over within `budget`."""
    if wf is None:
        wf = require_witness(f, "univalence is defined for representable maps")
    base = f.base
    B = f.target
    table = {}
    for c in base.objects:
        checked = []
        ys = B.fibers[c]
        for i, y1 in enumerate(ys):
            for y2 in ys[i + 1 :]:
                if arrows_iso_over(base, wf.proj(c, y1), wf.proj(c, y2)):
                    q1, q2 = _pullback_along_element(f, c, y1), _pullback_along_element(f, c, y2)
                    iso = find_iso_over(q1, q2, budget=budget)
                    if iso is None:
                        raise RfibError(
                            f"comprehension witness is not lawful: {y1!r} and {y2!r} at {c!r} "
                            "have isomorphic projections but no isomorphic pullbacks"
                        )
                    return UnivalenceResult(False, collision=(c, y1, y2, iso.components))
                checked.append((y1, y2))
        table[c] = checked
    return UnivalenceResult(True, table=table)
