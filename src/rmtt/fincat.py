"""Finite categories with explicit composition tables.

A category here is pure data: object ids, arrow ids with endpoints, an
identity arrow per object and a total composition table on composable
pairs.  Everything downstream (presheaves, models, the classifier) sits
on top of exhaustive searches over this data, so all laws are decidable
and `validate_category` checks them outright instead of trusting the
constructor.

Composition convention: ``compose[(f, g)]`` is ``f after g`` and is
defined exactly when ``src(f) == tgt(g)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Issue:
    """One violated law or structural defect, with the witnessing ids."""

    kind: str  # "structural" or "law"
    message: str
    witnesses: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


class FiniteCategory:
    """objects + arrows + identities + total composition table.

    Values are immutable after construction; helper tables are built
    eagerly.  Construction does not validate: run `validate_category`.
    """

    def __init__(self, objects, arrows, identities, compose):
        self.objects = tuple(objects)
        self.arrows = tuple((a, s, t) for (a, s, t) in arrows)
        self.identities = dict(identities)
        self.compose = dict(compose)
        self.src = {a: s for (a, s, t) in self.arrows}
        self.tgt = {a: t for (a, s, t) in self.arrows}
        self.arrow_ids = tuple(a for (a, _, _) in self.arrows)
        self._arr_index = {a: i for i, a in enumerate(self.arrow_ids)}
        self._hom = {}
        for (a, s, t) in self.arrows:
            self._hom.setdefault((s, t), []).append(a)
        self._hom = {st: tuple(arrows) for st, arrows in self._hom.items()}
        self._into = {}
        for a in self.arrow_ids:
            self._into.setdefault(self.tgt[a], []).append(a)
        self._into = {o: tuple(arrows) for o, arrows in self._into.items()}

    # -- basic lookups -------------------------------------------------

    def hom(self, a, b):
        """The arrows a -> b, in declared order."""
        return self._hom.get((a, b), ())

    def id_of(self, obj):
        return self.identities[obj]

    def comp(self, f, g):
        """f after g; raises KeyError on non-composable pairs."""
        return self.compose[(f, g)]

    def arr_index(self, a):
        return self._arr_index[a]

    def arrows_into(self, obj):
        """The arrows with target obj, in declared order."""
        return self._into.get(obj, ())

    def legs(self, apex, leg):
        """The arrows u into apex keyed by leg(u), as {leg(u): u}, with None
        where two arrows share a key.  Keyed by their legs to a cone, these
        are the mediators: see `universal`."""
        table = {}
        for u in self.arrows_into(apex):
            k = leg(u)
            table[k] = None if k in table else u
        return table

    def is_terminal(self, o) -> bool:
        """Does o receive exactly one arrow from every object?"""
        return universal(self.legs(o, self.src.get), set(self.objects))

    def is_identity(self, f):
        return self.identities.get(self.src.get(f)) == f

    def inverse(self, h):
        """The two-sided inverse of h, or None when h is not invertible."""
        s, t = self.src[h], self.tgt[h]
        return next((k for k in self.hom(t, s) if self.comp(h, k) == self.identities[t]
                     and self.comp(k, h) == self.identities[s]), None)

    # -- equality and serialization -------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteCategory)
            and self.objects == other.objects
            and self.arrows == other.arrows
            and self.identities == other.identities
            and self.compose == other.compose
        )

    def __hash__(self):
        return hash((self.objects, self.arrows))

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "arrows": [{"id": a, "src": s, "tgt": t} for (a, s, t) in self.arrows],
            "identities": {str(o): i for o, i in sorted(self.identities.items(), key=lambda kv: str(kv[0]))},
            "compose": sorted(
                ([f, g, h] for (f, g), h in self.compose.items()),
                key=lambda fgh: (str(fgh[0]), str(fgh[1])),
            ),
        }

    @staticmethod
    def from_json(doc: dict) -> "FiniteCategory":
        """Raises ValueError when doc does not have the shape to_json writes."""
        doc = doc if isinstance(doc, dict) else {}  # then every field is bad
        require_shape("base", {
            "objects": names(doc.get("objects")),
            "arrows": isinstance(doc.get("arrows"), list)
            and all(isinstance(a, dict) and names([a.get(k) for k in ("id", "src", "tgt")]) for a in doc["arrows"]),
            "identities": table(doc.get("identities"), lambda i: isinstance(i, str)),
            "compose": isinstance(doc.get("compose"), list) and all(names(r) and len(r) == 3 for r in doc["compose"]),
        })
        return FiniteCategory(
            doc["objects"],
            [(a["id"], a["src"], a["tgt"]) for a in doc["arrows"]],
            dict(doc["identities"].items()),
            {(f, g): h for f, g, h in doc["compose"]},
        )

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def names(x) -> bool:
    """Is x a JSON list of strings?"""
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def table(x, ok) -> bool:
    """Is x a JSON object whose values all pass ok?"""
    return isinstance(x, dict) and all(ok(v) for v in x.values())


def require_shape(what, checks):
    """Raise ValueError naming every field of a `what` document whose check failed."""
    bad = [field for field, ok in checks.items() if not ok]
    if bad:
        raise ValueError(f"malformed {what} document: bad {', '.join(bad)}")


def validate_category(cat: FiniteCategory) -> ValidationReport:
    """Check structure (well-formed ids, total composition) and laws.

    Structural defects are reported separately from law violations; law
    checks only run on data they can evaluate.
    """
    issues = []
    objs = set(cat.objects)
    if len(objs) != len(cat.objects):
        issues.append(Issue("structural", "duplicate object ids"))
    seen = set()
    for (a, s, t) in cat.arrows:
        if a in seen:
            issues.append(Issue("structural", "duplicate arrow id", (a,)))
        seen.add(a)
        if s not in objs:
            issues.append(Issue("structural", "dangling source", (a, s)))
        if t not in objs:
            issues.append(Issue("structural", "dangling target", (a, t)))
    for o in cat.objects:
        i = cat.identities.get(o)
        if i is None or i not in cat.src:
            issues.append(Issue("structural", "missing identity arrow", (o,)))
        elif not (cat.src[i] == o and cat.tgt[i] == o):
            issues.append(Issue("structural", "identity with wrong endpoints", (o, i)))
    for (f, g) in cat.compose:
        if f not in seen or g not in seen:
            issues.append(Issue("structural", "composite of an unknown arrow", (f, g)))
    arrows = [a for a in cat.arrow_ids if cat.src[a] in objs and cat.tgt[a] in objs]
    arrset = set(arrows)
    for f in arrows:
        for g in arrows:
            composable = cat.src[f] == cat.tgt[g]
            h = cat.compose.get((f, g))
            if composable and h is None:
                issues.append(Issue("structural", "composable pair without composite", (f, g)))
            elif not composable and (f, g) in cat.compose:
                issues.append(Issue("structural", "composite on non-composable pair", (f, g)))
            elif composable:
                if h not in arrset:
                    issues.append(Issue("structural", "composite is not an arrow", (f, g, h)))
                elif not (cat.src[h] == cat.src[g] and cat.tgt[h] == cat.tgt[f]):
                    issues.append(Issue("structural", "composite with wrong endpoints", (f, g, h)))
    if any(i.kind == "structural" for i in issues):
        return ValidationReport(tuple(issues))

    for f in arrows:
        if cat.compose[(f, cat.identities[cat.src[f]])] != f:
            issues.append(Issue("law", "right identity law fails", (f,)))
        if cat.compose[(cat.identities[cat.tgt[f]], f)] != f:
            issues.append(Issue("law", "left identity law fails", (f,)))
    for f in arrows:
        for g in arrows:
            if cat.src[f] != cat.tgt[g]:
                continue
            for h in arrows:
                if cat.src[g] != cat.tgt[h]:
                    continue
                if cat.compose[(cat.compose[(f, g)], h)] != cat.compose[(f, cat.compose[(g, h)])]:
                    issues.append(Issue("law", "associativity fails", (f, g, h)))
    return ValidationReport(tuple(issues))


def universal(table, competitors) -> bool:
    """Is the cone whose mediators `table` holds (from
    `FiniteCategory.legs`) universal among `competitors`, a set: does
    every competitor have exactly one mediator, and every arrow into the
    apex mediate to one?"""
    return None not in table.values() and table.keys() == competitors


def find_terminal(cat: FiniteCategory):
    """Least-index object receiving exactly one arrow from every object."""
    return next((t for t in cat.objects if cat.is_terminal(t)), None)


def cone_legs(cat: FiniteCategory, apex, pf, pg):
    """The arrows u into apex keyed by (pf u, pg u): the mediators of the
    cone (apex, pf, pg)."""
    return cat.legs(apex, lambda u: (cat.comp(pf, u), cat.comp(pg, u)))


def pullback_cones(cat: FiniteCategory, f, g):
    """Every universal cone (apex, pf, pg) for the cospan f, g, with
    pf : apex -> src(f) and pg : apex -> src(g), in declared order of
    apex, pf and pg; the first is the chosen pullback.

    The competitors, the commuting pairs (qf, qg), are computed once; a
    cone is universal when its mediators are one to one with them, so
    only an apex receiving as many arrows as there are pairs is tried.
    """
    if cat.tgt[f] != cat.tgt[g]:
        raise ValueError("pullback_cones: arrows must share their target")
    pairs = {(qf, qg) for qf in cat.arrows_into(cat.src[f]) for qg in cat.hom(cat.src[qf], cat.src[g])
             if cat.comp(f, qf) == cat.comp(g, qg)}
    for apex in cat.objects:
        if len(cat.arrows_into(apex)) != len(pairs):
            continue
        for pf in cat.hom(apex, cat.src[f]):
            for pg in cat.hom(apex, cat.src[g]):
                if universal(cone_legs(cat, apex, pf, pg), pairs):
                    yield (apex, pf, pg)


@dataclass(frozen=True)
class FunctorData:
    """Carrier for a functor between finite categories: two id maps."""

    object_map: dict = field(default_factory=dict)
    arrow_map: dict = field(default_factory=dict)


def validate_functor(src: FiniteCategory, tgt: FiniteCategory, fun: FunctorData) -> ValidationReport:
    issues = []
    for o in src.objects:
        if fun.object_map.get(o) not in set(tgt.objects):
            issues.append(Issue("structural", "object without image", (o,)))
    for a in src.arrow_ids:
        fa = fun.arrow_map.get(a)
        if fa not in tgt.src:
            issues.append(Issue("structural", "arrow without image", (a,)))
    if issues:
        return ValidationReport(tuple(issues))
    for a in src.arrow_ids:
        fa = fun.arrow_map[a]
        if tgt.src[fa] != fun.object_map[src.src[a]] or tgt.tgt[fa] != fun.object_map[src.tgt[a]]:
            issues.append(Issue("law", "endpoints not preserved", (a,)))
    for o in src.objects:
        if fun.arrow_map[src.id_of(o)] != tgt.id_of(fun.object_map[o]):
            issues.append(Issue("law", "identity not preserved", (o,)))
    if issues:
        return ValidationReport(tuple(issues))
    for (f, g), h in src.compose.items():
        if tgt.compose.get((fun.arrow_map[f], fun.arrow_map[g])) != fun.arrow_map[h]:
            issues.append(Issue("law", "composition not preserved", (f, g)))
    return ValidationReport(tuple(issues))


def full_subcategory(cat: FiniteCategory, objects) -> FiniteCategory:
    """Full subcategory on the given objects, in their original order."""
    keep = [o for o in cat.objects if o in set(objects)]
    keepset = set(keep)
    arrows = [(a, s, t) for (a, s, t) in cat.arrows if s in keepset and t in keepset]
    arrids = {a for (a, _, _) in arrows}
    compose = {
        (f, g): h for (f, g), h in cat.compose.items() if f in arrids and g in arrids
    }
    identities = {o: cat.identities[o] for o in keep}
    return FiniteCategory(keep, arrows, identities, compose)


# -- stock categories used all over the tests and the corpus -----------


def terminal_category() -> FiniteCategory:
    return FiniteCategory(["*"], [("id*", "*", "*")], {"*": "id*"}, {("id*", "id*"): "id*"})


def delta1() -> FiniteCategory:
    """The free category on one arrow u : 0 -> 1."""
    return FiniteCategory(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("u", "0", "1")],
        {"0": "id0", "1": "id1"},
        {
            ("id0", "id0"): "id0",
            ("id1", "id1"): "id1",
            ("u", "id0"): "u",
            ("id1", "u"): "u",
        },
    )


def chain_poset(n: int) -> FiniteCategory:
    """The poset 0 < 1 < ... < n as a category (n+1 objects)."""
    objects = [str(i) for i in range(n + 1)]
    arrows = []
    identities = {}
    for i in range(n + 1):
        identities[str(i)] = f"id{i}"
    for i in range(n + 1):
        for j in range(i, n + 1):
            aid = f"id{i}" if i == j else f"a{i}{j}"
            arrows.append((aid, str(i), str(j)))
    name = {}
    for (a, s, t) in arrows:
        name[(s, t)] = a
    compose = {}
    for (f, fs, ft) in arrows:
        for (g, gs, gt) in arrows:
            if fs == gt:
                compose[(f, g)] = name[(gs, ft)]
    return FiniteCategory(objects, arrows, identities, compose)
