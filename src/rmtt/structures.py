"""Type structures carried by a representable map t : El -> Ty.

Each structure is a square with t on the right whose bottom edge lands
in Ty: unit element, dependent pair, identity, dependent function.  For
the first four kinds the square must be a pullback, computed and
verified exhaustively; the intensional identity structure only
commutes, but carries a uniform section solving the lifting problems of
its reflexivity map against t, expressed through exponentials over Ty
(pushforwards along representable maps, so their existence is a checked
precondition).

A univalent t admits each structure exactly when the matching closure
property of its pullbacks holds; `structure_criteria` decides the
closure side at its generic instance, independently of the square
search in `find_structure`, so the two verdicts cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rfib import (
    ComprehensionWitness,
    NotRepresentable,
    PshMap,
    RfibError,
    Unclassifiable,
    arrows_iso_over,
    classify,
    enumerate_maps,
    enumerate_maps_over,
    equalizer_of_maps,
    identity_map,
    is_representable_map,
    is_univalent,
    polynomial_apply,
    polynomial_canonical_projection,
    polynomial_compose,
    polynomial_on_map,
    product_psh,
    pullback_of_maps,
    pullback_witness,
    pushforward,
    pushforward_on_map,
    terminal_psh,
)

KINDS = ("Unit", "Sigma", "Id", "IdPlus", "Pi")


class ShapeMismatch(RfibError):
    """Candidate maps are typed against the wrong objects."""


class NotUnivalent(ValueError):
    """Structure criteria are stated for univalent maps only."""


@dataclass
class TypeStructure:
    kind: str
    bottom: PshMap  # lands in Ty
    top: PshMap  # lands in El
    elim: PshMap = None  # IdPlus only: the uniform lifting section

    def to_json(self):
        doc = {"kind": self.kind, "bottom": self.bottom.to_json(), "top": self.top.to_json()}
        if self.elim is not None:
            doc["elim"] = self.elim.to_json()
        return doc


@dataclass
class StructureReport:
    univalent: bool
    verdicts: dict = field(default_factory=dict)
    # kind -> {"found": TypeStructure|None, "closure": bool, "agree": bool}

    def agrees(self) -> bool:
        return all(v["agree"] for v in self.verdicts.values())


def is_pullback_square(top: PshMap, left: PshMap, right: PshMap, bottom: PshMap) -> bool:
    """Is the square with the given edges, which must commute, a
    pullback?  Verified by comparing against the canonical pointwise
    pullback of (bottom, right)."""
    A = top.source
    P, pb, pr = pullback_of_maps(bottom, right)
    comps = {
        o: {x: (left.components[o][x], top.components[o][x]) for x in A.fibers[o]}
        for o in A.base.objects
    }
    return PshMap(A, P, comps, validate=False).is_iso()


# ---------------------------------------------------------------------------
# canonical shapes
# ---------------------------------------------------------------------------


def unit_shape(typeof: PshMap, w: ComprehensionWitness):
    one = terminal_psh(typeof.base)
    return {"dom": one, "cod": one, "left": identity_map(one)}


def sigma_shape(typeof: PshMap, w: ComprehensionWitness):
    tensor, wt = polynomial_compose(typeof, typeof, w, w)
    return {"dom": tensor.source, "cod": tensor.target, "left": tensor}


def id_shape(typeof: PshMap, w: ComprehensionWitness):
    El = typeof.source
    I, p1, p2 = pullback_of_maps(typeof, typeof)
    diag = PshMap(
        El, I, {o: {e: (e, e) for e in El.fibers[o]} for o in El.base.objects}, validate=False
    )
    return {"dom": El, "cod": I, "left": diag, "p1": p1, "p2": p2}


def pi_shape(typeof: PshMap, w: ComprehensionWitness):
    El, Ty = typeof.source, typeof.target
    PEl = polynomial_apply(typeof, El, w)
    PTy = polynomial_apply(typeof, Ty, w)
    left = polynomial_on_map(typeof, w, typeof, PEl, PTy)
    return {"dom": PEl, "cod": PTy, "left": left}


def structure_shape(typeof: PshMap, w: ComprehensionWitness, kind: str):
    if kind == "Unit":
        return unit_shape(typeof, w)
    if kind == "Sigma":
        return sigma_shape(typeof, w)
    if kind in ("Id", "IdPlus"):
        return id_shape(typeof, w)
    if kind == "Pi":
        return pi_shape(typeof, w)
    raise ValueError(f"unknown structure kind {kind!r}")


# ---------------------------------------------------------------------------
# the lifting-problem object for intensional identity
# ---------------------------------------------------------------------------


def _exp_over(a: PshMap, wa: ComprehensionWitness, w: PshMap):
    """Exponential (A => W) in the slice over Ty, as a map to Ty.

    a : A -> Ty must be representable (checked precondition); w : W -> Ty.
    Computed as the pushforward along a of the pullback of w along a."""
    AW, p_a, p_w = pullback_of_maps(a, w)
    return pushforward(a, p_a, wa), AW, p_w


def id_plus_problem(typeof: PshMap, w: ComprehensionWitness, bottom: PshMap, top: PshMap):
    """The lifting-problem comparison map for an identity square.

    Returns (compare, P, Q): P is the object of uniform fillers
    (families over the identity object valued in El), Q the object of
    lifting problems of the reflexivity map against t, and compare the
    restriction/projection map P -> Q; an eliminator is a section of it.
    """
    base = typeof.base
    El, Ty = typeof.source, typeof.target
    sh = id_shape(typeof, w)
    I = sh["cod"]
    if bottom.source != I or bottom.target != Ty:
        raise ShapeMismatch("identity square bottom must map the pairing object to Ty")
    if top.source != El or top.target != El:
        raise ShapeMismatch("identity square top must be an endomap of El")

    # A = the family classified by the bottom edge, over Ty via its corner
    A, p_I, p_El = pullback_of_maps(bottom, typeof)
    a = p_El.then(typeof)
    wa = is_representable_map(a)
    if wa is None:
        raise NotRepresentable("identity family is not representable over Ty; exponential unavailable")

    # rho : El -> A over Ty, from the commuting square
    rho = PshMap(
        El,
        A,
        {o: {e: ((e, e), top.components[o][e]) for e in El.fibers[o]} for o in base.objects},
    )

    TyEl, tl, tr = product_psh(Ty, El)
    TyTy, sl, sr = product_psh(Ty, Ty)

    exp_A_El, pull_A_El, _ = _exp_over(a, wa, tl)
    exp_A_Ty, pull_A_Ty, _ = _exp_over(a, wa, sl)
    exp_El_El, pull_El_El, _ = _exp_over(typeof, w, tl)
    exp_El_Ty, pull_El_Ty, _ = _exp_over(typeof, w, sl)

    def post(aa, waa, expV, pullV, expW, pullW):
        phi = PshMap(
            pullV,
            pullW,
            {
                o: {
                    (x, (T, e)): (x, (T, typeof.components[o][e]))
                    for (x, (T, e)) in pullV.fibers[o]
                }
                for o in base.objects
            },
        )
        return pushforward_on_map(aa, waa, None, None, phi, expV, expW)

    post_A = post(a, wa, exp_A_El, pull_A_El, exp_A_Ty, pull_A_Ty)
    post_El = post(typeof, w, exp_El_El, pull_El_El, exp_El_Ty, pull_El_Ty)

    def restrict(expA, pullAW, expEl, pullElW, W):
        comps = {}
        for c in base.objects:
            comps[c] = {}
            for (T, x) in expA.source.fibers[c]:
                objE, projE, genE = w.data[(c, T)]
                rho_gen = rho.components[objE][genE]
                med = wa.mediate(c, T, objE, projE, rho_gen)
                xa, ww = x
                w2 = W.action[med][ww]
                comps[c][(T, x)] = (T, (genE, w2))
        return PshMap(expA.source, expEl.source, comps)

    restr_El = restrict(exp_A_El, pull_A_El, exp_El_El, pull_El_El, TyEl)
    restr_Ty = restrict(exp_A_Ty, pull_A_Ty, exp_El_Ty, pull_El_Ty, TyTy)

    # Q = (El => Ty*El) x_{(El => Ty*Ty)} (A => Ty*Ty)
    Q, q1, q2 = pullback_of_maps(post_El, restr_Ty)
    comps = {
        o: {
            x: (restr_El.components[o][x], post_A.components[o][x])
            for x in exp_A_El.source.fibers[o]
        }
        for o in base.objects
    }
    compare = PshMap(exp_A_El.source, Q, comps)
    return compare, exp_A_El.source, Q


def forced_id_plus_section(compare: PshMap) -> PshMap:
    """When the comparison map is invertible (always so for a genuine
    pullback identity square), its inverse is the unique eliminator."""
    if not compare.is_iso():
        raise RfibError("comparison map is not invertible; no forced section")
    return compare.inverse()


# ---------------------------------------------------------------------------
# checking and searching structures
# ---------------------------------------------------------------------------


def _commutes(typeof: PshMap, sh, bottom: PshMap, top: PshMap) -> bool:
    """typeof . top == bottom . left on every element of the shape's domain."""
    for o in typeof.base.objects:
        ty, tp = typeof.components[o], top.components[o]
        bt, lf = bottom.components[o], sh["left"].components[o]
        for x in sh["dom"].fibers[o]:
            if ty[tp[x]] != bt[lf[x]]:
                return False
    return True


def check_structure(typeof: PshMap, candidate: TypeStructure, w: ComprehensionWitness = None):
    """True iff the candidate square commutes and is a pullback (plus the
    section equation for the intensional identity kind).  Shape errors
    (wrong domains) raise ShapeMismatch instead of returning False."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("structures live on representable maps")
    return _check(typeof, w, structure_shape(typeof, w, candidate.kind), candidate)


def _check(typeof: PshMap, w: ComprehensionWitness, sh, candidate: TypeStructure):
    """check_structure against the shape sh of the candidate's kind."""
    kind = candidate.kind
    if candidate.bottom.source != sh["cod"] or candidate.bottom.target != typeof.target:
        raise ShapeMismatch(f"{kind} bottom edge has wrong endpoints")
    if candidate.top.source != sh["dom"] or candidate.top.target != typeof.source:
        raise ShapeMismatch(f"{kind} top edge has wrong endpoints")
    if not _commutes(typeof, sh, candidate.bottom, candidate.top):
        return False, "square does not commute"
    if kind != "IdPlus":
        if not is_pullback_square(candidate.top, sh["left"], typeof, candidate.bottom):
            return False, "square is not a pullback"
        return True, "ok"
    if candidate.elim is None:
        return False, "missing eliminator section"
    compare, P, Q = id_plus_problem(typeof, w, candidate.bottom, candidate.top)
    if candidate.elim.source != Q or candidate.elim.target != P:
        raise ShapeMismatch("eliminator must map lifting problems to fillers")
    if candidate.elim.then(compare) != identity_map(Q):
        return False, "eliminator is not a section of the comparison map"
    return True, "ok"


def find_structure(typeof: PshMap, kind: str, w: ComprehensionWitness = None, budget=500000):
    """First verified structure of the given kind in lexicographic
    candidate order (bottom map, then top map, then eliminator), or None
    after exhausting the finite search space.  Budget overrun raises
    Inconclusive.

    Only candidates that can pass are generated, so the first structure
    found is the one the unrestricted search would find; the full check
    still decides each.  Every square commutes: top(y) lies over
    bottom(left(y)).  In a pullback square left is a pullback of t, so
    representable, and by pasting and Yoneda its projection wl.proj(c, x)
    is isomorphic over c to the projection w.proj(c, bottom(x)) of t."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("structures live on representable maps")
    base = typeof.base
    Ty = typeof.target
    sh = structure_shape(typeof, w, kind)
    left = sh["left"]
    bottoms = None  # an IdPlus square need not be a pullback
    if kind != "IdPlus":
        wl = is_representable_map(left)
        if wl is None:
            return None
        types = {
            (c, x): [T for T in Ty.fibers[c] if arrows_iso_over(base, wl.proj(c, x), w.proj(c, T))]
            for c in base.objects
            for x in sh["cod"].fibers[c]
        }

        def bottoms(o, x):
            return types[(o, x)]

    for bottom in enumerate_maps(sh["cod"], Ty, candidates=bottoms, budget=budget):
        for top in enumerate_maps_over(left.then(bottom), typeof, budget=budget):
            if kind == "IdPlus":
                compare, P, Q = id_plus_problem(typeof, w, bottom, top)
                for elim in enumerate_maps_over(identity_map(Q), compare, budget=budget):
                    cand = TypeStructure(kind, bottom, top, elim)
                    if _check(typeof, w, sh, cand)[0]:
                        return cand
                continue
            cand = TypeStructure(kind, bottom, top)
            if _check(typeof, w, sh, cand)[0]:
                return cand
    return None


# ---------------------------------------------------------------------------
# closure criteria at their generic instances
# ---------------------------------------------------------------------------


def _generic_two_stage(typeof: PshMap, w):
    """The generic composable pair of pullbacks of t: the first stage is
    t pulled back along the canonical projection of P_t(Ty), the second
    is t pulled back along evaluation of the generic family."""
    base = typeof.base
    El, Ty = typeof.source, typeof.target
    kappa = polynomial_canonical_projection(typeof, Ty, w)  # P_t(Ty) -> Ty
    E1, top1, alpha, walpha = pullback_witness(typeof, w, kappa)
    # evaluation: an element ((T, S), e) with t(e) = T evaluates S at e
    comps = {}
    for c in base.objects:
        comps[c] = {}
        for (e, (T, S)) in E1.fibers[c]:
            sigma = w.unit_section(c, e)
            comps[c][(e, (T, S))] = Ty.action[sigma][S]
    lam = PshMap(E1, Ty, comps)
    E2, top2, beta, wbeta = pullback_witness(typeof, w, lam)
    return alpha, walpha, beta, wbeta


def _generic_instance(typeof: PshMap, w, kind: str) -> PshMap:
    """The map whose being a pullback of t is the kind's closure property."""
    if kind == "Unit":  # identity arrows, at the terminal identity
        return identity_map(terminal_psh(typeof.base))
    if kind == "Id":  # equalizers, at the two projections of El x_Ty El
        I, p1, p2 = pullback_of_maps(typeof, typeof)
        return equalizer_of_maps(p1, p2)[1]
    alpha, walpha, beta, wbeta = _generic_two_stage(typeof, w)
    if kind == "Sigma":  # composites, at the generic composable pair
        return beta.then(alpha)
    if kind == "Pi":  # pushforwards along classified maps, at the same pair
        return pushforward(alpha, beta, walpha)
    raise ValueError(f"no closure criterion for structure kind {kind!r}")


def structure_criteria(typeof: PshMap, w: ComprehensionWitness = None, kinds=("Unit", "Sigma", "Id", "Pi"), budget=500000) -> StructureReport:
    """For a univalent representable map, decide each closure property and
    the corresponding structure search, and record whether they agree
    (they must).  Non-univalent maps are rejected."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("criteria are stated for representable maps")
    uni = is_univalent(typeof, w, budget=budget)
    if not uni.ok:
        c, y1, y2, _ = uni.collision
        raise NotUnivalent(
            f"structure criteria require a univalent map: {y1!r} and {y2!r} "
            f"at {c!r} classify isomorphic maps"
        )
    report = StructureReport(univalent=True)
    for kind in kinds:
        try:
            classify(_generic_instance(typeof, w, kind), (typeof, w), budget=budget)
            closure = True
        except (NotRepresentable, Unclassifiable):
            closure = False
        found = find_structure(typeof, kind, w, budget=budget)
        report.verdicts[kind] = {
            "found": found,
            "closure": closure,
            "agree": (found is not None) == closure,
        }
    return report


def uniqueness_check(typeof: PshMap, s1: TypeStructure, s2: TypeStructure, w: ComprehensionWitness = None) -> bool:
    """Under univalence, two verified structures of one kind have equal
    classifying (bottom) maps."""
    if w is None:
        w = is_representable_map(typeof)
    uni = is_univalent(typeof, w)
    if not uni.ok:
        raise ValueError("uniqueness of structures is only guaranteed under univalence")
    if s1.kind != s2.kind:
        raise ValueError("cannot compare structures of different kinds")
    ok1, why1 = check_structure(typeof, s1, w)
    ok2, why2 = check_structure(typeof, s2, w)
    if not (ok1 and ok2):
        raise ValueError(f"uniqueness_check needs verified structures ({why1}; {why2})")
    return s1.bottom == s2.bottom


def check_left_exact_universe(typeof: PshMap, w: ComprehensionWitness = None, budget=500000):
    """Univalent + unit + pair + identity structures, with all witnesses
    bundled into the certificate."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("not a representable map")
    cert = {}
    uni = is_univalent(typeof, w, budget=budget)
    cert["univalent"] = uni
    if not uni.ok:
        return False, cert
    for kind in ("Unit", "Sigma", "Id"):
        s = find_structure(typeof, kind, w, budget=budget)
        cert[kind] = s
        if s is None:
            return False, cert
    return True, cert
