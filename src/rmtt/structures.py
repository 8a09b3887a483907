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
    enumerate_maps,
    equalizer_of_maps,
    find_iso_over,
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
    """Does the square with the given edges commute and satisfy the
    universal property?  Verified by comparing against the canonical
    pointwise pullback of (bottom, right)."""
    A = top.source
    if left.source != A or top.target != right.source or left.target != bottom.source:
        return False
    if right.target != bottom.target:
        return False
    for o in A.base.objects:
        for x in A.fibers[o]:
            if right.components[o][top.components[o][x]] != bottom.components[o][left.components[o][x]]:
                return False
    P, pb, pr = pullback_of_maps(bottom, right)
    comps = {
        o: {x: (left.components[o][x], top.components[o][x]) for x in A.fibers[o]}
        for o in A.base.objects
    }
    cmp_map = PshMap(A, P, comps, validate=False)
    return cmp_map.is_iso()


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
    I, diag = sh["cod"], sh["left"]
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
    t_as_family = typeof
    wt = w

    # rho : El -> A over Ty, from the commuting square
    rho = PshMap(
        El,
        A,
        {o: {e: ((e, e), top.components[o][e]) for e in El.fibers[o]} for o in base.objects},
    )

    TyEl, tl, tr = product_psh(Ty, El)
    TyTy, sl, sr = product_psh(Ty, Ty)
    m = PshMap(
        TyEl,
        TyTy,
        {
            o: {(T, e): (T, typeof.components[o][e]) for (T, e) in TyEl.fibers[o]}
            for o in base.objects
        },
    )

    exp_A_El, pull_A_El, _ = _exp_over(a, wa, tl)
    exp_A_Ty, pull_A_Ty, _ = _exp_over(a, wa, sl)
    exp_El_El, pull_El_El, _ = _exp_over(t_as_family, wt, tl)
    exp_El_Ty, pull_El_Ty, _ = _exp_over(t_as_family, wt, sl)

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
    post_El = post(t_as_family, wt, exp_El_El, pull_El_El, exp_El_Ty, pull_El_Ty)

    def restrict(expA, pullAW, expEl, pullElW, W):
        comps = {}
        for c in base.objects:
            comps[c] = {}
            for (T, x) in expA.source.fibers[c]:
                objE, projE, genE = wt.data[(c, T)]
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
    kind = candidate.kind
    sh = structure_shape(typeof, w, kind)
    if candidate.bottom.source != sh["cod"] or candidate.bottom.target != typeof.target:
        raise ShapeMismatch(f"{kind} bottom edge has wrong endpoints")
    if candidate.top.source != sh["dom"] or candidate.top.target != typeof.source:
        raise ShapeMismatch(f"{kind} top edge has wrong endpoints")
    if kind == "IdPlus":
        if not _commutes(typeof, sh, candidate.bottom, candidate.top):
            return False, "square does not commute"
        if candidate.elim is None:
            return False, "missing eliminator section"
        compare, P, Q = id_plus_problem(typeof, w, candidate.bottom, candidate.top)
        if candidate.elim.source != Q or candidate.elim.target != P:
            raise ShapeMismatch("eliminator must map lifting problems to fillers")
        if candidate.elim.then(compare) != identity_map(Q):
            return False, "eliminator is not a section of the comparison map"
        return True, "ok"
    ok = is_pullback_square(candidate.top, sh["left"], typeof, candidate.bottom)
    if not ok:
        # distinguish commutation failure for reporting
        if not _commutes(typeof, sh, candidate.bottom, candidate.top):
            return False, "square does not commute"
        return False, "square is not a pullback"
    return True, "ok"


def find_structure(typeof: PshMap, kind: str, w: ComprehensionWitness = None, budget=500000):
    """First verified structure of the given kind in lexicographic
    candidate order (bottom map, then top map, then eliminator), or None
    after exhausting the finite search space.  Budget overrun raises
    Inconclusive."""
    if w is None:
        w = is_representable_map(typeof)
        if w is None:
            raise NotRepresentable("structures live on representable maps")
    sh = structure_shape(typeof, w, kind)
    for bottom in enumerate_maps(sh["cod"], typeof.target, budget=budget):
        for top in enumerate_maps(sh["dom"], typeof.source, budget=budget):
            cand = TypeStructure(kind, bottom, top)
            if kind == "IdPlus":
                if not _commutes(typeof, sh, bottom, top):
                    continue
                compare, P, Q = id_plus_problem(typeof, w, bottom, top)

                def preimages(o, x):
                    return [p for p in P.fibers[o] if compare.components[o][p] == x]

                for elim in enumerate_maps(Q, P, candidates=preimages, budget=budget):
                    cand2 = TypeStructure(kind, bottom, top, elim)
                    ok, _ = check_structure(typeof, cand2, w)
                    if ok:
                        return cand2
                continue
            ok, _ = check_structure(typeof, cand, w)
            if ok:
                return cand
    return None


# ---------------------------------------------------------------------------
# closure criteria at their generic instances
# ---------------------------------------------------------------------------


def _classified_by(typeof: PshMap, w, g: PshMap, budget=500000):
    """Is g a pullback of typeof?  Search for a map of its target into Ty
    whose pullback of typeof is isomorphic to g over the target."""
    Ty = typeof.target
    for chi in enumerate_maps(g.target, Ty, budget=budget):
        P, p_chi_src, p_el = pullback_of_maps(chi, typeof)
        left = PshMap(
            P,
            g.target,
            {o: {(x, e): x for (x, e) in P.fibers[o]} for o in g.base.objects},
            validate=False,
        )
        if find_iso_over(left, g, budget=budget) is not None:
            return chi
    return None


def _unit_closure(typeof: PshMap, w, budget) -> bool:
    """Are identity arrows pullbacks of t?  Decided at the terminal
    identity: a global section of Ty with singleton comprehension fibers."""
    base = typeof.base
    Ty = typeof.target
    one = terminal_psh(base)
    for chi in enumerate_maps(one, Ty, budget=budget):
        good = True
        for c in base.objects:
            T = chi.components[c][()]
            fib = [e for e in typeof.source.fibers[c] if typeof.components[c][e] == T]
            if len(fib) != 1:
                good = False
                break
        if good:
            return True
    return False


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


def _sigma_closure(typeof, w, budget) -> bool:
    alpha, walpha, beta, wbeta = _generic_two_stage(typeof, w)
    composite = beta.then(alpha)
    return _classified_by(typeof, w, composite, budget) is not None


def _id_closure(typeof, w, budget) -> bool:
    """Closure of pullbacks of t under equalizers, at the generic
    instance: the equalizer of the two projections of El x_Ty El."""
    I, p1, p2 = pullback_of_maps(typeof, typeof)
    Eq, inc = equalizer_of_maps(p1, p2)
    return _classified_by(typeof, w, inc, budget) is not None


def _pi_closure(typeof, w, budget) -> bool:
    """Closure under pushforwards of classified maps along classified
    maps, at the generic instance."""
    alpha, walpha, beta, wbeta = _generic_two_stage(typeof, w)
    pf = pushforward(alpha, beta, walpha)
    return _classified_by(typeof, w, pf, budget) is not None


_CLOSURES = {
    "Unit": _unit_closure,
    "Sigma": _sigma_closure,
    "Id": _id_closure,
    "Pi": _pi_closure,
}


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
        closure = _CLOSURES[kind](typeof, w, budget)
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
    uni = is_univalent(typeof, w)
    cert["univalent"] = uni
    if not uni.ok:
        return False, cert
    for kind in ("Unit", "Sigma", "Id"):
        s = find_structure(typeof, kind, w, budget=budget)
        cert[kind] = s
        if s is None:
            return False, cert
    return True, cert
