"""The benchmark's four workloads.

Each workload has `setup()` (make the inputs from the seed and validate
them; this is what `setup_s` times), `run_round()` (one round of the
timed operations, always the same operations in the same order for a
given seed) and `check(first)` (output checks on the first round's
outputs, run outside the timed span; the runner also checks that every
round's summary equals the first's).

Where rmtt has a subcommand for the work, a round drives it through
`rmtt.cli.main` in-process; otherwise it calls the public functions of
`rmtt.kernel`, `rmtt.models` and `rmtt.homotopy`.  Functions are looked
up on their modules at call time, so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import shutil
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
SHIPPED = ("tthg", "etth1", "itth", "itthpi")


def cli(*argv):
    """Run `rmtt <argv>` in-process; the exit status and the parsed report."""
    import rmtt.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = rmtt.cli.main([str(a) for a in argv])
    return status, json.loads(buf.getvalue())


@dataclass
class Round:
    outputs: list  # full outputs, checked on the first round only
    summary: object  # compared across rounds
    attempted: int = 0
    failed: int = 0
    failed_ops: list = field(default_factory=list)


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# correspondence: `rmtt correspondence <sig>` (acceptance criterion 6)
# ---------------------------------------------------------------------------


class Correspondence:
    """Every shipped signature at depth 2, in seeded order."""

    name = "correspondence"

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.depth = 1 if quick else 2
        self.order = _shuffled(SHIPPED, random.Random(f"{seed}:correspondence"))

    def setup(self):
        from rmtt import kernel

        for name in self.order:
            rep = kernel.check_signature(kernel.shipped_signature_text(name))
            if not rep.ok:
                raise ValueError(f"shipped signature {name} does not validate")

    def run_round(self):
        outputs = []
        failed = []
        for name in self.order:
            status, report = cli("correspondence", name, "--depth", self.depth, "--seed", self.seed)
            outputs.append((name, status, report))
            if status != 0:
                failed.append(name)
        summary = [(n, s, r["result"]) for n, s, r in outputs]
        return Round(outputs, summary, len(outputs), len(failed), failed)

    def check(self, first):
        from rmtt import kernel

        problems = []
        for name, status, report in first.outputs:
            result = report["result"]
            if status != 0 or report["status"] != "ok" or result.get("failures"):
                problems.append(f"{name}: status {status} {report['status']} {result}")
                continue
            # every ordered pair (A, B) of framework contexts is checked once
            sig = kernel.parse_signature(kernel.shipped_signature_text(name))
            n = len(kernel.enumerate_framework_contexts(sig, self.depth))
            if result["checked"] != n * n:
                problems.append(f"{name}: checked {result['checked']} pairs, expected {n}^2")
        return problems


# ---------------------------------------------------------------------------
# structures: `rmtt structures <base>` on small posets and two pinned bases
# ---------------------------------------------------------------------------


def poset_doc(n, less, order, names):
    """Base-category JSON of the poset with strict order `less` on 0..n-1,
    its objects listed in `order` and named by `names`."""
    rank = {o: k for k, o in enumerate(order)}
    rel = [(o, o) for o in order] + sorted(map(tuple, less), key=lambda p: (rank[p[0]], rank[p[1]]))
    aid = {(s, t): f"id{names[s]}" if s == t else f"a{names[s]}_{names[t]}" for s, t in rel}
    return {
        "objects": [names[o] for o in order],
        "arrows": [{"id": aid[p], "src": names[p[0]], "tgt": names[p[1]]} for p in rel],
        "identities": {names[o]: aid[(o, o)] for o in order},
        "compose": [[aid[(b, c)], aid[(a, b)], aid[(a, c)]]
                    for (a, b) in rel for (b2, c) in rel if b == b2],
    }


def omega_fibre_sizes(objects, leq):
    """Independent count of the classifier's fibres over a poset: the
    pullback-stable arrows into c are the d <= c whose meet with every
    e <= c exists."""

    def meet_exists(d, e):
        lower = [x for x in objects if leq(x, d) and leq(x, e)]
        return any(all(leq(y, x) for y in lower) for x in lower)

    return {
        c: sum(1 for d in objects if leq(d, c)
               and all(meet_exists(d, e) for e in objects if leq(e, c)))
        for c in objects
    }


def _as_poset(base):
    """The order relation of a base with at most one arrow per hom-set and
    no cycles, or None for any other base."""
    leq = set()
    for o in base.objects:
        for p in base.objects:
            hom = base.hom(o, p)
            if len(hom) > 1:
                return None
            if hom:
                leq.add((o, p))
    if any((b, a) in leq for a, b in leq if a != b):
        return None
    return leq


class Structures:
    """The 21 posets with 3 or 4 elements up to isomorphism (posets.json),
    plus `span_category()` and `parallel_pair()` from rmtt.corpus.  The
    seed names the posets' objects and orders the bases within a round;
    the poset whose search is inconclusive keeps fixed names, so that
    this one counted failure does not depend on the seed."""

    name = "structures"

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.sizes = (2, 3) if quick else (3, 4)
        self.workdir = workdir
        self.rng = random.Random(f"{seed}:structures")
        self.bases = []  # (label, path, base, relation or None)
        self.inconclusive = None

    def _names(self, n):
        letters = "abcdefghjkmnpqrstuvwxyz"
        picks = self.rng.sample(letters, n)
        return {o: f"{picks[o]}{self.rng.randrange(100)}" for o in range(n)}

    def setup(self):
        from rmtt import corpus, fincat
        from posets import INCONCLUSIVE

        docs = []
        for k, entry in enumerate(json.loads((HERE / "posets.json").read_text())):
            if entry["n"] not in self.sizes:
                continue
            n = entry["n"]
            if entry["less"] == INCONCLUSIVE["less"] and entry["order"] == INCONCLUSIVE["order"]:
                names = {o: str(o) for o in range(n)}
                self.inconclusive = f"poset{k}"
            else:
                names = self._names(n)
            docs.append((f"poset{k}", poset_doc(n, entry["less"], entry["order"], names)))
        docs.append(("span", corpus.span_category().to_json()))
        docs.append(("parallel", corpus.parallel_pair().to_json()))
        self.workdir.mkdir(parents=True, exist_ok=True)
        for label, doc in _shuffled(docs, self.rng):
            path = self.workdir / f"base_{label}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            base = fincat.FiniteCategory.from_json(json.loads(path.read_text()))
            rep = fincat.validate_category(base)
            if not rep.ok:
                raise ValueError(f"{label}: {[i.message for i in rep.issues[:3]]}")
            self.bases.append((label, path, base, _as_poset(base)))

    def run_round(self):
        import rmtt.cli

        # keep each verdict's found structures for the output checks: the
        # report of `rmtt structures` says only whether one was found
        captured = []
        original = rmtt.cli.structure_criteria

        def capture(typeof, w, **kw):
            report = original(typeof, w, **kw)
            captured.append((typeof, w, report))
            return report

        rmtt.cli.structure_criteria = capture
        try:
            outputs, failed = [], []
            for label, path, base, leq in self.bases:
                captured.clear()
                status, report = cli("structures", path, "--seed", self.seed)
                outputs.append((label, status, report, captured[-1] if captured else None))
                if status != 0:
                    failed.append(label)
        finally:
            rmtt.cli.structure_criteria = original
        summary = [(label, status, report["status"], report["result"])
                   for label, status, report, _ in outputs]
        return Round(outputs, summary, len(outputs), len(failed), failed)

    def check(self, first):
        from rmtt import rfib, structures

        problems = []
        bases = {label: (base, leq) for label, _, base, leq in self.bases}
        for label, status, report, captured in first.outputs:
            base, leq = bases[label]
            if status == 3 and label == self.inconclusive:
                if "budget" not in report["result"].get("error", ""):
                    problems.append(f"{label}: inconclusive without naming its budget")
            elif status != 0 or report["status"] != "ok":
                problems.append(f"{label}: status {status} {report['result']}")
            elif set(report["result"]) != {"Unit", "Sigma", "Id", "Pi"}:
                problems.append(f"{label}: verdicts for {sorted(report['result'])}")
            else:
                typeof, w, rep = captured
                for kind, v in report["result"].items():
                    found = rep.verdicts[kind]["found"]
                    if v["closure"] != v["structure_found"] or not v["agree"]:
                        problems.append(f"{label} {kind}: closure {v['closure']} but found {v['structure_found']}")
                    if v["structure_found"] != (found is not None):
                        problems.append(f"{label} {kind}: report and search disagree")
                    if found is not None and structures.check_structure(typeof, found, w) != (True, "ok"):
                        problems.append(f"{label} {kind}: found structure fails check_structure")
            cls = rfib.rep_map_classifier(base)
            if not rfib.is_univalent(cls.generic, cls.witness).ok:
                problems.append(f"{label}: generic map not univalent")
            if leq is not None:
                want = omega_fibre_sizes(base.objects, lambda a, b: (a, b) in leq)
                got = {c: len(cls.omega.fibers[c]) for c in base.objects}
                if want != got:
                    problems.append(f"{label}: omega fibres {got}, expected {want}")
        return problems

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# kernel: enumeration, typing and normalization on fresh signatures
# ---------------------------------------------------------------------------

# closed terms with hand-derived normal forms
UNIT_FAMILY = r"\(x : El(Unit)) => Unit"
UNIT_PAIR = f"pair(Unit, {UNIT_FAMILY}, tt, tt)"
KNOWN_NORMAL_FORMS = [
    ("itth", f"fst(Unit, {UNIT_FAMILY}, {UNIT_PAIR})", "tt"),
    ("itth", f"snd(Unit, {UNIT_FAMILY}, {UNIT_PAIR})", "tt"),
    ("etth1", f"pair(Unit, {UNIT_FAMILY}, fst(Unit, {UNIT_FAMILY}, {UNIT_PAIR}), snd(Unit, {UNIT_FAMILY}, {UNIT_PAIR}))",
     UNIT_PAIR),
    ("itthpi", rf"app(Unit, {UNIT_FAMILY}, lam(Unit, {UNIT_FAMILY}, \(x : El(Unit)) => x), tt)", "tt"),
    ("itthpi", rf"fst(Unit, {UNIT_FAMILY}, pair(Unit, {UNIT_FAMILY}, app(Unit, {UNIT_FAMILY}, lam(Unit, {UNIT_FAMILY}, \(x : El(Unit)) => x), tt), tt))", "tt"),
]


class Kernel:
    """For each shipped signature, freshly parsed so that its normal-form
    and term-enumeration caches start empty: the framework contexts at
    depth 2, every term of every type (size <= 4) in each of them up to
    size 7 (criterion 5 stops at 6), and for each term subject reduction,
    normalization idempotence and the substitution lemma against a
    seeded closing substitution."""

    name = "kernel"

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.depth, self.type_size, self.term_size, self.subst_size = (1, 4, 5, 4) if quick else (2, 4, 7, 4)
        self.order = _shuffled(SHIPPED, random.Random(f"{seed}:kernel"))
        self.texts = {}

    def setup(self):
        from rmtt import kernel

        for name in self.order:
            text = kernel.shipped_signature_text(name)
            if not kernel.check_signature(text).ok:
                raise ValueError(f"shipped signature {name} does not validate")
            self.texts[name] = text

    def _signature(self, name):
        from rmtt import kernel

        sig = kernel.parse_signature(self.texts[name])
        if name == "tthg":  # no closed terms otherwise
            sig = sig.extended([
                kernel.Declaration("o", (), kernel.SortApp("Ty")),
                kernel.Declaration("c", (), kernel.SortApp("El", (kernel.Const("o"),))),
            ])
        return sig

    def run_round(self):
        from rmtt import kernel

        outputs, failed, attempted = [], [], 0
        for name in self.order:
            sig = self._signature(name)
            rng = random.Random(f"{self.seed}:{name}")
            rows = []
            ctxs = kernel.enumerate_framework_contexts(sig, self.depth)
            for ctx in ctxs:
                subs = kernel.enumerate_substitutions(sig, (), ctx, self.subst_size)
                for ty in kernel.enumerate_types(sig, ctx, self.type_size):
                    for t in kernel.enumerate_terms(sig, ctx, ty, self.term_size, normal_only=False):
                        attempted += 1
                        try:
                            before = kernel.infer_term(sig, ctx, t)
                            nf = kernel.normalize(sig, t)
                            after = kernel.infer_term(sig, ctx, nf)
                            reduction = kernel.conv(sig, before, after)
                            idempotent = kernel.normalize(sig, nf) == nf
                            lemma = None
                            if subs:
                                s = subs[rng.randrange(len(subs))]
                                lemma = (kernel.normalize(sig, kernel.instantiate_many(t, s))
                                         == kernel.normalize(sig, kernel.instantiate_many(nf, s)))
                        except kernel.KernelError as e:
                            failed.append((name, kernel.pretty(t), str(e)))
                            continue
                        rows.append((reduction, idempotent, lemma))
            outputs.append((name, len(ctxs), rows))
        summary = [(name, n, len(rows), rows.count((True, True, True))) for name, n, rows in outputs]
        return Round(outputs, summary, attempted, len(failed), failed)

    def check(self, first):
        from rmtt import kernel

        problems = []
        for name, n, rows in first.outputs:
            if not rows:
                problems.append(f"{name}: no terms enumerated")
            if any(r is False for row in rows for r in row):
                problems.append(f"{name}: {sum(False in row for row in rows)} terms break "
                                "subject reduction, idempotence or the substitution lemma")
            if all(row[2] is None for row in rows):
                problems.append(f"{name}: no term had a closing substitution")
        for name, text, expected in KNOWN_NORMAL_FORMS:
            sig = kernel.load_signature(name)
            nf = kernel.normalize(sig, kernel.parse_term_text(sig, text))
            if nf != kernel.parse_term_text(sig, expected):
                problems.append(f"{name}: {text} normalized to {kernel.pretty(nf)}, expected {expected}")
        return problems


# ---------------------------------------------------------------------------
# initiality: initial models, morphism search, lifting verdicts
# ---------------------------------------------------------------------------


class Initiality:
    """The depth-bounded initial model of each shipped signature (depth 3
    for itth, 2 for the others), an exhaustive search for morphisms from it
    into the classifier models over the terminal category, Delta1, [2] and
    the span, then `rmtt lifting` (criterion 9).  The seed orders the
    signatures and the targets."""

    name = "initiality"

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.quick = quick
        rng = random.Random(f"{seed}:initiality")
        self.order = _shuffled(("tthg", "itth") if quick else SHIPPED, rng)
        self.target_names = _shuffled(("terminal", "delta1") if quick else
                                      ("terminal", "delta1", "chain2", "span"), rng)
        self.texts = {}
        self.targets = {}

    def depth(self, name):
        return 1 if self.quick else 3 if name == "itth" else 2

    def setup(self):
        from rmtt import corpus, fincat, kernel

        make = {"terminal": fincat.terminal_category, "delta1": fincat.delta1,
                "chain2": lambda: fincat.chain_poset(2), "span": corpus.span_category}
        for name in self.order:
            text = kernel.shipped_signature_text(name)
            if not kernel.check_signature(text).ok:
                raise ValueError(f"shipped signature {name} does not validate")
            self.texts[name] = text
        for t in self.target_names:
            base = make[t]()
            if not fincat.validate_category(base).ok:
                raise ValueError(f"target base {t} does not validate")
            self.targets[t] = base

    def run_round(self):
        from rmtt import kernel, models

        outputs, failed, attempted = [], [], 0
        for name in self.order:
            sig = kernel.parse_signature(self.texts[name])
            depth = self.depth(name)
            attempted += 1
            initial = models.initial_model(sig, depth, type_size=4, term_size=4)
            valid = models.check_model(sig, initial)
            searches = []
            for t in self.target_names:
                attempted += 1
                target = models.classifier_model(sig, self.targets[t])
                morphism, report, found = models.unique_morphism_from_initial(
                    sig, depth, target, initial=initial)
                searches.append((t, target, morphism, report, found))
            outputs.append((name, sig, initial, valid, searches))
        attempted += 1
        status, lifting = cli("lifting", "--depth", 2, "--seed", self.seed)
        if status != 0:
            failed.append("lifting")
        outputs.append(("lifting", status, lifting))
        summary = [(name, len(initial.base.objects), len(initial.base.arrow_ids), valid.ok,
                    [(t, report.ok, len(found)) for t, _, _, report, found in searches])
                   for name, _, initial, valid, searches in outputs[:-1]]
        summary.append(("lifting", status, lifting["result"]))
        return Round(outputs, summary, attempted, len(failed), failed)

    def check(self, first):
        from rmtt import models

        def key(m):
            return (m.functor.object_map, m.functor.arrow_map,
                    {n: {c: dict(v) for c, v in comp.items()} for n, comp in m.components.items()})

        problems = []
        for name, sig, initial, valid, searches in first.outputs[:-1]:
            if not valid.ok:
                problems.append(f"{name}: initial model fails check_model: {valid.failed()}")
            for t, target, morphism, report, found in searches:
                if not models.check_model(sig, target).ok:
                    problems.append(f"{name} -> {t}: classifier model fails check_model")
                if not report.ok:
                    problems.append(f"{name} -> {t}: canonical morphism fails check_morphism")
                if len(found) != 1:
                    problems.append(f"{name} -> {t}: {len(found)} morphisms found, expected 1")
                elif key(found[0]) != key(morphism):
                    problems.append(f"{name} -> {t}: the found morphism is not the canonical one")
        _, status, lifting = first.outputs[-1]
        rows = {row[0]: row[1:] for row in lifting["result"].get("rows", [])}
        expect = {"identity": True, "heart-inclusion": True, "initial-to-classifier": False}
        if status != 0:
            problems.append(f"lifting: status {status} {lifting['result']}")
        for tag, verdict in expect.items():
            if tag not in rows or rows[tag][0] != verdict:
                problems.append(f"lifting: {tag} should be {'a' if verdict else 'no'} trivial fibration")
        if not rows or not all(agree for _, _, agree in rows.values()):
            problems.append(f"lifting: type/term-lifting and brute-force verdicts disagree: {rows}")
        return problems


WORKLOADS = {w.name: w for w in (Correspondence, Structures, Kernel, Initiality)}
