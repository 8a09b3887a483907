"""Batch driver: every subcommand reads files, runs one verification
suite, and writes a deterministic JSON report keyed by input hashes.

Exit status: 0 success, 1 verification failure, 2 malformed input,
3 budget-inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

from .corpus import corpus_generate
from .fincat import FiniteCategory, names, require_shape, validate_category
from .kernel import (
    KernelError,
    NormalizationBudget,
    ParseError,
    check_signature,
    infer_term,
    normalize,
    parse_signature,
    parse_term_text,
    pretty,
    shipped_signature_text,
)
from .models import (
    ModelBudget,
    ModelError,
    check_model,
    heart,
    initial_model,
    internal_language,
    is_democratic,
    contextual_objects,
    model_from_json,
    model_to_json,
)
from .rfib import Inconclusive, RfibError, Unclassifiable, rep_map_classifier, is_univalent
from .structures import NotUnivalent, structure_criteria

OK, FAIL, MALFORMED, INCONCLUSIVE = 0, 1, 2, 3


def _hash_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _read_sig(path):
    if path in ("tthg", "itth", "etth1", "itthpi", "tthr1"):
        return shipped_signature_text(path), f"shipped:{path}"
    return pathlib.Path(path).read_text(), path


class Run:
    def __init__(self, args):
        self.args = args
        self.report = {
            "tool": "rmtt",
            "subcommand": args.command,
            "inputs": {},
            "budgets": {
                "depth": args.depth,
                "fuel": args.fuel,
                "iso_budget": args.iso_budget,
            },
            "seed": args.seed,
        }

    def add_input(self, label, path):
        try:
            self.report["inputs"][label] = _hash_file(path)
        except OSError:
            self.report["inputs"][label] = f"shipped:{path}" if isinstance(path, str) else "?"

    def finish(self, status, result):
        self.report["result"] = result
        self.report["status"] = {OK: "ok", FAIL: "fail", MALFORMED: "malformed",
                                 INCONCLUSIVE: "inconclusive"}[status]
        text = json.dumps(self.report, indent=1, default=str) + "\n"
        if self.args.out:
            pathlib.Path(self.args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return status


def cmd_check_sig(run, args):
    try:
        text, label = _read_sig(args.signature)
    except OSError as e:
        return run.finish(MALFORMED, {"error": str(e)})
    run.add_input("signature", args.signature)
    try:
        rep = check_signature(text)
    except ParseError as e:
        return run.finish(MALFORMED, {"error": str(e)})
    result = {"valid": rep.ok, "issues": [{"where": i.where, "message": i.message} for i in rep.issues]}
    return run.finish(OK if rep.ok else FAIL, result)


def cmd_normalize(run, args):
    try:
        text, _ = _read_sig(args.signature)
        sig = parse_signature(text)
        term = parse_term_text(sig, args.term)
        infer_term(sig, (), term)
    except NormalizationBudget as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    except (OSError, KernelError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    run.add_input("signature", args.signature)
    try:
        nf = normalize(sig, term, fuel=args.fuel)
    except NormalizationBudget as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    return run.finish(OK, {"input": pretty(term), "normal_form": pretty(nf),
                           "changed": nf != term})


def _load_base(run, path):
    doc = json.loads(pathlib.Path(path).read_text())
    base = FiniteCategory.from_json(doc)
    rep = validate_category(base)
    if not rep.ok:
        raise ValueError("; ".join(i.message for i in rep.issues[:3]))
    run.add_input("base", path)
    return base


def cmd_classifier(run, args):
    try:
        base = _load_base(run, args.base)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    cls = rep_map_classifier(base)
    uni = is_univalent(cls.generic, cls.witness, budget=args.iso_budget)
    result = {
        "omega_fiber_sizes": [len(cls.omega.fibers[o]) for o in base.objects],
        "pointed_fiber_sizes": [len(cls.omega_pt.fibers[o]) for o in base.objects],
        "omega_fibers": {str(o): [str(a) for a in cls.omega.fibers[o]] for o in base.objects},
        "generic_univalent": uni.ok,
    }
    return run.finish(OK if uni.ok else FAIL, result)


def cmd_structures(run, args):
    try:
        base = _load_base(run, args.base)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    cls = rep_map_classifier(base)
    try:
        rep = structure_criteria(cls.generic, cls.witness, budget=args.iso_budget)
    except NotUnivalent as e:
        return run.finish(MALFORMED, {"error": str(e)})
    except Inconclusive as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    result = {
        kind: {"closure": v["closure"], "structure_found": v["found"] is not None,
               "agree": v["agree"]}
        for kind, v in rep.verdicts.items()
    }
    ok = all(v["agree"] for v in rep.verdicts.values())
    return run.finish(OK if ok else FAIL, result)


# what reading a model document can raise on malformed input
BAD_MODEL = (OSError, KernelError, RfibError, ValueError, KeyError, json.JSONDecodeError)


def _load_model(run, path):
    doc = json.loads(pathlib.Path(path).read_text())
    model = model_from_json(doc)
    run.add_input("model", path)
    return model


def cmd_check_model(run, args):
    try:
        model = _load_model(run, args.model)
    except BAD_MODEL as e:
        return run.finish(MALFORMED, {"error": str(e)})
    rep = check_model(model.sig, model)
    result = {"valid": rep.ok,
              "clauses": [{"clause": c, "ok": ok, "detail": d} for c, ok, d in rep.clauses]}
    return run.finish(OK if rep.ok else FAIL, result)


def cmd_heart(run, args):
    try:
        model = _load_model(run, args.model)
    except BAD_MODEL as e:
        return run.finish(MALFORMED, {"error": str(e)})
    ctx = contextual_objects(model)
    h = heart(model)
    result = {
        "contextual_objects": sorted(str(o) for o in ctx),
        "democratic": is_democratic(model),
        "heart_objects": [str(o) for o in h.base.objects],
    }
    if args.model_out:
        pathlib.Path(args.model_out).write_text(json.dumps(model_to_json(h), indent=1) + "\n")
    return run.finish(OK, result)


def cmd_il(run, args):
    try:
        model = _load_model(run, args.model)
    except BAD_MODEL as e:
        return run.finish(MALFORMED, {"error": str(e)})
    try:
        theory = internal_language(model, args.depth)
    except ModelBudget as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    result = theory.to_json()
    result["contexts"] = [[pretty(t) for t in ctx] for ctx in theory.contexts]
    return run.finish(OK, result)


def cmd_initial_model(run, args):
    try:
        text, _ = _read_sig(args.signature)
        sig = parse_signature(text)
    except (OSError, KernelError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    run.add_input("signature", args.signature)
    try:
        model = initial_model(sig, args.depth)
    except ModelBudget as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    rep = check_model(sig, model)
    result = {
        "objects": len(model.base.objects),
        "arrows": len(model.base.arrow_ids),
        "valid": rep.ok,
        "democratic": is_democratic(model),
    }
    if args.model_out:
        pathlib.Path(args.model_out).write_text(json.dumps(model_to_json(model), indent=1) + "\n")
    return run.finish(OK if rep.ok else FAIL, result)


def cmd_correspondence(run, args):
    try:
        text, _ = _read_sig(args.signature)
        parse_signature(text)
    except (OSError, KernelError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    run.add_input("signature", args.signature)
    from .acceptance import criterion_6

    name = args.signature if args.signature in ("tthg", "etth1", "itth", "itthpi") else None
    if name is None:
        return run.finish(MALFORMED, {"error": "correspondence runs on shipped signatures"})
    res = criterion_6(seed=args.seed, depth=args.depth, signatures=(name,))
    return run.finish(OK if res["ok"] else FAIL, res["detail"])


def cmd_lifting(run, args):
    from .acceptance import criterion_9

    try:
        res = criterion_9(seed=args.seed, depth=args.depth)
    except ModelBudget as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    return run.finish(OK if res["ok"] else FAIL, res["detail"])


def _attachment_rows(doc):
    """The rows of a cofibration document, {"attachments": [{"length": n,
    "top": "Ty" | "El", "terms": [term, ...]}, ...]}, shape-checked."""
    rows = doc.get("attachments") if isinstance(doc, dict) else None
    require_shape("cofibration", {"attachments": isinstance(rows, list)})
    for k, a in enumerate(rows):
        require_shape("cofibration", {f"attachments[{k}]": isinstance(a, dict)})
        require_shape("cofibration", {
            f"attachments[{k}].length": type(a.get("length")) is int and a["length"] >= 0,
            f"attachments[{k}].top": a.get("top") in ("Ty", "El"),
            f"attachments[{k}].terms": names(a.get("terms", [])),
        })
    return rows


def cmd_pushout(run, args):
    from .homotopy import Attachment, CofibrationPresentation, pushout_cofibration, added_constants
    from .kernel import print_signature as print_sig

    try:
        text, _ = _read_sig(args.signature)
        sig = parse_signature(text)
        doc = json.loads(pathlib.Path(args.cofibration).read_text())
        atts = []
        probe = sig
        for a in _attachment_rows(doc):
            terms = tuple(parse_term_text(probe, t) for t in a.get("terms", []))
            atts.append(Attachment(a["length"], a["top"], terms))
            probe = pushout_cofibration(probe, CofibrationPresentation.of(atts[-1]))
        cof = CofibrationPresentation.of(*atts)
    except (OSError, KernelError, ModelError, KeyError, ValueError, json.JSONDecodeError) as e:
        return run.finish(MALFORMED, {"error": str(e)})
    run.add_input("signature", args.signature)
    run.add_input("cofibration", args.cofibration)
    out = pushout_cofibration(sig, cof)
    added = added_constants(sig, out)
    result = {"added": [d.name for d in added], "signature": print_sig(out)}
    if args.model_out:
        pathlib.Path(args.model_out).write_text(print_sig(out))
    return run.finish(OK, result)


def cmd_suite(run, args):
    from .acceptance import run_all

    only = set(int(x) for x in args.only.split(",")) if args.only else None
    run.report["budgets"] = {}  # run_all takes none: each criterion runs at its own
    res = run_all(seed=args.seed, only=only)
    summary = {
        k: {"ok": v["ok"], "name": v["name"], "elapsed_s": v["elapsed_s"], "detail": v["detail"]}
        for k, v in res.items()
        if k != "ok"
    }
    return run.finish(OK if res["ok"] else FAIL, {"ok": res["ok"], "criteria": summary})


def cmd_corpus(run, args):
    docs = corpus_generate(seed=args.seed, out_dir=args.dir)
    return run.finish(OK, {"files": sorted(docs.keys()), "dir": args.dir})


def budget(text):
    """A budget flag's value: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser():
    # flags are accepted both before and after the subcommand; the
    # subparser must not clobber values parsed at the top level, so the
    # defaults are filled in afterwards
    common = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    common.add_argument("--depth", type=budget, default=sup)
    common.add_argument("--fuel", type=budget, default=sup)
    common.add_argument("--iso-budget", type=budget, default=sup)
    common.add_argument("--seed", type=int, default=sup)
    common.add_argument("--out", default=sup, help="write the report here instead of stdout")

    p = argparse.ArgumentParser(prog="rmtt", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("check-sig", help="validate a signature file")
    s.add_argument("signature")
    s.set_defaults(fn=cmd_check_sig)

    s = add_parser("normalize", help="normalize a closed term")
    s.add_argument("signature")
    s.add_argument("term")
    s.set_defaults(fn=cmd_normalize)

    s = add_parser("classifier", help="classifier data over a base category")
    s.add_argument("base")
    s.set_defaults(fn=cmd_classifier)

    s = add_parser("structures", help="structure criteria for the generic map")
    s.add_argument("base")
    s.set_defaults(fn=cmd_structures)

    s = add_parser("check-model", help="validate a serialized model")
    s.add_argument("model")
    s.set_defaults(fn=cmd_check_model)

    s = add_parser("heart", help="contextual objects and the heart of a model")
    s.add_argument("model")
    s.add_argument("--model-out")
    s.set_defaults(fn=cmd_heart)

    s = add_parser("il", help="internal language of a model at a depth")
    s.add_argument("model")
    s.set_defaults(fn=cmd_il)

    s = add_parser("initial-model", help="build the initial model at a depth")
    s.add_argument("signature")
    s.add_argument("--model-out")
    s.set_defaults(fn=cmd_initial_model)

    s = add_parser("correspondence", help="internal language vs hom-sets")
    s.add_argument("signature")
    s.set_defaults(fn=cmd_correspondence)

    s = add_parser("lifting", help="trivial-fibration verdicts vs brute force")
    s.set_defaults(fn=cmd_lifting)

    s = add_parser("pushout", help="push a free extension out along attachments")
    s.add_argument("signature")
    s.add_argument("cofibration")
    s.add_argument("--model-out")
    s.set_defaults(fn=cmd_pushout)

    s = add_parser("suite", help="run the acceptance criteria")
    s.add_argument("--only", help="comma-separated criterion numbers")
    s.set_defaults(fn=cmd_suite)

    s = add_parser("corpus", help="regenerate the seeded corpus")
    s.add_argument("--dir")
    s.set_defaults(fn=cmd_corpus)
    return p


DEFAULTS = {"depth": 2, "fuel": 20000, "iso_budget": 200000, "seed": 0, "out": None}


def main(argv=None):
    args = build_parser().parse_args(argv)
    for key, value in DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    run = Run(args)
    try:
        return args.fn(run, args)
    except (Inconclusive, NormalizationBudget) as e:
        return run.finish(INCONCLUSIVE, {"error": str(e)})
    except Unclassifiable as e:
        return run.finish(FAIL, {"error": str(e)})


if __name__ == "__main__":
    sys.exit(main())
