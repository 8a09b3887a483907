"""Batch driver: every subcommand reads files, runs one verification
suite, and writes a deterministic JSON report keyed by input hashes.

Exit status: 0 success, 1 verification failure, 2 malformed input,
3 budget-inconclusive (`search.Inconclusive`).  `main` is the only
place that maps an outcome to a status.  The loaders (`@loader`) raise
`Malformed` for any error in reading or checking a file or argument,
or in writing an output path; every `cmd_*` loads, computes and calls
`run.finish`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import pathlib
import sys

from .corpus import corpus_generate
from .fincat import FiniteCategory, names, require_shape, validate_category
from .kernel import (
    SHIPPED_SIGNATURES,
    check_signature,
    infer_term,
    normalize,
    parse_signature,
    parse_term_text,
    pretty,
    shipped_signature_text,
)
from .models import (
    check_model,
    heart,
    initial_model,
    internal_language,
    is_democratic,
    contextual_objects,
    model_from_json,
    model_to_json,
)
from .rfib import Unclassifiable, rep_map_classifier, is_univalent
from .search import Budget, Inconclusive
from .structures import NotUnivalent, structure_criteria

OK, FAIL, MALFORMED, INCONCLUSIVE = 0, 1, 2, 3


class Malformed(Exception):
    """An input that cannot be read or checked, or an output path that
    cannot be written."""


def loader(fn):
    """Mark fn as a loader: it only reads and checks an input the user
    named, or writes an output the user named, so whatever it raises,
    an Inconclusive aside, means that input or output is malformed."""
    def load(*args):
        try:
            return fn(*args)
        except (Malformed, Inconclusive):
            raise
        except Exception as e:
            raise Malformed(str(e)) from e
    return load


def _read(path):
    """The bytes of the file at path, read once, and their text: UTF-8
    with universal newlines, as `Path.read_text` decodes it."""
    data = pathlib.Path(path).read_bytes()
    return data, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


@loader
def _read_sig(run, path):
    """The text of a shipped signature named path, else of the file at
    path, recorded as the run's signature input."""
    if path in SHIPPED_SIGNATURES:
        run.report["inputs"]["signature"] = f"shipped:{path}"
        return shipped_signature_text(path)
    data, text = _read(path)
    run.add_input("signature", data)
    return text


@loader
def _load_sig(run, path):
    return parse_signature(_read_sig(run, path))


# raises ParseError on text that does not parse; type errors are issues
_check_sig = loader(check_signature)


@loader
def _write(path, text):
    pathlib.Path(path).write_text(text)


@loader
def _write_json(path, doc):
    """doc as `json.dumps(doc, indent=1)` and a newline, written as it is
    encoded rather than built in memory first."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


class Run:
    def __init__(self, args):
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

    def add_input(self, label, data):
        """Record the hash of an input's bytes, the ones that were checked."""
        self.report["inputs"][label] = hashlib.sha256(data).hexdigest()

    def finish(self, status, result):
        """Record the outcome; `main` writes the report."""
        self.report["result"] = result
        self.report["status"] = {OK: "ok", FAIL: "fail", MALFORMED: "malformed",
                                 INCONCLUSIVE: "inconclusive"}[status]
        return status


def cmd_check_sig(run, args):
    rep = _check_sig(_read_sig(run, args.signature))
    result = {"valid": rep.ok, "issues": [{"where": i.where, "message": i.message} for i in rep.issues]}
    return run.finish(OK if rep.ok else FAIL, result)


@loader
def _load_term(sig, text):
    """A closed term, parsed and type-checked against sig."""
    term = parse_term_text(sig, text)
    infer_term(sig, (), term)
    return term


def cmd_normalize(run, args):
    sig = _load_sig(run, args.signature)
    term = _load_term(sig, args.term)
    nf = normalize(sig, term, fuel=args.fuel)
    return run.finish(OK, {"input": pretty(term), "normal_form": pretty(nf),
                           "changed": nf != term})


def _require_category(base):
    rep = validate_category(base)
    if not rep.ok:
        raise Malformed("; ".join(i.message for i in rep.issues[:3]))


@loader
def _load_base(run, path):
    data, text = _read(path)
    base = FiniteCategory.from_json(json.loads(text))
    _require_category(base)
    run.add_input("base", data)
    return base


def cmd_classifier(run, args):
    base = _load_base(run, args.base)
    cls = rep_map_classifier(base)
    uni = is_univalent(cls.generic, cls.witness, budget=Budget("univalence search", args.iso_budget))
    result = {
        "omega_fiber_sizes": [len(cls.omega.fibers[o]) for o in base.objects],
        "pointed_fiber_sizes": [len(cls.omega_pt.fibers[o]) for o in base.objects],
        "omega_fibers": {str(o): [str(a) for a in cls.omega.fibers[o]] for o in base.objects},
        "generic_univalent": uni.ok,
    }
    return run.finish(OK if uni.ok else FAIL, result)


def cmd_structures(run, args):
    base = _load_base(run, args.base)
    cls = rep_map_classifier(base)
    # one count for the univalence, classification and structure searches
    rep = structure_criteria(cls.generic, cls.witness, budget=Budget("structure search", args.iso_budget))
    result = {
        kind: {"closure": v["closure"], "structure_found": v["found"] is not None,
               "agree": v["agree"]}
        for kind, v in rep.verdicts.items()
    }
    ok = all(v["agree"] for v in rep.verdicts.values())
    return run.finish(OK if ok else FAIL, result)


@loader
def _load_model(run, path):
    data, text = _read(path)
    model = model_from_json(json.loads(text))
    _require_category(model.base)
    run.add_input("model", data)
    return model


def cmd_check_model(run, args):
    model = _load_model(run, args.model)
    rep = check_model(model.sig, model)
    result = {"valid": rep.ok,
              "clauses": [{"clause": c, "ok": ok, "detail": d} for c, ok, d in rep.clauses]}
    return run.finish(OK if rep.ok else FAIL, result)


def cmd_heart(run, args):
    model = _load_model(run, args.model)
    ctx = contextual_objects(model)
    h = heart(model)
    result = {
        "contextual_objects": sorted(str(o) for o in ctx),
        "democratic": is_democratic(model),
        "heart_objects": [str(o) for o in h.base.objects],
    }
    if args.model_out:
        _write_json(args.model_out, model_to_json(h))
    return run.finish(OK, result)


def cmd_il(run, args):
    model = _load_model(run, args.model)
    theory = internal_language(model, args.depth)
    result = theory.to_json()
    result["contexts"] = [[pretty(t) for t in ctx] for ctx in theory.contexts]
    return run.finish(OK, result)


def cmd_initial_model(run, args):
    sig = _load_sig(run, args.signature)
    model = initial_model(sig, args.depth)
    rep = check_model(sig, model)
    result = {
        "objects": len(model.base.objects),
        "arrows": len(model.base.arrow_ids),
        "valid": rep.ok,
        "democratic": is_democratic(model),
    }
    if args.model_out:
        _write_json(args.model_out, model_to_json(model))
    return run.finish(OK if rep.ok else FAIL, result)


def cmd_correspondence(run, args):
    sig = _load_sig(run, args.signature)
    from .acceptance import SHIPPED, correspondence

    if args.signature not in SHIPPED:
        raise Malformed(f"correspondence runs on the signatures {', '.join(SHIPPED)}")
    res = correspondence(args.signature, sig, depth=args.depth)
    return run.finish(OK if res["ok"] else FAIL, res["detail"])


def cmd_lifting(run, args):
    from .acceptance import criterion_9

    res = criterion_9(seed=args.seed, depth=args.depth)
    return run.finish(OK if res["ok"] else FAIL, res["detail"])


@loader
def _load_cofibration(run, sig, path):
    """A cofibration document, {"attachments": [{"length": n, "top": "Ty" |
    "El", "terms": [term, ...]}, ...]}: its rows shape-checked, then each
    row's terms parsed in sig extended by the rows before it."""
    from .homotopy import Attachment, CofibrationPresentation, pushout_cofibration

    data, text = _read(path)
    doc = json.loads(text)
    rows = doc.get("attachments") if isinstance(doc, dict) else None
    require_shape("cofibration", {"attachments": isinstance(rows, list)})
    for k, a in enumerate(rows):
        require_shape("cofibration", {f"attachments[{k}]": isinstance(a, dict)})
        require_shape("cofibration", {
            f"attachments[{k}].length": type(a.get("length")) is int and a["length"] >= 0,
            f"attachments[{k}].top": a.get("top") in ("Ty", "El"),
            f"attachments[{k}].terms": names(a.get("terms", [])),
        })
    atts, probe = [], sig
    for a in rows:
        terms = tuple(parse_term_text(probe, t) for t in a.get("terms", []))
        atts.append(Attachment(a["length"], a["top"], terms))
        probe = pushout_cofibration(probe, CofibrationPresentation.of(atts[-1]))
    run.add_input("cofibration", data)
    return CofibrationPresentation.of(*atts)


def cmd_pushout(run, args):
    from .homotopy import pushout_cofibration, added_constants
    from .kernel import print_signature as print_sig

    sig = _load_sig(run, args.signature)
    cof = _load_cofibration(run, sig, args.cofibration)
    out = pushout_cofibration(sig, cof)
    added = added_constants(sig, out)
    result = {"added": [d.name for d in added], "signature": print_sig(out)}
    if args.model_out:
        _write(args.model_out, print_sig(out))
    return run.finish(OK, result)


@loader
def _criteria(text):
    """The criterion numbers of a comma-separated `--only` list."""
    from .acceptance import CRITERIA

    only = set(int(x) for x in text.split(","))
    unknown = sorted(only - {num for num, _, _ in CRITERIA})
    if unknown:
        raise Malformed(f"no criterion numbered {', '.join(map(str, unknown))}")
    return only


def cmd_suite(run, args):
    from .acceptance import run_all

    only = _criteria(args.only) if args.only else None
    run.report["budgets"] = {}  # run_all takes none: each criterion runs at its own
    res = run_all(seed=args.seed, only=only)
    summary = {
        k: {"ok": v["ok"], "name": v["name"], "elapsed_s": v["elapsed_s"], "detail": v["detail"]}
        for k, v in res.items()
        if k != "ok"
    }
    return run.finish(OK if res["ok"] else FAIL, {"ok": res["ok"], "criteria": summary})


@loader
def _write_corpus(out_dir, docs):
    d = pathlib.Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    for fname, doc in sorted(docs.items()):
        (d / fname).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def cmd_corpus(run, args):
    docs = corpus_generate(seed=args.seed)
    if args.dir is not None:
        _write_corpus(args.dir, docs)
    return run.finish(OK, {"files": sorted(docs.keys()), "dir": args.dir})


def budget(text):
    """A budget flag's value: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one in the process; callers must not change it."""
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
        status = args.fn(run, args)
    except (Malformed, NotUnivalent) as e:
        status = run.finish(MALFORMED, {"error": str(e)})
    except Inconclusive as e:
        status = run.finish(INCONCLUSIVE, {"error": str(e)})
    except Unclassifiable as e:
        status = run.finish(FAIL, {"error": str(e)})
    text = json.dumps(run.report, indent=1, default=str) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return status
    try:
        _write(args.out, text)
    except Malformed as e:  # the report has nowhere to go
        print(f"rmtt: cannot write the report: {e}", file=sys.stderr)
        return MALFORMED
    return status


if __name__ == "__main__":
    sys.exit(main())
