"""Spans around rmtt's public functions, recorded from outside the
package.

`Tracer.install()` replaces each traced function at every place it is
bound across rmtt's modules (`structures` and `acceptance` import
functions by name, and `rmtt.kernel` re-exports its submodules'
functions), so a call is traced whichever binding it goes through.
`uninstall()` puts the originals back.

A span is one call, or one resumption of a generator up to its next
yield.  Self time is a span's duration minus the durations of the spans
it directly encloses.  Aggregates are exact; the raw spans are kept in
memory up to `SPAN_CAP` and written out by `write_spans`.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter

# (layer name, defining module, attribute; "Class.method" for methods)
TARGETS = [
    ("fincat.validate_category", "rmtt.fincat", "validate_category"),
    ("rfib.presheaf_validate", "rmtt.rfib", "Presheaf.violations"),
    ("rfib.pshmap_validate", "rmtt.rfib", "PshMap.violations"),
    ("rfib.enumerate_maps", "rmtt.rfib", "enumerate_maps"),
    ("rfib.polynomial_apply", "rmtt.rfib", "polynomial_apply"),
    ("rfib.pullback_of_maps", "rmtt.rfib", "pullback_of_maps"),
    ("rfib.find_iso", "rmtt.rfib", "find_iso"),
    ("rfib.rep_map_classifier", "rmtt.rfib", "rep_map_classifier"),
    ("rfib.is_univalent", "rmtt.rfib", "is_univalent"),
    ("structures.structure_criteria", "rmtt.structures", "structure_criteria"),
    ("structures.find_structure", "rmtt.structures", "find_structure"),
    ("structures.check_structure", "rmtt.structures", "check_structure"),
    ("kernel.normalize", "rmtt.kernel.check", "normalize"),
    ("kernel.infer_term", "rmtt.kernel.check", "infer_term"),
    ("kernel.conv", "rmtt.kernel.check", "conv"),
    ("kernel.instantiate_many", "rmtt.kernel.terms", "instantiate_many"),
    ("kernel.enumerate_terms", "rmtt.kernel.contexts", "enumerate_terms"),
    ("kernel.enumerate_substitutions", "rmtt.kernel.contexts", "enumerate_substitutions"),
    ("kernel.enumerate_framework_contexts", "rmtt.kernel.contexts", "enumerate_framework_contexts"),
    ("models.eval_term", "rmtt.models", "eval_term"),
    ("models.interpret_context", "rmtt.models", "interpret_context"),
    ("models.syntactic_model", "rmtt.models", "syntactic_model"),
    ("models.initial_model", "rmtt.models", "initial_model"),
    ("models.classifier_model", "rmtt.models", "classifier_model"),
    ("models.enumerate_model_morphisms", "rmtt.models", "enumerate_model_morphisms"),
    ("models.check_model", "rmtt.models", "check_model"),
    ("models.check_morphism", "rmtt.models", "check_morphism"),
    ("homotopy.is_trivial_fibration", "rmtt.homotopy", "is_trivial_fibration"),
    ("homotopy.type_term_lifting", "rmtt.homotopy", "type_term_lifting"),
    ("homotopy.rlp_against_generating", "rmtt.homotopy", "rlp_against_generating"),
]


def _presheaf_elements(args, kwargs, result):
    # sum over arrows of the size of the target fibre: the work of one validation
    P = args[0]
    return sum(len(P.fibers[P.base.tgt[a]]) for a in P.base.arrow_ids)


def _length(args, kwargs, result):
    return len(result)


def _found(args, kwargs, result):
    return int(result is not None)


# counts kept beside a layer's calls: layer -> (count name, f(args, kwargs,
# result)); a generator's count is the number of items it yields
COUNTS = {
    "rfib.presheaf_validate": ("elements", _presheaf_elements),
    "rfib.enumerate_maps": ("yields", None),
    "kernel.enumerate_terms": ("results", _length),
    "kernel.enumerate_substitutions": ("results", _length),
    "models.enumerate_model_morphisms": ("found", _length),
    "structures.find_structure": ("found", _found),
}

SPAN_CAP = 200_000


def metric_names():
    """Every per-layer metric a traced run reports, with its unit and
    better direction, in a fixed order."""
    out = []
    for name, module, attr in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in COUNTS:
            better = "higher" if COUNTS[name][0] == "found" else "lower"
            out.append((f"{name}.{COUNTS[name][0]}", "count", better))
    out.append(("structures.found_per_candidate", "ratio", "higher"))
    # whole-round figures of the traced run itself
    out += [("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


def _import_all_rmtt():
    import rmtt

    for info in pkgutil.walk_packages(rmtt.__path__, "rmtt."):
        importlib.import_module(info.name)


class Tracer:
    def __init__(self):
        n = len(TARGETS)
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = [0] * n
        self._stack = []  # frames: [layer index, start, child time, span seq]
        self.spans = 0  # spans opened, kept or not
        self.spans_dropped = 0
        self._span_name = array.array("H")
        self._span_seq = array.array("q")
        self._span_parent = array.array("q")
        self._span_start = array.array("d")
        self._span_end = array.array("d")
        self._patched = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _enter(self, idx):
        seq = self.spans
        self.spans += 1
        self._stack.append([idx, perf_counter(), 0.0, seq])

    def _exit(self):
        end = perf_counter()
        idx, start, child, seq = self._stack.pop()
        dur = end - start
        self.self_s[idx] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self._span_seq) < SPAN_CAP:
            self._span_name.append(idx)
            self._span_seq.append(seq)
            self._span_parent.append(parent)
            self._span_start.append(start)
            self._span_end.append(end)
        else:
            self.spans_dropped += 1

    # -- wrappers --------------------------------------------------------

    def _wrap_function(self, idx, fn):
        tracer = self
        count = COUNTS.get(self.names[idx], (None, None))[1]

        def traced(*args, **kwargs):
            tracer.calls[idx] += 1
            tracer._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if count is not None:
                tracer.counts[idx] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, idx, fn):
        tracer = self

        def steps(gen):
            try:
                while True:
                    tracer._enter(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counts[idx] += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            tracer.calls[idx] += 1
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        _import_all_rmtt()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rmtt" or name.startswith("rmtt."))]
        for idx, (name, module, attr) in enumerate(TARGETS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap_function(idx, original))
                continue
            original = getattr(owner, attr)
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap_function
            traced = wrap(idx, original)
            bound = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, traced)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module}.{attr} is bound nowhere")

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -- results ------------------------------------------------------------

    def metrics(self, rounds):
        """Per-round means of every per-layer metric."""
        out = {}
        for idx, (name, _, _) in enumerate(TARGETS):
            out[f"{name}.calls"] = self.calls[idx] / rounds
            out[f"{name}.self_s"] = self.self_s[idx] / rounds
            if name in COUNTS:
                out[f"{name}.{COUNTS[name][0]}"] = self.counts[idx] / rounds
        checks = out["structures.check_structure.calls"]
        found = out["structures.find_structure.found"]
        out["structures.found_per_candidate"] = found / checks if checks else 0.0
        return out

    def write_spans(self, path):
        """The recorded spans as JSON: one row per span, [seq, layer,
        parent seq or -1, start s, end s], times relative to the first
        span's start."""
        t0 = min(self._span_start) if self._span_start else 0.0
        rows = zip(self._span_seq, self._span_name, self._span_parent,
                   self._span_start, self._span_end)
        with open(path, "w") as fh:
            fh.write('{"layers": ' + json.dumps(self.names))
            fh.write(', "dropped": %d, "spans": [\n' % self.spans_dropped)
            first = True
            for seq, idx, parent, start, end in rows:
                fh.write(("" if first else ",\n")
                         + "[%d,%d,%d,%.7f,%.7f]" % (seq, idx, parent, start - t0, end - t0))
                first = False
            fh.write("\n]}\n")
