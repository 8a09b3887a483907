"""The exit-code contract (0 ok, 1 fail, 2 malformed, 3 inconclusive)
under fuzzed input, and the guard that keeps `cli.main` the only place
that maps an outcome to a status.

Each fuzz case mutates a known-good input (signature text, a `normalize`
term, a base, model or cofibration document), runs the real subcommands
on it through `rmtt.cli.main` in-process, and checks that no exception
escapes (argparse refusing an argument exits 2 by `SystemExit`), that
the status is one of the four, and that the report says the same.
"""

import ast
import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rmtt.cli
from rmtt.fincat import delta1
from rmtt.kernel import load_signature, shipped_signature_text
from rmtt.models import classifier_model, model_to_json

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
STATUS = {0: "ok", 1: "fail", 2: "malformed", 3: "inconclusive"}

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def test_no_subcommand_catches_exceptions():
    """Every `cmd_*` is straight-line code: only `main` maps an
    exception to a status, so no subcommand keeps its own `try`."""
    tree = ast.parse((REPO / "src" / "rmtt" / "cli.py").read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 13
    offenders = [f.name for f in commands if any(isinstance(n, ast.Try) for n in ast.walk(f))]
    assert offenders == []


def test_one_budget_family():
    """A search is bounded only by a `search.Budget` handed to it: no
    `budget` parameter in the package defaults to a limit of its own.
    Only `search.py` raises `Inconclusive` itself, and each of its two
    subclasses is raised only by the module that defines it."""
    raisers = {"Inconclusive": "search.py", "NormalizationBudget": "kernel/check.py",
               "ModelBudget": "models.py"}
    package = REPO / "src" / "rmtt"
    defaults, raised = [], []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaults += [(where, ast.unparse(d)) for a, d in pairs
                             if a.arg == "budget" and not (isinstance(d, ast.Constant) and d.value is None)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in raisers:
                if raisers[node.func.id] != where:
                    raised.append((where, node.func.id))
    assert defaults == []
    assert raised == []


def run_main(*argv):
    """`rmtt <argv>` in-process; checks the contract and returns the status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = rmtt.cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse refused the arguments
            assert e.code == 2, err.getvalue()
            return 2
    assert status in STATUS
    assert json.loads(out.getvalue())["status"] == STATUS[status]
    return status


# -- mutations ---------------------------------------------------------------

# pieces of the signature and term syntax, so that mutants reach the
# parser and checker and not only the decoder
TOKENS = ["(", ")", ":", ",", "->", "~>", "=>", "\\", "sort", "rep-sort", "\n", " ",
          "x", "Ty", "El", "Unit", "tt", "Id", "refl", "Pi", "lam", "app", "(x : Ty)"]


@st.composite
def mutated_text(draw, seed, raw=False):
    """seed (str) with one to four spans deleted, duplicated or replaced by
    syntax pieces or arbitrary characters; as bytes, possibly not UTF-8,
    when raw."""
    data = seed.encode() if raw else seed
    junk = st.binary(min_size=1, max_size=4) if raw else st.text(min_size=1, max_size=4)
    piece = st.one_of(st.sampled_from([t.encode() if raw else t for t in TOKENS]), junk)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if kind == "delete":
            data = data[:i] + data[j:]
        elif kind == "duplicate":
            data = data[:j] + data[i:j] + data[j:]
        else:
            data = data[:i] + draw(piece) + data[j:]
    return data


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.text(max_size=4),
    st.sampled_from(["o0", "o1", "a0", "Ty", "El", "x", "nowhere"]),
    st.lists(st.integers(-1, 3), max_size=3), st.just({}),
)


@st.composite
def mutated_document(draw, seed):
    """seed (a JSON document) with one to three nodes replaced, dropped or
    copied over a sibling, written out; or its text with a span mangled,
    so that it may not parse or decode at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(mutated_text(json.dumps(seed), raw=True))
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "drop", "copy"]))
        if kind == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif kind == "drop":
            del parent[path[-1]]
        else:
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            parent[path[-1]] = copy.deepcopy(parent[draw(st.sampled_from(keys))])
    return json.dumps(doc).encode()


# -- the inputs --------------------------------------------------------------

NORMALIZE_TERM = ("fst(Unit, \\(x : El(Unit)) => Unit, "
                  "pair(Unit, \\(x : El(Unit)) => Unit, tt, tt))")
COFIBRATION = {"attachments": [{"length": 0, "top": "Ty", "terms": []},
                               {"length": 0, "top": "El", "terms": ["att0"]},
                               {"length": 1, "top": "Ty", "terms": ["att0"]}]}
BASES = [json.loads((GOLDEN / "corpus" / f"base_{n}.json").read_text()) for n in ("delta1", "span")]
MODEL = model_to_json(classifier_model(load_signature("tthg"), delta1()))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, name, data):
    path = workdir / name
    path.write_bytes(data)
    return path


def test_seed_inputs_pass(workdir):
    """The unmutated inputs exit 0, so a mutant's status says something."""
    sig = _write(workdir, "s.sig", shipped_signature_text("itth").encode())
    assert run_main("check-sig", sig) == 0
    assert run_main("normalize", sig, NORMALIZE_TERM) == 0
    for doc in BASES:
        base = _write(workdir, "b.json", json.dumps(doc).encode())
        assert run_main("classifier", base) == 0
        assert run_main("structures", base) == 0
    model = _write(workdir, "m.json", json.dumps(MODEL).encode())
    for args in [("check-model",), ("heart",), ("il", "--depth", 0), ("il", "--depth", 1)]:
        assert run_main(args[0], model, *args[1:]) == 0
    assert run_main("pushout", "itth", _write(workdir, "c.json", json.dumps(COFIBRATION).encode())) == 0


@FUZZ
@given(data=mutated_text(shipped_signature_text("itth"), raw=True))
def test_signature_text_fuzzed(workdir, data):
    sig = _write(workdir, "s.sig", data)
    run_main("check-sig", sig)
    run_main("normalize", sig, NORMALIZE_TERM)


@FUZZ
@given(term=mutated_text(NORMALIZE_TERM))
def test_normalize_term_fuzzed(term):
    run_main("normalize", "itth", term)


@FUZZ
@given(data=st.sampled_from(BASES).flatmap(mutated_document))
def test_base_document_fuzzed(workdir, data):
    base = _write(workdir, "b.json", data)
    run_main("classifier", base)
    run_main("structures", base)


@FUZZ
@given(data=mutated_document(MODEL))
def test_model_document_fuzzed(workdir, data):
    model = _write(workdir, "m.json", data)
    run_main("check-model", model)
    run_main("heart", model)
    run_main("il", model, "--depth", 0)
    run_main("il", model, "--depth", 1)


@FUZZ
@given(data=mutated_document(COFIBRATION))
def test_cofibration_document_fuzzed(workdir, data):
    run_main("pushout", "itth", _write(workdir, "c.json", data))
