"""`rmtt.cli.main` called in-process, as the benchmark and the fuzz tests
call it: one argument parser shared by every call, each input file read
once and hashed as read, one signature parse per `correspondence`, and
`--model-out` documents written as `json.dumps(doc, indent=1)` writes them.
"""

import argparse
import ast
import builtins
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rmtt.cli
from rmtt.cli import build_parser, main
from rmtt.kernel import load_signature, parse_signature, shipped_signature_text
from rmtt.models import heart, initial_model, model_from_json, model_to_json

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
BASE = GOLDEN / "corpus" / "base_delta1.json"


def run_main(*argv):
    """main(argv) with stdout captured: the status and the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([str(a) for a in argv])
    return status, json.loads(out.getvalue())


def parse(parser, argv):
    """What parser makes of argv: ("ok", vars of the namespace) or
    ("exit", code), with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = ("ok", vars(parser.parse_args(argv)))
        except SystemExit as e:
            outcome = ("exit", e.code)
    return outcome, out.getvalue(), err.getvalue()


PARSED = [
    ["check-sig", "itth"],
    ["--depth", "1", "check-sig", "itth"],
    ["check-sig", "itth", "--depth", "3", "--seed", "7"],
    ["--fuel", "5", "normalize", "itth", "tt", "--fuel", "6"],
    ["classifier", "b.json", "--iso-budget", "9"],
    ["--iso-budget", "4", "structures", "b.json"],
    ["check-model", "m.json", "--out", "r.json"],
    ["heart", "m.json", "--model-out", "h.json"],
    ["il", "m.json", "--depth", "1"],
    ["initial-model", "tthg", "--model-out", "m.json", "--depth", "1"],
    ["--seed", "3", "correspondence", "itth"],
    ["lifting", "--depth", "0"],
    ["pushout", "itth", "cof.json", "--model-out", "s.sig"],
    ["suite", "--only", "3,4"],
    ["corpus", "--dir", "d"],
    ["--out", "r.json", "corpus"],
]
HELP = [["--help"], ["structures", "--help"]]
REFUSED = [
    [],
    ["check-sig"],
    ["pushout", "itth"],
    ["check-sig", "itth", "--frobnicate"],
    ["--depth", "-1", "check-sig", "itth"],
    ["check-sig", "itth", "--iso-budget", "-3"],
    ["--fuel", "x", "normalize", "itth", "tt"],
    ["no-such-command"],
    ["check-sig", "itth", "--model-out", "m.json"],
]


def test_shared_parser_parses_as_a_fresh_one():
    """Over every subcommand, flags on either side of it, help and
    argparse's refusals, the shared parser gives the namespace, exit
    status and output a freshly built parser gives, call after call."""
    shared = build_parser()
    results = {}
    for _ in range(2):
        for argv in PARSED + HELP + REFUSED:
            results[tuple(argv)] = parse(shared, argv)
            assert results[tuple(argv)] == parse(build_parser.__wrapped__(), argv), argv
    assert build_parser() is shared
    commands = {results[tuple(argv)][0][1]["fn"] for argv in PARSED}
    assert commands == {getattr(rmtt.cli, n) for n in dir(rmtt.cli) if n.startswith("cmd_")}
    assert all(results[tuple(argv)][0] == ("exit", 0) for argv in HELP)
    assert all(results[tuple(argv)][0] == ("exit", 2) for argv in REFUSED)


def test_no_value_leaks_between_calls():
    assert run_main("--depth", "1", "check-sig", "tthg")[1]["budgets"]["depth"] == 1
    assert run_main("check-sig", "tthg")[1]["budgets"]["depth"] == 2
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as e:
        main(["--seed", "5", "check-sig"])
    assert e.value.code == 2
    status, rep = run_main("check-sig", "tthg")
    assert status == 0 and rep["seed"] == 0 and rep["budgets"]["depth"] == 2


def test_the_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    run_main("check-sig", "tthg")
    assert built
    del built[:]
    for argv in (["check-sig", "itth"], ["--depth", "1", "check-sig", "tthg"], ["normalize", "itth", "tt"]):
        run_main(*argv)
    assert built == []
    assert build_parser.cache_info().misses == 1
    # and only main asks for it
    callers = []
    for path in sorted((REPO / "src" / "rmtt").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name) and node.func.id == "build_parser"]
    assert callers == ["main"]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import rmtt.cli\n"
        "print(len(made), rmtt.cli.build_parser.cache_info().currsize)\n"
    )
    src = str(REPO / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_correspondence_parses_its_signature_once(monkeypatch):
    calls = []

    def spy(text):
        calls.append(text)
        return parse_signature(text)

    for module in [m for name, m in sys.modules.items() if name == "rmtt" or name.startswith("rmtt.")]:
        for attr, value in list(vars(module).items()):
            if value is parse_signature:
                monkeypatch.setattr(module, attr, spy)
    status, rep = run_main("correspondence", "itth", "--depth", "1")
    assert status == 0 and rep["result"]["failures"] == []
    assert calls == [shipped_signature_text("itth")]


@pytest.fixture
def inputs(tmp_path):
    """One file of each kind a subcommand reads."""
    sig = tmp_path / "itth.sig"
    sig.write_text(shipped_signature_text("itth"))
    base = tmp_path / "base.json"
    base.write_bytes(BASE.read_bytes())
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_to_json(initial_model(load_signature("tthg"), 1)), indent=1) + "\n")
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps({"attachments": [{"length": 0, "top": "Ty", "terms": []}]}))
    return {"sig": sig, "base": base, "model": model, "cof": cof}


@pytest.mark.parametrize("argv", [
    ("check-sig", "{sig}"),
    ("normalize", "{sig}", "tt"),
    ("--depth", "1", "initial-model", "{sig}"),
    ("correspondence", "{sig}"),
    ("classifier", "{base}"),
    ("structures", "{base}"),
    ("check-model", "{model}"),
    ("heart", "{model}"),
    ("--depth", "1", "il", "{model}"),
    ("pushout", "{sig}", "{cof}"),
], ids=lambda argv: next(a for a in argv if not a.startswith("-") and not a.isdigit()))
def test_each_input_is_read_once(argv, inputs, monkeypatch):
    """Each input file is opened once, and its recorded hash is of the
    bytes that were read."""
    opened = []
    real = io.open

    def spy(file, *args, **kw):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real(file, *args, **kw)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    files = {k: str(v) for k, v in inputs.items()}
    rep = run_main(*(a.format(**files) for a in argv))[1]
    named = [files[a[1:-1]] for a in argv if a.startswith("{")]
    assert named and [p for p in opened if p in files.values()] == named
    hashes = [hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest() for p in named]
    assert list(rep["inputs"].values()) == hashes


def test_model_out_is_the_indented_dump(tmp_path):
    m, h = tmp_path / "m.json", tmp_path / "h.json"
    assert run_main("--depth", "1", "initial-model", "itth", "--model-out", m)[0] == 0
    doc = model_to_json(initial_model(load_signature("itth"), 1))
    assert m.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()
    assert run_main("heart", m, "--model-out", h)[0] == 0
    doc = model_to_json(heart(model_from_json(json.loads(m.read_text()))))
    assert h.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()
