import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd=None):
    # the CLI runs from this checkout's src/, as the tests do
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rmtt.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc


def report(proc):
    return json.loads(proc.stdout)


def test_check_sig_shipped_ok():
    proc = run_cli("check-sig", "itth")
    assert proc.returncode == 0
    assert report(proc)["result"]["valid"]


def test_check_sig_type_error(tmp_path):
    bad = tmp_path / "bad.sig"
    bad.write_text("T : sort\nc : (x : T) -> U\n")
    proc = run_cli("check-sig", str(bad))
    assert proc.returncode == 1


def test_check_sig_malformed(tmp_path):
    bad = tmp_path / "bad.sig"
    bad.write_text("T :::\n")
    proc = run_cli("check-sig", str(bad))
    assert proc.returncode == 2


def test_normalize_normal_form_unchanged():
    proc = run_cli("normalize", "itth", "tt")
    assert proc.returncode == 0
    res = report(proc)["result"]
    assert res["normal_form"] == "tt"
    assert res["changed"] is False


def test_normalize_budget_inconclusive(tmp_path):
    sig = tmp_path / "loop.sig"
    sig.write_text("T : sort\nc : T\nloop : (x : T) -> T\nloop(x) ~> loop(loop(x))\n")
    proc = run_cli("--fuel", "40", "normalize", str(sig), "loop(c)")
    assert proc.returncode == 3


def test_classifier_reports_fiber_sizes(tmp_path):
    run_cli("corpus", "--dir", str(tmp_path))
    proc = run_cli("classifier", str(tmp_path / "base_delta1.json"))
    assert proc.returncode == 0
    assert report(proc)["result"]["omega_fiber_sizes"] == [1, 2]


def test_classifier_malformed_input(tmp_path):
    f = tmp_path / "x.json"
    f.write_text("{not json")
    assert run_cli("classifier", str(f)).returncode == 2


def test_initial_model_and_check_model_pipeline(tmp_path):
    out = tmp_path / "m.json"
    proc = run_cli("--depth", "1", "initial-model", "tthg", "--model-out", str(out))
    assert proc.returncode == 0
    proc2 = run_cli("check-model", str(out))
    assert proc2.returncode == 0
    proc3 = run_cli("--depth", "1", "il", str(out))
    assert proc3.returncode == 0
    assert report(proc3)["result"]["sizes"] == [1, 0]
    proc4 = run_cli("heart", str(out))
    assert proc4.returncode == 0
    assert report(proc4)["result"]["democratic"] is True


def test_pushout_subcommand(tmp_path):
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps({
        "attachments": [
            {"length": 0, "top": "Ty", "terms": []},
            {"length": 0, "top": "El", "terms": ["att0"]},
        ]
    }))
    proc = run_cli("pushout", "itth", str(cof))
    assert proc.returncode == 0
    assert report(proc)["result"]["added"] == ["att0", "att1"]


def test_corpus_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli("corpus", "--dir", str(d1))
    run_cli("corpus", "--dir", str(d2))
    for f in sorted(d1.iterdir()):
        assert (d2 / f.name).read_bytes() == f.read_bytes()


def test_structures_rejects_non_univalent_base(tmp_path):
    from rmtt.corpus import two_element_group

    base = tmp_path / "z2.json"
    base.write_text(json.dumps(two_element_group().to_json()))
    out = tmp_path / "r.json"
    proc = run_cli("structures", str(base), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert "univalent" in rep["result"]["error"]


def test_suite_subset():
    proc = run_cli("suite", "--only", "3")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["result"]["criteria"]["3"]["ok"]


def test_suite_report_keeps_detail():
    reports = [report(run_cli("suite", "--only", "7,8")) for _ in range(2)]
    for rep in reports:
        for criterion in rep["result"]["criteria"].values():
            del criterion["elapsed_s"]
    assert reports[0] == reports[1]
    assert reports[0]["result"]["criteria"]["8"]["detail"]["rows"]


@pytest.mark.parametrize(
    "golden,args",
    [
        ("classifier_delta1.json", ("classifier", str(GOLDEN / "corpus" / "base_delta1.json"))),
        ("check_sig_itth.json", ("check-sig", "itth")),
        ("normalize_tt.json", ("normalize", "itth", "tt")),
    ],
)
def test_golden_reports(golden, args, tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == (GOLDEN / golden).read_text()


def _classifier_model_doc():
    from rmtt.fincat import delta1
    from rmtt.kernel import load_signature
    from rmtt.models import classifier_model, model_to_json

    return model_to_json(classifier_model(load_signature("tthg"), delta1()))


def _drop_action_entry(doc):
    total = doc["sorts"]["El"]["total"]
    arrow = next(a for a, rows in total["action"].items() if rows)
    total["action"][arrow].pop()


def _repeat_fibre_element(doc):
    total = doc["sorts"]["El"]["total"]
    fibre = next(f for f in total["fibers"].values() if f)
    fibre.append(fibre[0])


@pytest.mark.parametrize("mutate", [_drop_action_entry, _repeat_fibre_element])
def test_check_model_rejects_malformed_presheaf(mutate, tmp_path):
    doc = _classifier_model_doc()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    assert run_cli("check-model", str(good)).returncode == 0
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    proc = run_cli("check-model", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert "presheaf" in rep["result"]["error"] or "fibre" in rep["result"]["error"]


@pytest.mark.parametrize(
    "args",
    [
        ("initial-model", "itth", "--depth", "-1"),
        ("--fuel", "-5", "normalize", "itth", "tt"),
        ("classifier", str(GOLDEN / "corpus" / "base_delta1.json"), "--iso-budget", "-1"),
        ("il", "{model}", "--depth", "-3"),
    ],
)
def test_negative_budgets_rejected(args, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_classifier_model_doc()))
    proc = run_cli(*(a.format(model=model) for a in args))
    assert proc.returncode == 2
    assert "must not be negative" in proc.stderr
    assert "Traceback" not in proc.stderr


def _expect_malformed(proc, out, what):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert rep["result"]["error"].startswith(f"malformed {what} document")


@pytest.mark.parametrize("command", ["classifier", "structures"])
def test_base_document_shape_checked(command, tmp_path):
    doc = json.loads((GOLDEN / "corpus" / "base_delta1.json").read_text())
    doc["objects"] = 5
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli(command, str(base), "--out", str(out)), out, "base")


@pytest.mark.parametrize(
    "field,value",
    [("sorts", []), ("depth", "x"), ("depth", -1), ("terminal", "nowhere")],
)
@pytest.mark.parametrize("command", ["check-model", "heart", "il"])
def test_model_document_shape_checked(command, field, value, tmp_path):
    doc = _classifier_model_doc()
    doc[field] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli(command, str(model), "--out", str(out)), out, "model")


def _bad_element_id(doc):
    fibre = next(f for f in doc["sorts"]["El"]["tele_obj"]["fibers"].values() if f)
    fibre[0] = {"t": 5}


def _bad_telescope(doc):
    doc["sorts"]["El"]["tele"] = [5]


@pytest.mark.parametrize("mutate,error", [(_bad_element_id, "bad element id"),
                                          (_bad_telescope, "bad expression encoding")])
@pytest.mark.parametrize("command", ["check-model", "heart", "il"])
def test_model_document_decoding_checked(command, mutate, error, tmp_path):
    doc = _classifier_model_doc()
    mutate(doc)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    proc = run_cli(command, str(model), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert rep["result"]["error"].startswith(error)


def test_model_witness_rows_name_known_ids(tmp_path):
    doc = _classifier_model_doc()
    doc["sorts"]["El"]["witness"][0][2] = "nowhere"
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli("heart", str(model), "--out", str(out)), out, "model")


DEEP = 3000


def _deep_signature(tmp_path):
    sig = tmp_path / "deep.sig"
    sig.write_text("A : sort\nf : (x : A) -> A\nc : A\nB : (x : A) -> sort\n"
                   f"d : B({'f(' * DEEP}c{')' * DEEP})\n")
    return sig


@pytest.mark.parametrize(
    "args",
    [
        ("check-sig", "{sig}"),
        ("normalize", "tthg", "(" * DEEP + "x" + ")" * DEEP),
        ("normalize", "itth", "El(" * DEEP + "Unit" + ")" * DEEP),
        ("pushout", "itth", "{cof}"),
        ("--depth", "1", "initial-model", "{sig}"),
        ("correspondence", "{sig}"),
    ],
    ids=["check-sig", "normalize-parens", "normalize-El", "pushout", "initial-model", "correspondence"],
)
def test_deep_nesting_is_malformed(args, tmp_path):
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps({"attachments": [
        {"length": 0, "top": "Ty", "terms": []},
        {"length": 0, "top": "El", "terms": ["(" * DEEP + "att0" + ")" * DEEP]},
    ]}))
    out = tmp_path / "r.json"
    proc = run_cli(*(a.format(sig=_deep_signature(tmp_path), cof=cof) for a in args), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert "nested too deeply" in rep["result"]["error"]


@pytest.mark.parametrize(
    "doc,bad",
    [
        ({"attachments": 5}, "attachments"),
        ([1], "attachments"),
        ({"attachments": [1]}, "attachments[0]"),
        ({"attachments": [{"length": "x", "top": "Ty"}]}, "attachments[0].length"),
        ({"attachments": [{"length": 0, "top": "bogus"}]}, "attachments[0].top"),
        ({"attachments": [{"length": 0, "top": "Ty", "terms": [5]}]}, "attachments[0].terms"),
    ],
)
def test_cofibration_document_shape_checked(doc, bad, tmp_path):
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    proc = run_cli("pushout", "itth", str(cof), "--out", str(out))
    _expect_malformed(proc, out, "cofibration")
    assert json.loads(out.read_text())["result"]["error"].endswith(f"bad {bad}")


def test_cofibration_attachment_checked_against_its_chain(tmp_path):
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps({"attachments": [{"length": 1, "top": "Ty", "terms": []}]}))
    out = tmp_path / "r.json"
    proc = run_cli("pushout", "itth", str(cof), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must instantiate the source chain" in json.loads(out.read_text())["result"]["error"]


def test_suite_reports_no_unused_budgets():
    rep = report(run_cli("--depth", "5", "--fuel", "7", "suite", "--only", "3"))
    assert rep["budgets"] == {}
    assert rep["result"]["criteria"]["3"]["ok"]


def test_budget_escaping_enumeration_is_inconclusive(tmp_path):
    # g's result type mentions the looping f(x), so enumerating the
    # initial model's types runs out of fuel
    sig = tmp_path / "loop.sig"
    sig.write_text("A : sort\nB : (x : A) -> sort\na : A\nf : (x : A) -> A\n"
                   "g : (x : A) -> B(f(x))\nf(x) ~> f(x)\n")
    out = tmp_path / "r.json"
    proc = run_cli("--depth", "1", "initial-model", str(sig), "--out", str(out))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(out.read_text())["status"] == "inconclusive"
