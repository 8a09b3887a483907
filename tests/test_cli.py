import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from rmtt.kernel.check import MAX_NESTING

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


def test_iso_budget_bounds_every_candidate_structures_tries():
    """The univalence, classification and structure searches that
    `rmtt structures` nests charge one count, so the least
    `--iso-budget` that passes is the number of candidates the command
    tries, and one less exits 3 with a report naming search and limit."""
    from rmtt.fincat import FiniteCategory
    from rmtt.rfib import rep_map_classifier
    from rmtt.search import Budget
    from rmtt.structures import structure_criteria

    path = GOLDEN / "corpus" / "base_delta1.json"
    cls = rep_map_classifier(FiniteCategory.from_json(json.loads(path.read_text())))
    budget = Budget("structure search", 10**9)
    structure_criteria(cls.generic, cls.witness, budget=budget)
    tried = budget.steps
    proc = run_cli("structures", str(path), "--iso-budget", str(tried - 1))
    assert proc.returncode == 3
    assert report(proc)["status"] == "inconclusive"
    assert report(proc)["result"]["error"] == f"structure search exceeded its budget of {tried - 1} steps"
    proc = run_cli("structures", str(path), "--iso-budget", str(tried))
    assert proc.returncode == 0
    assert all(v["agree"] for v in report(proc)["result"].values())


def test_inconclusive_reports_name_their_limit(tmp_path):
    sig = tmp_path / "loop.sig"
    sig.write_text("T : sort\nc : T\nloop : (x : T) -> T\nloop(x) ~> loop(loop(x))\n")
    proc = run_cli("--fuel", "40", "normalize", str(sig), "loop(c)")
    assert proc.returncode == 3
    assert report(proc)["result"]["error"].startswith("no normal form within 40 rewrite steps near ")
    proc = run_cli("--depth", "3", "initial-model", "itth")
    assert proc.returncode == 3
    assert "max_arrows=3000" in report(proc)["result"]["error"]


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


@pytest.fixture(scope="module")
def initial_model_doc(tmp_path_factory):
    """A truncated model document that `check-model` accepts."""
    from rmtt.kernel import load_signature
    from rmtt.models import initial_model, model_to_json

    doc = model_to_json(initial_model(load_signature("itth"), 1, type_size=4, term_size=4))
    model = tmp_path_factory.mktemp("initial") / "m.json"
    model.write_text(json.dumps(doc))
    assert run_cli("check-model", str(model)).returncode == 0
    return doc


def _generic_outside_total_fibre(doc):
    doc["sorts"]["El"]["witness"][0][4] = "nowhere"


def _instance_outside_telescope_fibre(doc):
    doc["sorts"]["El"]["witness"][0][1] = "nowhere"


def _projection_between_other_objects(doc):
    row = doc["sorts"]["El"]["witness"][0]
    stage, obj = row[0], row[2]
    row[3] = next(a["id"] for a in doc["base"]["arrows"] if (a["src"], a["tgt"]) != (obj, stage))


@pytest.mark.parametrize("mutate", [_generic_outside_total_fibre, _instance_outside_telescope_fibre,
                                    _projection_between_other_objects])
@pytest.mark.parametrize("command", ["check-model", "heart", "il"])
def test_model_witness_rows_checked(initial_model_doc, command, mutate, tmp_path):
    doc = copy.deepcopy(initial_model_doc)
    mutate(doc)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli(command, str(model), "--out", str(out)), out, "model")
    assert json.loads(out.read_text())["result"]["error"].endswith("bad El witness rows")


def _same_stage_rows(rows):
    """Two rows of a term table at one stage."""
    return next((r1, r2) for k, r1 in enumerate(rows) for r2 in rows[k + 1:] if r1[0] == r2[0])


def _term_row_at_unknown_stage(doc):
    row = copy.deepcopy(doc["terms"]["Id"][0])
    row[0] = "NOPE"
    doc["terms"]["Id"].append(row)


def _term_row_key_repeated(doc):
    # the key of one row with the value of another, ahead of both
    r1, r2 = _same_stage_rows(doc["terms"]["Id"])
    doc["terms"]["Id"].insert(0, [r1[0], r1[1], r2[2]])


def _family_row_key_repeated(doc):
    rows = next(rows for rows in doc["sorts"]["El"]["family"].values() if len(rows) > 1)
    rows.insert(0, [rows[0][0], rows[1][1]])


def _action_row_key_repeated(doc):
    rows = next(rows for rows in doc["sorts"]["El"]["total"]["action"].values() if len(rows) > 1)
    rows.insert(0, [rows[0][0], rows[1][1]])


def _witness_row_key_repeated(doc):
    rows = doc["sorts"]["El"]["witness"]
    rows.insert(0, rows[0][:2] + rows[-1][2:])


@pytest.mark.parametrize("mutate,field", [(_term_row_at_unknown_stage, "Id term rows"),
                                          (_term_row_key_repeated, "Id term rows"),
                                          (_family_row_key_repeated, "El family rows"),
                                          (_action_row_key_repeated, "El total action rows"),
                                          (_witness_row_key_repeated, "El witness rows")])
@pytest.mark.parametrize("command", ["check-model", "heart", "il"])
def test_model_rows_name_known_stages_and_distinct_keys(initial_model_doc, command, mutate, field, tmp_path):
    """A term row must name a stage of the base, and no two rows of one
    table may share a key: loading would keep only the last of them."""
    doc = copy.deepcopy(initial_model_doc)
    mutate(doc)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli(command, str(model), "--out", str(out)), out, "model")
    assert json.loads(out.read_text())["result"]["error"].endswith(f"bad {field}")


def _el_not_representable(doc):
    doc["sorts"]["El"]["rep"] = False
    doc["sorts"]["El"]["witness"] = None


def _el_without_telescope(doc):
    doc["sorts"]["El"]["tele"] = []


@pytest.fixture(scope="module")
def itth_classifier_doc():
    from rmtt.fincat import delta1
    from rmtt.kernel import load_signature
    from rmtt.models import classifier_model, model_to_json

    return model_to_json(classifier_model(load_signature("itth"), delta1()))


@pytest.mark.parametrize("mutate,field", [(_el_not_representable, "El rep"), (_el_without_telescope, "El tele")])
@pytest.mark.parametrize("command", ["check-model", "heart", "il"])
def test_model_sorts_agree_with_their_declarations(itth_classifier_doc, command, mutate, field, tmp_path):
    """A sort's `rep` and `tele` must be its declaration's in the
    document's own signature."""
    doc = copy.deepcopy(itth_classifier_doc)
    mutate(doc)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    _expect_malformed(run_cli(command, str(model), "--out", str(out)), out, "model")
    assert json.loads(out.read_text())["result"]["error"].endswith(f"bad {field}")


def test_report_hashes_the_signature_it_reads(tmp_path):
    """A shipped name is read as the shipped signature, also where a file
    of that name lies in the working directory, and the report says so."""
    (tmp_path / "itth").write_text("garbage ((\n")
    proc = run_cli("check-sig", "itth", cwd=tmp_path)
    assert proc.returncode == 0
    assert report(proc)["inputs"] == {"signature": "shipped:itth"}
    sig = tmp_path / "mine.sig"
    sig.write_text("T : sort\n")
    proc = run_cli("check-sig", "mine.sig", cwd=tmp_path)
    assert proc.returncode == 0
    assert report(proc)["inputs"] == {"signature": hashlib.sha256(b"T : sort\n").hexdigest()}


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


@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1], ids=["at-limit", "past-limit"])
def test_normalize_nesting_limit(levels, tmp_path):
    """f(f(...c...)) with MAX_NESTING levels normalizes, and one level more
    is malformed; neither may end in a traceback from a recursive pass
    (normalize, pretty) that runs out of stack."""
    sig = tmp_path / "endo.sig"
    sig.write_text("Ty : sort\nEl : (x : Ty) -> rep-sort\nA : Ty\nc : El(A)\nf : (x : El(A)) -> El(A)\n")
    term = "f(" * (levels - 1) + "c" + ")" * (levels - 1)
    out = tmp_path / "r.json"
    proc = run_cli("normalize", str(sig), term, "--out", str(out))
    assert "Traceback" not in proc.stderr
    res = json.loads(out.read_text())["result"]
    if levels == MAX_NESTING:
        assert proc.returncode == 0
        assert res["normal_form"] == term
    else:
        assert proc.returncode == 2
        assert "nested too deeply" in res["error"]


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


# a sort of types, one type with an element and a free endomorphism of it
ENDOMORPHISM = "Ty : sort\nEl : (A : Ty) -> rep-sort\nA : Ty\nc : El(A)\nf : (x : El(A)) -> El(A)\n"


@pytest.mark.parametrize(
    "term,error",
    [("f(c)(c)", "non-function"), (r"\(x : Ty) => x", "representable sort")],
    ids=["value-applied", "lambda-over-sort"],
)
def test_normalize_type_checks_its_term(term, error, tmp_path):
    sig = tmp_path / "endo.sig"
    sig.write_text(ENDOMORPHISM)
    out = tmp_path / "r.json"
    proc = run_cli("normalize", str(sig), term, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert error in rep["result"]["error"]


def test_initial_model_of_free_endomorphism_is_inconclusive(tmp_path):
    # composing ever longer powers of f would nest past MAX_NESTING
    # before the arrow budget runs out
    sig = tmp_path / "endo.sig"
    sig.write_text(ENDOMORPHISM)
    out = tmp_path / "r.json"
    proc = run_cli("--depth", "1", "initial-model", str(sig), "--out", str(out))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "inconclusive"
    assert "nest past" in rep["result"]["error"]


NOT_UTF8 = b"Ty : sort\n\xff\xfe : Ty\n"


@pytest.mark.parametrize(
    "args",
    [
        ("check-sig", "{sig}"),
        ("normalize", "{sig}", "c"),
        ("--depth", "1", "initial-model", "{sig}"),
        ("correspondence", "{sig}"),
    ],
    ids=["check-sig", "normalize", "initial-model", "correspondence"],
)
def test_signature_not_utf8_is_malformed(args, tmp_path):
    sig = tmp_path / "bad.sig"
    sig.write_bytes(NOT_UTF8)
    out = tmp_path / "r.json"
    proc = run_cli(*(a.format(sig=sig) for a in args), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "malformed"
    assert "can't decode" in rep["result"]["error"]


@pytest.mark.parametrize("only,bad", [("x", "'x'"), ("99", "99"), ("3,99", "99")])
def test_suite_only_names_known_criteria(only, bad):
    proc = run_cli("suite", "--only", only)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = report(proc)
    assert rep["status"] == "malformed"
    assert bad in rep["result"]["error"]


def test_correspondence_names_the_signatures_it_runs():
    # tthr1 is shipped, but criterion 6 does not run on it
    proc = run_cli("correspondence", "tthr1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = report(proc)
    assert rep["status"] == "malformed"
    assert rep["result"]["error"] == "correspondence runs on the signatures tthg, etth1, itth, itthpi"


def test_lifting_at_depth_0_is_inconclusive():
    # criterion 9's collapse maps a depth-1 initial model into a depth-0
    # one, which lacks the objects that represent its contexts
    proc = run_cli("--depth", "0", "lifting")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    rep = report(proc)
    assert rep["status"] == "inconclusive"
    assert "truncated at depth 0" in rep["result"]["error"]


@pytest.mark.parametrize(
    "args",
    [
        ("--depth", "1", "initial-model", "tthg", "--model-out", "{missing}/m.json"),
        ("heart", "{model}", "--model-out", "{missing}/m.json"),
        ("pushout", "itth", "{cof}", "--model-out", "{missing}/s.sig"),
        ("corpus", "--dir", "{model}/corpus"),
    ],
    ids=["initial-model", "heart", "pushout", "corpus"],
)
def test_unwritable_output_is_malformed(args, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_classifier_model_doc()))
    cof = tmp_path / "cof.json"
    cof.write_text(json.dumps({"attachments": [{"length": 0, "top": "Ty", "terms": []}]}))
    proc = run_cli(*(a.format(missing=tmp_path / "missing", model=model, cof=cof) for a in args))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = report(proc)
    assert rep["status"] == "malformed"
    assert str(tmp_path) in rep["result"]["error"]


def test_unwritable_report_path(tmp_path):
    proc = run_cli("check-sig", "itth", "--out", str(tmp_path / "missing" / "r.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "cannot write the report" in proc.stderr


def _drop_composite(doc):
    doc["base"]["compose"].remove(["id1", "u", "u"])


def _drop_sorts(doc):
    doc["sorts"] = {}


@pytest.mark.parametrize(
    "mutate,error",
    [(_drop_composite, "composable pair without composite"), (_drop_sorts, "bad sorts")],
    ids=["base-not-a-category", "sorts-missing"],
)
@pytest.mark.parametrize("command", ["check-model", "il"])
def test_model_document_checked_against_its_signature_and_base(command, mutate, error, tmp_path):
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
    assert error in rep["result"]["error"]


@pytest.mark.parametrize("command", ["classifier", "structures"])
def test_base_composite_of_unknown_arrow_is_malformed(command, tmp_path):
    doc = json.loads((GOLDEN / "corpus" / "base_delta1.json").read_text())
    doc["arrows"] = [a for a in doc["arrows"] if a["id"] != "u"]
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    proc = run_cli(command, str(base))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "composite of an unknown arrow" in report(proc)["result"]["error"]
