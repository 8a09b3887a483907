"""The acceptance gate: one test per criterion, run at its stated
tolerance (all checks are discrete and exact).  Criteria with declared
wall-clock limits assert them.  Each test prints a single pass/fail
line so a verbose run reads as a checklist.
"""

import time

import pytest

from rmtt import acceptance
from rmtt.kernel import enumerate_framework_contexts, load_signature

LIMITS_S = {1: 60, 2: 60, 4: 120, 5: 120, 6: 15, 9: 300}


def _run(num, fn, **kw):
    t0 = time.monotonic()
    res = fn(seed=0, **kw)
    elapsed = time.monotonic() - t0
    status = "PASS" if res["ok"] else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.1f}s)")
    assert res["ok"], res["detail"]
    if num in LIMITS_S:
        assert elapsed <= LIMITS_S[num], f"criterion {num} exceeded {LIMITS_S[num]}s"
    return res


def test_criterion_01_polynomial_composition():
    res = _run(1, acceptance.criterion_1)
    assert res["detail"]["pairs"] >= 100


def test_criterion_02_classifier_bijection():
    _run(2, acceptance.criterion_2)


def test_criterion_03_generic_univalence():
    res = _run(3, acceptance.criterion_3)
    names = {name for name, _ in res["detail"]}
    assert {"delta1", "chain2"} <= names  # pinned corpus members


def test_criterion_04_structure_criteria_iff():
    res = _run(4, acceptance.criterion_4)
    kinds = {k for (_, k, _, _) in res["detail"].get("failures", [])} if not res["ok"] else set()
    assert not kinds


def test_criterion_05_kernel_health():
    res = _run(5, acceptance.criterion_5)
    assert all(count == 1000 for count in res["detail"]["counts"].values())


def test_criterion_06_correspondence_at_representables():
    res = _run(6, acceptance.criterion_6)
    assert res["detail"]["checked"] > 0


@pytest.mark.scale
@pytest.mark.parametrize("name", ["itth", "etth1"])
def test_criterion_06_at_depth_3(name):
    """Criterion 6 on every pair of depth-3 contexts: 14 x 14 on itth."""
    res = acceptance.criterion_6(signatures=(name,), depth=3)
    n = len(enumerate_framework_contexts(load_signature(name), 3))
    assert res["ok"], res["detail"]
    assert res["detail"]["checked"] == n * n


def test_criterion_07_heart_coreflection():
    res = _run(7, acceptance.criterion_7)
    assert res["detail"]["cases"] >= 4


def test_criterion_08_initial_model_uniqueness():
    res = _run(8, acceptance.criterion_8)
    assert all(found == 1 for (_, _, found) in res["detail"]["rows"])


def test_criterion_09_lifting_lemma_iff():
    res = _run(9, acceptance.criterion_9)
    assert all(agree for (_, _, _, agree) in res["detail"]["rows"])
    verdicts = {tag: tf for (tag, tf, _, _) in res["detail"]["rows"]}
    assert verdicts["identity"] and verdicts["heart-inclusion"]
    assert not verdicts["initial-to-classifier"]


def test_criterion_10_cofibration_pushouts():
    _run(10, acceptance.criterion_10)
