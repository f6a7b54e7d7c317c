"""Suite reports at small seeded settings, compared byte for byte.

Every report is deterministic for a fixed seed and configuration, so a
refactor that keeps behaviour keeps these bytes.  The reports in
``golden/suite_reports.json`` were recorded with ``python
tests/test_suite_golden.py``; re-record only when a report changes on
purpose.
"""

import json
import pathlib

import pytest

from clubcat.formats import to_json_string
from clubcat.suites import run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden" / "suite_reports.json"

# (suite, seed, samples, trunc); None keeps the suite's default
CASES = [
    ("sset-laws", 0, 1, 1),
    ("sset-laws", 0, 2, 2),
    ("sset-laws", 1, 2, 2),
    ("sset-laws", 0, 1, 3),
    ("sset-laws", 0, 1, 4),
    ("algebra-laws", 0, 1, 2),
    ("algebra-laws", 1, 1, 2),
    ("stability", 0, 4, 2),
    ("stability", 1, 4, 2),
    ("club-check", 0, None, None),
    ("operad-bijection", 0, 2, None),
    ("operad-bijection", 1, 2, None),
    ("operad-bijection", 2, 2, None),
    ("operad-bijection", 3, 2, None),
    ("operad-bijection", 4, 2, None),
    ("operad-bijection", 5, 2, None),
    ("monoidal-laws", 0, 1, None),
    ("monoidal-laws", 1, 1, None),
    ("monoidal-laws", 2, 2, None),
    ("monoidal-laws", 9, 5, None),
]


def _case_id(case):
    name, seed, samples, trunc = case
    return f"{name}:seed={seed}:samples={samples}:trunc={trunc}"


def _report_text(case):
    name, seed, samples, trunc = case
    return to_json_string(run_suite(name, seed=seed, samples=samples,
                                    trunc=trunc))


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(_case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_suite_report_matches_golden(case):
    assert _report_text(case) == _golden()[_case_id(case)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({_case_id(c): _report_text(c) for c in CASES}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
